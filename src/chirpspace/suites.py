"""Named verification suites behind the ``verify`` command.

Each suite runs a handful of residual checks on its own fixed desk-scale
grids and reports one ``CaseResult`` per check, tagged with a human-readable
label of the identity being exercised.  All computations are seeded and
deterministic; reports are byte-stable apart from the runtime fields.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import closedform, quantum, xform
from .grid import PhaseGrid, SampledField, Signal, make_axis, sample_field
from .hermite import hermite_functions

__all__ = [
    "RunConfig",
    "CaseResult",
    "VerificationReport",
    "SUITE_NAMES",
    "run_suite",
]


@dataclass
class RunConfig:
    """Parameters of a verification run.  Every suite's grids, sizes and
    series lengths are fixed in the suite: its tolerances are calibrated to
    them."""

    seed: int = 20240701  # random fields of the roundtrip and parseval suites
    # chirplet-to-kernel identity: angles and the damping ladder
    alphas: tuple[float, ...] = (np.pi / 3, np.pi / 2, 2 * np.pi / 3)
    epsilons: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01)
    # report
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    out_dir: str = "."

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        cfg = cls()
        for key, val in raw.items():
            if key not in names:
                raise ValueError(f"unknown config field {key!r}")
            setattr(cfg, key, _typed(key, getattr(cfg, key), val))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name in ("alphas", "epsilons"):
            vals = getattr(self, name)
            if not all(np.isfinite(vals)):
                raise ValueError(f"config field {name} must be finite, got {vals}")
        if not all(e > 0 for e in self.epsilons):
            raise ValueError(f"config field epsilons must be > 0, got {self.epsilons}")
        # chirplet-monotone compares successive rungs: one rung gives no ratio
        # and a repeated rung a ratio of exactly 1, and either passes vacuously
        if len(self.epsilons) < 2 or len(set(self.epsilons)) < len(self.epsilons):
            raise ValueError("config field epsilons needs at least two values, all distinct, "
                             f"got {self.epsilons}")
        # each alpha names two chirplet cases to 4 decimals: no alpha passes
        # vacuously, and two alphas with one name share a tolerance override
        if len({f"{a:.4f}" for a in self.alphas}) < max(len(self.alphas), 1):
            raise ValueError("config field alphas needs at least one value, all distinct "
                             f"to 4 decimals, got {self.alphas}")
        if self.seed < 0:
            raise ValueError(f"config field seed must be >= 0, got {self.seed}")
        # an infinite tolerance passes any residual and writes a bare Infinity
        if not all(0 <= t < np.inf for t in self.tolerance_overrides.values()):
            raise ValueError("config field tolerance_overrides values must be finite "
                             f"and >= 0, got {self.tolerance_overrides}")
        for a in self.alphas:
            closedform._check_chirplet_alpha(a)


def _typed(key: str, default, val):
    """A JSON config value checked against the type of the field's default:
    lists of numbers for tuples, name -> number objects for dicts."""
    if isinstance(default, tuple):
        if not isinstance(val, list):
            raise ValueError(f"config field {key} must be a list, got {val!r}")
        return tuple(_typed(key, 0.0, v) for v in val)
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ValueError(f"config field {key} must be an object, got {val!r}")
        return {k: _typed(key, 0.0, v) for k, v in val.items()}
    allowed = (int, float) if isinstance(default, float) else type(default)
    if isinstance(val, bool) or not isinstance(val, allowed):
        raise ValueError(
            f"config field {key} must be {type(default).__name__}, got {val!r}")
    try:
        return type(default)(val)
    except OverflowError:
        raise ValueError(f"config field {key} holds an integer beyond the float range") from None


@dataclass
class CaseResult:
    name: str
    identity: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float
    error: str | None = None


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult]
    overall_pass: bool
    config: dict

    def to_dict(self) -> dict:
        cases = []
        for c in self.cases:
            d = dataclasses.asdict(c)
            d["pass"] = d.pop("passed")
            d["residual"] = c.residual if np.isfinite(c.residual) else None  # strict JSON
            cases.append(d)
        return {
            "suite": self.suite,
            "overall_pass": self.overall_pass,
            "config_echo": self.config,
            "cases": cases,
        }


def _cases(cfg: RunConfig, specs, fn) -> list[CaseResult]:
    """Run ``fn`` once, timed; it returns one residual per
    ``(name, identity, tolerance)`` spec, and each case is billed an even share
    of the time.  An exception fails every case with residual inf and its text."""
    t0 = time.perf_counter()
    try:
        residuals, error = [float(r) for r in fn()], None
    except Exception as exc:
        residuals, error = [np.inf] * len(specs), f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1e3 / len(specs)
    results = []
    for (name, identity, tolerance), residual in zip(specs, residuals):
        tol = cfg.tolerance_overrides.get(name, tolerance)
        results.append(CaseResult(name, identity, residual, tol,
                                  error is None and residual <= tol, ms, error))
    return results


def _case(cfg: RunConfig, name: str, identity: str, tolerance: float, fn) -> CaseResult:
    return _cases(cfg, [(name, identity, tolerance)], lambda: [fn()])[0]


def _worst(residuals) -> float:
    """Largest residual, 0.0 for none, NaN if any is NaN (Python's ``max``
    drops a NaN that does not come first)."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def _square_grid(extent: float, n: int) -> PhaseGrid:
    ax = make_axis(-extent, extent, n)
    return PhaseGrid(ax, ax)


def _gaussian_poly_field(grid: PhaseGrid, rng) -> SampledField:
    """Random polynomial (total degree <= 3, complex normal coefficients) times
    exp(-0.6 (p^2 + q^2))."""
    P, Q = grid.meshes()
    vals = np.zeros_like(P, dtype=complex)
    for i in range(4):
        for j in range(4 - i):
            vals += (rng.standard_normal() + 1j * rng.standard_normal()) * P**i * Q**j
    return SampledField(grid, vals * np.exp(-0.6 * (P**2 + Q**2)))


def _random_fields(seed: int):
    """Three seeded random fields on [-6, 6]^2 at 128^2, and the [-10, 10]^2
    grid at 216^2 that the forward transform maps them onto."""
    rng = np.random.default_rng(seed)
    grid = _square_grid(6.0, 128)
    fields = [_gaussian_poly_field(grid, rng) for _ in range(3)]
    return grid, _square_grid(10.0, 216), fields


# ---------------------------------------------------------------------------
# suites

def suite_roundtrip(cfg: RunConfig) -> list[CaseResult]:
    grid, mid, fields = _random_fields(cfg.seed)
    label = "inverse(forward(h)) recovers h (transform invertibility)"

    def run(path):
        fwd, inv = xform._FORWARD[path], xform._INVERSE[path]
        return _worst(np.linalg.norm(inv(fwd(h, mid), grid).values - h.values)
                      / np.linalg.norm(h.values) for h in fields)

    return [
        _case(cfg, "roundtrip-fast", label, 1e-6, lambda: run("fast")),
        _case(cfg, "roundtrip-direct", label, 1e-6, lambda: run("direct")),
    ]


def suite_parseval(cfg: RunConfig) -> list[CaseResult]:
    grid, mid, fields = _random_fields(cfg.seed)
    label = "squared-norm preservation under the transform (Parseval)"

    def run():
        return _worst(xform.parseval_residual(h, mid) for h in fields)

    def run_hg():
        P, Q = grid.meshes()
        hg = SampledField(grid, (P + 1j * Q) * np.exp(-(P**2 + Q**2) / 2))
        return xform.parseval_residual(hg, mid)

    return [
        _case(cfg, "parseval-random", label, 1e-6, run),
        _case(cfg, "parseval-hermite-gaussian", label, 1e-6, run_hg),
    ]


def suite_gaussian(cfg: RunConfig) -> list[CaseResult]:
    grid = _square_grid(8.0, 161)
    out = _square_grid(2.0, 9)
    X, Y = out.meshes()
    label = "Gaussian maps to the closed-form Gaussian-chirp image"
    cases = []
    for lam in (0.5, 1.0, 2.0):
        def run(lam=lam):
            h = sample_field(lambda P, Q: np.exp(-lam * (P**2 + Q**2)), grid)
            num = xform.forward_direct(h, out).values
            ref = closedform.gaussian_transform_closed(lam, X, Y)
            return np.abs(num - ref).max() / np.abs(ref).max()
        cases.append(_case(cfg, f"gaussian-lam-{lam:g}", label, 1e-6, run))
    return cases


def suite_chirplet_kernel(cfg: RunConfig) -> list[CaseResult]:
    out = _square_grid(2.0, 9)
    cgrid = _square_grid(25.0, 801)
    cases = []
    for alpha in cfg.alphas:
        def run_closed(alpha=alpha):
            return closedform.chirplet_identity_residual(alpha, 0.0, None, out).closed_form

        def run_monotone(alpha=alpha):
            rs = [closedform.chirplet_identity_residual(alpha, eps, cgrid, out).quadrature
                  for eps in sorted(cfg.epsilons, reverse=True)]
            return _worst(rs[i + 1] / rs[i] for i in range(len(rs) - 1))

        cases.append(_case(
            cfg, f"chirplet-closed-{alpha:.4f}",
            "chirplet maps onto the scaled fractional-Fourier kernel (closed form)",
            1e-10, run_closed))
        cases.append(_case(
            cfg, f"chirplet-monotone-{alpha:.4f}",
            "regularized-chirplet quadrature residual decreases as damping shrinks",
            1.0, run_monotone))
    return cases


def suite_hermite_oracle(cfg: RunConfig) -> list[CaseResult]:
    xs = make_axis(-3.0, 3.0, 13).values
    X, Y = xs[:, None], xs[None, :]
    cases = []
    for alpha in (0.3, 1.0, np.pi / 2, 2.0, 2.8):
        def run(alpha=alpha):
            S = closedform.frft_kernel_hermite(alpha, X, Y, 1600)
            return np.abs(S - closedform.frft_kernel(alpha, X, Y)).max()
        cases.append(_case(
            cfg, f"oracle-alpha-{alpha:.4f}",
            "kernel closed form agrees with the oscillator-eigenfunction series",
            1e-8, run))

    def run_comp():
        ts = make_axis(-20.0, 20.0, 801)
        tv = ts.values
        xe = make_axis(-2.0, 2.0, 9).values
        Ka = closedform.frft_kernel_hermite(np.pi / 4, xe[:, None], tv[None, :], 300)
        Kb = closedform.frft_kernel_hermite(np.pi / 4, tv[:, None], xe[None, :], 300)
        comp = (Ka * ts.weights) @ Kb
        ref = closedform.frft_kernel(np.pi / 2, xe[:, None], xe[None, :])
        return np.abs(comp - ref).max()

    cases.append(_case(
        cfg, "oracle-composition",
        "kernel angles add under quadrature composition",
        1e-6, run_comp))
    return cases


def _weyl_test_symbol(P, Q):
    return (1 + 0.3 * P + 0.2j * Q + 0.1 * P * Q) * np.exp(-(P**2 + Q**2) / 2)


def suite_weyl(cfg: RunConfig) -> list[CaseResult]:
    sym_grid = PhaseGrid(make_axis(-8.0, 8.0, 161), make_axis(-9.0, 9.0, 289))
    op_axis = make_axis(-9.0, 9.0, 145)      # step 1/8, midpoints land on 1/16
    out = PhaseGrid(make_axis(-6.0, 6.0, 97), make_axis(-6.0, 6.0, 97))

    def run_roundtrip():
        K = quantum.weyl_quantize(sample_field(_weyl_test_symbol, sym_grid), op_axis)
        back = quantum.weyl_symbol(K, out)
        ref = sample_field(_weyl_test_symbol, out)
        return np.linalg.norm(back.values - ref.values) / np.linalg.norm(ref.values)

    def run_spectral():
        f = -np.log(3.0)
        h = quantum.oscillator_exponential_symbol(f, sym_grid)
        K = quantum.weyl_quantize(h, op_axis)
        basis = quantum.make_hermite_basis(45, op_axis)
        ref = quantum.oscillator_exponential_kernel(f, basis)
        return np.abs(K.values - ref.values).max()

    return [
        _case(cfg, "weyl-roundtrip",
              "symbol -> operator -> symbol is the identity", 1e-6, run_roundtrip),
        _case(cfg, "weyl-spectral",
              "oscillator exponential quantizes to its eigenbasis kernel", 1e-6, run_spectral),
    ]


def suite_symbol_identity(cfg: RunConfig) -> list[CaseResult]:
    op_axis = make_axis(-8.0, 8.0, 257)      # step 1/16
    basis = quantum.make_hermite_basis(60, op_axis)
    sym_grid = PhaseGrid(make_axis(-6.0, 6.0, 129), make_axis(-6.0, 6.0, 97))
    out = PhaseGrid(make_axis(-7.0, 7.0, 225), make_axis(-7.0, 7.0, 225))
    kernels = {f"n{n}": quantum.OperatorKernel(op_axis, np.outer(psi, psi).astype(complex))
               for n, psi in enumerate(basis.table[:2])}
    kernels["osc"] = quantum.oscillator_exponential_kernel(-np.log(3.0), basis)
    cases = []
    for tag, K in kernels.items():
        cases += _cases(cfg, [
            (f"symbol-identity-{tag}-transform",
             "transform of the symbol equals the scaled mixed matrix element", 1e-6),
            (f"symbol-identity-{tag}-inverse",
             "inverse transform of the mixed matrix element recovers the symbol", 1e-6),
        ], lambda: quantum.symbol_identity_residual(K, sym_grid, out))
    return cases


def suite_kirkwood(cfg: RunConfig) -> list[CaseResult]:
    sax = make_axis(-8.0, 8.0, 257)
    table = hermite_functions(1, sax.values)
    wgrid = _square_grid(6.5, 209)
    out = PhaseGrid(make_axis(-5.0, 5.0, 161), make_axis(-5.0, 5.0, 161))
    cases = []
    for n in (0, 1):
        psi = Signal(sax, table[n].astype(complex))
        cases += _cases(cfg, [
            (f"kirkwood-n{n}-qp",
             "transform of the Wigner function equals the Kirkwood-Rihaczek form", 1e-6),
            (f"kirkwood-n{n}-pq",
             "inverse-kernel transform equals the anti-ordered Kirkwood form", 1e-6),
        ], lambda: quantum.wigner_to_kirkwood_residual(psi, wgrid, out))
    return cases


def suite_charfun(cfg: RunConfig) -> list[CaseResult]:
    bax = make_axis(-12.0, 12.0, 241)
    basis = quantum.make_hermite_basis(48, bax)
    rho = quantum.OperatorKernel(bax, np.outer(basis.table[0], basis.table[0]).astype(complex))
    uv = make_axis(-3.0, 3.0, 13).values

    def run_closed():
        return _worst(abs(quantum.char_function_qp(rho, basis, u, v)
                          - np.exp(-(u**2 + v**2) / 4) * np.exp(-1j * u * v / 2))
                      for u in uv for v in uv)

    def run_trace():
        return abs(quantum.char_function_qp(rho, basis, 0.0, 0.0) - 1.0)

    def run_conj():
        return _worst(abs(quantum.char_function_pq(rho, basis, u, v)
                          - np.conj(quantum.char_function_qp(rho, basis, -u, -v)))
                      for u, v in ((0.7, -1.3), (2.0, 1.1), (-1.7, 0.4)))

    return [
        _case(cfg, "charfun-closed",
              "ground-state ordered characteristic function matches its closed form",
              1e-8, run_closed),
        _case(cfg, "charfun-trace",
              "characteristic function at the origin returns the trace", 1e-10, run_trace),
        _case(cfg, "charfun-conjugate",
              "anti-ordered characteristic function is the conjugate partner",
              1e-12, run_conj),
    ]


SUITE_BUILDERS = {
    "roundtrip": suite_roundtrip,
    "parseval": suite_parseval,
    "gaussian": suite_gaussian,
    "chirplet-kernel": suite_chirplet_kernel,
    "hermite-oracle": suite_hermite_oracle,
    "weyl": suite_weyl,
    "symbol-identity": suite_symbol_identity,
    "kirkwood": suite_kirkwood,
    "charfun": suite_charfun,
}

SUITE_NAMES = tuple(SUITE_BUILDERS) + ("all",)


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    if name == "all":
        cases = []
        for builder in SUITE_BUILDERS.values():
            cases.extend(builder(cfg))
    elif name in SUITE_BUILDERS:
        cases = SUITE_BUILDERS[name](cfg)
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return VerificationReport(
        suite=name,
        cases=cases,
        overall_pass=all(c.passed for c in cases),
        config=dataclasses.asdict(cfg),
    )
