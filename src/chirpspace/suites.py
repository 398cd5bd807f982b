"""Named verification suites behind the ``verify`` command.

Each suite runs a handful of residual checks on its own fixed desk-scale
grids and reports one ``CaseResult`` per check, tagged with a human-readable
label of the identity being exercised.  All computations are seeded and
deterministic: on one machine, with one environment, reports are byte-stable
apart from the runtime fields.  Each report records that environment in its
``environment`` object (versions, core count, BLAS thread settings), since
the BLAS threads move the runtimes and the last digits of some residuals.
"""
from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral, Real
from types import MappingProxyType

import numpy as np
import scipy

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


@dataclass(frozen=True)
class RunConfig:
    """The settings that decide a run's verdict.  Every field is checked when
    built, however it is built (directly, by ``from_file`` or by
    ``dataclasses.replace``), and is read-only after: ``alphas`` is held as a
    tuple of floats and ``tolerance_overrides`` as a read-only copy of floats.
    Every suite's grids, sizes, series lengths and damping ladders are fixed
    in the suite: its tolerances are calibrated to them."""

    seed: int = 20240701  # random fields of the roundtrip and parseval suites
    # chirplet-to-kernel identity angles
    alphas: tuple[float, ...] = (np.pi / 3, np.pi / 2, 2 * np.pi / 3)
    tolerance_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"config field seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.alphas, (list, tuple)):
            raise ValueError(f"config field alphas must be a list or tuple, got {self.alphas!r}")
        overrides = self.tolerance_overrides
        if not isinstance(overrides, Mapping) or not all(isinstance(k, str) for k in overrides):
            raise ValueError("config field tolerance_overrides must map case names to "
                             f"numbers, got {overrides!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "alphas", tuple(_real("alphas", a) for a in self.alphas))
        object.__setattr__(self, "tolerance_overrides", MappingProxyType(
            {k: _real("tolerance_overrides", t) for k, t in overrides.items()}))
        # each alpha names two chirplet cases to 4 decimals: no alpha passes
        # vacuously, and two alphas with one name share a tolerance override
        if len({f"{a:.4f}" for a in self.alphas}) < max(len(self.alphas), 1):
            raise ValueError("config field alphas needs at least one value, all distinct "
                             f"to 4 decimals, got {self.alphas}")
        # an infinite tolerance passes any residual and writes a bare Infinity
        if not all(0 <= t < np.inf for t in self.tolerance_overrides.values()):
            raise ValueError("config field tolerance_overrides values must be finite "
                             f"and >= 0, got {self.tolerance_overrides}")
        for a in self.alphas:
            closedform._check_chirplet_alpha(a)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in names:
                raise ValueError(f"unknown config field {key!r}")
        return cls(**raw)


def _real(key: str, val) -> float:
    """A number of config field ``key`` as a float: a bool is not a number."""
    if isinstance(val, bool) or not isinstance(val, Real):
        raise ValueError(f"config field {key} must hold numbers, got {val!r}")
    try:
        return float(val)
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


def _environment() -> dict:
    """The Python, numpy and scipy versions, the core count, and the BLAS
    thread settings as found in the environment (None when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult]
    overall_pass: bool
    config: dict
    environment: dict = field(default_factory=_environment)

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
            "environment": self.environment,
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
    """Both cases reach 6.4e-9 to 1.2e-8 over the default seed and seeds 1-9,
    with the default BLAS threads and with one thread; 100x the worst rounds
    up to 1e-5, so each tolerance stays at its earlier 1e-6.  Scaling either
    path by (1 + 1e-7) leaves its residual at 1.0e-7, inside 1e-6, so no such
    mutant fails either case."""
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
    """Each tolerance is 100x the worst residual over the default seed and
    seeds 1-9, with the default BLAS threads and with one thread, rounded up
    to a power of ten: parseval-random 3.6e-13 to 4.1e-13 -> 1e-10,
    parseval-hermite-gaussian 3.7e-13 on every seed -> 1e-10."""
    grid, mid, fields = _random_fields(cfg.seed)
    label = "squared-norm preservation under the transform (Parseval)"

    def run():
        return _worst(xform.parseval_residual(h, mid) for h in fields)

    def run_hg():
        P, Q = grid.meshes()
        hg = SampledField(grid, (P + 1j * Q) * np.exp(-(P**2 + Q**2) / 2))
        return xform.parseval_residual(hg, mid)

    return [
        _case(cfg, "parseval-random", label, 1e-10, run),
        _case(cfg, "parseval-hermite-gaussian", label, 1e-10, run_hg),
    ]


def suite_gaussian(cfg: RunConfig) -> list[CaseResult]:
    """Each tolerance is 100x the worst residual (the cases take no config),
    rounded up to a power of ten, with a floor of 1e-13; the residuals are the
    same with the default BLAS threads and with one thread:

        case               residual   tolerance
        gaussian-lam-0.5   5.0e-16    1e-13
        gaussian-lam-1     3.1e-16    1e-13
        gaussian-lam-2     3.2e-16    1e-13
    """
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
        cases.append(_case(cfg, f"gaussian-lam-{lam:g}", label, 1e-13, run))
    return cases


def suite_chirplet_kernel(cfg: RunConfig) -> list[CaseResult]:
    """Per angle, the closed form at zero damping against the kernel, and the
    fast-path quadrature of the damped chirplet against the closed form at
    the same damping, worst over a fixed ladder.

    The ladder stops at 0.02: at 0.01 the 801^2 grid on [-25, 25]^2 no longer
    resolves the damping, and the residual reached 1.4e-6 at sin alpha = 0.1.
    Closed-form residual and worst quadrature residual over the ladder, on
    nine angles spanning sin alpha >= 0.1; each tolerance is 100x the worst,
    rounded up to a power of ten: 1e-10 (closed) and 1e-9 (quadrature):

        alpha    closed    quadrature
        0.1002   2.7e-13   4.6e-12
        0.4678   2.7e-15   2.7e-13
        0.8355   9.0e-16   1.9e-13
        1.2031   6.5e-16   1.7e-13
        1.5708   3.2e-16   1.6e-13
        1.9384   5.0e-16   1.5e-13
        2.3061   2.1e-15   1.6e-13
        2.6737   5.3e-15   1.8e-13
        3.0414   9.1e-14   4.6e-12
    """
    out = _square_grid(2.0, 9)
    cgrid = _square_grid(25.0, 801)
    cases = []
    for alpha in cfg.alphas:
        def run_closed(alpha=alpha):
            return closedform.chirplet_identity_residual(alpha, 0.0, None, out).closed_form

        def run_quadrature(alpha=alpha):
            return _worst(
                closedform.chirplet_identity_residual(alpha, eps, cgrid, out).quadrature_vs_closed
                for eps in (0.1, 0.05, 0.03, 0.02))

        cases.append(_case(
            cfg, f"chirplet-closed-{alpha:.4f}",
            "chirplet maps onto the scaled fractional-Fourier kernel (closed form)",
            1e-10, run_closed))
        cases.append(_case(
            cfg, f"chirplet-quadrature-{alpha:.4f}",
            "damped-chirplet quadrature matches the closed form at equal damping",
            1e-9, run_quadrature))
    return cases


def suite_hermite_oracle(cfg: RunConfig) -> list[CaseResult]:
    """Each tolerance is 100x the case's residual (the cases take no config),
    rounded up to a power of ten; the residuals are the same with the default
    BLAS threads and with one thread.  oracle-alpha-: 0.3000 1.6e-11 -> 1e-8,
    1.0000 4.3e-12, 1.5708 3.9e-12 and 2.0000 3.7e-12 -> 1e-9, 2.8000 1.0e-11
    -> 1e-8; oracle-composition 1.1e-11 -> 1e-8."""
    xs = make_axis(-3.0, 3.0, 13).values
    X, Y = xs[:, None], xs[None, :]
    cases = []
    for alpha, tol in ((0.3, 1e-8), (1.0, 1e-9), (np.pi / 2, 1e-9), (2.0, 1e-9), (2.8, 1e-8)):
        def run(alpha=alpha):
            S = closedform.frft_kernel_hermite(alpha, X, Y, 1600)
            return np.abs(S - closedform.frft_kernel(alpha, X, Y)).max()
        cases.append(_case(
            cfg, f"oracle-alpha-{alpha:.4f}",
            "kernel closed form agrees with the oscillator-eigenfunction series",
            tol, run))

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
        1e-8, run_comp))
    return cases


def _weyl_test_symbol(P, Q):
    return (1 + 0.3 * P + 0.2j * Q + 0.1 * P * Q) * np.exp(-(P**2 + Q**2) / 2)


def suite_weyl(cfg: RunConfig) -> list[CaseResult]:
    """Each tolerance is 100x the worst residual (the cases take no config),
    rounded up to a power of ten; residuals with the default BLAS threads and
    with one thread:

        case             residual               tolerance
        weyl-roundtrip   4.712e-15, 4.714e-15   1e-12
        weyl-spectral    1.662e-15, 1.664e-15   1e-12
    """
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
              "symbol -> operator -> symbol is the identity", 1e-12, run_roundtrip),
        _case(cfg, "weyl-spectral",
              "oscillator exponential quantizes to its eigenbasis kernel", 1e-12, run_spectral),
    ]


# (q0, p0) of the displaced, boosted states that the symbol-identity, kirkwood
# and charfun suites read: their kernels are neither real nor symmetric, so a
# transposed read or a dropped conjugate moves a residual
_BOOST = (0.25, 0.35)


def _boosted(n: int, axis) -> np.ndarray:
    """psi_n(x - q0) e^{i p0 x} on the axis's nodes, at (q0, p0) = _BOOST."""
    q0, p0 = _BOOST
    x = axis.values
    return hermite_functions(n, x - q0)[n] * np.exp(1j * p0 * x)


def _coherent_char_qp(u, v) -> complex:
    """Closed form of the ordered characteristic function of the coherent state
    ``_boosted(0, ...)``: e^{-(u^2+v^2)/4 - iuv/2 - i(u q0 + v p0)}."""
    q0, p0 = _BOOST
    return np.exp(-(u**2 + v**2) / 4 - 1j * (u * v / 2 + u * q0 + v * p0))


def suite_symbol_identity(cfg: RunConfig) -> list[CaseResult]:
    """Each tolerance is 100x the case's residual (the cases take no config),
    rounded up to a power of ten; osc-transform keeps 1e-6.  boost1 is the
    projector onto psi_1 displaced and boosted by ``_BOOST``.  Residuals with
    the default BLAS threads and with one thread:

        case                               residual   tolerance
        symbol-identity-n0-transform       2.0e-13    1e-10
        symbol-identity-n0-inverse         5.1e-12    1e-9
        symbol-identity-boost1-transform   2.0e-13    1e-10
        symbol-identity-boost1-inverse     4.0e-10    1e-7
        symbol-identity-osc-transform      3.0e-9     1e-6
        symbol-identity-osc-inverse        6.2e-10    1e-7

    osc-transform is the one case no (1 + 1e-7) scale of the transform fails:
    scaling ``forward_fast`` moves it to 1.34e-7, inside 1e-6 (scaling
    ``inverse_fast`` moves osc-inverse to 1.5e-7 and boost1-inverse to 2.0e-7,
    past their 1e-7)."""
    op_axis = make_axis(-8.0, 8.0, 257)      # step 1/16
    basis = quantum.make_hermite_basis(60, op_axis)
    sym_grid = PhaseGrid(make_axis(-6.0, 6.0, 129), make_axis(-6.0, 6.0, 97))
    out = PhaseGrid(make_axis(-7.0, 7.0, 225), make_axis(-7.0, 7.0, 225))
    psi0, psi1 = basis.table[0], _boosted(1, op_axis)
    kernels = {
        "n0": quantum.OperatorKernel(op_axis, np.outer(psi0, psi0).astype(complex)),
        "boost1": quantum.OperatorKernel(op_axis, np.outer(psi1, psi1.conj())),
        "osc": quantum.oscillator_exponential_kernel(-np.log(3.0), basis),
    }
    # (transform, inverse)
    tol = {"n0": (1e-10, 1e-9), "boost1": (1e-10, 1e-7), "osc": (1e-6, 1e-7)}
    cases = []
    for tag, K in kernels.items():
        cases += _cases(cfg, [
            (f"symbol-identity-{tag}-transform",
             "transform of the symbol equals the scaled mixed matrix element", tol[tag][0]),
            (f"symbol-identity-{tag}-inverse",
             "inverse transform of the mixed matrix element recovers the symbol", tol[tag][1]),
        ], lambda K=K: quantum.symbol_identity_residual(K, sym_grid, out))
    return cases


def suite_kirkwood(cfg: RunConfig) -> list[CaseResult]:
    """Tolerance 1e-10 for every case: 100x the worst residual (no config),
    rounded up to a power of ten.  boost1 is psi_1 displaced and boosted by
    ``_BOOST``.  Residuals with the default BLAS threads and with one thread:

        case                 residual   tolerance
        kirkwood-n0-qp       2.1e-13    1e-10
        kirkwood-n0-pq       2.1e-13    1e-10
        kirkwood-boost1-qp   2.2e-13    1e-10
        kirkwood-boost1-pq   2.2e-13    1e-10
    """
    sax = make_axis(-8.0, 8.0, 257)
    wgrid = _square_grid(6.5, 209)
    out = PhaseGrid(make_axis(-5.0, 5.0, 161), make_axis(-5.0, 5.0, 161))
    states = {"n0": hermite_functions(0, sax.values)[0].astype(complex),
              "boost1": _boosted(1, sax)}
    cases = []
    for tag, values in states.items():
        psi = Signal(sax, values)
        cases += _cases(cfg, [
            (f"kirkwood-{tag}-qp",
             "transform of the Wigner function equals the Kirkwood-Rihaczek form", 1e-10),
            (f"kirkwood-{tag}-pq",
             "inverse-kernel transform equals the anti-ordered Kirkwood form", 1e-10),
        ], lambda psi=psi: quantum.wigner_to_kirkwood_residual(psi, wgrid, out))
    return cases


def suite_charfun(cfg: RunConfig) -> list[CaseResult]:
    """Each tolerance is 100x the case's worst residual (the cases take no
    config), rounded up to a power of ten, with a floor of 1e-13.  The state
    is the coherent state, the ground state displaced and boosted by
    ``_BOOST``.  Residuals with the default BLAS threads and with one thread:

        case                residual            tolerance
        charfun-closed      6.7e-16 to 6.8e-16  1e-13
        charfun-trace       2.3e-16 to 4.5e-16  1e-13
        charfun-conjugate   4.3e-16 to 4.5e-16  1e-13
    """
    bax = make_axis(-12.0, 12.0, 241)
    basis = quantum.make_hermite_basis(48, bax)
    psi = _boosted(0, bax)
    rho = quantum.OperatorKernel(bax, np.outer(psi, psi.conj()))
    uv = make_axis(-3.0, 3.0, 13).values

    def run_closed():
        return _worst(abs(quantum.char_function_qp(rho, basis, u, v) - _coherent_char_qp(u, v))
                      for u in uv for v in uv)

    def run_trace():
        return abs(quantum.char_function_qp(rho, basis, 0.0, 0.0) - 1.0)

    def run_conj():
        return _worst(abs(quantum.char_function_pq(rho, basis, u, v)
                          - np.conj(quantum.char_function_qp(rho, basis, -u, -v)))
                      for u, v in ((0.7, -1.3), (2.0, 1.1), (-1.7, 0.4)))

    return [
        _case(cfg, "charfun-closed",
              "coherent-state ordered characteristic function matches its closed form",
              1e-13, run_closed),
        _case(cfg, "charfun-trace",
              "characteristic function at the origin returns the trace", 1e-13, run_trace),
        _case(cfg, "charfun-conjugate",
              "anti-ordered characteristic function is the conjugate partner",
              1e-13, run_conj),
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
        cases = [c for builder in SUITE_BUILDERS.values() for c in builder(cfg)]
    elif name in SUITE_BUILDERS:
        cases = SUITE_BUILDERS[name](cfg)
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig)}
    return VerificationReport(
        suite=name,
        cases=cases,
        overall_pass=all(c.passed for c in cases),
        # a read-only mapping echoes as the dict it holds
        config={k: dict(v) if isinstance(v, Mapping) else v for k, v in echo.items()},
    )
