import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")

from scipy.interpolate import RegularGridInterpolator

import chirpspace
from chirpspace import Axis, PhaseGrid, SampledField, make_axis, trapezoid_weights
from chirpspace.suites import _gaussian_poly_field as gaussian_poly_field  # noqa: F401
from chirpspace.xform import _check_args


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def package_env() -> dict:
    """Environment for a subprocess that imports the same chirpspace as this
    process: PYTHONPATH starts with the directory that holds the package."""
    root = str(Path(chirpspace.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + rest if rest else "")}


def square_grid(extent: float, n: int) -> PhaseGrid:
    ax = make_axis(-extent, extent, n)
    return PhaseGrid(ax, ax)


def assert_chirp_resolved(grid: PhaseGrid) -> None:
    """Harness-side sampling guard: the grid must resolve exp(2ipq)."""
    max_p = max(abs(grid.p_axis.min), abs(grid.p_axis.max))
    max_q = max(abs(grid.q_axis.min), abs(grid.q_axis.max))
    assert grid.q_axis.step <= np.pi / (2 * max_p)
    assert grid.p_axis.step <= np.pi / (2 * max_q)


def naive_transform(h: SampledField, out: PhaseGrid, sign: int = +1) -> np.ndarray:
    """Unfactored per-point kernel sum; the definitional oracle for both paths."""
    p = h.grid.p_axis.values
    q = h.grid.q_axis.values
    wp = np.ones(len(p)); wp[0] = wp[-1] = 0.5
    wq = np.ones(len(q)); wq[0] = wq[-1] = 0.5
    g = h.values * np.outer(wp, wq)
    P, Q = np.meshgrid(p, q, indexing="ij")
    xs = out.p_axis.values
    ys = out.q_axis.values
    res = np.empty((len(xs), len(ys)), complex)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            res[i, j] = np.sum(g * np.exp(sign * 2j * (P - x) * (Q - y)))
    return res * h.grid.p_axis.step * h.grid.q_axis.step / np.pi


def naive_weyl_symbol(values: np.ndarray, axis: Axis, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-point anti-diagonal quadrature, the oracle for weyl_symbol:

        h(p, q) = 2 step sum_j w_j e^{-2i p j step} K(q + j step, q - j step),

    over every j whose two reads stay on the axis, with bilinear reads of K,
    trapezoid end weights, and weight 1 for a lone sample at an axis end.
    """
    x, step = axis.values, axis.step
    read = RegularGridInterpolator((x, x), values, bounds_error=False, fill_value=None)
    out = np.empty((len(p), len(q)), complex)
    for b, qb in enumerate(q):
        t = (qb - x[0]) / step
        jmax = int(np.floor(min(t, axis.n - 1 - t) + 1e-12))
        j = np.arange(-jmax, jmax + 1)
        diag = read(np.column_stack((qb + j * step, qb - j * step)))
        w = trapezoid_weights(len(j)) if jmax else np.ones(1)
        for a, pa in enumerate(p):
            out[a, b] = 2 * step * np.sum(w * diag * np.exp(-2j * pa * j * step))
    return out


def naive_weyl_quantize(h: SampledField, axis: Axis) -> np.ndarray:
    """Per-pair p-quadrature, the oracle for weyl_quantize:

        K(q1, q2) = (step_p / 2pi) sum_a w_a h(p_a, (q1+q2)/2) e^{i p_a (q1 - q2)},

    with the midpoint read by np.interp along each symbol row.
    """
    p, hq = h.grid.p_axis.values, h.grid.q_axis.values
    wp = trapezoid_weights(len(p))
    q = axis.values
    out = np.empty((len(q), len(q)), complex)
    for i, q1 in enumerate(q):
        for k, q2 in enumerate(q):
            col = np.array([np.interp((q1 + q2) / 2, hq, row) for row in h.values])
            out[i, k] = np.sum(wp * col * np.exp(1j * p * (q1 - q2)))
    return out * h.grid.p_axis.step / (2 * np.pi)


def _read_zero_beyond(values: np.ndarray, axis: Axis, at: np.ndarray) -> np.ndarray:
    """Linear read of ``values`` along its last dimension, sampled on ``axis``,
    at the points ``at``.  One zero node pads each end of the axis, and the
    read is zero beyond the pads."""
    pad = Axis(axis.min - axis.step, axis.max + axis.step, axis.n + 2)
    v = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(1, 1)])
    i, s = pad.cell(at)
    s = np.clip(s, 0.0, 1.0)
    return v[..., i] * (1.0 - s) + v[..., i + 1] * s


def forward_shifted_form(h: SampledField, out: PhaseGrid) -> SampledField:
    """Equivalent shifted form of the forward transform:

        f(x, y) = (1/(2 pi)) * iint h(p + x, y + q/2) exp(i p q) dp dq

    Shifted arguments are read off h linearly along p, then along q (a
    bilinear read); h falls linearly to zero over the cell past each edge
    and is zero beyond it.  Agreement with ``forward_direct`` is
    interpolation-limited and tightens quadratically under grid refinement.
    This is a consistency check, not a performance path.
    """
    _check_args(h, out)
    ax_p, ax_q = h.grid.p_axis, h.grid.q_axis
    xs = out.p_axis.values
    ys = out.q_axis.values
    pad_x = max(abs(xs[0]), abs(xs[-1]))
    pad_y = max(abs(ys[0]), abs(ys[-1]))

    # integration lattice: p at h's own p-step, q at twice h's q-step so the
    # second argument y + q/2 advances by one h-cell per node
    n_p = int(np.ceil((ax_p.max - ax_p.min + 2 * pad_x) / ax_p.step)) + 1
    n_q = int(np.ceil((ax_q.max - ax_q.min + 2 * pad_y) / ax_q.step)) + 1
    lo_p, lo_q = ax_p.min - pad_x, 2.0 * (ax_q.min - pad_y)
    lattice = PhaseGrid(Axis(lo_p, lo_p + ax_p.step * (n_p - 1), n_p),
                        Axis(lo_q, lo_q + 2.0 * ax_q.step * (n_q - 1), n_q))
    p_int, q_int = lattice.p_axis.values, lattice.q_axis.values
    kern = np.exp(1j * np.outer(p_int, q_int)) * lattice.q_axis.weights
    kern *= lattice.p_axis.weights[:, None]
    vals = np.empty((len(xs), len(ys)), dtype=complex)
    for a, x in enumerate(xs):
        h_x = _read_zero_beyond(h.values.T, ax_p, p_int + x).T   # (n_p, h's n_q)
        for b, y in enumerate(ys):
            shifted = _read_zero_beyond(h_x, ax_q, y + q_int / 2.0)
            vals[a, b] = np.sum(shifted * kern)
    return SampledField(out, vals / (2.0 * np.pi))


def naive_shifted_form(h: SampledField, out: PhaseGrid) -> np.ndarray:
    """Per-point quadrature, the oracle for forward_shifted_form:

        f(x, y) = (dp dq / 2pi) sum_jk w_j w_k h(p_j + x, y + q_k/2) e^{i p_j q_k},

    on the same integration lattice (p at h's p-step, q at twice h's q-step,
    padded by the output extent), with h read by scipy's linear
    RegularGridInterpolator on h's grid padded with a ring of zeros, and zero
    beyond that ring.
    """
    ax_p, ax_q = h.grid.p_axis, h.grid.q_axis
    xs, ys = out.p_axis.values, out.q_axis.values
    pad_x, pad_y = np.abs(xs[[0, -1]]).max(), np.abs(ys[[0, -1]]).max()
    dp, dq = ax_p.step, 2.0 * ax_q.step
    n_p = int(np.ceil((ax_p.max - ax_p.min + 2 * pad_x) / dp)) + 1
    n_q = int(np.ceil(2 * (ax_q.max - ax_q.min + 2 * pad_y) / dq)) + 1
    p = (ax_p.min - pad_x) + dp * np.arange(n_p)
    q = 2.0 * (ax_q.min - pad_y) + dq * np.arange(n_q)
    ring = lambda ax: np.concatenate(([ax.min - ax.step], ax.values, [ax.max + ax.step]))
    read = RegularGridInterpolator((ring(ax_p), ring(ax_q)), np.pad(h.values, 1),
                                   bounds_error=False, fill_value=0.0)
    w = np.outer(trapezoid_weights(n_p), trapezoid_weights(n_q))
    P, Q = np.meshgrid(p, q, indexing="ij")
    res = np.empty((len(xs), len(ys)), complex)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            hv = read(np.stack((P + x, y + Q / 2), axis=-1))
            res[a, b] = np.sum(w * hv * np.exp(1j * P * Q))
    return res * dp * dq / (2 * np.pi)


def naive_char_function(rho, u: float, k: int, order: str = "qp") -> complex:
    """Basis-free oracle for the characteristic functions at v = k * step:

        Tr[rho e^{-iuQ} e^{-ivP}] = int dq rho(q, q + v) e^{-iu(q + v)},

    one trapezoid sum along the k-th diagonal of the kernel; the anti-ordered
    Tr[rho e^{-ivP} e^{-iuQ}] (order "pq") drops the e^{-iuv} factor.
    """
    ax = rho.axis
    diag = np.diagonal(rho.values, offset=k)  # rho(q_i, q_{i+k})
    q = ax.values[max(-k, 0):][:diag.size]
    v = k * ax.step
    phase = np.exp(-1j * u * (q + v)) if order == "qp" else np.exp(-1j * u * q)
    return complex(np.sum(trapezoid_weights(diag.size) * diag * phase) * ax.step)


def naive_field_csv(header: str, outer: np.ndarray, inner: np.ndarray,
                    values: np.ndarray) -> bytes:
    """Per-row oracle for the CSV writers: the header, then one
    "%.17g,%.17g,%.17g,%.17g\\r\\n" row per grid point, outer coordinate outer."""
    rows = [header + "\r\n"]
    for i, a in enumerate(outer):
        for j, b in enumerate(inner):
            row = (a, b, values[i, j].real, values[i, j].imag)
            rows.append("%.17g,%.17g,%.17g,%.17g\r\n" % row)
    return "".join(rows).encode()


def observed_orders(errors: list[float]) -> np.ndarray:
    """Observed convergence orders log2(e_k / e_{k+1}) of errors measured on
    grids whose step halves from one to the next (Roache, AIAA J. 36(5), 1998)."""
    e = np.asarray(errors)
    return np.log2(e[:-1] / e[1:])
