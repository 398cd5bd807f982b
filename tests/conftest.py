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

from scipy.fft import next_fast_len
from scipy.interpolate import RegularGridInterpolator

import chirpspace
from chirpspace import Axis, PhaseGrid, SampledField, make_axis, trapezoid_weights
from chirpspace.suites import _gaussian_poly_field as gaussian_poly_field  # noqa: F401


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


def spectral_transform(h: SampledField, sign: int = +1) -> np.ndarray:
    """Spectral oracle for the transform of a decayed h, read on h's own lattice.

    The kernel e^{2i sign (p - x)(q - y)} / pi is a convolution, and with
    h^(a, b) = iint h e^{-i(ap + bq)} its Fourier multiplier is

        f^(a, b) = e^{-i sign ab / 2} h^(a, b),

    of modulus 1.  The FFT2 of h zero-padded to at least twice its size,
    times the multiplier, then the inverse FFT2, cut back to h's lattice; the
    padding holds the cyclic wrap off the cut when f has decayed there too.
    Each padded length is the next one that factors into small primes: an
    801^2 call at 1602 = 2 3^2 89 takes about 1.6 times as long as at 1617.
    """
    (n_p, n_q), ax_p, ax_q = h.values.shape, h.grid.p_axis, h.grid.q_axis
    m_p, m_q = next_fast_len(2 * n_p), next_fast_len(2 * n_q)
    a = 2 * np.pi * np.fft.fftfreq(m_p, ax_p.step)
    b = 2 * np.pi * np.fft.fftfreq(m_q, ax_q.step)
    spec = np.fft.fft2(h.values, s=(m_p, m_q))
    spec *= np.exp(-0.5j * sign * np.outer(a, b))
    return np.fft.ifft2(spec)[:n_p, :n_q]


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
