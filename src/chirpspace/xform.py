"""The phase-space chirp transform and its inverse.

Forward map of a field h(p, q):

    f(x, y) = (1/pi) * iint exp(+2i (p - x)(q - y)) h(p, q) dp dq

and the inverse uses the conjugate kernel with the same 1/pi measure.  Both
paths evaluate the same trapezoid discretization of this integral over the
input grid, with w_jk = ``p.weights[j] * q.weights[k]`` (steps included):

    f(x, y) ~= (1/pi) * sum_{j,k} w_jk h[j,k] exp(2i (p_j - x)(q_k - y))

* ``forward_direct`` contracts the sum column-by-column against explicitly
  evaluated kernel factors (quadrature oracle, O(n^3)); ``inverse_direct`` is
  conj(forward_direct[conj(f)]);
* ``forward_fast`` factors the kernel as
  exp(2ipq) * exp(-2ipy) * exp(-2ixq) * exp(2ixy)
  and evaluates the two middle factors as a separable Fourier sum at the
  frequencies (2y, 2x) with Bluestein/chirp-z resampling per axis, which
  lands exactly on an arbitrary uniform output grid.  ``inverse_fast`` runs the
  same kernel with phase sign -1: conjugate chirps and conjugate chirp-z a, w.
  Stages: the pre-chirp with p.weights / pi folded into its rows, times q.weights
  and h in place; chirp-z along p; chirp-z along q; the post-chirp.  Each stage's
  array replaces the last, so the pre-chirped field dies as the first chirp-z
  returns.  ``_chirp`` builds each chirp from blocks of sqrt(len(b)) nodes, within
  4 eps (1 + max|2ab|) max|row|.  Both kernels take ``Axis`` objects and read each
  lattice step from ``Axis.step``.

Accuracy presumes the caller truncated the plane so |h| at the grid boundary
is negligible (<= 1e-12 relative to max|h| for the stated tolerances) and the
grid resolves the exp(2ipq) chirp (step_q <= pi / (2 max|p|) and
symmetrically).  Neither is enforced here.
"""
from __future__ import annotations

import numpy as np
from scipy.signal import czt

from .grid import Axis, PhaseGrid, SampledField, weighted_norm_sq

__all__ = [
    "forward_direct",
    "forward_fast",
    "inverse_direct",
    "inverse_fast",
    "parseval_residual",
]


def _check_args(h: SampledField, out: PhaseGrid) -> None:
    for arg, cls in ((h, SampledField), (out, PhaseGrid)):
        if not isinstance(arg, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(arg).__name__}")


def _fourier_resample(arr: np.ndarray, src: Axis, dst: Axis, axis: int, sign: int) -> np.ndarray:
    """sum_j arr[j] * exp(-2i sign dst_b src_j) along `axis` via chirp-z; dst may
    have any offset and step (Bluestein lands exactly on its lattice)."""
    a = np.exp(2j * sign * dst.min * src.step)
    w = np.exp(-2j * sign * dst.step * src.step)
    out = czt(arr, m=dst.n, w=w, a=a, axis=axis)
    out *= np.exp(-2j * sign * dst.values * src.min).reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
    return out


def _chirp(a: Axis, b: Axis, sign: int, row=1.0) -> np.ndarray:
    """row_j exp(2is a_j b_k) as row_j exp(2is a_j b_k0) exp(2is a_j (k - k0) b.step), s = sign."""
    av, m, size = 2j * sign * a.values, b.n, round(np.sqrt(b.n))
    head = np.exp(np.outer(av, b.values[::size])) * np.reshape(row, (-1, 1))
    tail = np.exp(np.outer(av, b.step * np.arange(size)))
    out = np.empty((a.n, m), dtype=complex)
    for i, k0 in enumerate(range(0, m, size)):
        np.multiply(head[:, i, None], tail[:, :m - k0], out=out[:, k0:k0 + size])
    return out


def _fast(h: SampledField, out: PhaseGrid, sign: int) -> SampledField:
    """The fast path for the kernel exp(2i sign (p - x)(q - y))."""
    _check_args(h, out)
    p, q = h.grid.p_axis, h.grid.q_axis
    x, y = out.p_axis, out.q_axis
    g = _chirp(p, q, sign, p.weights / np.pi)
    g *= q.weights
    g *= h.values
    # p-sum at frequencies 2y, then q-sum at frequencies 2x
    g = _fourier_resample(g, p, y, 0, sign)         # (n_y, n_q)
    g = _fourier_resample(g, q, x, 1, sign).T       # (n_x, n_y)
    f = _chirp(x, y, sign)
    f *= g
    return SampledField(out, f)


def forward_fast(h: SampledField, out: PhaseGrid) -> SampledField:
    """Fast path: chirp pre/post multiplies around per-axis chirp-z resampling."""
    return _fast(h, out, 1)


def forward_direct(h: SampledField, out: PhaseGrid) -> SampledField:
    """Direct quadrature: evaluate the kernel sum column-by-column.

    Same discrete sum as the fast path (only the floating-point contraction
    order differs); no FFT machinery, so it serves as the oracle for it.
    """
    _check_args(h, out)
    p = h.grid.p_axis.values
    q = h.grid.q_axis.values
    xs = out.p_axis.values
    ys = out.q_axis.values
    g = h.values * h.grid.q_axis.weights
    g *= h.grid.p_axis.weights[:, None]
    vals = np.empty((len(xs), len(ys)), dtype=complex)
    for b, y in enumerate(ys):
        qy = q - y
        col = (g * np.exp(2j * np.outer(p, qy))).sum(axis=0)   # sum over p
        vals[:, b] = np.exp(-2j * np.outer(xs, qy)) @ col      # sum over q
    return SampledField(out, vals / np.pi)


def inverse_fast(f: SampledField, out: PhaseGrid) -> SampledField:
    """Inverse transform, fast path (conjugate chirps and chirp-z factors)."""
    return _fast(f, out, -1)


def inverse_direct(f: SampledField, out: PhaseGrid) -> SampledField:
    """Inverse transform, direct quadrature: the conjugate kernel as conj(T[conj(f)])."""
    _check_args(f, out)
    res = forward_direct(SampledField(f.grid, np.conj(f.values)), out)
    return SampledField(out, np.conj(res.values))


_FORWARD = {"direct": forward_direct, "fast": forward_fast}
_INVERSE = {"direct": inverse_direct, "fast": inverse_fast}


def parseval_residual(h: SampledField, out: PhaseGrid) -> float:
    """Relative defect of the norm identity |norm^2(h) - norm^2(T[h])| / norm^2(h),
    with T the fast path.

    ``out`` must capture the transform's support (boundary |f| <= 1e-12).
    h is first scaled by the power of two of its largest real or imaginary
    part.  That scaling is exact, so |h|^2 neither underflows nor overflows,
    and the residual is the same, to rounding of the input, at any finite
    scale.
    """
    parts = h.values.view(float)
    _, e = np.frexp(np.abs(parts).max())
    h = SampledField(h.grid, np.ldexp(parts, -e).view(complex))
    nh = weighted_norm_sq(h)
    if nh == 0.0:
        raise ValueError("parseval residual undefined for a zero field")
    f = forward_fast(h, out)
    return abs(nh - weighted_norm_sq(f)) / nh
