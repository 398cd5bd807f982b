"""The phase-space chirp transform and its inverse.

Forward map of a field h(p, q):

    f(x, y) = (1/pi) * iint exp(+2i (p - x)(q - y)) h(p, q) dp dq

and the inverse uses the conjugate kernel with the same 1/pi measure.  Both
paths evaluate the same trapezoid discretization of this integral over the
input grid:

    f(x, y) ~= (dp*dq/pi) * sum_{j,k} w_j w_k h[j,k] exp(2i (p_j - x)(q_k - y))

* ``forward_direct`` contracts the sum column-by-column against explicitly
  evaluated kernel factors (quadrature oracle, O(n^3));
* ``forward_fast`` factors the kernel as
  exp(2ipq) * exp(-2ipy) * exp(-2ixq) * exp(2ixy)
  and evaluates the two middle factors as a separable Fourier sum at the
  frequencies (2y, 2x) with Bluestein/chirp-z resampling per axis, which
  lands exactly on an arbitrary uniform output grid.

Accuracy presumes the caller truncated the plane so |h| at the grid boundary
is negligible (<= 1e-12 for the stated tolerances) and the grid resolves the
exp(2ipq) chirp (step_q <= pi / (2 max|p|) and symmetrically).  Neither is
enforced here.
"""
from __future__ import annotations

import numpy as np
from scipy.signal import czt

from .grid import Axis, PhaseGrid, SampledField, trapezoid_weights

__all__ = [
    "forward_direct",
    "forward_fast",
    "inverse_direct",
    "inverse_fast",
    "parseval_residual",
    "forward_shifted_form",
]


def _check_field(h: SampledField) -> None:
    if not isinstance(h, SampledField):
        raise TypeError(f"expected SampledField, got {type(h).__name__}")


def _check_grid(out: PhaseGrid) -> None:
    if not isinstance(out, PhaseGrid):
        raise TypeError(f"expected PhaseGrid, got {type(out).__name__}")


def _weighted(h: SampledField) -> np.ndarray:
    wp = trapezoid_weights(h.grid.p_axis.n)
    wq = trapezoid_weights(h.grid.q_axis.n)
    return h.values * np.outer(wp, wq)


def _fourier_resample(arr: np.ndarray, src: np.ndarray, dst: np.ndarray, axis: int) -> np.ndarray:
    """sum_j arr[j] * exp(-2i * dst_b * src_j) along `axis` via chirp-z.

    src and dst must be uniform; dst may have any offset/step (Bluestein
    evaluates the sum on the arbitrary output lattice exactly).
    """
    ds = src[1] - src[0]
    dd = dst[1] - dst[0]
    a = np.exp(2j * dst[0] * ds)
    w = np.exp(-2j * dd * ds)
    out = czt(arr, m=len(dst), w=w, a=a, axis=axis)
    phase = np.exp(-2j * dst * src[0])
    shape = [1] * arr.ndim
    shape[axis] = len(dst)
    return out * phase.reshape(shape)


def forward_fast(h: SampledField, out: PhaseGrid) -> SampledField:
    """Fast path: chirp pre/post multiplies around per-axis chirp-z resampling."""
    _check_field(h)
    _check_grid(out)
    p = h.grid.p_axis.values
    q = h.grid.q_axis.values
    xs = out.p_axis.values
    ys = out.q_axis.values
    g = _weighted(h) * np.exp(2j * np.outer(p, q))
    # p-sum at frequencies 2y, then q-sum at frequencies 2x
    acc = _fourier_resample(g, p, ys, axis=0)        # (n_y, n_q)
    acc = _fourier_resample(acc, q, xs, axis=1).T    # (n_x, n_y)
    scale = h.grid.p_axis.step * h.grid.q_axis.step / np.pi
    vals = acc * scale * np.exp(2j * np.outer(xs, ys))
    return SampledField(out, vals)


def forward_direct(h: SampledField, out: PhaseGrid) -> SampledField:
    """Direct quadrature: evaluate the kernel sum column-by-column.

    Same discrete sum as the fast path (only the floating-point contraction
    order differs); no FFT machinery, so it serves as the oracle for it.
    """
    _check_field(h)
    _check_grid(out)
    p = h.grid.p_axis.values
    q = h.grid.q_axis.values
    xs = out.p_axis.values
    ys = out.q_axis.values
    g = _weighted(h)
    vals = np.empty((len(xs), len(ys)), dtype=complex)
    for b, y in enumerate(ys):
        qy = q - y
        col = (g * np.exp(2j * np.outer(p, qy))).sum(axis=0)   # sum over p
        vals[:, b] = np.exp(-2j * np.outer(xs, qy)) @ col      # sum over q
    scale = h.grid.p_axis.step * h.grid.q_axis.step / np.pi
    return SampledField(out, vals * scale)


def _inverse_via_conjugation(f: SampledField, out: PhaseGrid, forward) -> SampledField:
    # conj kernel: (1/pi) iint exp(-2i(p-x)(q-y)) f dx dy == conj(T[conj(f)])
    conj_in = SampledField(f.grid, np.conj(f.values))
    res = forward(conj_in, out)
    return SampledField(out, np.conj(res.values))


def inverse_fast(f: SampledField, out: PhaseGrid) -> SampledField:
    """Inverse transform, fast path (conjugated chirps)."""
    return _inverse_via_conjugation(f, out, forward_fast)


def inverse_direct(f: SampledField, out: PhaseGrid) -> SampledField:
    """Inverse transform, direct quadrature."""
    return _inverse_via_conjugation(f, out, forward_direct)


_FORWARD = {"direct": forward_direct, "fast": forward_fast}
_INVERSE = {"direct": inverse_direct, "fast": inverse_fast}


def parseval_residual(h: SampledField, out: PhaseGrid, path: str = "fast") -> float:
    """Relative defect of the norm identity |norm^2(h) - norm^2(T[h])| / norm^2(h).

    ``out`` must capture the transform's support (boundary |f| <= 1e-12).
    """
    from .grid import weighted_norm_sq

    nh = weighted_norm_sq(h)
    if nh == 0.0:
        raise ValueError("parseval residual undefined for a zero field")
    f = _FORWARD[path](h, out)
    return abs(nh - weighted_norm_sq(f)) / nh


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
    _check_field(h)
    _check_grid(out)
    ax_p, ax_q = h.grid.p_axis, h.grid.q_axis
    xs = out.p_axis.values
    ys = out.q_axis.values
    pad_x = max(abs(xs[0]), abs(xs[-1]))
    pad_y = max(abs(ys[0]), abs(ys[-1]))

    # integration lattice: p at h's own p-step, q at twice h's q-step so the
    # second argument y + q/2 advances by one h-cell per node
    dp = ax_p.step
    n_p = int(np.ceil((ax_p.max - ax_p.min + 2 * pad_x) / dp)) + 1
    p_int = (ax_p.min - pad_x) + dp * np.arange(n_p)
    dq = 2.0 * ax_q.step
    n_q = int(np.ceil(2 * (ax_q.max - ax_q.min + 2 * pad_y) / dq)) + 1
    q_int = 2.0 * (ax_q.min - pad_y) + dq * np.arange(n_q)

    wts = np.outer(trapezoid_weights(n_p), trapezoid_weights(n_q))
    kern = np.exp(1j * np.outer(p_int, q_int)) * wts
    vals = np.empty((len(xs), len(ys)), dtype=complex)
    for a, x in enumerate(xs):
        h_x = _read_zero_beyond(h.values.T, ax_p, p_int + x).T   # (n_p, h's n_q)
        for b, y in enumerate(ys):
            shifted = _read_zero_beyond(h_x, ax_q, y + q_int / 2.0)
            vals[a, b] = np.sum(shifted * kern)
    return SampledField(out, vals * dp * dq / (2.0 * np.pi))
