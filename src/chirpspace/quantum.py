"""Phase-space representations of operators and states.

An operator H is held as its position kernel <q1|H|q2>, a ``grid.OperatorKernel``
with q1 and q2 on one axis (continuum normalization, hbar = 1; a sum over the
axis, a trace included, takes ``Axis.weights``, and a point read off the axis
must lie on it as ``Axis.cell`` snaps it, or is rejected).  The module provides
the mutually inverse maps between kernels and phase-space symbols,

    quantize:  <q1|H|q2> = (1/2pi) int dp  h(p, (q1+q2)/2) e^{ i p (q1-q2)}
    symbol:    h(p, q)   =         int du  e^{-i p u} <q + u/2|H|q - u/2>

(symbols are always stored momentum-first), the Wigner transforms of signals
and density operators (symbol/2pi with the same sign convention), mixed
momentum-bra/position-ket matrix elements, the oscillator-exponential
correspondence, Kirkwood-Rihaczek closed forms, and ordered characteristic
functions evaluated through matrix exponentials in a truncated oscillator
eigenbasis.  Those exponentials run in real arithmetic: P = -iK with K real
antisymmetric, and Q = D^H P D with D = diag(i^n), so e^{-ivP} = expm(-vK)
and e^{-iuQ} = D^H expm(-uK) D.  A characteristic-function call runs all of its
BLAS work on scipy's library, the one ``scipy.linalg.expm`` uses: the density
projection, its reconstruction, the residual norms and the trace product go
through ``scipy.linalg.blas``, not numpy.  numpy and scipy each load their own
OpenBLAS, each with its own thread pool, and a call that switched between
the two pools made them contend (about 5x slower on two cores).  The
density-operator invariants (Hermiticity, unit trace, to DENSITY_TOL) are
checked here only, by ``validate_density``.

The headline consistency identity tying this module to the chirp transform:

    T[symbol of H](x, y) = sqrt(2 pi) <p = x|H|y> e^{ixy}.
"""
from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import dznrm2, zgemm

from .grid import Axis, HermiteBasis, OperatorKernel, PhaseGrid, SampledField, Signal, sample_field
from .hermite import hermite_functions
from .xform import forward_fast, inverse_fast

__all__ = [
    "OperatorKernel",
    "HermiteBasis",
    "make_hermite_basis",
    "validate_density",
    "wigner_of_signal",
    "weyl_quantize",
    "weyl_symbol",
    "mixed_matrix_element",
    "SymbolIdentityResiduals",
    "symbol_identity_residual",
    "oscillator_exponential_symbol",
    "oscillator_exponential_kernel",
    "wigner_of_density",
    "kirkwood_qp_closed",
    "kirkwood_pq_closed",
    "KirkwoodResiduals",
    "wigner_to_kirkwood_residual",
    "char_function_qp",
    "char_function_pq",
]

BOUNDARY_TINY = 1e-12  # relative to max|h|
# density invariants (Hermiticity, unit trace) and the basis projection residual
DENSITY_TOL = 1e-8


def validate_density(rho: OperatorKernel) -> None:
    """Check the density-operator invariants: Hermiticity and unit trace."""
    herm = np.abs(rho.values - rho.values.conj().T).max()
    if herm > DENSITY_TOL:
        raise ValueError(f"density operator not Hermitian: asymmetry {herm:.3g} > {DENSITY_TOL:g}")
    tr = rho.axis.weights @ np.diagonal(rho.values)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"density operator trace {tr:.6g} differs from 1 by > {DENSITY_TOL:g}")


def make_hermite_basis(n_max: int, axis: Axis) -> HermiteBasis:
    """Tabulate psi_0..psi_{n_max} on the axis.

    Discrete orthonormality (sum_k w_k psi_m psi_n = delta_mn, w = Axis.weights) holds once
    the axis covers roughly [-sqrt(2 n_max) - 4, sqrt(2 n_max) + 4] and the
    step resolves the fastest oscillation.
    """
    return HermiteBasis(axis, hermite_functions(n_max, axis.values))


# ---------------------------------------------------------------------------
# interpolation helpers

def _cell_on(axis: Axis, at, what: str, where: str):
    """``axis.cell(at)``, if every point is finite and on the axis (0 <= s <= 1)."""
    at = np.asarray(at, dtype=float)
    finite = np.isfinite(at)
    if not finite.all():  # cell casts to int, which NaN and inf cannot take
        raise ValueError(f"{what} value {at[~finite].flat[0]} is not finite")
    i, s = axis.cell(at)
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise ValueError(f"{what} [{at.min()}, {at.max()}] outside the {where} "
                         f"[{axis.min}, {axis.max}], which is too small")
    return i, s


def _antidiagonal_transform(values: np.ndarray, axis: Axis,
                            p_out: np.ndarray, q_out: np.ndarray) -> np.ndarray:
    """int du e^{-i p u} values(q + u/2, q - u/2) for each output (p, q).

    The u-lattice advances by one axis cell per node (du = 2 step), so the
    anti-diagonal samples land on kernel nodes for on-grid q and on bilinear
    blends of the four neighbors for fractional q.  Every anti-diagonal is
    gathered, with its trapezoid weights, into one zero-padded column of a
    (2n - 1) x n_q matrix (u = 2 step j, |j| < n), which a single Fourier
    matrix then contracts.
    """
    n, step = axis.n, axis.step
    k0, s = _cell_on(axis, q_out, "requested q-range", "kernel axis")
    # a fractional q also reads row/column k0 + 1
    jmax = np.minimum(k0, n - 1 - k0 - (s > 0.0))
    j = np.arange(1 - n, n)[:, None]
    # trapezoid weights per column; a one-sample column (axis end) keeps weight 1
    w = np.where((np.abs(j) == jmax) & (jmax > 0), 0.5, 1.0) * (np.abs(j) <= jmax)
    r, c = np.clip(k0 + j, 0, n - 1), np.clip(k0 - j, 0, n - 1)
    # a +1 neighbor past the kernel is read only where s = 0 or w = 0: clip it too
    r1, c1 = np.minimum(r + 1, n - 1), np.minimum(c + 1, n - 1)
    diag = ((1 - s) ** 2 * values[r, c]
            + s * (1 - s) * (values[r1, c] + values[r, c1])
            + s ** 2 * values[r1, c1])
    u = 2.0 * step * j[:, 0]
    return (np.exp(-1j * np.outer(p_out, u)) @ (w * diag)) * 2.0 * step


# ---------------------------------------------------------------------------
# Wigner / Weyl maps

def wigner_of_signal(psi: Signal, grid: PhaseGrid) -> SampledField:
    """Wigner transform of a signal,

        W(p, q) = (1/2pi) int du e^{i p u} conj(psi)(q + u/2) psi(q - u/2),

    computed as the Wigner function of the rank-1 density |psi><psi|; for
    off-lattice q the bilinear anti-diagonal read factors into the product of
    the two linear reads of psi.
    """
    rank1 = OperatorKernel(psi.axis, np.outer(psi.values, np.conj(psi.values)))
    return wigner_of_density(rank1, grid)


def weyl_quantize(h: SampledField, axis: Axis) -> OperatorKernel:
    """Operator kernel of a phase-space symbol:

        <q1|H|q2> = (1/2pi) int dp h(p, (q1+q2)/2) e^{i p (q1 - q2)}.

    q1 and q2 both run over ``axis``, so q1 - q2 runs over the 2n - 1 lattice
    differences: the symbol is Fourier-transformed along p once onto those
    differences, and each (q1, q2) reads its difference row there, with the
    midpoint column read by linear interpolation in q (exact when midpoints
    land on symbol nodes).  A p-boundary magnitude above BOUNDARY_TINY max|h|
    degrades accuracy and is reported as a warning, not an error.
    """
    ax_p, ax_q = h.grid.p_axis, h.grid.q_axis
    mag = np.abs(h.values)
    edge = mag[[0, -1]].max()
    if edge > BOUNDARY_TINY * mag.max():
        warnings.warn(
            f"symbol magnitude {edge:.3g} at the p-boundary exceeds {BOUNDARY_TINY:g} "
            f"of max|h| = {mag.max():.3g}; p-truncation may dominate the quantization error",
            stacklevel=2,
        )
    n, q = axis.n, axis.values
    j0, s = _cell_on(ax_q, (q[:, None] + q[None, :]) / 2.0, "midpoints", "symbol q-range")
    d = axis.step * np.arange(1 - n, n)
    wh = ax_p.weights[:, None] * h.values
    F = (np.exp(1j * np.outer(d, ax_p.values)) @ wh) / (2.0 * np.pi)
    i = np.arange(n)
    row = i[:, None] - i[None, :] + n - 1
    vals = F[row, j0] * (1.0 - s) + F[row, j0 + 1] * s
    return OperatorKernel(axis, vals)


def weyl_symbol(H: OperatorKernel, grid: PhaseGrid) -> SampledField:
    """Phase-space symbol of an operator kernel (momentum-first storage):

        h(p, q) = int du e^{-i p u} <q + u/2|H|q - u/2>.

    q-values on the kernel lattice sample the anti-diagonals exactly;
    off-lattice q falls back to bilinear interpolation (error O(step^2)),
    so tight tolerances call for aligned grids.
    """
    vals = _antidiagonal_transform(H.values, H.axis, grid.p_axis.values, grid.q_axis.values)
    return SampledField(grid, vals)


def wigner_of_density(rho: OperatorKernel, grid: PhaseGrid) -> SampledField:
    """Wigner function of a density operator: symbol / (2 pi), same sign."""
    sym = weyl_symbol(rho, grid)
    return SampledField(grid, sym.values / (2.0 * np.pi))


def _dense_fourier(axis: Axis, a: np.ndarray, xs) -> np.ndarray:
    """(2 pi)^{-1/2} sum_j w_j e^{-i x q_j} a_j over axis 0 of ``a``, with
    w the axis's trapezoid weights.

    Dense on purpose: it is the side of the symbol identity that shares no
    code with the chirp-z transform.  A non-finite frequency is rejected: it
    would give NaN, or warn and then give NaN.
    """
    xs = np.asarray(xs, float)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise ValueError(f"frequency {bad[0]} is not finite")
    E = np.exp(-1j * np.outer(xs, axis.values)) * axis.weights
    return (E @ a) / np.sqrt(2.0 * np.pi)


def _mixed_grid(H: OperatorKernel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    ax = H.axis
    i, s = _cell_on(ax, ys, "y", "kernel axis")
    iy = i + (s > 0.5)
    return _dense_fourier(ax, H.values[:, iy], xs)


def mixed_matrix_element(H: OperatorKernel, x: float, y: float) -> complex:
    """Momentum-bra matrix element <p = x|H|y>:

        (2 pi)^{-1/2} int dq1 e^{-i x q1} <q1|H|y>,

    with y snapped to the nearest q2 column (tests choose y on-grid, which
    keeps tight tolerances honest; snapping beats silently interpolating).
    """
    return complex(_mixed_grid(H, np.array([float(x)]), np.array([float(y)]))[0, 0])


class SymbolIdentityResiduals(NamedTuple):
    transform_side: float
    inverse_side: float


def symbol_identity_residual(
    H: OperatorKernel,
    symbol_grid: PhaseGrid,
    out_grid: PhaseGrid,
) -> SymbolIdentityResiduals:
    """Residuals of the operator/transform correspondence, both directions.

    transform_side: max |T[symbol](x, y) - sqrt(2 pi) <p=x|H|y> e^{ixy}|
    inverse_side:   max |sqrt(2 pi) T^{-1}[<p=x|H|y> e^{ixy}](p, q) - symbol(p, q)|

    The two sides follow independent code paths (quadrature + resampled
    transform vs a single Fourier contraction of the kernel).  out_grid's
    y-values should lie on the kernel's q2 columns and capture the matrix
    element's support.
    """
    sym = weyl_symbol(H, symbol_grid)
    xs = out_grid.p_axis.values
    ys = out_grid.q_axis.values
    me = _mixed_grid(H, xs, ys)
    phase = np.exp(1j * np.outer(xs, ys))

    ts = forward_fast(sym, out_grid).values
    res_a = float(np.abs(ts - np.sqrt(2 * np.pi) * me * phase).max())

    G = SampledField(out_grid, me * phase)
    back = inverse_fast(G, symbol_grid).values * np.sqrt(2 * np.pi)
    res_b = float(np.abs(back - sym.values).max())
    return SymbolIdentityResiduals(res_a, res_b)


# ---------------------------------------------------------------------------
# oscillator exponential

def oscillator_exponential_symbol(f: complex, grid: PhaseGrid) -> SampledField:
    """Symbol of exp(f * (P^2 + Q^2 - 1)/2) = exp(f * N):

        h(p, q) = (2/(e^f + 1)) * exp( ((e^f - 1)/(e^f + 1)) (p^2 + q^2) ).

    The exponent coefficient is fixed by the spectral oracle
    (``oscillator_exponential_kernel`` + ``weyl_quantize`` round trip): at
    e^f -> 0 it reproduces the ground-state projector symbol 2 e^{-(p^2+q^2)},
    and at f = i(pi/2 - alpha) the chirplet exp(i tan(pi/4 - alpha/2) rho^2)
    scaled by 2/(i e^{-i alpha} + 1).  An f whose e^f is not finite (NaN,
    overflow) is rejected; f = -inf, the projector limit, is not.  Re(f) > 0
    is rejected too, as in ``oscillator_exponential_kernel``: the symbol would
    grow as e^{c(p^2+q^2)} with Re c > 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(complex(f))
    if not np.isfinite(z):
        raise ValueError(f"e^f is not finite at f={f}")
    if complex(f).real > 1e-12:
        raise ValueError(f"Re(f) must be <= 0 for a bounded symbol, got {f}")
    if abs(z + 1.0) < 1e-9:
        raise ValueError(f"e^f={z} is within 1e-9 of -1 (singular correspondence)")
    c = (z - 1.0) / (z + 1.0)
    pref = 2.0 / (z + 1.0)
    return sample_field(lambda P, Q: pref * np.exp(c * (P**2 + Q**2)), grid)


def oscillator_exponential_kernel(f: complex, basis: HermiteBasis) -> OperatorKernel:
    """Spectral kernel sum_{n <= n_max} e^{f n} psi_n(q1) psi_n(q2).

    Exact oracle for the oscillator exponential on the truncated eigenbasis;
    requires a finite f with Re(f) <= 0 so the coefficients stay bounded.
    """
    f = complex(f)
    if not np.isfinite(f):
        raise ValueError(f"f must be finite, got {f}")
    if f.real > 1e-12:
        raise ValueError(f"Re(f) must be <= 0 for a bounded spectral sum, got {f}")
    coeff = np.exp(f * np.arange(basis.n_max + 1))
    vals = (basis.table.T * coeff) @ basis.table
    return OperatorKernel(basis.axis, vals)


# ---------------------------------------------------------------------------
# Kirkwood-Rihaczek closed forms and characteristic functions

def kirkwood_qp_closed(psi: Signal, p, q):
    """Kirkwood-Rihaczek value for the pure state |psi><psi|:

        conj(psi)(q) * psi~(p) * e^{i p q} / sqrt(2 pi),

    with psi~(p) = (2 pi)^{-1/2} int dq e^{-i p q} psi(q) by trapezoid.
    Broadcasts over array p, q; psi(q) is exact for q on the signal lattice
    and linearly interpolated otherwise.  A q outside the signal axis is
    rejected, not extrapolated.
    """
    p = np.asarray(p, dtype=float)
    i, s = _cell_on(psi.axis, q, "q", "signal axis")
    ft = _dense_fourier(psi.axis, psi.values, p.ravel()).reshape(p.shape)
    pq = (1.0 - s) * psi.values[i] + s * psi.values[i + 1]
    out = np.conj(pq) * ft * np.exp(1j * p * q) / np.sqrt(2.0 * np.pi)
    return complex(out) if out.ndim == 0 else out


def kirkwood_pq_closed(psi: Signal, p, q):
    """Anti-ordered partner: psi(q) * conj(psi~)(p) * e^{-i p q} / sqrt(2 pi),
    the complex conjugate of the ordered form."""
    return np.conj(kirkwood_qp_closed(psi, p, q))


class KirkwoodResiduals(NamedTuple):
    qp: float
    pq: float


def wigner_to_kirkwood_residual(
    psi: Signal,
    wigner_grid: PhaseGrid,
    out_grid: PhaseGrid,
) -> KirkwoodResiduals:
    """Residuals of the transform-of-Wigner identities for a pure state.

    qp: max |T[W](x -> p, y -> q) - kirkwood_qp_closed(psi, p, q)|
    pq: max |T^{-1}[W](p, q)      - kirkwood_pq_closed(psi, p, q)|
    """
    W = wigner_of_signal(psi, wigner_grid)
    P = out_grid.p_axis.values[:, None]
    Q = out_grid.q_axis.values[None, :]
    fw = forward_fast(W, out_grid).values
    res_qp = float(np.abs(fw - kirkwood_qp_closed(psi, P, Q)).max())
    bw = inverse_fast(W, out_grid).values
    res_pq = float(np.abs(bw - kirkwood_pq_closed(psi, P, Q)).max())
    return KirkwoodResiduals(res_qp, res_pq)


def _zmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a and b, on scipy's BLAS (``zgemm``).

    Each operand is passed in its own memory order, a C-ordered one as its
    transpose with the transpose flag set, so f2py copies nothing; the
    product comes back Fortran-ordered.
    """
    ta, tb = int(not a.flags.f_contiguous), int(not b.flags.f_contiguous)
    return zgemm(1.0, a.T if ta else a, b.T if tb else b, trans_a=ta, trans_b=tb)


def _project_density(rho: OperatorKernel, basis: HermiteBasis) -> tuple[np.ndarray, float]:
    """The basis matrix R = (B w) rho (B w)^T of rho, B the basis table and w
    the axis's trapezoid weights scaling its columns, and the projection
    residual |rho - B^T R B| / |rho| (Frobenius), which must not exceed
    DENSITY_TOL.  Every product and norm runs on scipy's BLAS (see the module
    docstring)."""
    if rho.axis != basis.axis:
        raise ValueError("density operator must be sampled on the basis axis")
    table = basis.table.astype(complex)
    tw = table * basis.axis.weights
    R = _zmm(_zmm(tw, rho.values), tw.T)
    recon = _zmm(_zmm(table.T, R), table)
    denom = dznrm2(rho.values.ravel())
    resid = dznrm2((rho.values - recon).ravel(order="K")) / denom if denom > 0 else 0.0
    if resid > DENSITY_TOL:
        raise ValueError(f"density operator poorly represented in the basis (projection residual "
                         f"{resid:.3g} > {DENSITY_TOL:g}); increase n_max or the axis range")
    return R, resid


def _exp_qp(u: float, v: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-iuQ}, e^{-ivP}) for n = 0..n_max from the real generator K (P = -iK):
    expm(-vK), and expm(-uK) conjugated by D = diag(i^n) from an exact table."""
    off = np.sqrt(np.arange(1, n_max + 1) / 2.0)
    K = np.diag(off, 1) - np.diag(off, -1)
    d = np.array([1, 1j, -1, -1j])[np.arange(n_max + 1) % 4]
    return np.conj(d)[:, None] * expm(-u * K) * d, expm(-v * K)


def _char_function(rho: OperatorKernel, basis: HermiteBasis, u: float, v: float,
                   q: float, p: float, ordered: bool) -> complex:
    """Tr[rho e^{-iQu} e^{-iPv}] (``ordered``) or Tr[rho e^{-iPv} e^{-iQu}],
    through matrix exponentials in the truncated eigenbasis, times
    e^{i(qu + pv)}.  Both exponentials come from the one real antisymmetric
    generator K of ``_exp_qp`` (P = -iK, Q = D^H P D), so scipy's real
    ``expm`` path runs instead of its complex one, and every product and
    norm runs on scipy's BLAS too (``_zmm``; see the module docstring)."""
    for what, x in (("u", u), ("v", v), ("q", q), ("p", p)):
        if not np.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x}")
    R, _ = _project_density(rho, basis)
    eQ, eP = _exp_qp(u, v, basis.n_max)
    eP = eP.astype(complex)
    val = np.trace(_zmm(_zmm(R, eQ), eP) if ordered else _zmm(_zmm(R, eP), eQ))
    val = complex(val * np.exp(1j * (q * u + p * v)))
    if not np.isfinite(val):  # expm overflows for |u| or |v| near the float range
        raise ValueError(f"characteristic function at u={u}, v={v} is not finite")
    return val


def char_function_qp(rho: OperatorKernel, basis: HermiteBasis, u: float, v: float,
                     q: float = 0.0, p: float = 0.0) -> complex:
    """Ordered characteristic function Tr[rho e^{i(q-Q)u} e^{i(p-P)v}].

    The basis stops at n_max, so the value holds only while the states that
    e^{-iQu} e^{-iPv} moves rho's into stay inside it; past that it is finite
    but wrong, and no error is raised.  Measured for the ground state on a
    241-node axis over [-12, 12], against
    e^{-(u^2+v^2)/4 - iuv/2}: with n_max = 48, 6.7e-16 at |u| = 9, 4.7e-14 at
    u = 10, 1.2e-8 at 12 and 1.6e-3 at 15 (v = 0), and 8.0e-6 at (u, v) =
    (7, 7); with n_max = 36, 5.6e-10 at u = 9 and 4.05e-4 at u = 12."""
    return _char_function(rho, basis, u, v, q, p, ordered=True)


def char_function_pq(rho: OperatorKernel, basis: HermiteBasis, u: float, v: float,
                     q: float = 0.0, p: float = 0.0) -> complex:
    """Anti-ordered characteristic function Tr[rho e^{i(p-P)v} e^{i(q-Q)u}]:
    the conjugate of the ordered one at (-u, -v) for Hermitian rho.  Its range
    is ``char_function_qp``'s: against e^{-(u^2+v^2)/4 + iuv/2}, the ground
    state gives the same errors at the same points."""
    return _char_function(rho, basis, u, v, q, p, ordered=False)
