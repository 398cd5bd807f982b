"""Closed-form identities of the chirp transform.

The Gaussian image

    T[exp(-lam (p^2+q^2))](x, y)
        = (lam^2+1)^{-1/2} exp( -lam (x^2+y^2)/(lam^2+1) + 2i lam^2 xy/(lam^2+1) )

specializes, at lam = -i tan(pi/4 - alpha/2), to the kernel of the
fractional Fourier transform of angle alpha:

    K_alpha(x, y) = (2 pi i sin(alpha) e^{-i alpha})^{-1/2}
                    * exp( i (x^2+y^2)/(2 tan alpha) - i x y / sin alpha )

so the transform maps a unit-magnitude chirplet exp(i tan(pi/4 - alpha/2)
(p^2+q^2)) onto sqrt(2 pi) K_alpha(x, y) e^{ixy}.  Square roots take the
principal branch; the spectral oracle below pins that choice rather than
assuming it.  The chirplet identity holds on that branch for sin alpha > 0;
where sin alpha < 0 the chirp rate |tan(pi/4 - alpha/2)| exceeds 1, and on
(-pi/2, 0) mod 2 pi the closed form takes the other branch (minus the kernel),
so ``chirplet_identity_residual`` refuses such angles.

``frft_kernel_hermite`` is the branch-unambiguous oracle: the eigenfunction
series sum_n e^{-i alpha n} psi_n(x) psi_n(y), summed with a smooth erfc
taper over its last portion because the raw partial sums of this
unit-modulus-coefficient series only converge conditionally.  The tapered
sum is accurate once n_terms comfortably exceeds the semiclassical depth
n* ~ (|x|+|y|)^2 / (2 d^2), d = distance of alpha from the nearest multiple
of pi; below that no resummation of the truncated series can recover the
kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import PhaseGrid, SampledField
from .hermite import hermite_functions
from .xform import forward_fast

__all__ = [
    "SIN_ALPHA_GUARD",
    "FrFTParams",
    "params_of_alpha",
    "gaussian_transform_closed",
    "chirplet_field",
    "frft_kernel",
    "frft_kernel_hermite",
    "ChirpletIdentityResiduals",
    "chirplet_identity_residual",
]

# 1/sin and 1/tan amplify rounding below this; keeps 1e-12 identity checks honest
SIN_ALPHA_GUARD = 0.1


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if abs(np.sin(alpha)) < SIN_ALPHA_GUARD:
        raise ValueError(
            f"alpha={alpha} is within the kernel singularity guard "
            f"(|sin alpha| = {abs(np.sin(alpha)):.3g} < {SIN_ALPHA_GUARD})"
        )
    return alpha


def _check_chirplet_alpha(alpha: float) -> float:
    """The chirplet identity's range, sin alpha >= SIN_ALPHA_GUARD: where
    sin alpha < 0 the closed form sits on the other square-root branch."""
    alpha = _check_alpha(alpha)
    if np.sin(alpha) < 0:
        raise ValueError(
            f"alpha={alpha} is outside the chirplet identity's range "
            f"sin alpha >= {SIN_ALPHA_GUARD} (sin alpha = {np.sin(alpha):.3g})"
        )
    return alpha


@dataclass(frozen=True)
class FrFTParams:
    """Coupled parameters of the fractional-Fourier specialization."""

    alpha: float
    lam: complex          # -i tan(pi/4 - alpha/2)
    f_exponent: complex   # i (pi/2 - alpha), from i e^{-i alpha} = e^f


def params_of_alpha(alpha: float) -> FrFTParams:
    """Build FrFTParams; rejects alpha near multiples of pi (singular kernel)."""
    alpha = _check_alpha(alpha)
    # tan(pi/4 - alpha/2) from sin and cos of alpha itself, which frft_kernel
    # reads too; forming pi/4 - alpha/2 would lose about |alpha| eps.  Each
    # form adds terms of one sign, so neither cancels.
    s, c = np.sin(alpha), np.cos(alpha)
    lam = -1j * (c / (1.0 + s) if s >= 0 else (1.0 - s) / c)
    return FrFTParams(alpha=alpha, lam=lam, f_exponent=1j * (np.pi / 2 - alpha))


def gaussian_transform_closed(lam: complex, x, y):
    """Closed form of the transform applied to exp(-lam (p^2+q^2)).

    Valid for Re(lam) >= 0; on the Re(lam) = 0 edge the value is the analytic
    continuation (principal square root; radicand never crosses the cut on
    that closure).  lam = +-i is the genuine singularity and is rejected.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    d = lam * lam + 1.0
    if not np.isfinite(d):
        raise ValueError(f"lam={lam} is too large: lam^2 + 1 leaves the float range")
    if abs(d) < 1e-9:
        raise ValueError(f"lam={lam} is within 1e-9 of the singular points +-i")
    x = np.asarray(x)
    y = np.asarray(y)
    return (1.0 / np.sqrt(d)) * np.exp(-lam * (x**2 + y**2) / d + 2j * lam**2 * x * y / d)


def chirplet_field(alpha: float, epsilon: float, grid: PhaseGrid) -> SampledField:
    """Gaussian-regularized chirplet exp{-(lam + eps)(p^2+q^2)}, lam from ``params_of_alpha``.

    The caller's grid must resolve the chirp (step <= pi / (2 max|coord|));
    that is a test-harness responsibility and is not enforced here.
    """
    if not 0 < epsilon < np.inf:  # False for NaN as well
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")
    c = -float(epsilon) - params_of_alpha(alpha).lam
    e_p, e_q = (np.exp(c * ax.values**2) for ax in (grid.p_axis, grid.q_axis))
    return SampledField(grid, np.outer(e_p, e_q))


def frft_kernel(alpha: float, x, y):
    """Fractional-Fourier kernel K_alpha(x, y); principal square root.

    Reduces to the ordinary Fourier kernel (2 pi)^{-1/2} e^{-ixy} at
    alpha = pi/2.  Symmetric in x <-> y.
    """
    alpha = _check_alpha(alpha)
    s = np.sin(alpha)
    pref = 1.0 / np.sqrt(2 * np.pi * 1j * s * np.exp(-1j * alpha))
    x = np.asarray(x)
    y = np.asarray(y)
    return pref * np.exp(1j * (x**2 + y**2) / (2 * np.tan(alpha)) - 1j * x * y / s)


# erfc taper: keep the first TAPER_KEEP fraction untouched, roll off over the
# rest with slope chosen so the endpoint weight is ~erfc(4.4)/2 ~ 2e-10
_TAPER_KEEP = 0.3
_TAPER_SLOPE = 8.8


def _taper(n_terms: int) -> np.ndarray:
    nmax = n_terms - 1
    n0 = int(_TAPER_KEEP * nmax)
    if n0 == nmax:  # one term: nothing to roll off, so it keeps its full weight
        return np.ones(n_terms)
    s = (nmax - n0) / _TAPER_SLOPE
    return np.array([1.0 if k < n0 else 0.5 * math.erfc((k - (n0 + nmax) / 2.0) / s)
                     for k in range(n_terms)])


def frft_kernel_hermite(alpha: float, x, y, n_terms: int):
    """Spectral oracle for the kernel: tapered eigenfunction sum.

    sum_n e^{-i alpha n} psi_n(x) psi_n(y) over n < n_terms, with a smooth
    erfc roll-off over the last 70% of the terms (the series converges only
    conditionally; the taper extracts its Abel limit).  Converges to
    ``frft_kernel`` and thereby pins the square-root branch.  Accuracy
    requires n_terms well above (|x|+|y|)^2 / (2 dist(alpha, pi Z)^2).
    x and y broadcast; broadcast axes (``xs[:, None]``, ``ys[None, :]``) keep
    the Hermite tables at n_terms x len(xs) and n_terms x len(ys).
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    nmax = n_terms - 1
    coeff = np.exp(-1j * alpha * np.arange(n_terms)) * _taper(n_terms)
    return np.einsum("n,n...,n...->...", coeff,
                     hermite_functions(nmax, x), hermite_functions(nmax, y))


class ChirpletIdentityResiduals(NamedTuple):
    closed_form: float
    quadrature: float | None
    quadrature_vs_closed: float | None


def chirplet_identity_residual(
    alpha: float,
    epsilon: float,
    chirplet_grid: PhaseGrid | None,
    out_grid: PhaseGrid,
) -> ChirpletIdentityResiduals:
    """Deviation of (2/(i e^{-i alpha} + 1)) T[chirplet] from sqrt(2 pi) K_alpha e^{ixy}.

    Two evaluations of the left side:

    * closed form at lam = epsilon - i tan(pi/4 - alpha/2), exact in epsilon
      (epsilon = 0 gives the pure analytic continuation);
    * quadrature: ``forward_fast`` applied to the regularized chirplet sampled
      on ``chirplet_grid``, run if and only if that grid is given (then
      epsilon must be > 0); ``quadrature`` is None without a grid.

    Returns the max-abs deviation over ``out_grid`` per path, and
    ``quadrature_vs_closed``, the max-abs deviation of the quadrature from
    the closed form at the same epsilon (None without a grid).  The first two
    include the damping's bias |closed(epsilon) - closed(0)|; the third does
    not, so it sees the quadrature's own error.  Angles with
    sin alpha < SIN_ALPHA_GUARD are rejected: the identity holds on the
    principal branch only for sin alpha > 0.
    """
    alpha = _check_chirplet_alpha(alpha)
    if not 0 <= epsilon < np.inf:  # False for NaN as well
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    pref = 2.0 / (1j * np.exp(-1j * alpha) + 1.0)
    X, Y = out_grid.meshes()
    target = np.sqrt(2 * np.pi) * frft_kernel(alpha, X, Y) * np.exp(1j * X * Y)

    closed = pref * gaussian_transform_closed(params_of_alpha(alpha).lam + epsilon, X, Y)
    res_closed = float(np.abs(closed - target).max())

    res_quad = res_vs_closed = None
    if chirplet_grid is not None:
        ch = chirplet_field(alpha, epsilon, chirplet_grid)
        quad = pref * forward_fast(ch, out_grid).values
        res_quad = float(np.abs(quad - target).max())
        res_vs_closed = float(np.abs(quad - closed).max())
    return ChirpletIdentityResiduals(res_closed, res_quad, res_vs_closed)
