"""Uniform sampling axes, 2D phase-space fields, 1D signals, operator kernels,
oscillator basis tables, and weighted norms.

Conventions used throughout the package:

* an ``Axis`` is endpoint-inclusive with samples ``min + k*step``,
  ``step = (max - min)/(n - 1)``;
* an ``OperatorKernel(axis, values)`` holds an operator H as its position
  kernel ``values[j, k] = <q_j|H|q_k>``, both indices on one axis;
* a ``HermiteBasis(axis, table)`` holds the oscillator eigenfunctions
  ``table[n, k] = psi_n(q_k)``, one real row per n = 0..n_max;
* a ``PhaseGrid`` is the tensor product of a momentum-like axis (first
  argument, outer/row index) and a position-like axis (second argument,
  inner/column index), stored row-major;
* every integral over an axis or a grid is the trapezoid rule, read from
  ``Axis.weights`` (step included), the one quadrature rule; a grid's rule is
  the product of its axes' rules, applied one axis at a time, so no n_p x n_q
  weight array is built.  The weighted squared norm of a field h is
  ``(1/pi) * integral |h(p,q)|^2 dp dq``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

__all__ = [
    "Axis",
    "HermiteBasis",
    "OperatorKernel",
    "PhaseGrid",
    "SampledField",
    "Signal",
    "make_axis",
    "sample_field",
    "weighted_norm_sq",
    "trapezoid_weights",
]


def trapezoid_weights(n: int) -> np.ndarray:
    """Composite trapezoid-rule weights for n uniformly spaced samples."""
    if n < 2:
        raise ValueError(f"trapezoid rule needs at least 2 samples, got {n}")
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class Axis:
    """Endpoint-inclusive uniform 1D sampling axis.

    Samples are exactly ``min + k*step`` for k = 0..n-1; the last sample is
    pinned to ``max`` to guard against one-ulp drift of the product form.
    """

    min: float
    max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise ValueError(f"axis bounds must be finite, got [{self.min}, {self.max}]")
        if not isinstance(self.n, Integral):  # a float n disagrees with len(values)
            raise ValueError(f"axis needs an integer n, got n={self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise ValueError(f"axis needs n >= 2 samples, got n={self.n}")
        # a positive step means max > min; finite bounds can still overflow
        # max - min to inf, or a tiny span underflow the step to 0
        if not 0 < self.step < np.inf:
            raise ValueError(f"axis needs max > min and a finite step > 0, got "
                             f"[{self.min}, {self.max}] with n={self.n}")

    @property
    def step(self) -> float:
        return (self.max - self.min) / (self.n - 1)

    @property
    def values(self) -> np.ndarray:
        v = self.min + self.step * np.arange(self.n)
        v[-1] = self.max
        return v

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid-rule weights times the step: ``sum(weights * f(values))``
        approximates the integral of f over the axis."""
        return trapezoid_weights(self.n) * self.step

    def cell(self, at):
        """``(i, s)`` with ``at = values[i] + s*step``, for a scalar or an array.

        ``i`` is clipped to [0, n-2], so ``i + 1`` is a valid index and
        ``(1 - s)*v[i] + s*v[i+1]`` reads a sampled ``v`` linearly; ``s`` leaves
        [0, 1] beyond the axis.  A point within 1e-12 cells of a node, or
        within the rounding error of ``(at - min)/step`` if that is larger,
        snaps onto it: ``s`` is then exactly 0, or exactly 1 at the last node.
        """
        at = np.asarray(at, dtype=float)
        t = (at - self.min) / self.step
        k = np.round(t)
        tol = np.maximum(
            1e-12, 8 * np.finfo(float).eps * (np.abs(at) + abs(self.min)) / self.step)
        t = np.where(np.abs(t - k) < tol, k, t)
        i = np.clip(np.floor(t), 0, self.n - 2).astype(int)
        return i, t - i


def make_axis(lo: float, hi: float, n: int) -> Axis:
    """Validated axis constructor. See :class:`Axis` for the sample formula."""
    return Axis(float(lo), float(hi), n)


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor-product grid: p (momentum-like, rows) x q (position-like, cols)."""

    p_axis: Axis
    q_axis: Axis

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p_axis.n, self.q_axis.n)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) coordinate arrays of shape (n_p, n_q)."""
        return np.meshgrid(self.p_axis.values, self.q_axis.values, indexing="ij")


def _check_values(values: np.ndarray, shape: tuple[int, ...], what: str,
                  dtype=complex) -> np.ndarray:
    if dtype is not complex and np.iscomplexobj(values):  # a cast would drop the imaginary part
        if np.any(np.imag(values)):
            raise ValueError(f"{what} has a non-zero imaginary part")
        values = np.real(values)
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} values shape {arr.shape} does not match {shape}")
    if not np.all(np.isfinite(arr)):  # False where either part is NaN or infinite
        raise ValueError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampledField:
    """Complex function sampled on a PhaseGrid, values[j, k] = h(p_j, q_k)."""

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.values, self.grid.shape, "field"))


@dataclass(frozen=True)
class Signal:
    """Complex 1D wavefunction psi(q) on an Axis."""

    axis: Axis
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.values, (self.axis.n,), "signal"))


@dataclass(frozen=True)
class OperatorKernel:
    """Position-representation kernel <q1|H|q2>; q1 and q2 both run over
    ``axis``, so the kernel is square."""

    axis: Axis
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.values, (self.axis.n,) * 2, "kernel"))


@dataclass(frozen=True)
class HermiteBasis:
    """Oscillator eigenfunctions psi_n tabulated on an axis, one real row per n = 0..n_max."""

    axis: Axis
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (max(np.shape(self.table)[:1] + (1,)), self.axis.n)  # one row or more
        object.__setattr__(self, "table", _check_values(self.table, shape, "basis table", float))

    @property
    def n_max(self) -> int:
        return self.table.shape[0] - 1


def sample_field(fn: Callable, grid: PhaseGrid) -> SampledField:
    """Sample a pointwise function of (p, q) on a grid.

    ``fn`` is called with coordinate arrays (numpy-broadcastable); a
    non-finite result raises with the offending grid point named.
    """
    P, Q = grid.meshes()
    vals = np.asarray(fn(P, Q), dtype=complex)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    bad = ~np.isfinite(vals)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise ValueError(
            f"function evaluated non-finite at grid point (p={float(P[j, k])!r}, "
            f"q={float(Q[j, k])!r})"
        )
    return SampledField(grid, vals)


def weighted_norm_sq(h: SampledField) -> float:
    """Trapezoid approximation of (1/pi) * iint |h(p,q)|^2 dp dq."""
    return float(h.grid.p_axis.weights @ np.abs(h.values) ** 2 @ h.grid.q_axis.weights / np.pi)
