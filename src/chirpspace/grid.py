"""Uniform sampling axes, 2D phase-space fields, 1D signals, and weighted norms.

Conventions used throughout the package:

* an ``Axis`` is endpoint-inclusive with samples ``min + k*step``,
  ``step = (max - min)/(n - 1)``;
* a ``PhaseGrid`` is the tensor product of a momentum-like axis (first
  argument, outer/row index) and a position-like axis (second argument,
  inner/column index), stored row-major;
* the weighted squared norm of a field h is the trapezoid approximation of
  ``(1/pi) * integral |h(p,q)|^2 dp dq``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Axis",
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
        if self.n < 2:
            raise ValueError(f"axis needs n >= 2 samples, got n={self.n}")
        if not self.max > self.min:
            raise ValueError(f"axis needs max > min, got [{self.min}, {self.max}]")

    @property
    def step(self) -> float:
        return (self.max - self.min) / (self.n - 1)

    @property
    def values(self) -> np.ndarray:
        v = self.min + self.step * np.arange(self.n)
        v[-1] = self.max
        return v

    def cell(self, at):
        """``(i, s)`` with ``at = values[i] + s*step``, for a scalar or an array.

        ``i`` is clipped to [0, n-2], so ``i + 1`` is a valid index and
        ``(1 - s)*v[i] + s*v[i+1]`` reads a sampled ``v`` linearly; ``s`` leaves
        [0, 1] beyond the axis.  A point within 1e-12 cells of a node snaps
        onto it: ``s`` is then exactly 0, or exactly 1 at the last node.
        """
        t = (np.asarray(at, dtype=float) - self.min) / self.step
        k = np.round(t)
        t = np.where(np.abs(t - k) < 1e-12, k, t)
        i = np.clip(np.floor(t), 0, self.n - 2).astype(int)
        return i, t - i


def make_axis(lo: float, hi: float, n: int) -> Axis:
    """Validated axis constructor. See :class:`Axis` for the sample formula."""
    return Axis(float(lo), float(hi), int(n))


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


def _check_values(values: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} values shape {arr.shape} does not match {shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
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


def sample_field(fn: Callable, grid: PhaseGrid) -> SampledField:
    """Sample a pointwise function of (p, q) on a grid.

    ``fn`` is called with coordinate arrays (numpy-broadcastable); a
    non-finite result raises with the offending grid point named.
    """
    P, Q = grid.meshes()
    vals = np.asarray(fn(P, Q), dtype=complex)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    bad = ~(np.isfinite(vals.real) & np.isfinite(vals.imag))
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise ValueError(
            f"function evaluated non-finite at grid point (p={float(P[j, k])!r}, "
            f"q={float(Q[j, k])!r})"
        )
    return SampledField(grid, vals)


def weighted_norm_sq(h: SampledField) -> float:
    """Trapezoid approximation of (1/pi) * iint |h(p,q)|^2 dp dq."""
    wp = trapezoid_weights(h.grid.p_axis.n)
    wq = trapezoid_weights(h.grid.q_axis.n)
    acc = np.sum((np.abs(h.values) ** 2) * np.outer(wp, wq))
    return float(acc * h.grid.p_axis.step * h.grid.q_axis.step / np.pi)
