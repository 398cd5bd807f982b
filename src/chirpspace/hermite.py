"""Normalized Hermite functions (harmonic-oscillator eigenfunctions).

psi_0(x) = pi^{-1/4} exp(-x^2/2) and the stable normalized three-term
recurrence

    psi_{n+1} = sqrt(2/(n+1)) * x * psi_n - sqrt(n/(n+1)) * psi_{n-1},

which keeps every value O(1) and is safe up to a few thousand orders.
"""
from __future__ import annotations

import numpy as np

__all__ = ["hermite_functions"]


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Table psi_n(x) for n = 0..n_max; shape (n_max+1,) + shape(x)."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
    return out
