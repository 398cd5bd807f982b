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

from chirpspace import PhaseGrid, SampledField, make_axis
from chirpspace.suites import _gaussian_poly_field as gaussian_poly_field  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(123)


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
