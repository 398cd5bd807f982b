import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirpspace import (
    PhaseGrid,
    SampledField,
    forward_direct,
    forward_fast,
    forward_shifted_form,
    gaussian_transform_closed,
    inverse_direct,
    inverse_fast,
    make_axis,
    parseval_residual,
    sample_field,
)

from conftest import (
    assert_chirp_resolved,
    gaussian_poly_field,
    naive_shifted_form,
    naive_transform,
    square_grid,
)


def gaussian_field(grid, lam=1.0):
    return sample_field(lambda P, Q: np.exp(-lam * (P**2 + Q**2)), grid)


class TestAgainstNaiveSum:
    """Both paths must reproduce the unfactored per-point kernel sum."""

    def test_forward_paths_match_naive(self, rng):
        grid = PhaseGrid(make_axis(-5, 5, 24), make_axis(-4, 4, 20))
        out = PhaseGrid(make_axis(-2, 2, 7), make_axis(-1.5, 2.5, 6))
        h = gaussian_poly_field(grid, rng)
        ref = naive_transform(h, out)
        assert np.abs(forward_direct(h, out).values - ref).max() < 1e-12
        assert np.abs(forward_fast(h, out).values - ref).max() < 1e-12

    def test_inverse_paths_match_naive(self, rng):
        grid = PhaseGrid(make_axis(-5, 5, 22), make_axis(-5, 5, 26))
        out = PhaseGrid(make_axis(-2, 2, 5), make_axis(-2, 2, 8))
        h = gaussian_poly_field(grid, rng)
        ref = naive_transform(h, out, sign=-1)
        assert np.abs(inverse_direct(h, out).values - ref).max() < 1e-12
        assert np.abs(inverse_fast(h, out).values - ref).max() < 1e-12


class TestOracleEquivalence:
    def test_fast_vs_direct_gaussian_64(self):
        grid = square_grid(6, 64)
        h = gaussian_field(grid)
        d = forward_direct(h, grid).values
        f = forward_fast(h, grid).values
        assert np.abs(f - d).max() < 1e-8

    def test_inverse_fast_vs_direct_random(self, rng):
        grid = square_grid(6, 48)
        h = gaussian_poly_field(grid, rng)
        d = inverse_direct(h, grid).values
        f = inverse_fast(h, grid).values
        assert np.abs(f - d).max() < 1e-8


class TestClosedFormImages:
    def test_gaussian_image_matches_closed_form(self):
        grid = square_grid(6, 128)
        f = forward_fast(gaussian_field(grid), grid)
        X, Y = grid.meshes()
        ref = gaussian_transform_closed(1.0, X, Y)
        assert np.abs(f.values - ref).max() < 1e-6

    def test_gaussian_image_origin_value(self):
        grid = square_grid(6, 129)  # odd count puts (0, 0) on the grid
        f = forward_fast(gaussian_field(grid), grid)
        assert f.values[64, 64] == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_weakly_damped_constant_is_near_one(self):
        # regularized flat input: image approaches 1 on compact sets
        eps = 0.05
        grid = square_grid(25, 801)
        out = square_grid(1.0, 5)
        f = forward_fast(gaussian_field(grid, eps), out)
        X, Y = out.meshes()
        assert np.abs(f.values - gaussian_transform_closed(eps, X, Y)).max() < 1e-6
        assert np.abs(f.values - 1.0).max() < 0.15

    def test_inverse_recovers_gaussian_from_closed_image(self):
        fgrid = square_grid(7.5, 160)
        X, Y = fgrid.meshes()
        img = SampledField(fgrid, gaussian_transform_closed(1.0, X, Y))
        out = square_grid(5, 81)
        h = inverse_fast(img, out)
        P, Q = out.meshes()
        assert np.abs(h.values - np.exp(-(P**2 + Q**2))).max() < 1e-6

    def test_regularized_flat_inverse_is_near_one(self):
        eps = 0.05
        grid = square_grid(25, 801)
        out = square_grid(1.0, 5)
        h = inverse_fast(gaussian_field(grid, eps), out)
        assert np.abs(h.values - 1.0).max() < 0.15


class TestRoundTrip:
    @pytest.mark.parametrize("fwd,inv", [(forward_fast, inverse_fast),
                                         (forward_direct, inverse_direct)])
    def test_invertibility(self, rng, fwd, inv):
        grid = square_grid(6, 128)
        mid = square_grid(10, 216)
        assert_chirp_resolved(grid)
        assert_chirp_resolved(mid)
        h = gaussian_poly_field(grid, rng)
        back = inv(fwd(h, mid), grid)
        rel = np.linalg.norm(back.values - h.values) / np.linalg.norm(h.values)
        assert rel < 1e-6

    def test_zero_field_maps_to_zero(self):
        grid = square_grid(4, 32)
        z = SampledField(grid, np.zeros(grid.shape))
        assert np.all(forward_fast(z, grid).values == 0)
        assert np.all(inverse_fast(z, grid).values == 0)

    def test_type_errors(self):
        g = square_grid(2, 4)
        with pytest.raises(TypeError):
            forward_fast(np.zeros((4, 4)), g)
        with pytest.raises(TypeError):
            forward_fast(SampledField(g, np.zeros(g.shape)), "not a grid")


class TestLinearity:
    @given(
        a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    def test_both_paths_linear(self, a, b):
        rng = np.random.default_rng(5)
        grid = PhaseGrid(make_axis(-3, 3, 16), make_axis(-3, 3, 12))
        out = square_grid(2, 6)
        h1 = gaussian_poly_field(grid, rng)
        h2 = gaussian_poly_field(grid, rng)
        combo = SampledField(grid, a * h1.values + b * h2.values)
        for op in (forward_fast, forward_direct):
            lhs = op(combo, out).values
            rhs = a * op(h1, out).values + b * op(h2, out).values
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() / scale < 1e-12


class TestParseval:
    def test_gaussian(self):
        h = gaussian_field(square_grid(6, 128))
        assert parseval_residual(h, square_grid(10, 216)) < 1e-6

    def test_hermite_gaussian(self):
        grid = square_grid(6, 128)
        P, Q = grid.meshes()
        h = SampledField(grid, (P + 1j * Q) * np.exp(-(P**2 + Q**2) / 2))
        assert parseval_residual(h, square_grid(10, 216)) < 1e-6

    def test_scale_invariance(self):
        grid = square_grid(6, 96)
        out = square_grid(10, 160)
        h = gaussian_field(grid)
        h7 = SampledField(grid, 7.0 * h.values)
        assert parseval_residual(h7, out) == pytest.approx(
            parseval_residual(h, out), rel=1e-6, abs=1e-15)

    def test_rejects_zero_field(self):
        grid = square_grid(2, 8)
        with pytest.raises(ValueError, match="zero field"):
            parseval_residual(SampledField(grid, np.zeros(grid.shape)), grid)


class TestShiftedForm:
    def test_matches_direct_and_tightens_with_refinement(self):
        out = square_grid(2, 5)
        errs = {}
        for n in (128, 256):
            grid = square_grid(6, n)
            h = gaussian_field(grid)
            shifted = forward_shifted_form(h, out).values
            ref = forward_fast(h, out).values
            errs[n] = np.abs(shifted - ref).max()
        assert errs[256] < 5e-4   # bilinear-interpolation floor at this step
        assert errs[128] < 2e-3
        assert errs[256] < errs[128]

    def test_zero_field(self):
        grid = square_grid(4, 32)
        z = SampledField(grid, np.zeros(grid.shape))
        out = square_grid(1, 3)
        assert np.abs(forward_shifted_form(z, out).values).max() == 0.0

    @given(
        bounds=st.lists(st.floats(0.5, 3.0), min_size=4, max_size=4),
        n_p=st.integers(2, 12),
        n_q=st.integers(2, 12),
        out_lo=st.tuples(st.floats(-1.5, 0.0), st.floats(-1.5, 0.0)),
        seed=st.integers(0, 10_000),
    )
    def test_matches_per_point_quadrature(self, bounds, n_p, n_q, out_lo, seed):
        # random values have not decayed at the boundary, so the reads past
        # the grid edge (zero beyond it) carry weight
        grid = PhaseGrid(make_axis(-bounds[0], bounds[1], n_p),
                         make_axis(-bounds[2], bounds[3], n_q))
        out = PhaseGrid(make_axis(out_lo[0], out_lo[0] + 1.3, 3),
                        make_axis(out_lo[1], out_lo[1] + 0.9, 4))
        r = np.random.default_rng(seed)
        h = SampledField(grid, r.standard_normal(grid.shape)
                         + 1j * r.standard_normal(grid.shape))
        ref = naive_shifted_form(h, out)
        got = forward_shifted_form(h, out).values
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_flat_field_matches_per_point_quadrature(self):
        grid = PhaseGrid(make_axis(-3, 3, 24), make_axis(-2.5, 3.5, 19))
        out = PhaseGrid(make_axis(-1, 1.5, 4), make_axis(-2, 0.7, 3))
        h = SampledField(grid, np.ones(grid.shape))
        ref = naive_shifted_form(h, out)
        got = forward_shifted_form(h, out).values
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
