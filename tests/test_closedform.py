import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirpspace import (
    chirplet_field,
    chirplet_identity_residual,
    frft_kernel,
    frft_kernel_hermite,
    gaussian_transform_closed,
    hermite_functions,
    params_of_alpha,
    sample_field,
)

from conftest import square_grid

ALPHAS_OK = st.floats(0.11, np.pi - 0.11)


class TestParams:
    def test_fourier_angle_gives_zero_lambda(self):
        assert abs(params_of_alpha(np.pi / 2)) < 1e-15

    def test_pi_third_values(self):
        assert params_of_alpha(np.pi / 3) == pytest.approx(-1j * np.tan(np.pi / 12), abs=1e-15)

    def test_guard_boundary(self):
        params_of_alpha(2.8)  # sin(2.8) ~ 0.335, accepted
        with pytest.raises(ValueError, match="singularity guard"):
            params_of_alpha(3.1)
        with pytest.raises(ValueError, match="singularity guard"):
            params_of_alpha(0.05)

    @given(alpha=ALPHAS_OK)
    def test_parameter_identities(self, alpha):
        lam = params_of_alpha(alpha)
        d = lam**2 + 1
        assert abs(-lam / d - 1j / (2 * np.tan(alpha))) < 1e-12
        assert abs(2 * lam**2 / d - (1 - 1 / np.sin(alpha))) < 1e-12

    def test_parameter_identities_second_branch(self):
        for alpha in np.linspace(np.pi + 0.15, 2 * np.pi - 0.15, 25):
            lam = params_of_alpha(alpha)
            d = lam**2 + 1
            assert abs(-lam / d - 1j / (2 * np.tan(alpha))) < 1e-12
            assert abs(2 * lam**2 / d - (1 - 1 / np.sin(alpha))) < 1e-12


class TestGaussianClosed:
    def test_unit_lambda_origin(self):
        assert gaussian_transform_closed(1.0, 0.0, 0.0) == pytest.approx(
            1 / np.sqrt(2), abs=1e-15)

    def test_zero_lambda_is_identity(self):
        X = np.linspace(-3, 3, 7)
        assert np.abs(gaussian_transform_closed(0.0, X, X[::-1]) - 1.0).max() < 1e-15

    def test_unit_lambda_at_one_one(self):
        ref = (1 / np.sqrt(2)) * np.exp(-1.0) * np.exp(1j)
        assert gaussian_transform_closed(1.0, 1.0, 1.0) == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("lam", [1j, -1j, 1j + 1e-10])
    def test_rejects_singular_lambda(self, lam):
        with pytest.raises(ValueError, match="singular"):
            gaussian_transform_closed(lam, 0.0, 0.0)

    @pytest.mark.parametrize("lam, match", [
        *((lam, "lam must be finite")
          for lam in (np.nan, np.inf, -np.inf, complex(0, np.nan), 1 + 1j * np.inf)),
        # lam^2 + 1 overflows: an OverflowError from complex exponentiation
        *((lam, "is too large") for lam in (1e200, 1e200 + 1e200j)),
    ])
    def test_rejects_a_non_finite_lambda(self, lam, match):
        with pytest.raises(ValueError, match=match):
            gaussian_transform_closed(lam, 0.0, 0.0)

    def test_small_lambda_limit_uniform(self):
        # image tends to 1 uniformly on compact sets as the width vanishes
        x = np.linspace(-2, 2, 9)
        X, Y = np.meshgrid(x, x, indexing="ij")
        for lam in (1e-3, 1e-4):
            assert np.abs(gaussian_transform_closed(lam, X, Y) - 1.0).max() < 10 * lam


class TestChirpletField:
    def grid(self):
        return square_grid(1, 3)  # contains (0,0) and (1,1)

    def test_fourier_angle_is_pure_gaussian(self):
        f = chirplet_field(np.pi / 2, 0.3, self.grid())
        P, Q = self.grid().meshes()
        assert np.abs(f.values - np.exp(-0.3 * (P**2 + Q**2))).max() < 1e-15

    def test_unit_at_origin(self):
        for alpha in (0.4, np.pi / 2, 2.6):
            f = chirplet_field(alpha, 0.17, self.grid())
            assert f.values[1, 1] == 1.0

    def test_value_at_one_one(self):
        f = chirplet_field(np.pi / 3, 0.01, self.grid())
        ref = np.exp(-0.02) * np.exp(2j * np.tan(np.pi / 12))
        assert f.values[2, 2] == pytest.approx(ref, abs=1e-15)

    def test_magnitude_bounded_by_one(self):
        f = chirplet_field(1.0, 0.05, square_grid(4, 33))
        assert np.abs(f.values).max() <= 1.0 + 1e-15

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_nonpositive_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon must be > 0 and finite"):
            chirplet_field(1.0, eps, self.grid())

    @pytest.mark.parametrize("alpha, match", [
        (0.0, "singularity guard"), (3.1, "singularity guard"),
        (np.nan, "must be finite"), (np.inf, "must be finite"),
    ])
    def test_rejects_alpha_like_params_of_alpha(self, alpha, match):
        with pytest.raises(ValueError, match=match):
            chirplet_field(alpha, 0.1, self.grid())

    # the dyadic suite grid (step 1/16) and a non-dyadic one (step 0.03)
    @pytest.mark.parametrize("extent", [25.0, 12.0])
    @pytest.mark.parametrize("alpha, epsilon", [(np.pi / 3, 0.02), (2.5, 0.1)])
    def test_separable_sampling_matches_pointwise(self, extent, alpha, epsilon):
        grid = square_grid(extent, 801)
        t = np.tan(np.pi / 4 - alpha / 2)
        c = -epsilon + 1j * t
        ref = sample_field(lambda P, Q: np.exp(c * (P**2 + Q**2)), grid).values
        bound = 8 * np.finfo(float).eps * (1 + abs(t) * 2 * extent**2)
        assert np.abs(chirplet_field(alpha, epsilon, grid).values - ref).max() <= bound


class TestFrftKernel:
    def test_fourier_angle_reduces_to_fourier_kernel(self):
        x = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(x, x, indexing="ij")
        ref = np.exp(-1j * X * Y) / np.sqrt(2 * np.pi)
        assert np.abs(frft_kernel(np.pi / 2, X, Y) - ref).max() < 1e-14

    def test_origin_value_pi_third(self):
        ref = 1 / np.sqrt(2 * np.pi * 1j * np.sin(np.pi / 3) * np.exp(-1j * np.pi / 3))
        assert frft_kernel(np.pi / 3, 0.0, 0.0) == pytest.approx(ref, abs=1e-15)

    @given(alpha=ALPHAS_OK, x=st.floats(-4, 4), y=st.floats(-4, 4))
    def test_argument_symmetry(self, alpha, x, y):
        assert frft_kernel(alpha, x, y) == frft_kernel(alpha, y, x)

    def test_guard(self):
        with pytest.raises(ValueError, match="singularity guard"):
            frft_kernel(3.1, 0.0, 0.0)


class TestHermiteOracle:
    def test_fourier_angle_100_terms(self):
        x = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(x, x, indexing="ij")
        s = frft_kernel_hermite(np.pi / 2, X, Y, 100)
        assert np.abs(s - frft_kernel(np.pi / 2, X, Y)).max() < 1e-8

    def test_moderate_angle_400_terms(self):
        x = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(x, x, indexing="ij")
        s = frft_kernel_hermite(1.0, X, Y, 400)
        assert np.abs(s - frft_kernel(1.0, X, Y)).max() < 1e-8

    def test_origin_even_terms_only(self):
        # independent half-recurrence for psi_{2k}(0); odd orders vanish
        table = hermite_functions(200, np.array(0.0))
        assert np.abs(table[1::2]).max() == 0.0
        vals = [np.pi**-0.25]
        for n in range(1, 100):
            vals.append(-np.sqrt((2 * n - 1) / (2 * n)) * vals[-1])
        assert np.allclose(table[0::2][:100], vals, rtol=0, atol=1e-14)
        k = frft_kernel_hermite(np.pi / 2, 0.0, 0.0, 100)
        assert k == pytest.approx(frft_kernel(np.pi / 2, 0.0, 0.0), abs=1e-10)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="n_terms"):
            frft_kernel_hermite(1.0, 0.0, 0.0, 0)

    def test_one_term_keeps_its_full_weight(self):
        # the one-term taper was [0.5], which halved psi_0(x) psi_0(y)
        x = np.linspace(-2, 2, 9)
        psi0 = hermite_functions(0, x)[0]
        s = frft_kernel_hermite(0.7, x[:, None], x[None, :], 1)
        assert np.array_equal(s, np.outer(psi0, psi0).astype(complex))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_angle(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            frft_kernel_hermite(alpha, 0.0, 0.0, 10)


class TestChirpletIdentity:
    def out_grid(self):
        return square_grid(2, 9)

    def test_closed_path_continuation(self):
        res = chirplet_identity_residual(np.pi / 3, 0.0, None, self.out_grid())
        assert res.closed_form < 1e-10
        assert res.quadrature is None and res.quadrature_vs_closed is None

    @pytest.mark.parametrize("k", [10**3, 10**5, 10**9])
    def test_closed_path_holds_at_every_equivalent_angle(self, k):
        # lam from tan(pi/4 - alpha/2) lost about |alpha| eps in the subtraction,
        # while the kernel reads sin and tan of alpha itself: 1.4e-12 at k = 1e3
        res = chirplet_identity_residual(np.pi / 3 + 2 * np.pi * k, 0.0, None, self.out_grid())
        assert res.closed_form < 1e-13

    def test_quadrature_path_small_region(self):
        cgrid = square_grid(25, 801)
        out = square_grid(0.2, 5)
        r5 = chirplet_identity_residual(np.pi / 2, 0.05, cgrid, out)
        r1 = chirplet_identity_residual(np.pi / 2, 0.01, cgrid, out)
        assert r5.quadrature < 1e-2
        assert r1.quadrature < r5.quadrature
        # at equal damping only the quadrature's own error remains
        assert r5.quadrature_vs_closed < 1e-11

    @pytest.mark.parametrize("eps", [-0.1, -np.inf, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_epsilon(self, eps):
        # NaN passed an `epsilon < 0` guard and gave closed_form = nan
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            chirplet_identity_residual(1.0, eps, None, self.out_grid())

    def test_quadrature_grid_needs_positive_epsilon(self):
        # a grid asks for the quadrature, which has no undamped chirplet to sample
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            chirplet_identity_residual(1.0, 0.0, square_grid(10, 201), self.out_grid())

    def test_guard(self):
        with pytest.raises(ValueError, match="singularity guard"):
            chirplet_identity_residual(3.13, 0.0, None, self.out_grid())

    @pytest.mark.parametrize("alpha", [-1.0, 4.0])
    def test_rejects_negative_sine(self, alpha):
        # the closed form sits on the other branch there: at -1.0 it returned 2.18
        with pytest.raises(ValueError, match="chirplet identity's range"):
            chirplet_identity_residual(alpha, 0.0, None, self.out_grid())
