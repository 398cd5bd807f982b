import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from chirpspace import (
    HermiteBasis,
    OperatorKernel,
    PhaseGrid,
    SampledField,
    Signal,
    char_function_pq,
    char_function_qp,
    gaussian_transform_closed,
    hermite_functions,
    kirkwood_pq_closed,
    kirkwood_qp_closed,
    make_axis,
    make_hermite_basis,
    mixed_matrix_element,
    oscillator_exponential_kernel,
    oscillator_exponential_symbol,
    sample_field,
    symbol_identity_residual,
    trapezoid_weights,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner_of_density,
    wigner_of_signal,
    wigner_to_kirkwood_residual,
)

from chirpspace.quantum import _antidiagonal_transform, _exp_qp, _project_density
from chirpspace.suites import _weyl_test_symbol
from conftest import (
    naive_char_function,
    naive_weyl_quantize,
    naive_weyl_symbol,
    observed_orders,
    square_grid,
)

SIG_AXIS = make_axis(-8.0, 8.0, 257)      # step 1/16
OP_AXIS = make_axis(-9.0, 9.0, 145)       # step 1/8
# the kirkwood suite's grids
KIRKWOOD_WIGNER = square_grid(6.5, 209)
KIRKWOOD_OUT = PhaseGrid(make_axis(-5.0, 5.0, 161), make_axis(-5.0, 5.0, 161))
# the symbol-identity suite's grids; its operator axis is SIG_AXIS
SYMBOL_GRID = PhaseGrid(make_axis(-6.0, 6.0, 129), make_axis(-6.0, 6.0, 97))
SYMBOL_OUT = PhaseGrid(make_axis(-7.0, 7.0, 225), make_axis(-7.0, 7.0, 225))
# alpha of the damped fractional Fourier operator e^{fN}, f = -log 3 - i alpha;
# alpha = 0 is left to the verify cases weyl-spectral and symbol-identity-osc-*
DAMPED_ROTATIONS = [np.pi / 3, np.pi / 2, 2 * np.pi / 3, 2.8]


def state_signal(n):
    return Signal(SIG_AXIS, hermite_functions(n, SIG_AXIS.values)[n].astype(complex))


def projector_kernel(n, axis=OP_AXIS):
    psi = hermite_functions(n, axis.values)[n]
    return OperatorKernel(axis, np.outer(psi, psi).astype(complex))


def boosted_gaussian(p0, q0, axis=SIG_AXIS):
    """pi^{-1/4} e^{-(q-q0)^2/2 + i p0 q}: a complex state with both offsets."""
    q = axis.values
    return Signal(axis, np.pi**-0.25 * np.exp(-(q - q0)**2 / 2 + 1j * p0 * q))


def random_complex(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def lattice_t(n):
    """A position in axis cells: on a node, or strictly between two."""
    return st.integers(0, n - 1) | st.builds(
        lambda k, s: k + s, st.integers(0, n - 2), st.floats(0.05, 0.95))


@st.composite
def kernel_cases(draw):
    """Random kernel on a small axis, plus an output grid whose q-range runs
    between two lattice positions (nodes, the axis ends, or between nodes)."""
    n = draw(st.integers(2, 12))
    lo = draw(st.floats(-3.0, 0.0))
    ax = make_axis(lo, lo + draw(st.floats(0.5, 6.0)), n)
    ta, tb = draw(lattice_t(n)), draw(lattice_t(n))
    if ta == tb:
        ta, tb = 0, n - 1
    ta, tb = sorted((ta, tb))
    q_axis = make_axis(ax.min + ta * ax.step, ax.min + tb * ax.step, draw(st.integers(2, 7)))
    p_max = draw(st.floats(0.5, 4.0))
    grid = PhaseGrid(make_axis(-p_max, p_max, draw(st.integers(2, 6))), q_axis)
    return OperatorKernel(ax, random_complex(draw(st.integers(0, 2**32 - 1)), (n, n))), grid


@st.composite
def symbol_cases(draw):
    """Random symbol (zero on the p-boundary) plus an operator axis inside its
    q-range: the same axis, one sharing its ends, or a random sub-range."""
    lo = draw(st.floats(-3.0, 0.0))
    p_max = draw(st.floats(0.5, 4.0))
    grid = PhaseGrid(make_axis(-p_max, p_max, draw(st.integers(3, 9))),
                     make_axis(lo, lo + draw(st.floats(0.5, 6.0)), draw(st.integers(2, 12))))
    vals = random_complex(draw(st.integers(0, 2**32 - 1)), grid.shape)
    vals[0] = vals[-1] = 0.0
    kind = draw(st.sampled_from(["same", "ends", "inside"]))
    qa = grid.q_axis
    if kind == "same":
        return SampledField(grid, vals), qa
    a, b = 0.0, 1.0
    if kind == "inside":
        a = draw(st.floats(0.0, 0.9))
        b = draw(st.floats(a + 0.05, 1.0))
    length = qa.max - qa.min
    ax = make_axis(qa.min + a * length, qa.min + b * length, draw(st.integers(2, 10)))
    return SampledField(grid, vals), ax


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def trapz2(vals, grid):
    w = np.outer(trapezoid_weights(grid.p_axis.n), trapezoid_weights(grid.q_axis.n))
    return np.sum(vals * w) * grid.p_axis.step * grid.q_axis.step


class TestWignerOfSignal:
    def test_ground_state_gaussian(self):
        grid = PhaseGrid(make_axis(-5, 5, 81), make_axis(-5, 5, 161))
        W = wigner_of_signal(state_signal(0), grid)
        P, Q = grid.meshes()
        assert np.abs(W.values - np.exp(-(P**2 + Q**2)) / np.pi).max() < 1e-8

    def test_boosted_displaced_gaussian(self):
        # complex state: a conjugate on the wrong factor mirrors the peak to -p0
        p0, q0 = -1.5, 1.0
        psi = boosted_gaussian(p0, q0)
        grid = PhaseGrid(make_axis(-5, 5, 81), make_axis(-4, 4, 65))
        W = wigner_of_signal(psi, grid)
        P, Q = grid.meshes()
        assert np.abs(W.values - np.exp(-(P - p0)**2 - (Q - q0)**2) / np.pi).max() < 1e-8

    def test_normalization(self):
        grid = PhaseGrid(make_axis(-6, 6, 129), make_axis(-6, 6, 193))
        W = wigner_of_signal(state_signal(0), grid)
        assert trapz2(W.values.real, grid) == pytest.approx(1.0, abs=1e-6)

    def test_even_real_signal_symmetry(self):
        grid = PhaseGrid(make_axis(-4, 4, 33), make_axis(-3, 3, 49))
        W = wigner_of_signal(state_signal(0), grid).values
        assert np.abs(W - W[::-1, :]).max() < 1e-14

    def test_rejects_undersized_axis(self):
        grid = PhaseGrid(make_axis(-4, 4, 17), make_axis(-10, 10, 17))
        with pytest.raises(ValueError, match="too small"):
            wigner_of_signal(state_signal(0), grid)

    def test_far_offset_axis_gives_the_same_function(self):
        # the same samples on an axis far from the origin: every q-node must
        # still read as a node, so the Wigner function is unchanged bit for bit
        x = make_axis(-0.5, 0.5, 401).values
        values = np.exp(-x**2 / 0.02) * (1 + 0.3j * x)
        got = []
        for lo in (-0.5, 1000.0):
            ax = make_axis(lo, lo + 1.0, 401)
            grid = PhaseGrid(make_axis(-60, 60, 121), ax)
            got.append(wigner_of_signal(Signal(ax, values), grid).values)
        assert np.abs(got[0]).max() > 0.05
        assert np.array_equal(got[0], got[1])

    def test_off_grid_interpolation_converges_under_refinement(self):
        # q-values straddle signal nodes, so the half-step reads interpolate
        grid = PhaseGrid(make_axis(-2, 2, 21), make_axis(0.03, 0.43, 3))
        P, Q = grid.meshes()
        ref = np.exp(-(P**2 + Q**2)) / np.pi
        errs = {}
        for n in (129, 257):
            ax = make_axis(-8.0, 8.0, n)
            psi = Signal(ax, hermite_functions(0, ax.values)[0].astype(complex))
            errs[n] = np.abs(wigner_of_signal(psi, grid).values - ref).max()
        assert errs[257] < errs[129] / 2
        assert errs[257] < 1e-3


class TestWeylQuantize:
    def test_regularized_identity_symbol(self):
        eps = 0.01
        grid = PhaseGrid(make_axis(-55, 55, 513), make_axis(-3.2, 3.2, 513))
        h = sample_field(lambda P, Q: np.exp(-eps * (P**2 + Q**2)), grid)
        ax = make_axis(-3, 3, 121)
        K = weyl_quantize(h, ax)
        Q1, Q2 = np.meshgrid(ax.values, ax.values, indexing="ij")
        ref = (np.exp(-eps * ((Q1 + Q2) / 2) ** 2) * np.sqrt(np.pi / eps)
               * np.exp(-((Q1 - Q2) ** 2) / (4 * eps)) / (2 * np.pi))
        assert np.abs(K.values - ref).max() < 1e-6

    @pytest.mark.parametrize("alpha", DAMPED_ROTATIONS)
    def test_oscillator_symbol_quantizes_to_spectral_kernel(self, alpha):
        f = complex(-np.log(3.0), -alpha)
        grid = PhaseGrid(make_axis(-8, 8, 161), make_axis(-9, 9, 289))
        h = oscillator_exponential_symbol(f, grid)
        K = weyl_quantize(h, OP_AXIS)
        ref = oscillator_exponential_kernel(f, make_hermite_basis(45, OP_AXIS))
        assert np.abs(K.values - ref.values).max() < 1e-6

    def test_warns_on_fat_p_boundary(self):
        grid = PhaseGrid(make_axis(-2, 2, 65), make_axis(-2, 2, 65))
        h = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), grid)
        ax = make_axis(-1, 1, 17)
        with pytest.warns(UserWarning, match="p-boundary"):
            weyl_quantize(h, ax)

    def test_a_decayed_symbol_does_not_warn_at_any_scale(self):
        # the weyl suite's symbol and grids; its p-boundary is 3e-14 of max|h|
        grid = PhaseGrid(make_axis(-8, 8, 161), make_axis(-9, 9, 289))
        h = sample_field(lambda P, Q: 1e13 * _weyl_test_symbol(P, Q), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weyl_quantize(h, OP_AXIS)

    def test_a_flat_symbol_warns_at_any_scale(self):
        grid = PhaseGrid(make_axis(-8, 8, 161), make_axis(-9, 9, 289))
        h = sample_field(lambda P, Q: np.full(P.shape, 1e-13), grid)
        with pytest.warns(UserWarning, match="p-boundary"):
            weyl_quantize(h, OP_AXIS)

    def test_rejects_midpoints_outside_symbol_range(self):
        grid = PhaseGrid(make_axis(-8, 8, 65), make_axis(-2, 2, 65))
        h = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), grid)
        ax = make_axis(-5, 5, 17)
        with pytest.raises(ValueError, match="midpoints"):
            weyl_quantize(h, ax)

    @given(symbol_cases())
    def test_matches_per_pair_quadrature(self, case):
        h, ax = case
        assert_close(weyl_quantize(h, ax).values, naive_weyl_quantize(h, ax))


class TestWeylSymbol:
    def test_regularized_identity_kernel_symbol_near_one(self):
        # resolved delta-approximant: Gaussian kernel of the eps-damped flat symbol
        eps = 0.01
        ax = make_axis(-3, 3, 241)
        Q1, Q2 = np.meshgrid(ax.values, ax.values, indexing="ij")
        K = OperatorKernel(ax, (np.exp(-eps * ((Q1 + Q2) / 2) ** 2)
                                * np.sqrt(np.pi / eps)
                                * np.exp(-((Q1 - Q2) ** 2) / (4 * eps))
                                / (2 * np.pi)).astype(complex))
        grid = PhaseGrid(make_axis(-1, 1, 21), make_axis(-1, 1, 41))
        sym = weyl_symbol(K, grid)
        P, Q = grid.meshes()
        assert np.abs(sym.values - np.exp(-eps * (P**2 + Q**2))).max() < 1e-6
        assert np.abs(sym.values - 1.0).max() < 0.05

    def test_ground_projector_symbol(self):
        # q-axis step 1/8 keeps anti-diagonal sampling on the kernel lattice
        grid = PhaseGrid(make_axis(-4, 4, 73), make_axis(-4, 4, 65))
        sym = weyl_symbol(projector_kernel(0), grid)
        P, Q = grid.meshes()
        assert np.abs(sym.values - 2.0 * np.exp(-(P**2 + Q**2))).max() < 1e-6

    def test_hermitian_kernel_gives_real_symbol(self):
        K = projector_kernel(2)
        sym = weyl_symbol(K, square_grid(3, 33))
        assert np.abs(sym.values.imag).max() < 1e-10

    def test_off_lattice_interpolation_converges_under_refinement(self):
        grid = PhaseGrid(make_axis(-2, 2, 21), make_axis(0.037, 0.437, 3))
        P, Q = grid.meshes()
        ref = 2.0 * np.exp(-(P**2 + Q**2))
        errs = {}
        for n in (73, 145):
            ax = make_axis(-9.0, 9.0, n)
            errs[n] = np.abs(weyl_symbol(projector_kernel(0, ax), grid).values
                             - ref).max()
        assert errs[145] < errs[73] / 2
        assert errs[145] < 2e-2

    def test_off_lattice_error_is_second_order(self):
        # q at the cell midpoints of each kernel axis, so every refinement
        # reads at the same cell fraction (1/2) and the order is not noisy
        errs = []
        for n in (65, 129, 257):
            ax = make_axis(-8.0, 8.0, n)
            half = ax.step / 2
            grid = PhaseGrid(make_axis(-2, 2, 5), make_axis(-1 + half, 1 + half, 3))
            P, Q = grid.meshes()
            errs.append(np.abs(weyl_symbol(projector_kernel(0, ax), grid).values
                               - 2.0 * np.exp(-(P**2 + Q**2))).max())
        orders = observed_orders(errs)
        assert np.all((1.8 <= orders) & (orders <= 2.2)), orders

    @given(kernel_cases())
    def test_matches_per_point_quadrature(self, case):
        K, grid = case
        ref = naive_weyl_symbol(K.values, K.axis, grid.p_axis.values, grid.q_axis.values)
        assert_close(weyl_symbol(K, grid).values, ref)

    @given(kernel_cases())
    def test_reads_the_kernel_as_a_zero_padded_copy_does(self, case):
        # the +1 neighbors are clipped to the kernel where a padded (n+1)^2 copy
        # read its zero rim; the rim is read only with coefficient 0 (s = 0) or
        # weight 0 (|j| > jmax), so the two reads agree exactly
        K, grid = case
        n, (p, q) = K.axis.n, (grid.p_axis.values, grid.q_axis.values)
        padded = np.zeros((n + 1, n + 1), complex)
        padded[:n, :n] = K.values
        k0, s = K.axis.cell(q)
        jmax = np.minimum(k0, n - 1 - k0 - (s > 0.0))
        j = np.arange(1 - n, n)[:, None]
        w = np.where((np.abs(j) == jmax) & (jmax > 0), 0.5, 1.0) * (np.abs(j) <= jmax)
        r, c = np.clip(k0 + j, 0, n - 1), np.clip(k0 - j, 0, n - 1)
        diag = ((1 - s) ** 2 * padded[r, c] + s * (1 - s) * (padded[r + 1, c] + padded[r, c + 1])
                + s ** 2 * padded[r + 1, c + 1])
        ref = (np.exp(-1j * np.outer(p, 2.0 * K.axis.step * j[:, 0])) @ (w * diag)) * 2.0 * K.axis.step
        assert np.array_equal(_antidiagonal_transform(K.values, K.axis, p, q), ref)


class TestMixedMatrixElement:
    def test_ground_projector_factorizes(self):
        K = projector_kernel(0)
        worst = 0.0
        for x in (-1.5, 0.0, 0.75):
            for y in (-1.0, 0.0, 2.0):   # on-grid columns of OP_AXIS
                val = mixed_matrix_element(K, x, y)
                ref = (np.pi**-0.25 * np.exp(-x**2 / 2)) * (np.pi**-0.25 * np.exp(-y**2 / 2))
                worst = max(worst, abs(val - ref))
        assert worst < 1e-8

    def test_identity_kernel_gives_fourier_phase(self):
        ax = make_axis(-8, 8, 257)
        ident = OperatorKernel(ax, np.eye(ax.n, dtype=complex) / ax.step)
        for x, y in ((0.5, 1.0), (-1.25, 0.0)):
            val = mixed_matrix_element(ident, x, y)
            assert val == pytest.approx(np.exp(-1j * x * y) / np.sqrt(2 * np.pi), abs=1e-12)

    def test_damped_oscillator_exponential_matches_continuation(self):
        # slightly damped rotation: spectral sum is absolutely convergent and
        # must match the closed-form section of the transform identity
        for alpha in (0.3, 1.0, 2.0, 2.8):
            f = complex(-0.05, np.pi / 2 - alpha)
            basis = make_hermite_basis(700, make_axis(-42, 42, 1401))
            K = oscillator_exponential_kernel(f, basis)
            z = np.exp(f)
            lam = (1 - z) / (1 + z)
            worst = 0.0
            for x in (-1.5, 0.0, 1.0):
                for y in (-1.5, 0.0, 1.5):
                    val = mixed_matrix_element(K, x, y)
                    ref = (2.0 / (1 + z)) * gaussian_transform_closed(lam, x, y) \
                        * np.exp(-1j * x * y) / np.sqrt(2 * np.pi)
                    worst = max(worst, abs(val - ref))
            assert worst < 1e-8, f"alpha={alpha}"

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match=f"frequency {x} is not finite"):
            mixed_matrix_element(projector_kernel(0), x, 0.0)

    def test_rejects_y_outside_axis(self):
        with pytest.raises(ValueError, match="outside"):
            mixed_matrix_element(projector_kernel(0), 0.0, 100.0)


class TestSymbolIdentity:
    @pytest.mark.parametrize("alpha", DAMPED_ROTATIONS)
    def test_oscillator_exponential_residuals(self, alpha):
        f = complex(-np.log(3.0), -alpha)
        K = oscillator_exponential_kernel(f, make_hermite_basis(60, SIG_AXIS))
        res = symbol_identity_residual(K, SYMBOL_GRID, SYMBOL_OUT)
        assert res.transform_side < 1e-6
        assert res.inverse_side < 1e-6

    @pytest.mark.parametrize("p0, q0", [(0.7, -0.5), (1.2, 0.9)])
    def test_boosted_displaced_gaussian_residuals(self, p0, q0):
        # |psi><psi| of a complex state: its Weyl symbol is not even in p
        psi = boosted_gaussian(p0, q0).values
        K = OperatorKernel(SIG_AXIS, np.outer(psi, psi.conj()))
        res = symbol_identity_residual(K, SYMBOL_GRID, SYMBOL_OUT)
        assert res.transform_side < 1e-6
        assert res.inverse_side < 1e-6


class TestOscillatorExponential:
    def test_identity_at_f_zero(self):
        sym = oscillator_exponential_symbol(0.0, square_grid(2, 9))
        assert np.abs(sym.values - 1.0).max() < 1e-15

    def test_third_weighting(self):
        grid = square_grid(2, 9)
        sym = oscillator_exponential_symbol(-np.log(3.0), grid)
        P, Q = grid.meshes()
        ref = 1.5 * np.exp(-(P**2 + Q**2) / 2)
        assert np.abs(sym.values - ref).max() < 1e-14

    def test_rotation_gives_scaled_chirplet(self):
        alpha = 1.1
        grid = square_grid(2, 9)
        sym = oscillator_exponential_symbol(1j * (np.pi / 2 - alpha), grid)
        P, Q = grid.meshes()
        ref = (2.0 / (1j * np.exp(-1j * alpha) + 1)
               * np.exp(1j * np.tan(np.pi / 4 - alpha / 2) * (P**2 + Q**2)))
        assert np.abs(sym.values - ref).max() < 1e-14

    def test_rejects_singular_f(self):
        with pytest.raises(ValueError, match="singular"):
            oscillator_exponential_symbol(1j * np.pi, square_grid(1, 3))

    @pytest.mark.parametrize("f", [np.nan, np.inf, 800.0, complex(0, np.inf)])
    def test_rejects_f_whose_exponential_is_not_finite(self, f):
        with pytest.raises(ValueError, match=re.escape(f"e^f is not finite at f={f}")):
            oscillator_exponential_symbol(f, square_grid(1, 3))

    def test_projector_limit_at_minus_infinity(self):
        grid = square_grid(2, 9)
        P, Q = grid.meshes()
        sym = oscillator_exponential_symbol(-np.inf, grid)
        assert np.abs(sym.values - 2 * np.exp(-(P**2 + Q**2))).max() < 1e-15

    def test_kernel_projector_limit(self):
        basis = make_hermite_basis(40, OP_AXIS)
        K = oscillator_exponential_kernel(-40.0, basis)
        assert np.abs(K.values - projector_kernel(0).values).max() < 1e-12

    def test_kernel_completeness_at_f_zero(self):
        ax = make_axis(-14, 14, 561)
        basis = make_hermite_basis(120, ax)
        K = oscillator_exponential_kernel(0.0, basis)
        # acts as the identity on vectors inside the resolved subspace
        v = np.exp(-((ax.values - 1.0) ** 2))
        assert np.abs(ax.step * K.values @ v - v).max() < 1e-8

    @pytest.mark.parametrize("f", [0.5, 5.0, 700.0, 5 - 2j])
    @pytest.mark.parametrize("build", [
        lambda f: oscillator_exponential_symbol(f, square_grid(30, 11)),
        lambda f: oscillator_exponential_kernel(f, make_hermite_basis(10, OP_AXIS)),
    ], ids=["symbol", "kernel"])
    def test_rejects_growing_f(self, build, f):
        with pytest.raises(ValueError, match=re.escape("Re(f) must be <= 0")):
            build(f)

    @pytest.mark.parametrize("f", [np.nan, -np.inf, complex(0, np.inf)])
    def test_kernel_rejects_non_finite_f(self, f):
        with pytest.raises(ValueError, match="f must be finite"):
            oscillator_exponential_kernel(f, make_hermite_basis(10, OP_AXIS))


class TestWignerOfDensity:
    def test_ground_projector(self):
        grid = PhaseGrid(make_axis(-4, 4, 81), make_axis(-4, 4, 65))
        W = wigner_of_density(projector_kernel(0), grid)
        P, Q = grid.meshes()
        assert np.abs(W.values - np.exp(-(P**2 + Q**2)) / np.pi).max() < 1e-8

    def test_trace_normalization(self):
        grid = PhaseGrid(make_axis(-6, 6, 129), make_axis(-6, 6, 97))
        W = wigner_of_density(projector_kernel(1), grid)
        assert trapz2(W.values.real, grid) == pytest.approx(1.0, abs=1e-6)

    def test_hermitian_density_real_wigner(self):
        W = wigner_of_density(projector_kernel(1), square_grid(4, 49))
        assert np.abs(W.values.imag).max() < 1e-10


class TestDensityValidation:
    def test_projector_is_valid_density(self):
        validate_density(projector_kernel(0))

    def test_rejects_non_hermitian(self):
        vals = projector_kernel(0).values.copy()
        vals[3, 5] += 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(OperatorKernel(OP_AXIS, vals))

    def test_rejects_wrong_trace(self):
        vals = 2.0 * projector_kernel(0).values
        with pytest.raises(ValueError, match="trace"):
            validate_density(OperatorKernel(OP_AXIS, vals))

    def test_trace_is_the_trapezoid_rule(self):
        # psi = 1/sqrt(sum w) has trapezoid trace 1, where step * sum diag reads 1.1
        ax = make_axis(0.0, 1.0, 11)
        psi = np.full(ax.n, 1.0 / np.sqrt(ax.weights.sum()))
        rho = np.outer(psi, psi).astype(complex)
        validate_density(OperatorKernel(ax, rho))
        with pytest.raises(ValueError, match="trace"):
            validate_density(OperatorKernel(ax, 2.0 * rho))


class TestKirkwoodClosed:
    def test_ground_state_value(self):
        psi = state_signal(0)
        for p, q in ((0.5, -1.0), (0.0, 0.0), (1.5, 2.0)):
            val = kirkwood_qp_closed(psi, p, q)
            ref = (np.exp(-(p**2 + q**2) / 2) * np.exp(1j * p * q)
                   / (np.sqrt(2 * np.pi) * np.sqrt(np.pi)))
            assert val == pytest.approx(ref, abs=1e-10)

    def test_normalization(self):
        psi = state_signal(0)
        grid = square_grid(6, 193)  # step 1/16, aligned with the signal axis
        P, Q = grid.meshes()
        total = trapz2(kirkwood_qp_closed(psi, P, Q), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_real_positive_at_zero_momentum(self):
        psi = state_signal(0)
        for q in (-1.0, 0.0, 2.5):
            val = kirkwood_qp_closed(psi, 0.0, q)
            assert abs(val.imag) < 1e-12
            assert val.real > 0

    @pytest.mark.parametrize("p0, q0", [(0.7, -0.5), (1.2, 0.9)])
    def test_boosted_displaced_gaussian_matches_analytic(self, p0, q0):
        # conj psi(q) psi~(p) e^{ipq} / sqrt(2 pi) with
        # psi~(p) = pi^{-1/4} e^{-(p-p0)^2/2 - i(p-p0)q0}
        P, Q = KIRKWOOD_OUT.meshes()
        conj_psi = np.pi**-0.25 * np.exp(-(Q - q0)**2 / 2 - 1j * p0 * Q)
        ft = np.pi**-0.25 * np.exp(-(P - p0)**2 / 2 - 1j * (P - p0) * q0)
        ref = conj_psi * ft * np.exp(1j * P * Q) / np.sqrt(2 * np.pi)
        psi = boosted_gaussian(p0, q0)
        assert np.abs(kirkwood_qp_closed(psi, P, Q) - ref).max() < 1e-10
        assert np.abs(kirkwood_pq_closed(psi, P, Q) - np.conj(ref)).max() < 1e-10

    def test_off_lattice_q_reads_psi_linearly(self):
        psi = boosted_gaussian(0.7, -0.5)
        x, v = psi.axis.values, psi.values
        q = np.array([x[0], -1.0 + 1 / 48, 0.3, 2.0 - 1 / 40, x[-1]])
        p = 0.4
        ft = (np.sum(trapezoid_weights(len(x)) * np.exp(-1j * p * x) * v)
              * psi.axis.step / np.sqrt(2 * np.pi))
        read = np.interp(q, x, v.real) + 1j * np.interp(q, x, v.imag)
        ref = np.conj(read) * ft * np.exp(1j * p * q) / np.sqrt(2 * np.pi)
        assert np.allclose(kirkwood_qp_closed(psi, p, q), ref, rtol=1e-12, atol=0)

    def test_q_beyond_the_signal_axis_is_rejected(self):
        # psi = 1 + 0.5 q on [-2, 2] was read at q = 6 as the extrapolated 4
        ax = make_axis(-2.0, 2.0, 41)
        psi = Signal(ax, (1.0 + 0.5 * ax.values).astype(complex))
        with pytest.raises(ValueError, match="outside"):
            kirkwood_qp_closed(psi, 0.3, 6.0)
        with pytest.raises(ValueError, match="outside"):
            kirkwood_pq_closed(psi, np.zeros(2), np.array([0.0, -2.5]))
        assert np.isfinite(kirkwood_qp_closed(psi, 0.3, 2.0))


    @pytest.mark.parametrize("fn", [kirkwood_qp_closed, kirkwood_pq_closed])
    @pytest.mark.parametrize("q", [np.nan, [0.0, np.nan]], ids=["nan", "0-nan"])
    def test_nan_q_is_rejected(self, fn, q):
        # NaN compares false with both ends, so it must fail the check, not pass it
        psi = state_signal(0)
        with pytest.raises(ValueError, match="q value nan is not finite"):
            fn(psi, np.zeros(np.shape(q)), q)

    @pytest.mark.parametrize("fn", [kirkwood_qp_closed, kirkwood_pq_closed])
    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
    def test_non_finite_p_is_rejected(self, fn, p):
        # a NaN p gave nan+nanj, and an infinite one warned in the exponential
        with pytest.raises(ValueError, match=f"frequency {p} is not finite"):
            fn(state_signal(0), p, 0.0)
        with pytest.raises(ValueError, match=f"frequency {p} is not finite"):
            fn(state_signal(0), np.array([0.5, p]), np.zeros(2))

class TestOnTheAxis:
    """A point read off an axis is on it exactly when ``Axis.cell`` puts it
    there (0 <= s <= 1), at any scale of the axis."""

    def test_a_point_past_the_end_of_a_tiny_axis_is_rejected(self):
        # 5e-13 past [0, 1e-9] is half a percent of a cell, not rounding
        ax = make_axis(0.0, 1e-9, 11)
        past = ax.max + 5e-13
        with pytest.raises(ValueError, match="outside the signal axis"):
            kirkwood_qp_closed(Signal(ax, np.ones(ax.n)), 0.0, past)
        with pytest.raises(ValueError, match="outside the kernel axis .*, which is too small"):
            mixed_matrix_element(OperatorKernel(ax, np.eye(ax.n)), 0.0, past)

    def test_a_point_one_ulp_past_the_end_of_a_far_axis_reads_the_last_node(self):
        ax = make_axis(1e6, 1e6 + 10.0, 11)
        past = np.nextafter(ax.max, np.inf)
        i, s = ax.cell(past)
        assert (i, s) == (ax.n - 2, 1.0)
        psi = Signal(ax, random_complex(2, ax.n))
        assert kirkwood_qp_closed(psi, 0.0, past) == kirkwood_qp_closed(psi, 0.0, ax.max)
        K = OperatorKernel(ax, random_complex(3, (ax.n, ax.n)))
        assert mixed_matrix_element(K, 0.5, past) == mixed_matrix_element(K, 0.5, ax.max)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_point_is_rejected_before_it_is_cast(self, y):
        # RuntimeWarnings are errors here, so a cast of NaN or inf would fail
        # otherwise; the axis is not too small for it, so no hint says so
        with pytest.raises(ValueError, match=f"^y value {y} is not finite$"):
            mixed_matrix_element(projector_kernel(0), 0.0, y)
        with pytest.raises(ValueError, match=f"^q value {y} is not finite$"):
            kirkwood_qp_closed(state_signal(0), 0.0, y)


class TestWignerToKirkwood:
    @pytest.mark.parametrize("p0, q0", [(0.7, -0.5), (1.2, 0.9)])
    def test_residuals_boosted_displaced_gaussian(self, p0, q0):
        res = wigner_to_kirkwood_residual(boosted_gaussian(p0, q0), KIRKWOOD_WIGNER, KIRKWOOD_OUT)
        assert res.qp < 1e-6
        assert res.pq < 1e-6


CHAR_AXIS = make_axis(-12.0, 12.0, 241)


class TestCharFunctions:
    def basis(self, n_max=48):
        return make_hermite_basis(n_max, CHAR_AXIS)

    def rho0(self):
        psi = hermite_functions(0, CHAR_AXIS.values)[0]
        return OperatorKernel(CHAR_AXIS, np.outer(psi, psi).astype(complex))

    def test_ground_state_closed_form(self):
        basis = self.basis()
        rho = self.rho0()
        for u, v in ((0.3, -0.7), (2.0, 1.5), (-3.0, 3.0)):
            val = char_function_qp(rho, basis, u, v)
            ref = np.exp(-(u**2 + v**2) / 4) * np.exp(-1j * u * v / 2)
            assert val == pytest.approx(ref, abs=1e-10)

    def test_trace_at_origin(self):
        assert char_function_qp(self.rho0(), self.basis(), 0.0, 0.0) == pytest.approx(
            1.0, abs=1e-10)

    def test_conjugate_pairing(self):
        basis = self.basis()
        rho = self.rho0()
        for u, v in ((0.7, -1.3), (2.0, 1.1)):
            a = char_function_pq(rho, basis, u, v)
            b = char_function_qp(rho, basis, -u, -v)
            assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_phase_point_offsets(self):
        basis = self.basis()
        rho = self.rho0()
        u, v, q, p = 0.8, -0.6, 1.2, -0.9
        val = char_function_qp(rho, basis, u, v, q=q, p=p)
        ref = char_function_qp(rho, basis, u, v) * np.exp(1j * (q * u + p * v))
        assert val == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("fn", [char_function_qp, char_function_pq])
    @pytest.mark.parametrize("arg", ["u", "v", "q", "p"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_argument(self, fn, arg, bad):
        args = {"u": 0.5, "v": -0.3, "q": 0.2, "p": 0.1, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be finite"):
            fn(self.rho0(), self.basis(), **args)

    @pytest.mark.parametrize("fn", [char_function_qp, char_function_pq])
    @pytest.mark.parametrize("u, v", [(1e300, 0.0), (0.0, -1e300)])
    def test_rejects_a_result_that_is_not_finite(self, fn, u, v):
        # expm overflows to nan+nanj, which was returned with no warning
        with pytest.raises(ValueError, match=re.escape(f"at u={u}, v={v} is not finite")):
            fn(self.rho0(), self.basis(), u, v)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15: no estimate of the truncation error is computed, "
               "so the value at u = 12 on 37 states, off by 4.05e-4, is returned")
    def test_rejects_a_point_past_the_basis(self):
        with pytest.raises(ValueError):
            char_function_qp(self.rho0(), self.basis(36), 12.0, 0.0)

    def density(self, state):
        psi = hermite_functions(1, CHAR_AXIS.values)
        g = boosted_gaussian(0.7, -0.5, CHAR_AXIS).values
        vals = {
            "n1": np.outer(psi[1], psi[1]),
            "mixed": 0.5 * np.outer(psi[0], psi[0]) + 0.3 * np.outer(psi[1], psi[1])
                     + 0.2 * np.outer(g, g.conj()),
            "boosted": np.outer(g, g.conj()),
        }[state]
        return OperatorKernel(CHAR_AXIS, vals.astype(complex))

    @pytest.mark.parametrize("state", ["n1", "mixed", "boosted"])
    def test_matches_basis_free_oracle(self, state):
        rho = self.density(state)
        basis = self.basis()
        for u in (-2.5, 0.8, 3.0):
            for k in (-30, -7, 0, 12, 25):
                v = k * CHAR_AXIS.step
                assert abs(char_function_qp(rho, basis, u, v)
                           - naive_char_function(rho, u, k, "qp")) < 1e-12
                assert abs(char_function_pq(rho, basis, u, v)
                           - naive_char_function(rho, u, k, "pq")) < 1e-12

    @given(u=st.floats(-3.0, 3.0), v=st.floats(-3.0, 3.0))
    def test_real_generator_matches_complex_exponentials(self, u, v):
        n_max = 48
        off = np.sqrt(np.arange(1, n_max + 1) / 2.0)
        Q = np.diag(off, 1) + np.diag(off, -1)
        P = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
        eQ, eP = _exp_qp(u, v, n_max)
        assert np.abs(eQ - expm(-1j * u * Q)).max() < 1e-13
        assert np.abs(eP - expm(-1j * v * P)).max() < 1e-13
        assert np.isrealobj(eP)
        # scipy's real expm keeps orthogonality only to 2.0e-13 for an argument
        # near 1.82, just below its switch from 2 to 3 squarings (complex: 4e-15)
        for M in (eQ, eP):
            assert np.abs(M.conj().T @ M - np.eye(n_max + 1)).max() < 5e-13

    @pytest.mark.parametrize("state", ["n1", "mixed", "boosted"])
    def test_projection_matches_numpy_products(self, state):
        # the projection runs on scipy's BLAS; numpy's products and norms are
        # the reference for its values and for the residual it checks
        rho, basis = self.density(state), self.basis()
        R, resid = _project_density(rho, basis)
        table = basis.table
        tw = table * CHAR_AXIS.weights
        ref = tw @ rho.values @ tw.T
        assert np.abs(R - ref).max() < 1e-15
        ref_resid = (np.linalg.norm(rho.values - table.T @ ref @ table)
                     / np.linalg.norm(rho.values))
        assert resid == pytest.approx(ref_resid, rel=1e-12, abs=0)

    def test_rejects_poor_projection(self):
        small = make_hermite_basis(3, CHAR_AXIS)
        psi8 = hermite_functions(8, CHAR_AXIS.values)[8]
        rho = OperatorKernel(CHAR_AXIS, np.outer(psi8, psi8).astype(complex))
        with pytest.raises(ValueError, match="projection residual"):
            char_function_qp(rho, small, 0.1, 0.1)

    def test_rejects_mismatched_axis(self):
        rho = projector_kernel(0)  # lives on OP_AXIS, not the basis axis
        with pytest.raises(ValueError, match="basis axis"):
            char_function_qp(rho, self.basis(), 0.0, 0.0)


class TestHermiteBasis:
    def test_discrete_orthonormality_to_120(self):
        ax = make_axis(-20, 20, 801)
        basis = make_hermite_basis(120, ax)
        gram = ax.step * basis.table @ basis.table.T
        assert np.abs(gram - np.eye(121)).max() < 1e-8

    def test_n_max_is_read_off_the_table(self):
        basis = make_hermite_basis(48, CHAR_AXIS)
        assert basis.n_max == 48
        assert basis.table.shape == (49, CHAR_AXIS.n)
        assert HermiteBasis(CHAR_AXIS, basis.table[:3]).n_max == 2

    @pytest.mark.parametrize("shape", [(4, 240), (4, 242), (241,), (0, 241)])
    def test_rejects_a_table_that_does_not_fit_the_axis(self, shape):
        with pytest.raises(ValueError, match="basis table values shape"):
            HermiteBasis(CHAR_AXIS, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_table(self, bad):
        # one NaN made char_function_qp return nan+nanj without raising
        table = make_hermite_basis(4, CHAR_AXIS).table.copy()
        table[2, 100] = bad
        with pytest.raises(ValueError, match="basis table contains non-finite"):
            HermiteBasis(CHAR_AXIS, table)

    def test_rejects_a_table_with_an_imaginary_part(self):
        # a cast to float dropped it: 1j times a table was accepted as all zeros
        table = make_hermite_basis(4, CHAR_AXIS).table
        with pytest.raises(ValueError, match="basis table has a non-zero imaginary part"):
            HermiteBasis(CHAR_AXIS, 1j * table)
        assert np.array_equal(HermiteBasis(CHAR_AXIS, table + 0j).table, table)

    def test_one_class_under_every_name(self):
        import chirpspace
        from chirpspace import grid, quantum
        assert grid.HermiteBasis is quantum.HermiteBasis is chirpspace.HermiteBasis
