import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import czt

from chirpspace import (
    PhaseGrid,
    SampledField,
    forward_direct,
    forward_fast,
    gaussian_transform_closed,
    inverse_direct,
    inverse_fast,
    make_axis,
    parseval_residual,
    sample_field,
)
from chirpspace import xform
from chirpspace.xform import _chirp

from conftest import (
    assert_chirp_resolved,
    gaussian_poly_field,
    naive_transform,
    package_env,
    spectral_transform,
    square_grid,
)


def gaussian_field(grid, lam=1.0):
    return sample_field(lambda P, Q: np.exp(-lam * (P**2 + Q**2)), grid)


class TestOracleEquivalence:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 16 and 1A: scipy.signal.czt raises its rounded w to "
               "the power k^2/2, so the fast path misses by 9.5e-12 of max|f| here; "
               "an exact-phase chirp-z on numpy.fft meets 1e-12")
    def test_fast_vs_direct_801_within_1e12(self, rng):
        h = gaussian_poly_field(square_grid(25, 801), rng)
        out = PhaseGrid(make_axis(-25, 25, 801), make_axis(-2, 2, 9))
        d = forward_direct(h, out).values
        f = forward_fast(h, out).values
        assert np.abs(f - d).max() < 1e-12 * np.abs(d).max()


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

    def test_group_law(self):
        # T T = T_2 with T_2[h](z) = T[h(sqrt2 .)](z / sqrt2), and T^-1 T = I;
        # neither is exact in the sum, so the field is decayed
        grid = square_grid(10, 201)
        h = gaussian_field(grid)
        f = forward_fast(h, grid)
        out = square_grid(3, 31)
        X, Y = out.meshes()
        ref = gaussian_transform_closed(2.0, X / np.sqrt(2), Y / np.sqrt(2))
        assert np.abs(forward_fast(f, out).values - ref).max() <= 1e-11 * np.abs(ref).max()
        assert np.abs(inverse_fast(f, grid).values - h.values).max() <= 1e-11


class TestRoundTrip:
    def test_zero_field_maps_to_zero(self):
        grid = square_grid(4, 32)
        z = SampledField(grid, np.zeros(grid.shape))
        assert np.all(forward_fast(z, grid).values == 0)
        assert np.all(inverse_fast(z, grid).values == 0)

    @pytest.mark.parametrize(
        "op", [forward_fast, inverse_fast, forward_direct, inverse_direct, parseval_residual],
        ids=lambda op: op.__name__)
    def test_type_errors(self, op):
        g = square_grid(2, 4)
        with pytest.raises(TypeError):
            op(np.ones((4, 4)), g)
        with pytest.raises(TypeError):
            op(SampledField(g, np.ones(g.shape)), "not a grid")


class TestChirp:
    """The blocked chirp against the elementwise exponential it replaces."""

    @staticmethod
    def check(a, b, sign=1, row=1.0):
        c = _chirp(a, b, sign, row)
        assert c.shape == (a.n, b.n)
        assert c.flags.c_contiguous
        ab = np.outer(a.values, b.values)
        ref = np.reshape(row, (-1, 1)) * np.exp(2j * sign * ab)
        bound = 4 * np.finfo(float).eps * (1 + 2 * np.abs(ab).max()) * np.abs(row).max()
        assert np.abs(c - ref).max() <= bound

    # +-25 on 801 nodes has the dyadic step 1/16, +-12 the step 0.03; 801
    # nodes make 28 blocks of 28 and a last one of 17
    @pytest.mark.parametrize("extent", [25.0, 12.0])
    @pytest.mark.parametrize("n", [2, 3, 9, 97, 128, 161, 401, 801])
    def test_matches_exp_of_outer(self, extent, n):
        ax = make_axis(-extent, extent, n)
        self.check(ax, ax)

    def test_rectangular(self):
        a = make_axis(-12, 12, 129)
        b = make_axis(-7.5, 9.0, 97)
        self.check(a, b)
        self.check(b, a)

    @pytest.mark.parametrize("n", [2, 97, 801])
    def test_conjugate_sign_with_row_factor(self, n):
        # the fast path's pre-chirp: sign -1 for the inverse, p weights / pi as rows
        a = make_axis(-25, 25, n)
        b = make_axis(-7.5, 9.0, 161)
        self.check(a, b, -1, a.weights / np.pi)
        self.check(b, a, -1, np.linspace(0.5, 3.0, b.n))


class TestStageLifetimes:
    """The pre-chirped field is freed when the first chirp-z returns, so it
    does not share the second chirp-z's peak with that call's buffers."""

    @pytest.mark.parametrize("op", [forward_fast, inverse_fast])
    def test_first_czt_input_dead_at_second_czt(self, monkeypatch, op):
        inputs, alive = [], []

        def spy(arr, *args, **kwargs):
            alive.append([ref() is not None for ref in inputs])
            inputs.append(weakref.ref(arr))
            return czt(arr, *args, **kwargs)

        monkeypatch.setattr(xform, "czt", spy)
        grid = square_grid(6, 64)
        op(gaussian_field(grid), square_grid(8, 48))
        assert alive == [[], [False]]


class TestFftWorkers:
    """The chirp-z stages run their FFTs on every usable core, for the call
    only, and the result does not depend on the worker count."""

    PAIRS = {"801sq-801sq": (square_grid(25, 801), square_grid(25, 801)),
             "801sq-9sq": (square_grid(25, 801), square_grid(2, 9)),
             "129x97-225sq": (PhaseGrid(make_axis(-6, 6, 129), make_axis(-6, 6, 97)),
                              square_grid(7, 225))}

    @pytest.mark.parametrize("pair", PAIRS)
    def test_bit_identical_at_any_worker_count(self, monkeypatch, pair):
        grid, out = self.PAIRS[pair]
        h = gaussian_poly_field(grid, np.random.default_rng(17))
        results = []
        for n in (1, 2, 3):
            monkeypatch.setattr(xform, "usable_cores", lambda: n)
            results.append([op(h, out).values for op in (forward_fast, inverse_fast)])
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(results[0], other))

    @pytest.mark.parametrize("op", [forward_fast, inverse_fast])
    def test_each_czt_runs_on_every_usable_core(self, monkeypatch, op):
        cores, seen = len(os.sched_getaffinity(0)), []

        def spy(*args, **kwargs):
            seen.append(scipy.fft.get_workers())
            return czt(*args, **kwargs)

        monkeypatch.setattr(xform, "czt", spy)
        with scipy.fft.set_workers(cores + 1):  # an entry value the call does not use
            op(gaussian_field(square_grid(6, 64)), square_grid(8, 48))
            assert scipy.fft.get_workers() == cores + 1
        assert seen == [cores, cores]

    def test_workers_are_restored_when_czt_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("czt failed")

        monkeypatch.setattr(xform, "czt", failing)
        entry = len(os.sched_getaffinity(0)) + 1
        with scipy.fft.set_workers(entry):
            with pytest.raises(RuntimeError, match="czt failed"):
                forward_fast(gaussian_field(square_grid(6, 64)), square_grid(8, 48))
            assert scipy.fft.get_workers() == entry

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_a_process_pinned_to_one_core_uses_one_worker(self):
        cpu = min(os.sched_getaffinity(0))
        script = textwrap.dedent(f"""\
            import os
            os.sched_setaffinity(0, [{cpu}])
            import numpy as np
            import scipy.fft
            from chirpspace import PhaseGrid, SampledField, forward_fast, make_axis, xform
            seen, czt = [], xform.czt
            def spy(*args, **kwargs):
                seen.append(scipy.fft.get_workers())
                return czt(*args, **kwargs)
            xform.czt = spy
            grid = PhaseGrid(make_axis(-4, 4, 33), make_axis(-4, 4, 33))
            forward_fast(SampledField(grid, np.ones(grid.shape, complex)), grid)
            print(seen)
            """)
        pinned = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=120, env=package_env())
        assert pinned.stdout == "[1, 1]\n", pinned.stderr


@st.composite
def off_centre_grid(draw):
    """A grid of 8-40 by 8-40 nodes, never square, whose bounds need not straddle 0."""
    n_p, n_q = draw(st.integers(8, 40)), draw(st.integers(8, 39))
    n_q += n_q >= n_p
    lo_p, lo_q = draw(st.floats(-4.0, 2.0)), draw(st.floats(-4.0, 2.0))
    return PhaseGrid(make_axis(lo_p, lo_p + draw(st.floats(0.5, 6.0)), n_p),
                     make_axis(lo_q, lo_q + draw(st.floats(0.5, 6.0)), n_q))


def transform(path, s):
    """T^s by the named path: the forward transform for s = 1, the inverse for s = -1."""
    return (xform._FORWARD if s > 0 else xform._INVERSE)[path]


@dataclass
class Case:
    """A field h, an output grid and each relation's parameters.  Each image
    T^s[h], by a path or by the naive sum, is computed once, when first read."""

    h: SampledField
    out: PhaseGrid
    ab: tuple = (1.4, -2.6)                  # modulation frequencies
    shift: tuple = (0.3, -1.7)               # translation of both grids
    sigma: float = 1.25                      # squeeze of both grids
    coeffs: tuple = (0.5 - 2j, 1.5 + 0.25j)  # linear combination of h and h reversed
    memo: dict = field(default_factory=dict, repr=False)

    def image(self, path, s):
        if (path, s) not in self.memo:
            self.memo[path, s] = (naive_transform(self.h, self.out, s) if path == "naive"
                                  else transform(path, s)(self.h, self.out).values)
        return self.memo[path, s]


@st.composite
def cases(draw):
    """Random complex values on an off-centre grid, an off-centre output grid
    and random parameters for each relation."""
    grid, out = draw(off_centre_grid()), draw(off_centre_grid())
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = SampledField(grid, r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape))
    unit, shift = st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)
    coeff = st.complex_numbers(min_magnitude=0.01, max_magnitude=10,
                               allow_nan=False, allow_infinity=False)
    return Case(h, out, (draw(unit), draw(unit)), (draw(shift), draw(shift)),
                draw(st.floats(0.5, 2.0)), (draw(coeff), draw(coeff)))


def sum_scale(h):
    """sum |w h| / pi: the size of the transform's sum, which bounds its rounding."""
    return h.grid.p_axis.weights @ np.abs(h.values) @ h.grid.q_axis.weights / np.pi


def mapped(grid, fp, fq):
    """The grid with fp applied to its p bounds and fq to its q bounds; a
    decreasing map swaps an axis's ends."""
    def axis(ax, f):
        return make_axis(*sorted((f(ax.min), f(ax.max))), ax.n)
    return PhaseGrid(axis(grid.p_axis, fp), axis(grid.q_axis, fq))


def miss(got, ref, h):
    return np.abs(got - ref).max() / sum_scale(h)


def regrid_miss(case, path, s, move, values=lambda v: v):
    """T^s of h's values mapped by ``values`` on the input grid moved by
    ``move``, read on the output grid moved by ``move``, against T^s[h] mapped
    by ``values``."""
    h = case.h
    got = transform(path, s)(SampledField(move(h.grid), values(h.values)), move(case.out))
    return miss(got.values, values(case.image(path, s)), h)


def modulation_miss(case, path, s):
    """T^s[e^{i(ap + bq)} h](x, y) = e^{i(ax + by) - s iab/2} T^s[h](x - s b/2, y - s a/2):
    2s(p - x)(q - y) + ap + bq = 2s(p - x')(q - y') + ax + by - s ab/2 with
    x' = x - s b/2 and y' = y - s a/2, term by term."""
    (a, b), h, out, op = case.ab, case.h, case.out, transform(path, s)
    P, Q = h.grid.meshes()
    X, Y = out.meshes()
    back = mapped(out, lambda x: x - s * b / 2, lambda y: y - s * a / 2)
    ref = np.exp(1j * (a * X + b * Y - s * a * b / 2)) * op(h, back).values
    modulated = SampledField(h.grid, np.exp(1j * (a * P + b * Q)) * h.values)
    return miss(op(modulated, out).values, ref, h)


def translation_miss(case, path, s):
    """Shifting both grids by the same (p0, q0) keeps every p - x and q - y."""
    p0, q0 = case.shift
    return regrid_miss(case, path, s, lambda g: mapped(g, lambda p: p + p0, lambda q: q + q0))


def squeeze_miss(case, path, s):
    """p, x -> p/sigma, x/sigma and q, y -> q sigma, y sigma keep every
    (p - x)(q - y) and the cell area step_p step_q."""
    sg = case.sigma
    return regrid_miss(case, path, s, lambda g: mapped(g, lambda p: p / sg, lambda q: q * sg))


def swap_miss(case, path, s):
    """T^s[h^T] on the swapped grids is T^s[h]^T."""
    return regrid_miss(case, path, s, lambda g: PhaseGrid(g.q_axis, g.p_axis), np.transpose)


def parity_miss(case, path, s):
    """h(-p, -q) on the mirrored input grid gives f(-x, -y) on the mirrored output grid."""
    return regrid_miss(case, path, s, lambda g: mapped(g, np.negative, np.negative),
                       lambda v: v[::-1, ::-1])


def conjugation_miss(case, path, s):
    """conj T^s[h] = T^-s[conj h]."""
    h = case.h
    other = transform(path, -s)(SampledField(h.grid, np.conj(h.values)), case.out).values
    return miss(np.conj(case.image(path, s)), other, h)


def linearity_miss(case, path, s):
    """T^s[c1 h + c2 h2] = c1 T^s[h] + c2 T^s[h2], h2 the values of h reversed,
    over the size of the sum of |c1 h| and |c2 h2|."""
    (c1, c2), h, op = case.coeffs, case.h, transform(path, s)
    h2 = h.values[::-1, ::-1]
    got = op(SampledField(h.grid, c1 * h.values + c2 * h2), case.out).values
    ref = c1 * case.image(path, s) + c2 * op(SampledField(h.grid, h2), case.out).values
    size = SampledField(h.grid, np.abs(c1 * h.values) + np.abs(c2 * h2))
    return np.abs(got - ref).max() / sum_scale(size)


def definition_miss(case, path, s):
    """T^s by the path against the unfactored per-point kernel sum."""
    return miss(case.image(path, s), case.image("naive", s), case.h)


# the covariances need no oracle; with linearity and the definition they make
# RELATIONS, and fast == direct follows when both paths meet the definition
COVARIANCES = {"modulation": modulation_miss, "translation": translation_miss,
               "squeeze": squeeze_miss, "swap": swap_miss, "parity": parity_miss,
               "conjugation": conjugation_miss}
RELATIONS = {**COVARIANCES, "linearity": linearity_miss, "definition": definition_miss}


@pytest.mark.parametrize("name", RELATIONS)
@given(case=cases())
def test_each_relation_holds_on_both_paths(name, case):
    """Each relation holds term by term, so for any values, decayed or not,
    on any grids, to rounding; a square, centred grid would hide an axis read
    from the other axis, a transposed output or a dropped conjugate.  Misses
    are measured against sum|w h|/pi, since an undecayed field can make
    max|f| small where the sum is large."""
    for path in xform._FORWARD:
        for s in (1, -1):
            assert RELATIONS[name](case, path, s) <= 1e-12, (path, s)


class TestFullScale:
    """The covariances of the fast path on decayed fields at 801^2 -> 401^2
    and at the symbol-identity suite's 225^2 -> 129 x 97, to 1e-12 max|T^s h|
    (rounding grows with max|2pq|) and, for conjugation, 1e-14 max|h|."""

    PAIRS = {"801sq-401sq": (PhaseGrid(make_axis(-25, 25, 801), make_axis(-20, 20, 801)),
                             PhaseGrid(make_axis(-6, 6, 401), make_axis(-8, 8, 401))),
             "225sq-129x97": (square_grid(7, 225),
                              PhaseGrid(make_axis(-6, 6, 129), make_axis(-6, 6, 97)))}

    @pytest.fixture(scope="class", params=PAIRS)
    def case(self, request):
        grid, out = self.PAIRS[request.param]
        return Case(gaussian_poly_field(grid, np.random.default_rng(17)), out)

    @pytest.mark.parametrize("name", COVARIANCES)
    def test_covariance(self, case, name):
        for s in (1, -1):
            top = case.h.values if name == "conjugation" else case.image("fast", s)
            bound = (1e-14 if name == "conjugation" else 1e-12) * np.abs(top).max()
            assert COVARIANCES[name](case, "fast", s) * sum_scale(case.h) <= bound, s


class TestRelationsCatchMutants:
    """Each mutant fails at least one covariance.  The output grid has as
    many x as y nodes, so a transposed output keeps its shape, but its two
    axes differ in bounds and step, as the input's do."""

    grid = PhaseGrid(make_axis(-1.5, 3.0, 23), make_axis(0.5, 4.0, 31))
    out = PhaseGrid(make_axis(-2.0, 1.0, 17), make_axis(1.0, 2.5, 17))

    @pytest.fixture
    def case(self, rng):
        shape = self.grid.shape
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return Case(SampledField(self.grid, h), self.out)

    @staticmethod
    def worst(case, path):
        return max(fn(case, path, s) for fn in COVARIANCES.values() for s in (1, -1))

    def test_both_paths_pass_every_relation(self, case):
        for path in xform._FORWARD:
            for s in (1, -1):
                assert max(fn(case, path, s) for fn in RELATIONS.values()) <= 1e-12

    def test_the_p_axis_passed_where_the_q_axis_goes(self, case, monkeypatch):
        # _fast resamples along p (axis 0), then along q (axis 1); the mutant
        # hands the q resampling the p axis it was given first
        real, seen = xform._fourier_resample, {}

        def mutant(arr, src, dst, axis, sign):
            if axis == 0:
                seen["p"] = src
            return real(arr, seen["p"] if axis == 1 else src, dst, axis, sign)

        monkeypatch.setattr(xform, "_fourier_resample", mutant)
        assert self.worst(case, "fast") > 1e-3

    def test_a_transposed_output(self, case, monkeypatch):
        real = xform._fast
        monkeypatch.setattr(xform, "_fast",
                            lambda f, out, sign: SampledField(out, real(f, out, sign).values.T))
        assert self.worst(case, "fast") > 1e-3

    def test_a_dropped_outer_conj(self, case, monkeypatch):
        # inverse_direct without its outer np.conj is the conjugate of inverse_direct
        real = xform.inverse_direct
        monkeypatch.setitem(xform._INVERSE, "direct",
                            lambda f, out: SampledField(out, np.conj(real(f, out).values)))
        assert self.worst(case, "direct") > 1e-3


class TestParseval:
    def test_gaussian(self):
        h = gaussian_field(square_grid(6, 128))
        assert parseval_residual(h, square_grid(10, 216)) < 1e-6

    @pytest.mark.parametrize("scale", [7.0, 1e-200, 1e200])
    def test_scale_invariance(self, scale):
        grid = square_grid(6, 96)
        out = square_grid(10, 160)
        h = gaussian_field(grid)
        scaled = SampledField(grid, scale * h.values)
        assert parseval_residual(scaled, out) == pytest.approx(
            parseval_residual(h, out), rel=1e-6, abs=1e-15)

    def test_rejects_zero_field(self):
        grid = square_grid(2, 8)
        with pytest.raises(ValueError, match="zero field"):
            parseval_residual(SampledField(grid, np.zeros(grid.shape)), grid)


class TestSpectralOracle:
    """The transform is the Fourier multiplier e^{-iab/2}: the oracle
    ``spectral_transform`` against the closed form, then both paths against
    the oracle on decayed fields and resolved lattices.  Misses are relative
    to max|ref|, except the way back to the Gaussian."""

    @pytest.mark.parametrize("lam, extent, n", [(1.0, 8, 129), (1.0, 8, 257),
                                                (0.5 + 0.8j, 10, 257), (1.0, 12, 801)])
    def test_oracle_matches_closed_form(self, lam, extent, n):
        grid = square_grid(extent, n)
        X, Y = grid.meshes()
        ref = gaussian_transform_closed(lam, X, Y)
        f = spectral_transform(gaussian_field(grid, lam))
        assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("extent, n", [(8, 129), (8, 257), (12, 801)])
    def test_conjugate_multiplier_recovers_gaussian(self, extent, n):
        grid = square_grid(extent, n)
        X, Y = grid.meshes()
        img = SampledField(grid, gaussian_transform_closed(1.0, X, Y))
        assert np.abs(spectral_transform(img, -1) - gaussian_field(grid).values).max() <= 1e-13

    # sign 2 gives the multiplier e^{-iab}, sign -1 gives e^{+iab/2}
    @pytest.mark.parametrize("sign", [2, -1])
    def test_a_wrong_multiplier_misses_the_closed_form(self, sign):
        grid = square_grid(8, 129)
        X, Y = grid.meshes()
        ref = gaussian_transform_closed(1.0, X, Y)
        f = spectral_transform(gaussian_field(grid), sign)
        assert np.abs(f - ref).max() > 0.1 * np.abs(ref).max()

    # (path, grid, bound, seeds): the direct path meets the continuum to
    # rounding; the fast path's miss is scipy's chirp-z rounding, which grows
    # with the lattice.  At 801^2 the field is TestFullScale's.
    PATHS = {"direct-129sq": ("direct", square_grid(8, 129), 1e-13, (17, 3)),
             "fast-201sq": ("fast", square_grid(12, 201), 1e-11, (17, 3)),
             "fast-801sq": ("fast", TestFullScale.PAIRS["801sq-401sq"][0], 1e-10, (17,))}

    @pytest.mark.parametrize("row, seed", [(row, seed) for row, (*_, seeds) in PATHS.items()
                                           for seed in seeds])
    def test_paths_match_oracle(self, row, seed):
        path, grid, bound, _ = self.PATHS[row]
        assert_chirp_resolved(grid)
        h = gaussian_poly_field(grid, np.random.default_rng(seed))
        for s in (1, -1):
            ref = spectral_transform(h, s)
            got = transform(path, s)(h, grid).values
            assert np.abs(got - ref).max() <= bound * np.abs(ref).max(), s
