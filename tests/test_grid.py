import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chirpspace
from chirpspace import (
    OperatorKernel,
    PhaseGrid,
    SampledField,
    make_axis,
    sample_field,
    trapezoid_weights,
    weighted_norm_sq,
)

from conftest import square_grid


class TestAxis:
    def test_three_point_axis(self):
        ax = make_axis(-6, 6, 3)
        assert ax.step == 6.0
        assert list(ax.values) == [-6.0, 0.0, 6.0]

    def test_two_point_axis(self):
        ax = make_axis(0, 1, 2)
        assert ax.step == 1.0
        assert list(ax.values) == [0.0, 1.0]

    def test_step_formula(self):
        assert make_axis(-6, 6, 128).step == 12.0 / 127.0

    @given(
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        n=st.integers(2, 400),
    )
    def test_endpoints_and_formula(self, lo, width, n):
        ax = make_axis(lo, lo + width, n)
        v = ax.values
        assert v[0] == ax.min
        assert v[-1] == ax.max
        k = np.arange(n - 1)
        assert np.array_equal(v[:-1], ax.min + k * ax.step)

    @given(
        c=st.floats(-2, 1),
        width=st.floats(1e-3, 1e3),
        n=st.integers(2, 200),
        frac=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20),
    )
    def test_cell_locates_points(self, c, width, n, frac):
        ax = make_axis(c * width, (c + 1) * width, n)
        at = ax.min + np.array(frac) * width
        i, s = ax.cell(at)
        assert np.all((0 <= i) & (i <= n - 2))
        scale = abs(ax.min) + abs(ax.max) + ax.step
        assert np.allclose(ax.values[i] + s * ax.step, at, rtol=0, atol=1e-12 * scale)

    @given(c=st.floats(-2, 1), width=st.floats(1e-3, 1e3), n=st.integers(2, 200),
           seed=st.integers(0, 10_000))
    def test_cell_of_a_node_is_that_node(self, c, width, n, seed):
        ax = make_axis(c * width, (c + 1) * width, n)
        i, s = ax.cell(ax.values)
        # s == 0 on every node but the last, which is i = n-2, s = 1
        assert np.array_equal(i[:-1], np.arange(n - 1)) and np.all(s[:-1] == 0.0)
        assert (i[-1], s[-1]) == (n - 2, 1.0)
        assert ax.cell(ax.min) == (0, 0.0)
        assert ax.cell(ax.max) == (n - 2, 1.0)
        v = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal((1 - s) * v[i] + s * v[i + 1], v)

    def test_cell_snaps_within_1e12_cells(self):
        ax = make_axis(0, 10, 11)
        i, s = ax.cell(np.array([3 + 5e-13, 3 - 5e-13, 3 + 5e-12, 0.25]))
        assert list(i) == [3, 3, 3, 0]
        assert list(s[:2]) == [0.0, 0.0] and s[2] == pytest.approx(5e-12)
        assert s[3] == 0.25

    @pytest.mark.parametrize("lo, hi, n", [
        (1000.0, 1001.0, 401), (-1e4, -9998.0, 201), (1e6, 1e6 + 3.0, 301)])
    def test_cell_of_a_node_far_from_the_origin(self, lo, hi, n):
        # the rounding error of (at - min)/step grows with |min|/step and here
        # exceeds 1e-12 cells, so the snap tolerance must grow with it
        ax = make_axis(lo, hi, n)
        i, s = ax.cell(ax.values)
        assert np.array_equal(i[:-1], np.arange(n - 1)) and np.all(s[:-1] == 0.0)
        assert (i[-1], s[-1]) == (n - 2, 1.0)
        i, s = ax.cell(ax.values[:-1] + 0.25 * ax.step)
        assert np.array_equal(i, np.arange(n - 1))
        assert np.allclose(s, 0.25, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "args",
        [(-6, 6, 1), (6, -6, 10), (0, 0, 10), (np.nan, 1, 4), (0, np.inf, 4),
         (-1e308, 1e308, 5), (0.0, 5e-324, 3)],
    )
    def test_rejects_bad_axes(self, args):
        with pytest.raises(ValueError):
            make_axis(*args)


class TestTrapezoid:
    def test_weights(self):
        assert list(trapezoid_weights(4)) == [0.5, 1.0, 1.0, 0.5]

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            trapezoid_weights(1)

    def test_axis_weights_include_the_step(self):
        assert list(make_axis(-1, 5, 4).weights) == [1.0, 2.0, 2.0, 1.0]

    def test_axis_weights_integrate_a_line_exactly(self):
        ax = make_axis(0.5, 3.0, 11)
        assert np.sum(ax.weights * (2 * ax.values + 1)) == pytest.approx(11.25, rel=1e-14)


class TestSampleField:
    def test_constant(self):
        f = sample_field(lambda P, Q: np.ones_like(P), square_grid(3, 7))
        assert np.all(f.values == 1.0)

    def test_gaussian_peak(self):
        f = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), square_grid(6, 3))
        assert f.values[1, 1] == 1.0  # center of the 3x3 grid is (0, 0)

    def test_pure_chirp_value(self):
        grid = PhaseGrid(make_axis(1, 2, 2), make_axis(np.pi / 4, 1, 2))
        f = sample_field(lambda P, Q: np.exp(2j * P * Q), grid)
        assert f.values[0, 0] == pytest.approx(1j, abs=1e-15)

    def test_nonfinite_names_grid_point(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match=r"p=0\.0"):
                sample_field(lambda P, Q: 1.0 / P, square_grid(6, 3))

    def test_values_are_frozen(self):
        f = sample_field(lambda P, Q: P + Q, square_grid(1, 4))
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0


class TestWeightedNorm:
    def test_zero_field(self):
        grid = square_grid(2, 16)
        assert weighted_norm_sq(SampledField(grid, np.zeros(grid.shape))) == 0.0

    def test_rectangular_grid_integrates_a_linear_density_exactly(self):
        # |h|^2 = p + 2 on [-1, 2] x [0, 1]: each axis's weights on its own axis
        grid = PhaseGrid(make_axis(-1, 2, 4), make_axis(0, 1, 3))
        P, _ = grid.meshes()
        h = SampledField(grid, np.sqrt(P + 2))
        assert weighted_norm_sq(h) == pytest.approx(7.5 / np.pi, rel=1e-14)

    def test_gaussian_half_width(self):
        grid = square_grid(8, 256)
        h = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2) / 2), grid)
        assert weighted_norm_sq(h) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_unit_width(self):
        grid = square_grid(8, 256)
        h = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), grid)
        assert weighted_norm_sq(h) == pytest.approx(0.5, abs=1e-10)

    @given(
        c=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                             allow_nan=False, allow_infinity=False)
    )
    def test_homogeneity(self, c):
        grid = square_grid(4, 24)
        P, Q = grid.meshes()
        base = np.exp(-(P**2 + Q**2)) * (1 + P + 1j * Q)
        n1 = weighted_norm_sq(SampledField(grid, c * base))
        n0 = weighted_norm_sq(SampledField(grid, base))
        assert n1 == pytest.approx(abs(c) ** 2 * n0, rel=1e-12)


class TestFieldValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            SampledField(square_grid(1, 4), np.zeros((3, 5)))

    def test_nonfinite_rejected(self):
        vals = np.zeros((4, 4), complex)
        vals[2, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SampledField(square_grid(1, 4), vals)


class TestOperatorKernel:
    def test_one_class_under_every_name(self):
        from chirpspace import grid, quantum
        assert grid.OperatorKernel is quantum.OperatorKernel is chirpspace.OperatorKernel

    def test_a_pickle_naming_quantum_loads(self):
        K = OperatorKernel(make_axis(-1, 1, 3), np.arange(9.0).reshape(3, 3) * 1j)
        # protocol 2 names a class as "module\nname\n", so the module can be swapped
        old = pickle.dumps(K, protocol=2).replace(b"chirpspace.grid\n", b"chirpspace.quantum\n")
        assert b"chirpspace.quantum\nOperatorKernel" in old
        back = pickle.loads(old)
        assert type(back) is OperatorKernel
        assert back.axis == K.axis and np.array_equal(back.values, K.values)

    def test_values_are_checked_and_frozen(self):
        with pytest.raises(ValueError, match="kernel values shape"):
            OperatorKernel(make_axis(-1, 1, 3), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="kernel contains non-finite"):
            OperatorKernel(make_axis(-1, 1, 2), np.array([[1, np.nan], [0, 0]]))
        assert not OperatorKernel(make_axis(-1, 1, 2), np.eye(2)).values.flags.writeable


def package_imports(sources: dict) -> list:
    """(module, package module, names) for each import of a package module in
    ``sources``, which maps module names to their text; names is empty for a
    plain ``import``."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "chirpspace"):
                target = (node.module or "").removeprefix("chirpspace").lstrip(".")
                if target:
                    found.append((module, target, [a.name for a in node.names]))
                else:  # "from . import grid": each name is a module
                    found += [(module, a.name, []) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(module, a.name.removeprefix("chirpspace").lstrip("."), [])
                          for a in node.names if a.name.split(".")[0] == "chirpspace"]
    return found


def fields_io_imports(imports: list) -> set:
    return {target for module, target, _ in imports if module == "fields_io"}


def private_grid_names(imports: list) -> list:
    return [(module, name) for module, target, names in imports
            if module != "grid" and target == "grid" for name in names if name.startswith("_")]


class TestImportLayers:
    """fields_io imports nothing of the package but grid, and no module outside
    grid imports a grid name that starts with an underscore."""

    imports = package_imports({path.stem: path.read_text()
                               for path in Path(chirpspace.__file__).parent.glob("*.py")})

    def test_fields_io_imports_only_grid(self):
        assert fields_io_imports(self.imports) == {"grid"}

    def test_no_module_outside_grid_imports_a_private_grid_name(self):
        assert private_grid_names(self.imports) == []

    def test_the_rules_see_each_import_form(self):
        imports = package_imports({
            "fields_io": "from .grid import Axis\nfrom .quantum import OperatorKernel\n"
                         "from . import xform\nimport chirpspace.suites\nimport os\n",
            "quantum": "from .grid import (\n    Axis,\n    _check_values,\n)\n",
            "grid": "from chirpspace.grid import _check_values\n",
        })
        assert fields_io_imports(imports) == {"grid", "quantum", "xform", "suites"}
        assert private_grid_names(imports) == [("quantum", "_check_values")]
