import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpspace import closedform, hermite_functions, quantum, read_field_csv, suites
from chirpspace import write_field_csv
from chirpspace.cli import _parse_grid_spec, main

from conftest import gaussian_poly_field, package_env, square_grid


def run_cli(*argv):
    return main(list(argv))


def load_strict_json(path):
    """Parse a report as strict JSON: a bare Infinity, -Infinity or NaN raises."""
    def reject(token):
        raise ValueError(f"report holds the non-JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestVerifyCommand:
    def test_gaussian_suite_passes(self, tmp_path, capsys):
        assert run_cli("verify", "gaussian", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "suite gaussian: PASS" in out
        report = json.loads((tmp_path / "report-gaussian.json").read_text())
        assert report["overall_pass"] is True
        assert all(c["identity"] for c in report["cases"])
        assert all((c["residual"] <= c["tolerance"]) == c["pass"]
                   for c in report["cases"])
        assert sorted(report["config_echo"]) == [
            "alphas", "epsilons", "out_dir", "seed", "tolerance_overrides"]

    def test_unknown_suite_is_usage_error(self, tmp_path):
        assert run_cli("verify", "nonsense", "--out", str(tmp_path)) == 2

    def test_tolerance_override_flips_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"tolerance_overrides": {"gaussian-lam-1": 1e-30},
             "out_dir": str(tmp_path)}))
        assert run_cli("verify", "gaussian", "--config", str(cfg)) == 1

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_field": 1}))
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        cfg.write_text("{not json")
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2

    # each suite's grids are fixed; these fields (with their former defaults)
    # are no longer config fields
    @pytest.mark.parametrize("key, val", [
        ("field_extent", 6.0), ("field_n", 128), ("mid_extent", 10.0), ("mid_n", 216),
        ("n_fields", 3), ("damp", 0.6), ("gaussian_lambdas", [0.5, 1.0, 2.0]),
        ("gaussian_extent", 8.0), ("gaussian_n", 161), ("eval_extent", 2.0),
        ("eval_n", 9), ("chirplet_extent", 25.0), ("chirplet_n", 801),
        ("oracle_alphas", [0.3, 1.0, 2.0]), ("hermite_n_terms", 1600),
        ("oracle_extent", 3.0), ("oracle_n", 13), ("composition_n_terms", 300),
        ("hermite_n_max", 48), ("charfun_extent", 3.0), ("charfun_n", 13),
    ])
    def test_removed_field_is_unknown(self, tmp_path, capsys, key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"unknown config field {key!r}" in err[0]

    def test_guarded_alpha_rejected_in_config(self, tmp_path):
        assert run_cli("verify", "chirplet-kernel", "--alpha", "3.1",
                       "--out", str(tmp_path)) == 2

    def test_chirplet_suite_with_alpha_flag(self, tmp_path, capsys):
        assert run_cli("verify", "chirplet-kernel", "--alpha", "1.0471975512",
                       "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "report-chirplet-kernel.json").read_text())
        closed = [c for c in report["cases"] if c["name"].startswith("chirplet-closed")]
        assert len(closed) == 1
        assert closed[0]["residual"] < 1e-10

    def test_positive_sine_outside_first_period_passes(self, tmp_path):
        # sin 7.0 = 0.657: the chirplet range is sin alpha >= 0.1, not 0 < alpha < pi
        assert run_cli("verify", "chirplet-kernel", "--alpha", "7.0",
                       "--out", str(tmp_path)) == 0

    def test_reports_deterministic_modulo_runtime(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("verify", "gaussian", "--out", str(tmp_path / sub)) == 0

        def canon(p):
            rep = json.loads(p.read_text())
            for c in rep["cases"]:
                c["runtime_ms"] = None
            rep["config_echo"]["out_dir"] = None
            return json.dumps(rep, sort_keys=True)

        assert canon(tmp_path / "a" / "report-gaussian.json") == \
            canon(tmp_path / "b" / "report-gaussian.json")

    @pytest.mark.parametrize("suite", ["kirkwood", "symbol-identity"])
    def test_shared_computation_billed_evenly_to_siblings(self, tmp_path, suite):
        # each pair of cases reads two residuals off one computation
        assert run_cli("verify", suite, "--out", str(tmp_path)) == 0
        cases = json.loads((tmp_path / f"report-{suite}.json").read_text())["cases"]
        assert len(cases) % 2 == 0
        for a, b in zip(cases[::2], cases[1::2]):
            assert a["runtime_ms"] == b["runtime_ms"] > 0
            assert a["error"] is None and b["error"] is None

    def test_hermite_oracle_tabulates_axes_not_meshes(self, tmp_path, monkeypatch):
        shapes = []

        def recording(n_max, x):
            shapes.append(np.shape(x))
            return hermite_functions(n_max, x)

        monkeypatch.setattr(closedform, "hermite_functions", recording)
        assert run_cli("verify", "hermite-oracle", "--out", str(tmp_path)) == 0
        assert shapes and all(sum(d > 1 for d in shape) <= 1 for shape in shapes)

    def test_raising_case_is_a_failed_case_with_its_error(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("characteristic function unavailable")

        monkeypatch.setattr(quantum, "char_function_qp", boom)
        assert run_cli("verify", "charfun", "--out", str(tmp_path)) == 1
        report = load_strict_json(tmp_path / "report-charfun.json")
        assert report["overall_pass"] is False
        assert [c["name"] for c in report["cases"]] == [
            "charfun-closed", "charfun-trace", "charfun-conjugate"]
        for c in report["cases"]:
            assert c["pass"] is False
            assert c["residual"] is None  # inf, which strict JSON cannot hold
            assert c["error"] == "RuntimeError: characteristic function unavailable"
        out = capsys.readouterr().out
        assert "characteristic function unavailable" in out
        assert "[FAIL] charfun-closed: residual inf" in out


class TestNanResidual:
    @pytest.mark.parametrize("rs", [[0.1, np.nan, 0.2], [np.nan, 0.1]])
    def test_worst_propagates_nan(self, rs):
        assert np.isnan(suites._worst(rs))
        assert np.isnan(suites._worst(iter(rs)))

    def test_worst_of_numbers_and_of_none(self):
        assert suites._worst([0.1, 0.3, 0.2]) == 0.3
        assert suites._worst([]) == 0.0

    def test_nan_at_second_point_fails_charfun_closed(self, tmp_path, monkeypatch):
        calls = []

        def closed_form_then_nan(rho, basis, u, v):
            calls.append((u, v))
            if len(calls) == 2:
                return complex(np.nan)
            return complex(np.exp(-(u**2 + v**2) / 4) * np.exp(-1j * u * v / 2))

        monkeypatch.setattr(quantum, "char_function_qp", closed_form_then_nan)
        assert run_cli("verify", "charfun", "--out", str(tmp_path)) == 1
        cases = {c["name"]: c for c in
                 load_strict_json(tmp_path / "report-charfun.json")["cases"]}
        assert cases["charfun-closed"]["pass"] is False
        assert cases["charfun-closed"]["residual"] is None  # nan, written as null
        assert cases["charfun-closed"]["error"] is None
        assert cases["charfun-trace"]["pass"] is True


class TestTransformCommand:
    def write_input(self, tmp_path, rng):
        h = gaussian_poly_field(square_grid(6, 96), rng)
        path = tmp_path / "in.csv"
        write_field_csv(h, path)
        return h, path

    def test_forward_then_inverse_recovers_input(self, tmp_path, rng):
        h, inpath = self.write_input(tmp_path, rng)
        mid = tmp_path / "mid.csv"
        out = tmp_path / "out.csv"
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--path", "fast", "--grid=-10,10,192;-10,10,192",
                       "--out", str(mid)) == 0
        assert run_cli("transform", "--in", str(mid), "--direction", "inverse",
                       "--path", "fast", "--grid=-6,6,96;-6,6,96",
                       "--out", str(out)) == 0
        back = read_field_csv(out)
        rel = np.linalg.norm(back.values - h.values) / np.linalg.norm(h.values)
        assert rel < 1e-6

    def test_gaussian_spot_check_through_files(self, tmp_path):
        from chirpspace import sample_field
        grid = square_grid(6, 97)
        h = sample_field(lambda P, Q: np.exp(-(P**2 + Q**2)), grid)
        inpath = tmp_path / "gauss.csv"
        write_field_csv(h, inpath)
        out = tmp_path / "img.csv"
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--path", "fast", "--grid=-5,5,81;-5,5,81",
                       "--out", str(out)) == 0
        img = read_field_csv(out)
        assert img.values[40, 40] == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_both_paths_prints_difference(self, tmp_path, rng, capsys):
        _, inpath = self.write_input(tmp_path, rng)
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--path", "both", "--grid=-6,6,64;-6,6,64",
                       "--out", str(tmp_path / "o.csv")) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "max |fast - direct|" in l][0]
        assert float(line.split("=")[1]) < 1e-8

    def test_empty_input_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run_cli("transform", "--in", str(empty), "--direction", "forward",
                       "--path", "fast", "--grid=-1,1,4;-1,1,4",
                       "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_grid_spec_is_usage_error(self, tmp_path, rng):
        _, inpath = self.write_input(tmp_path, rng)
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--path", "fast", "--grid=-1,1,4", "--out",
                       str(tmp_path / "o.csv")) == 2


class TestKernelCommand:
    def test_fourier_angle_samples(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli("kernel", "--alpha", str(np.pi / 2),
                       "--grid=-2,2,9;-2,2,9", "--out", str(out)) == 0
        k = read_field_csv(out)
        X, Y = k.grid.meshes()
        ref = np.exp(-1j * X * Y) / np.sqrt(2 * np.pi)
        assert np.abs(k.values - ref).max() < 1e-14

    def test_hermite_method_prints_deviation(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert run_cli("kernel", "--alpha", str(np.pi / 3), "--method", "hermite",
                       "--terms", "400", "--grid=-2,2,9;-2,2,9",
                       "--out", str(out)) == 0
        text = capsys.readouterr().out
        line = [l for l in text.splitlines() if "series - closed" in l][0]
        assert float(line.split("=")[1].split("(")[0]) < 1e-8

    def test_hermite_method_tabulates_axes_not_meshes(self, tmp_path, monkeypatch):
        terms, n_p, n_q = 200, 31, 23
        grid = f"-3,3,{n_p};-2,2,{n_q}"
        X, Y = _parse_grid_spec(grid).meshes()
        mesh_values = closedform.frft_kernel_hermite(1.0, X, Y, terms)
        tabulated = []

        def counting(n_max, x):
            table = hermite_functions(n_max, x)
            tabulated.append(table.size)
            return table

        monkeypatch.setattr(closedform, "hermite_functions", counting)
        out = tmp_path / "k.csv"
        assert run_cli("kernel", "--alpha", "1.0", "--method", "hermite",
                       "--terms", str(terms), f"--grid={grid}", "--out", str(out)) == 0
        assert 0 < sum(tabulated) <= terms * (n_p + n_q)
        assert np.array_equal(read_field_csv(out).values, mesh_values)

    def test_singular_angle_rejected(self, tmp_path, capsys):
        assert run_cli("kernel", "--alpha", "3.1", "--grid=-1,1,4;-1,1,4",
                       "--out", str(tmp_path / "k.csv")) == 2
        assert "3.1" in capsys.readouterr().err


def _field_file(tmp_path):
    path = tmp_path / "in.csv"
    write_field_csv(gaussian_poly_field(square_grid(3, 8), np.random.default_rng(0)), path)
    return str(path)


def _file_in_missing_dir(tmp_path):
    return str(tmp_path / "missing" / "out.csv")


def _existing_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "gaussian", "--config", [1, 2]),
        ("verify", "gaussian", "--config", {"seed": "abc"}),
        ("verify", "gaussian", "--config", {"alphas": 1.0}),
        ("verify", "gaussian", "--config", {"tolerance_overrides": [1]}),
        ("verify", "chirplet-kernel", "--config", {"epsilons": [float("nan"), 0.1]}),
        ("verify", "chirplet-kernel", "--config", {"alphas": [float("inf")]}),
        ("verify", "gaussian", "--config", {"out_dir": 5}),
        ("verify", "roundtrip", "--config", {"seed": -1}),
        ("verify", "chirplet-kernel", "--config", {"epsilons": [-0.1, 0.1]}),
        ("verify", "chirplet-kernel", "--config", {"epsilons": [0.0, 0.1]}),
        ("verify", "chirplet-kernel", "--config", {"epsilons": ["0.1", 0.05]}),
        ("verify", "gaussian", "--config",
         {"tolerance_overrides": {"gaussian-lam-1": float("nan")}}),
        ("verify", "gaussian", "--config", {"tolerance_overrides": {"gaussian-lam-1": -1e-6}}),
        ("verify", "gaussian", "--config",
         {"tolerance_overrides": {"gaussian-lam-1": float("inf")}}),
        ("verify", "chirplet-kernel", "--alpha", "nan"),
        ("verify", "chirplet-kernel", "--config", {"alphas": []}),
        ("verify", "chirplet-kernel", "--alpha", "1.0", "--alpha", "1.0"),
        ("verify", "chirplet-kernel", "--alpha", "1.0", "--alpha", "1.00001"),
        ("kernel", "--alpha", "1.0", "--method", "hermite", "--terms", "0",
         "--grid=-1,1,3;-1,1,3"),
        ("verify", "chirplet-kernel", "--epsilon", "0.1"),
        ("verify", "chirplet-kernel", "--epsilon", "0.1", "--epsilon", "0.1"),
        ("transform", "--in", _field_file, "--direction", "forward",
         "--grid=-1e308,1e308,5;-1,1,5", "--out", lambda tmp: str(tmp / "f.csv")),
        ("kernel", "--alpha", "1.0", "--grid=-1e308,1e308,5;-1,1,5",
         "--out", lambda tmp: str(tmp / "k.csv")),
        ("transform", "--in", _field_file, "--direction", "forward",
         "--grid=-1,1,4;-1,1,4", "--out", _file_in_missing_dir),
        ("kernel", "--alpha", "1.0", "--grid=-1,1,3;-1,1,3", "--out", _file_in_missing_dir),
        ("verify", "gaussian", "--out", _existing_file),
        ("verify", "gaussian", "--config", {"__dict__": {}}),
        ("verify", "gaussian", "--config", {"__weakref__": None}),
        ("verify", "gaussian", "--config", {"__doc__": "x"}),
        ("verify", "gaussian", "--config", {"validate": 1}),
        ("verify", "gaussian", "--config", {"alphas": [10**400]}),
        ("verify", "gaussian", "--config", {"out_dir": "a\u0000b"}),
        ("verify", "chirplet-kernel", "--alpha", "-1.0"),
        ("verify", "chirplet-kernel", "--alpha", "4.0"),
    ], ids=["config-list", "config-str-int", "config-scalar-list",
            "config-list-dict", "config-nan-epsilon", "config-inf-alpha",
            "config-int-out-dir", "config-negative-seed", "config-negative-damp",
            "config-zero-damp", "config-str-epsilon", "config-nan-tolerance",
            "config-negative-tolerance", "config-inf-tolerance", "alpha-nan",
            "config-alphas-empty",
            "alpha-duplicate", "alpha-same-4-decimals", "hermite-zero-terms",
            "epsilon-single", "epsilon-duplicate", "transform-grid-overflow",
            "kernel-grid-overflow", "transform-out-missing-dir",
            "kernel-out-missing-dir", "verify-out-is-a-file", "config-dunder-dict",
            "config-dunder-weakref", "config-dunder-doc", "config-method-name",
            "config-int-beyond-float", "config-out-dir-null-byte", "alpha-negative-sine",
            "alpha-negative-sine-4"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        args = []
        for a in argv:
            if callable(a):
                a = a(tmp_path)
            elif not isinstance(a, str):
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps(a))
                a = str(cfg)
            args.append(a)
        # a config that names out_dir is tested with it, not with --out
        if "--out" not in args and not any(isinstance(a, dict) and "out_dir" in a
                                           for a in argv):
            args += ["--out", str(tmp_path / "out")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1


# JSON values of every type, integers beyond the float range included, and
# the shapes of the fields (lists of numbers, name -> number objects)
NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -10**400])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)
FIELD_VALUES = (st.lists(NUMBERS, max_size=4)
                | st.dictionaries(st.text(max_size=8), NUMBERS, max_size=3))
CONFIG_KEYS = st.sampled_from(
    [f.name for f in dataclasses.fields(suites.RunConfig)]
    + ["__dict__", "__weakref__", "__doc__", "__class__", "validate", "from_file", "to_dict"]
) | st.text(max_size=12)


class TestRunConfigFromFile:
    @settings(max_examples=300)
    @given(raw=st.dictionaries(CONFIG_KEYS, FIELD_VALUES | JSON_VALUES, max_size=5))
    def test_any_json_object_is_a_valid_config_or_a_value_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw))
            try:
                cfg = suites.RunConfig.from_file(path)
            except ValueError:
                return
        cfg.validate()


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chirpspace", "verify", "gaussian",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert "suite gaussian: PASS" in proc.stdout
