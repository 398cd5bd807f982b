import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirpspace import closedform, hermite_functions, quantum, read_field_csv, suites
from chirpspace import SampledField, write_field_csv
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
        assert sorted(report["config_echo"]) == ["alphas", "seed", "tolerance_overrides"]

    def test_unknown_suite_is_usage_error(self, tmp_path):
        assert run_cli("verify", "nonsense", "--out", str(tmp_path)) == 2

    def test_tolerance_override_flips_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance_overrides": {"gaussian-lam-1": 1e-30}}))
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 1

    def test_override_that_names_no_case_is_noted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance_overrides": {"gausian-lam-1": 0.0,
                                                           "gaussian-lam-1": 1e-6}}))
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 0
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == ["note: tolerance override 'gausian-lam-1' names no case of "
                         "suite gaussian"]

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
        ("epsilons", [0.1, 0.05, 0.02, 0.01]), ("out_dir", "."),
    ])
    def test_removed_field_is_unknown(self, tmp_path, capsys, key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        assert run_cli("verify", "gaussian", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"unknown config field {key!r}" in err[0]

    def test_guarded_alpha_rejected_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [3.1]}))
        assert run_cli("verify", "chirplet-kernel", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2

    def test_chirplet_suite_with_alpha_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [1.0471975512]}))
        assert run_cli("verify", "chirplet-kernel", "--config", str(cfg),
                       "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "report-chirplet-kernel.json").read_text())
        closed = [c for c in report["cases"] if c["name"].startswith("chirplet-closed")]
        assert len(closed) == 1
        assert closed[0]["residual"] < 1e-10

    def test_report_records_its_environment(self, tmp_path, monkeypatch):
        # recorded, not applied: OpenBLAS read its setting when it loaded
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert run_cli("verify", "gaussian", "--out", str(tmp_path)) == 0
        env = load_strict_json(tmp_path / "report-gaussian.json")["environment"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "2",
            "OMP_NUM_THREADS": None,
        }

    def test_positive_sine_outside_first_period_passes(self, tmp_path):
        # the chirplet range is sin alpha >= 0.1, not 0 < alpha < pi; far out,
        # chirplet-closed failed at 4.8e-10 while lam lost |alpha| eps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [np.pi / 3 + 2 * np.pi * 10**5]}))
        assert run_cli("verify", "chirplet-kernel", "--config", str(cfg),
                       "--out", str(tmp_path)) == 0

    def test_reports_deterministic_modulo_runtime(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("verify", "gaussian", "--out", str(tmp_path / sub)) == 0

        def canon(p):
            rep = json.loads(p.read_text())
            for c in rep["cases"]:
                c["runtime_ms"] = None
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


def scaled(exact):
    """The binding's result times (1 + 1e-7)."""
    def mutant(*args):
        r = exact(*args)
        if dataclasses.is_dataclass(r):  # a SampledField or an OperatorKernel
            return dataclasses.replace(r, values=r.values * (1 + 1e-7))
        return r * (1 + 1e-7)
    return mutant


def transposed(exact):
    """The binding read with its first argument's values transposed."""
    return lambda first, *rest: exact(dataclasses.replace(first, values=first.values.T), *rest)


def conjugated(exact):
    """The binding read with its first argument's values conjugated."""
    return lambda first, *rest: exact(dataclasses.replace(first, values=first.values.conj()),
                                      *rest)


# Mutation analysis: each suite must fail when one function it reads is scaled
# by (1 + 1e-7), and the suites that read a displaced, boosted state must fail
# on the usual convention errors of Weyl-Wigner code, a transposed read or a
# dropped conjugate.  One row per mutant: the suites it runs, the binding it
# patches, the mutant, and the exact set of cases that must fail; every other
# case of those suites must pass.  A new suite adds its scaled rows here, or
# lists its cases in BLIND_TO_1E7 with the reason.
ALPHAS = [f"{a:.4f}" for a in suites.RunConfig().alphas]
MUTANTS = [
    (("chirplet-kernel",), "closedform.forward_fast", scaled,
     {f"chirplet-quadrature-{a}" for a in ALPHAS}),
    (("chirplet-kernel",), "closedform.frft_kernel", scaled,  # 1.0-1.07e-7 against 1e-10
     {f"chirplet-closed-{a}" for a in ALPHAS}),
    (("parseval",), "xform.forward_fast", scaled,
     {"parseval-random", "parseval-hermite-gaussian"}),
    (("kirkwood", "symbol-identity"), "quantum.forward_fast", scaled,
     {"kirkwood-n0-qp", "kirkwood-boost1-qp",
      "symbol-identity-n0-transform", "symbol-identity-boost1-transform"}),
    (("kirkwood", "symbol-identity"), "quantum.inverse_fast", scaled,
     {"kirkwood-n0-pq", "kirkwood-boost1-pq", "symbol-identity-n0-inverse",
      "symbol-identity-boost1-inverse",  # 2.0e-7 against 1e-7
      "symbol-identity-osc-inverse"}),  # 1.5e-7 against 1e-7
    # an expm error scales both orders alike, so the conjugate pairing holds
    (("charfun",), "quantum.expm", scaled, {"charfun-closed", "charfun-trace"}),
    (("charfun",), "quantum.char_function_pq", scaled, {"charfun-conjugate"}),
    (("gaussian",), "closedform.gaussian_transform_closed", scaled,
     {"gaussian-lam-0.5", "gaussian-lam-1", "gaussian-lam-2"}),
    (("weyl",), "quantum.weyl_quantize", scaled, {"weyl-roundtrip", "weyl-spectral"}),
    (("hermite-oracle",), "closedform.frft_kernel_hermite", scaled,
     {"oracle-alpha-0.3000", "oracle-alpha-1.0000", "oracle-alpha-1.5708",
      "oracle-alpha-2.0000", "oracle-alpha-2.8000", "oracle-composition"}),
    # the n0 and osc kernels are real and symmetric, so only boost1 sees these
    (("symbol-identity",), "quantum._mixed_grid", transposed,
     {"symbol-identity-boost1-transform", "symbol-identity-boost1-inverse"}),
    # kirkwood_pq_closed conjugates kirkwood_qp_closed, so it reads the mutant
    (("kirkwood",), "quantum.kirkwood_qp_closed", conjugated,
     {"kirkwood-boost1-qp", "kirkwood-boost1-pq"}),
    # a transposed Hermitian density keeps its trace and its conjugate pairing
    (("charfun",), "quantum._project_density", transposed, {"charfun-closed"}),
]
# cases no 1e-7 mutant can fail, by suite, each with its reason
BLIND_TO_1E7 = {
    "roundtrip": {
        "roundtrip-fast": "either path scaled leaves the residual at 1.0e-7, inside 1e-6",
        "roundtrip-direct": "either path scaled leaves the residual at 1.0e-7, inside 1e-6",
    },
    "symbol-identity": {
        "symbol-identity-osc-transform": "the forward mutant gives 1.34e-7, inside 1e-6",
    },
}


class TestMutationTable:
    @pytest.mark.parametrize("suite_names, binding, mutant, caught", MUTANTS,
                             ids=[row[1] for row in MUTANTS])
    def test_mutant_fails_exactly_its_cases(self, tmp_path, monkeypatch,
                                            suite_names, binding, mutant, caught):
        module, name = binding.split(".")
        module = importlib.import_module(f"chirpspace.{module}")
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        cases = []
        for suite in suite_names:
            assert run_cli("verify", suite, "--out", str(tmp_path)) == 1
            cases += load_strict_json(tmp_path / f"report-{suite}.json")["cases"]
        assert {c["name"] for c in cases if not c["pass"]} == caught
        assert all(c["error"] is None for c in cases)

    def test_every_case_is_caught_or_listed(self, monkeypatch):
        # each suite's case names, without running their computations
        monkeypatch.setattr(suites, "_cases", lambda cfg, specs, fn: [s[0] for s in specs])
        cfg = suites.RunConfig()
        names = {suite: set(build(cfg)) for suite, build in suites.SUITE_BUILDERS.items()}
        caught = set().union(*(c for _, _, mutant, c in MUTANTS if mutant is scaled))
        blind = {name for listed in BLIND_TO_1E7.values() for name in listed}
        assert not caught & blind
        for suite, listed in BLIND_TO_1E7.items():
            assert set(listed) <= names[suite]
        assert {suite: cases - caught - blind for suite, cases in names.items()
                if cases - caught - blind} == {}


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
            return complex(suites._coherent_char_qp(u, v))

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
        assert "empty file" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, error", [
        ([(-1e308, 0), (-1e308, 1), (1e308, 0), (1e308, 1)],
         "outer coordinates span more than the float range"),
        # p spans 1e308, but one row's p cells differ by 2e308
        ([(-1e308, 0), (1e308, 1), (0, 0), (0, 1)],
         "coordinates do not form a row-major tensor grid"),
    ], ids=["span", "row-deviation"])
    def test_coordinates_past_the_float_range_are_a_format_error(
            self, tmp_path, capsys, rows, error):
        inpath = tmp_path / "big.csv"
        inpath.write_text("p,q,re,im\n" + "".join(f"{p!r},{q},1,0\n" for p, q in rows))
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--grid=-1,1,4;-1,1,4", "--out", str(tmp_path / "o.csv")) == 2
        assert capsys.readouterr().err == f"transform error: {inpath}: {error}\n"

    def test_a_first_line_with_no_end_is_echoed_in_part(self, tmp_path, capsys):
        # line 1 is read to at most a few KiB: a 20 MB file with no line end
        # gives one short error line, not one that echoes the file
        inpath = tmp_path / "one-line.csv"
        inpath.write_bytes(b"0," * 10_000_000)
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--grid=-1,1,4;-1,1,4", "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 8192
        assert f"{inpath}: line 1: expected header 'p,q,re,im', got '0,0,0," in err

    @pytest.mark.parametrize("device", [
        None,
        pytest.param("/dev/zero", marks=pytest.mark.skipif(
            not os.path.exists("/dev/zero"), reason="needs /dev/zero")),
    ], ids=["file", "dev-zero"])
    def test_a_first_line_of_nul_bytes_is_echoed_in_64_characters(
            self, tmp_path, capsys, device):
        # each NUL echoes as four characters, \x00: the echo is cut to 64
        # characters before its repr, so the line stays under 1 KiB; /dev/zero
        # never ends, so the call returns only because line 1 is read from
        # at most 4096 bytes
        inpath = device or tmp_path / "zeros.csv"
        if device is None:
            inpath.write_bytes(bytes(4096))
        assert run_cli("transform", "--in", str(inpath), "--direction", "forward",
                       "--grid=-1,1,4;-1,1,4", "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert err == (f"transform error: {inpath}: line 1: expected header 'p,q,re,im', "
                       f"got {chr(0) * 64!r}\n")

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


def _overflowing_field_file(tmp_path):
    path = tmp_path / "big.csv"
    write_field_csv(SampledField(square_grid(1, 4), np.full((4, 4), 1e308, complex)), path)
    return str(path)


def _existing_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


# the result of a valid input leaves the float range
RESULT_OVERFLOWS = {
    "transform-fast-overflow": (
        "transform", "--in", _overflowing_field_file, "--direction", "forward",
        "--path", "fast", "--grid=-1,1,4;-1,1,4", "--out", lambda tmp: str(tmp / "f.csv")),
    "transform-direct-overflow": (
        "transform", "--in", _overflowing_field_file, "--direction", "forward",
        "--path", "direct", "--grid=-1,1,4;-1,1,4", "--out", lambda tmp: str(tmp / "f.csv")),
    "kernel-result-overflow": (
        "kernel", "--alpha", "1.0", "--grid=-1e300,1e300,4;-1,1,4",
        "--out", lambda tmp: str(tmp / "k.csv")),
}

# 10^17 nodes on one axis: 711 PiB for one float64 axis, more than any 64-bit
# address space maps, so the allocation fails at once whatever the overcommit
HUGE_GRID = "--grid=-1,1,100000000000000000;-1,1,4"
TOO_LARGE_TO_ALLOCATE = {
    "kernel-grid-too-large": (
        "kernel", "--alpha", "1.0", HUGE_GRID, "--out", lambda tmp: str(tmp / "k.csv")),
    "transform-fast-grid-too-large": (
        "transform", "--in", _field_file, "--direction", "forward", "--path", "fast",
        HUGE_GRID, "--out", lambda tmp: str(tmp / "f.csv")),
    "transform-direct-grid-too-large": (
        "transform", "--in", _field_file, "--direction", "forward", "--path", "direct",
        HUGE_GRID, "--out", lambda tmp: str(tmp / "f.csv")),
}


def run_row(tmp_path, argv):
    """Run one usage-error row: a callable argument is given the temporary
    directory, and a non-string one is written there as the JSON config."""
    args = []
    for a in argv:
        if callable(a):
            a = a(tmp_path)
        elif not isinstance(a, str):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(a))
            a = str(cfg)
        args.append(a)
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    return run_cli(*args)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "gaussian", "--config", [1, 2]),
        ("verify", "gaussian", "--config", {"seed": "abc"}),
        ("verify", "gaussian", "--config", {"alphas": 1.0}),
        ("verify", "gaussian", "--config", {"tolerance_overrides": [1]}),
        # epsilons is no longer a config field: each of these rows, once a
        # damping value the validator rejected, is now an unknown-field error
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
        ("verify", "chirplet-kernel", "--config", {"alphas": [float("nan")]}),
        ("verify", "chirplet-kernel", "--config", {"alphas": []}),
        ("verify", "chirplet-kernel", "--config", {"alphas": [1.0, 1.0]}),
        ("verify", "chirplet-kernel", "--config", {"alphas": [1.0, 1.00001]}),
        ("kernel", "--alpha", "1.0", "--method", "hermite", "--terms", "0",
         "--grid=-1,1,3;-1,1,3"),
        ("kernel", "--alpha", "1.0", "--method", "closed", "--terms", "-5",
         "--grid=-1,1,3;-1,1,3"),
        ("verify", "chirplet-kernel", "--config", {"epsilons": [0.1]}),
        ("verify", "chirplet-kernel", "--config", {"epsilons": [0.1, 0.1]}),
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
        ("verify", "gaussian", "--config", {"from_file": 1}),
        ("verify", "gaussian", "--config", {"alphas": [10**400]}),
        ("verify", "gaussian", "--config", {"out_dir": "a\u0000b"}),
        ("verify", "chirplet-kernel", "--config", {"alphas": [-1.0]}),
        ("verify", "chirplet-kernel", "--config", {"alphas": [4.0]}),
        ("verify", "gaussian", "--out", "a\u0000b"),
        *RESULT_OVERFLOWS.values(),
        *TOO_LARGE_TO_ALLOCATE.values(),
    ], ids=["config-list", "config-str-int", "config-scalar-list",
            "config-list-dict", "config-nan-epsilon", "config-inf-alpha",
            "config-int-out-dir", "config-negative-seed", "config-negative-damp",
            "config-zero-damp", "config-str-epsilon", "config-nan-tolerance",
            "config-negative-tolerance", "config-inf-tolerance", "alpha-nan",
            "config-alphas-empty",
            "alpha-duplicate", "alpha-same-4-decimals", "hermite-zero-terms",
            "closed-negative-terms",
            "epsilon-single", "epsilon-duplicate", "transform-grid-overflow",
            "kernel-grid-overflow", "transform-out-missing-dir",
            "kernel-out-missing-dir", "verify-out-is-a-file", "config-dunder-dict",
            "config-dunder-weakref", "config-dunder-doc", "config-method-name",
            "config-int-beyond-float", "config-out-dir-null-byte", "alpha-negative-sine",
            "alpha-negative-sine-4", "out-null-byte", *RESULT_OVERFLOWS,
            *TOO_LARGE_TO_ALLOCATE])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        assert run_row(tmp_path, argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", RESULT_OVERFLOWS.values(), ids=RESULT_OVERFLOWS)
    def test_overflow_names_the_float_range(self, tmp_path, capsys, argv):
        assert run_row(tmp_path, argv) == 2
        assert ": the result leaves the float range (" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", TOO_LARGE_TO_ALLOCATE.values(), ids=TOO_LARGE_TO_ALLOCATE)
    def test_too_large_names_the_memory(self, tmp_path, capsys, argv):
        assert run_row(tmp_path, argv) == 2
        assert ": out of memory (" in capsys.readouterr().err

    def test_removed_epsilon_flag(self, tmp_path, capsys):
        # the damping ladder is fixed in the suite; argparse reports the flag
        # under a usage line, so the error takes two lines
        assert run_cli("verify", "chirplet-kernel", "--epsilon", "0.1",
                       "--out", str(tmp_path)) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_removed_alpha_flag(self, tmp_path, capsys):
        # the angles come from the config file only; kernel keeps its --alpha
        assert run_cli("verify", "chirplet-kernel", "--alpha", "1.0",
                       "--out", str(tmp_path)) == 2
        assert "--alpha" in capsys.readouterr().err


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
    + ["__dict__", "__weakref__", "__doc__", "__class__", "__post_init__", "from_file",
       "to_dict"]
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
        dataclasses.replace(cfg)  # runs the check again


class TestRunConfigIsChecked:
    @pytest.mark.parametrize("build", [
        lambda: suites.RunConfig(alphas=()),
        lambda: suites.RunConfig(alphas=(1.0, 1.00001)),
        lambda: suites.RunConfig(seed=-1),
        lambda: suites.RunConfig(tolerance_overrides={"gaussian-lam-1": float("inf")}),
        lambda: dataclasses.replace(suites.RunConfig(), alphas=(3.1,)),
        lambda: suites.RunConfig(seed=1.5),
        lambda: suites.RunConfig(seed=True),
        lambda: suites.RunConfig(alphas=[True]),
        lambda: suites.RunConfig(alphas=("1.0",)),
        lambda: suites.RunConfig(alphas="1"),
        lambda: suites.RunConfig(alphas=(10**400,)),
        lambda: suites.RunConfig(tolerance_overrides={"x": "1"}),
        lambda: suites.RunConfig(tolerance_overrides={"x": True}),
        lambda: suites.RunConfig(tolerance_overrides=[("x", 1)]),
    ], ids=["alphas-empty", "alphas-same-4-decimals", "seed-negative", "tolerance-inf",
            "replace-guarded-alpha", "seed-float", "seed-bool", "alphas-bool", "alphas-str",
            "alphas-scalar-str", "alphas-int-beyond-float", "tolerance-str", "tolerance-bool",
            "tolerance-pairs"])
    def test_unchecked_config_cannot_be_built(self, build):
        with pytest.raises(ValueError):
            build()

    def test_fields_are_frozen(self):
        cfg = suites.RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alphas = ()

    def test_tolerance_overrides_cannot_be_loosened_after_the_check(self):
        given = {"gaussian-lam-1": 1e-6}
        cfg = suites.RunConfig(tolerance_overrides=given)
        with pytest.raises(TypeError):
            cfg.tolerance_overrides["gaussian-lam-1"] = float("inf")
        given["gaussian-lam-1"] = float("inf")  # the caller's dict is not the config's
        report = suites.run_suite("gaussian", cfg)
        tolerances = {c.name: c.tolerance for c in report.cases}
        assert tolerances["gaussian-lam-1"] == 1e-6
        assert report.config["tolerance_overrides"] == {"gaussian-lam-1": 1e-6}

    def test_alphas_cannot_be_emptied_after_the_check(self):
        given = [1.0]
        cfg = suites.RunConfig(alphas=given)
        assert cfg.alphas == (1.0,)
        with pytest.raises(AttributeError):
            cfg.alphas.clear()
        given.clear()  # the caller's list is not the config's
        report = suites.run_suite("chirplet-kernel", cfg)
        assert len(report.cases) == 2 and report.overall_pass


# axis bounds near and beyond the float range; every grid n and --terms stays
# at a few dozen, so no example allocates a large array
EXTREMES = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e300, -1e-300, 5e-324])
BOUNDS = st.floats() | EXTREMES
MODERATE_AXIS_SPECS = st.builds(lambda b, n: f"{min(b)!r},{max(b)!r},{n}",
                                st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                                st.integers(2, 24))
AXIS_SPECS = (
    st.builds(lambda lo, hi, n: f"{lo!r},{hi!r},{n}", BOUNDS, BOUNDS, st.integers(-1, 24))
    | st.builds(lambda e, n: f"{-e!r},{e!r},{n}",
                st.floats(1e-300, 1.7976931348623157e308), st.integers(2, 24))
    | MODERATE_AXIS_SPECS)
GRID_SPECS = (st.builds(lambda a, b: f"{a};{b}", AXIS_SPECS, AXIS_SPECS)
              | st.builds(lambda a, b: f"{a};{b}", MODERATE_AXIS_SPECS, MODERATE_AXIS_SPECS)
              # at 12 characters a parsable spec holds at most 99 x 9 points
              | st.text(alphabet="0123456789,;.-e", max_size=12))
# per example, the CSV cells are all moderate, all finite, or anything
CELL_KINDS = st.sampled_from([st.floats(-1e3, 1e3),
                              st.floats(allow_nan=False, allow_infinity=False),
                              BOUNDS])
PLAUSIBLE_CONFIGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(-3, 2**70),
    "alphas": st.lists(st.floats(0.2, 2.9) | BOUNDS, max_size=3),
    "tolerance_overrides": st.dictionaries(
        st.sampled_from(["gaussian-lam-0.5", "gaussian-lam-1", "other"]),
        st.floats(0, 1e-15) | NUMBERS, max_size=2),
})


def run_captured(argv):
    """``main``'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exit_contract(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err


class TestCliFuzz:
    """Any argv that argparse accepts exits 0, 1 or 2, and exit 2 prints one
    stderr line.  Values go in as ``--flag=value``: a bare ``-1e+300`` reads
    to argparse as an unknown flag, a two-line usage error."""

    @settings(max_examples=60)
    @given(raw=PLAUSIBLE_CONFIGS
           | st.dictionaries(CONFIG_KEYS, FIELD_VALUES | JSON_VALUES, max_size=5)
           | JSON_VALUES)
    def test_verify_config(self, raw):
        # gaussian is the cheapest suite
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert_exit_contract(*run_captured(
                ["verify", "gaussian", f"--config={cfg}", f"--out={tmp}/out"]))

    @settings(max_examples=80)
    @given(extent=st.sampled_from([1.0, 3.0, 1e150, 1e300]), n=st.integers(2, 6),
           cells=CELL_KINDS, data=st.data(), direction=st.sampled_from(["forward", "inverse"]),
           path=st.sampled_from(["direct", "fast", "both"]), grid=GRID_SPECS)
    def test_transform(self, extent, n, cells, data, direction, path, grid):
        axis = np.linspace(-extent, extent, n).tolist()
        rows = [f"{p!r},{q!r},{data.draw(cells)!r},{data.draw(cells)!r}"
                for p in axis for q in axis]
        with tempfile.TemporaryDirectory() as tmp:
            infile = Path(tmp) / "in.csv"
            infile.write_text("\n".join(["p,q,re,im"] + rows) + "\n")
            assert_exit_contract(*run_captured([
                "transform", f"--in={infile}", f"--direction={direction}",
                f"--path={path}", f"--grid={grid}", f"--out={tmp}/out.csv"]))

    @settings(max_examples=80)
    @given(alpha=BOUNDS | st.floats(-4, 4)
           | st.builds(lambda k, d: k * np.pi + d, st.integers(-3, 3),
                       st.sampled_from([0.0, 1e-12, -1e-3, 0.1])),
           method=st.sampled_from(["closed", "hermite"]), terms=st.integers(-2, 40),
           grid=GRID_SPECS)
    # the series' phases e^{-i alpha n} overflow at a huge angle
    @example(alpha=1e308, method="hermite", terms=3, grid="-1,1,2;-1,1,2")
    def test_kernel(self, alpha, method, terms, grid):
        with tempfile.TemporaryDirectory() as tmp:
            assert_exit_contract(*run_captured([
                "kernel", f"--alpha={alpha!r}", f"--method={method}", f"--terms={terms}",
                f"--grid={grid}", f"--out={tmp}/k.csv"]))


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chirpspace", "verify", "gaussian",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert "suite gaussian: PASS" in proc.stdout
