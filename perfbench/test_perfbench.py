"""Tests of the benchmark itself: tracer bindings and counts, output checks.

    python3 -m pytest perfbench -q          (from the repository root)
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import scipy.linalg  # noqa: E402
import scipy.signal  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from chirpspace import cli, closedform, grid, quantum, suites, xform  # noqa: E402
from tracer import METRICS, Tracer, layer_metrics  # noqa: E402


def _bindings():
    return {
        "xform.forward_fast": xform.forward_fast,
        "xform.inverse_fast": xform.inverse_fast,
        "xform._FORWARD": dict(xform._FORWARD),
        "xform._INVERSE": dict(xform._INVERSE),
        "xform.czt": xform.czt,
        "quantum.forward_fast": quantum.forward_fast,
        "quantum.inverse_fast": quantum.inverse_fast,
        "quantum.expm": quantum.expm,
        "closedform.forward_fast": closedform.forward_fast,
        "suites.SUITE_BUILDERS": dict(suites.SUITE_BUILDERS),
        "cli.run_suite": cli.run_suite,
        "SampledField.__post_init__": vars(grid.SampledField)["__post_init__"],
    }


def test_verify_all_pass_counts_and_restored_bindings(tmp_path):
    before = _bindings()
    assert before["xform.czt"] is scipy.signal.czt
    assert before["quantum.expm"] is scipy.linalg.expm
    with Tracer() as tracer:
        assert xform.czt is not scipy.signal.czt
        assert quantum.forward_fast is xform.forward_fast is xform._FORWARD["fast"]
        assert closedform.forward_fast is xform.forward_fast
        rc = cli.main(["verify", "all", "--out", str(tmp_path)])
    assert _bindings() == before
    assert rc == 0 and tracer.absent == []
    m = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    assert m["xform.fast_calls"] == 32
    assert m["xform.czt_calls"] == 64
    assert m["xform.direct_calls"] == 9
    assert m["quantum.charfun_calls"] == 176
    assert m["quantum.expm_calls"] == 352
    assert m["suites.cases_attempted"] == 34 and m["suites.cases_failed"] == 0
    assert m["fields_io.read_s"] == 0 and m["fields_io.write_s"] == 0
    assert all(m[f"suites.{s}_s"] > 0 for s in ("charfun", "kirkwood", "chirplet_kernel"))


def test_bindings_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError), Tracer():
        1 / 0
    assert _bindings() == before


def test_removed_binding_is_reported_absent(monkeypatch):
    monkeypatch.delattr(quantum, "expm")
    with Tracer() as tracer:
        pass
    assert "quantum:expm" in tracer.absent
    metrics = layer_metrics(tracer)
    assert metrics["quantum.expm_calls"][0] is None
    assert metrics["quantum.charfun_calls"][0] == 0


def _small_sweep(tmp_path):
    sweep = workloads.FastSweep()
    sweep.GROUPS = (
        ("a", "forward", workloads.square(4.0, 33), workloads.square(3.0, 17)),
        ("b", "inverse", workloads.square(3.0, 17), workloads.square(4.0, 25)),
    )
    sweep.prepare(tmp_path, seed=5)
    state = sweep.start(0)
    sweep.run(state)
    return sweep, state


def test_fast_sweep_check_catches_one_wrong_result(tmp_path):
    sweep, state = _small_sweep(tmp_path)
    n = sweep.FIELDS * len(sweep.GROUPS)
    assert sweep.check([sweep.finish(state)]) == [(n, 0)]
    # one result of group "b" off by one part in a million at a single point
    i = [g for g, *_ in state["calls"]].index(1)
    wrong = state["results"][i].copy()
    wrong[0, 0] += 1e-6 * np.abs(wrong).max()
    state["results"][i] = wrong
    assert sweep.check([sweep.finish(state)]) == [(n, sweep.FIELDS)]


def test_transform_csv_check_catches_one_wrong_output(tmp_path):
    job = workloads.TransformCsv()
    job.JOBS = (("small", "forward", workloads.square(4.0, 41), workloads.square(3.0, 21)),
                ("other", "inverse", workloads.square(3.0, 21), workloads.square(4.0, 41)))
    job.prepare(tmp_path, seed=3)
    infos = []
    for index in range(2):
        state = job.start(index)
        job.run(state)
        info = job.finish(state)
        if index == 1:                   # rewrite one value of the second pass's output
            out = tmp_path / "small-out.csv"
            lines = out.read_text().splitlines()
            p, q, re_, im = lines[1].split(",")
            lines[1] = ",".join((p, q, repr(float(re_) + 1e-3), im))
            out.write_text("\n".join(lines) + "\n")
        job.after_pass(index, info)
        infos.append(info)
    assert job.check(infos) == [(2, 0), (2, 1)]


def test_verify_all_check_catches_one_failed_case(tmp_path):
    va = workloads.VerifyAll()
    va.prepare(tmp_path, seed=1)
    cases = [{"name": f"c{i}", "pass": True} for i in range(5)]
    for index, bad in enumerate((None, 2)):
        if bad is not None:
            cases[bad]["pass"] = False
        out = tmp_path / f"pass-{index}"
        out.mkdir()
        (out / "report-all.json").write_text(json.dumps({"cases": cases}))
    missing = tmp_path / "pass-2"
    missing.mkdir()
    assert va.check([{"rc": 0}, {"rc": 1}, {"rc": 0}]) == [(5, 0), (5, 1), (5, 5)]


def test_importtime_bills_third_party_imports_to_the_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        10 |         10 |       chirpspace.grid",
        "import time:       900 |        900 |       scipy.signal",
        "import time:        20 |        930 |     chirpspace.xform",
        "import time:        30 |       1060 |   chirpspace.closedform",
        "import time:         5 |       1065 | chirpspace",
    ])
    billed = run.parse_importtime(text)
    assert billed == pytest.approx({"grid": 10e-6, "xform": 920e-6, "closedform": 130e-6})


def test_summary_tail_has_ten_samples_beyond_it():
    s = run.summarize(list(range(20)))
    assert s["tail"] == {"pct": 50.0, "value": 9} and s["median"] == 9.5
    assert run.summarize(list(range(10)))["tail"] is None


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(METRICS) <= set(run.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_reference_helper_reports_kernel_times_and_exits():
    with run.Reference() as ref:
        ref.measure()
        ref.due()                # not due again yet
        assert len(ref.values) == 1 and 0 < ref.values[0] < 10
    assert ref.proc.returncode == 0
