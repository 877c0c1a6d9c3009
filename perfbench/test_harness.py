"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import sys
import time
import types

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_only_direct_children():
    # parent [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 7].
    t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 7, 8, 10]))
    parent = t.begin("parent")
    a = t.begin("a")
    t.end(a)
    b = t.begin("b")
    c = t.begin("c")
    t.end(c)
    t.end(b)
    t.end(parent)
    own = t.self_times()
    assert (own[parent], own[a], own[b], own[c]) == (4, 2, 2, 2)
    assert c.parent is b and b.parent is parent and parent.parent is None
    assert t.totals()[("b", None)] == [1, 2.0, 0.0]


def test_covered_counts_overlaps_once_and_clips_to_the_parent():
    assert tracer.covered([(1, 4), (2, 3), (3, 6), (8, 12)], 0, 10) == 7
    assert tracer.covered([], 0, 10) == 0


def test_instrument_wraps_keys_and_restores_and_reports_absent(monkeypatch):
    class Table:
        @classmethod
        def load(cls, x):
            return [x] * 3

    def concat(a, b, case, streams=None):
        return Table.load(case)

    mod = types.ModuleType("fake_layers")
    mod.concat, mod.Table = concat, Table
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    layers = (
        ("fake_layers", "concat", "concat", tracer._case_arg, len),
        ("fake_layers", "Table.load", "table", None, None),
        ("fake_layers", "gone", "gone", None, None),
    )
    t = tracer.Tracer()
    with tracer.instrument(t, layers) as absent:
        assert mod.concat(1, 2, "Case0") == ["Case0"] * 3
        mod.concat(1, 2, case="Case1")
    assert absent == ["gone"]
    assert mod.concat is concat and Table.load(1) == [1, 1, 1]
    totals = t.totals()
    assert totals[("concat", "Case0")][0] == 1 and totals[("concat", "Case0")][2] == 3
    assert totals[("table", None)][0] == 2
    assert [s.name for s in t.spans if s.parent is not None] == ["table", "table"]


def _study(tmp_path, drops=2):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"frequency_hz = 6e9\ndrops = {drops}\n")
    return workloads.Workload("tiny", "concat-study", str(cfg), "", 1,
                              drops=drops, cases=workloads.STUDY_CASES)


def test_corrupted_output_is_caught_and_counted_in_error_rate(tmp_path):
    wl = _study(tmp_path)
    ledger = run.Ledger(str(tmp_path), time.perf_counter() + 60)
    good = str(tmp_path / "good")
    _, digests = ledger.attempt("good", run.cli_argv(wl, 5, good, 1), wl, good, None)
    assert digests is not None and ledger.failed == 0
    assert not os.path.exists(good), "outputs are deleted after their checks"

    bad = str(tmp_path / "bad")
    corrupt = (
        "import sys; from isacsim.cli import main; rc = main(sys.argv[2:]); "
        "open(sys.argv[1] + '/statistics.txt', 'a').write('0 Case0 x\\n'); sys.exit(rc)"
    )
    argv = [sys.executable, "-c", corrupt, bad] + run.cli_argv(wl, 5, bad, 1)[3:]
    _, got = ledger.attempt("bad", argv, wl, bad, digests)
    assert got is None
    assert (ledger.attempted, ledger.failed, ledger.error_rate) == (2, 1, 0.5)
    assert any("statistics.txt does not match" in p for p in ledger.problems)


def test_statistics_and_reference_checks(tmp_path):
    from isacsim.cli import main

    out = str(tmp_path / "out")
    wl = _study(tmp_path)
    assert main(["concat-study", "--config", wl.input_path, "--seed", "3", "--out", out]) == 0
    problems, digests = checks.check_run_outputs(out, 2, wl.cases, True)
    assert problems == []
    assert checks.check_run_outputs(out, 3, wl.cases, True)[0], "missing drop rows"
    other = dict(digests, **{"statistics.txt": "0" * 64})
    assert "differ from the reference" in checks.check_run_outputs(
        out, 2, wl.cases, True, other)[0][0]

    path = os.path.join(out, "statistics.txt")
    lines = open(path).read().splitlines()
    i = next(n for n, ln in enumerate(lines) if ln.split()[1:2] == ["Case0"])
    lines[i] = lines[i].rsplit(" ", 1)[0] + " 1.5"
    open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check_statistics(out, 2, wl.cases, True) == [
        "1 Case0 rows have nn_power_ratio != 1, first drop 0: 1.5"]


def test_detection_check_matches_the_closed_form_and_catches_a_wrong_pd(tmp_path):
    from isacsim.cli import main

    args = ["--pfa", "1e-2,1e-6", "--snr-min", "-10", "--snr-max", "20", "--snr-step", "2.5"]
    pfa, snr, _ = workloads.detect_grid(dict(zip(args[::2], args[1::2])))
    assert main(["detect", *args, "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "detection.txt")
    expected = checks.pd_reference(pfa, snr)
    assert checks.check_detection(path, pfa, snr, expected) == []
    lines = open(path).read().splitlines()
    cols = lines[3].split()
    lines[3] = " ".join(cols[:2] + ["%.12e" % (float(cols[2]) + 1e-6)])
    open(path, "w").write("\n".join(lines) + "\n")
    assert "differs from ncx2.sf" in checks.check_detection(path, pfa, snr, expected)[0]


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.load(w["name"]).why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = tracer.layer_metrics(tracer.Tracer(), 0, 0)
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layer.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_parse(name):
    wl = workloads.load(name)
    assert wl.why and wl.items > 0
    if name == "detect":
        assert wl.items == 24006
