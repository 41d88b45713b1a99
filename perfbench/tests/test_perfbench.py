"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stmoments import arith_curves, hecke, moments_engine, verify  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_gate(name):
    w = workloads.WORKLOADS[name]
    inputs = w.prepare(workloads.DEFAULT_SEED, "tiny")
    outcome = w.gate(inputs, w.run(inputs))
    assert outcome.attempted == w.operations(inputs) >= 1
    assert (outcome.failed, outcome.problems) == (0, [])


def test_worker_process_reports_traced_layers(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "sweep-deep", "--seed", "5",
         "--trace", "1", "--size", "tiny", "--spans", str(spans)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["attempted"], report["failed"]) == (1, 0)
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0
    assert set(report["layers"]) == {n for n, _ in tracing.PER_LAYER_METRICS} - {"trace.overhead_s"}
    assert report["layers"]["moments_engine.family_error_grid.calls"] == 1
    assert report["layers"]["moments_engine.stats.self_s"] > 0
    assert json.loads(spans.read_text())["spans"][0]["name"] == tracing.ROOT


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 8.0, 3],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert tracing.largest_self_time(spans) == ("a", 4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 6.0, 0], ["y", 4.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_nested_calls_of_one_layer_count_inclusive_time_once():
    spans = [["s", 0.0, 4.0, -1], ["s", 1.0, 2.0, 0]]
    assert tracing.layer_totals(spans)["s"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def _patchable_state():
    state = {}
    for module in tracing._package_modules():
        state.update({(module.__name__, k): v for k, v in vars(module).items()})
    state.update({("SUITES", k): v for k, v in verify.SUITES.items()})
    state[("TraceStore", "trace")] = hecke.TraceStore.trace
    return state


def _assert_same_state(before):
    after = _patchable_state()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_traced_run_removes_every_wrapper():
    before = _patchable_state()
    tracer = tracing.Tracer()
    w = workloads.WORKLOADS["sweep-deep"]
    inputs = w.prepare(3, "tiny")
    with tracer.installed():
        assert verify.SUITES["arith"] is not before[("SUITES", "arith")]
        assert hecke.TraceStore.trace is not before[("TraceStore", "trace")]
        assert moments_engine._trace_rows is not before[("stmoments.moments_engine", "_trace_rows")]
        tracer.root(w.run, inputs)
    assert tracer.counters["arith_curves.trace_rows.rows"] > 0
    _assert_same_state(before)


def test_wrappers_are_removed_after_an_exception():
    before = _patchable_state()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            moments_engine.family_moments(moments_engine.MomentPlan(
                x=50.0, A=0, B=3, interval=arith_curves.Interval(0.0, math.pi / 2)))
    assert [s[0] for s in tracer.spans][:2] == ["moments_engine.stats", "moments_engine.family_error_grid"]
    _assert_same_state(before)


def _flipped(grid, a, b, inputs):
    a_vals, b_vals, counts, admissible, pi_tilde = grid
    counts = counts.copy()
    counts[a + inputs["A"], b + inputs["B"]] += 1
    return a_vals, b_vals, counts, admissible, pi_tilde


def test_sweep_gate_rejects_a_flipped_entry_at_an_oracle_pair():
    inputs = workloads.WORKLOADS["sweep-deep"].prepare(11, "tiny")
    grid, problems = workloads.reference_grid(inputs)
    assert problems == []
    a, b = inputs["pairs"][-1]
    problems = workloads.check_grid(inputs, _flipped(grid, a, b, inputs))
    assert any(f"counts[{a}, {b}]" in p for p in problems)


def test_sweep_gate_rejects_a_flipped_entry_by_digest_on_the_default_seed():
    inputs = workloads.WORKLOADS["sweep-deep"].prepare(workloads.DEFAULT_SEED, "tiny")
    grid, _ = workloads.reference_grid(inputs)
    a, b = next((a, b) for a in range(-inputs["A"], inputs["A"] + 1) for b in range(-inputs["B"], inputs["B"] + 1)
                if (a, b) not in inputs["pairs"] and 4 * a ** 3 + 27 * b ** 2 != 0)
    problems = workloads.check_grid(inputs, _flipped(grid, a, b, inputs))
    assert any("digest" in p for p in problems)


def test_sweep_gate_fails_every_operation_on_a_bad_reference_grid(monkeypatch):
    w = workloads.WORKLOADS["sweep-wide"]
    inputs = w.prepare(2, "tiny")
    result = w.run(inputs)
    a, b = inputs["pairs"][0]
    original = moments_engine.family_error_grid
    monkeypatch.setattr(moments_engine, "family_error_grid",
                        lambda *args: _flipped(original(*args), a, b, inputs))
    outcome = w.gate(inputs, result)
    assert (outcome.attempted, outcome.failed) == (3, 3)


def test_sweep_gates_reject_wrong_statistics():
    w = workloads.WORKLOADS["sweep-deep"]
    inputs = w.prepare(4, "tiny")
    report = w.run(inputs)
    report.results[1] = dataclasses.replace(report.results[1], empirical=report.results[1].empirical * (1 + 1e-9))
    outcome = w.gate(inputs, report)
    assert outcome.failed == 1 and "moment t=2" in outcome.problems[0]

    w = workloads.WORKLOADS["sweep-wide"]
    inputs = w.prepare(4, "tiny")
    report, sample, exceptions = w.run(inputs)
    sample.counts[len(sample.counts) // 2] += 1
    outcome = w.gate(inputs, (report, sample, dataclasses.replace(exceptions, total=exceptions.total - 1)))
    assert (outcome.failed, outcome.problems[0]) == (2, "CLT sample counts differ from the grid")


def test_soft_gate_rejects_a_changed_value():
    want = workloads.load_expected()["soft-diagnostics"]["tiny"]
    got = dict(want, clt_ks=want["clt_ks"] * (1 + 1e-9))
    assert workloads.soft_problems(dict(want), want) == []
    assert workloads.soft_problems(got, want) != []


def test_identity_gate_counts_failed_and_missing_checks():
    inputs = workloads.prepare_identity(0, "tiny")
    lines = ["== suite arith"] + ["PASS  x"] * 20 + ["FAIL  y"] + ["== suite family"] + ["PASS  z"] * 2
    outcome = workloads.gate_identity(inputs, lines)
    assert (outcome.attempted, outcome.failed) == (24, 2)


def test_default_seed_is_the_roadmap_interval():
    iv = workloads.seeded_interval(workloads.DEFAULT_SEED)
    assert (iv.lo, iv.hi) == (0.0, 2.0)
    assert workloads.seeded_interval(4) == workloads.seeded_interval(4) != iv


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in tracing.PER_LAYER_METRICS]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in tracing.PER_LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-deep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _result(value, failed=0):
    return {"correct": not failed, "attempted": 1, "failed": failed,
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_compare_verdicts():
    rng = np.random.default_rng(1)
    parent = [10.0 + 0.1 * x for x in rng.standard_normal(10)]
    faster = [v * 0.8 for v in parent]
    same = list(reversed(parent))
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}
    rows = compare.compare({"w": [_result(v) for v in parent]}, {"w": [_result(v) for v in faster]}, spec)
    assert (rows[0].verdict, rows[0].bound_check) == ("improved", "ok")
    rows = compare.compare({"w": [_result(v) for v in faster]}, {"w": [_result(v) for v in parent]}, spec)
    assert (rows[0].verdict, rows[0].bound_check) == ("regressed", "worse")
    rows = compare.compare({"w": [_result(v) for v in parent]}, {"w": [_result(v) for v in same]}, spec)
    assert (rows[0].verdict, rows[0].bound_check) == ("unresolved", "ok")
    rows = compare.compare({"w": [_result(v) for v in parent]},
                           {"w": [_result(v, failed=1) for v in faster]}, spec)
    assert rows[0].verdict == "unresolved"
    rows = compare.compare({"w": [_result(v) for v in parent[:9]]}, {"w": [_result(v) for v in faster[:9]]}, spec)
    assert rows[0].verdict == "unresolved"
