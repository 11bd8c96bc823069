"""Tests for the benchmark's own code: span self-time arithmetic, seeded
scenario generation, the oracle checks and the tracer's exact counts."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from framecert.runner import run
from framecert.scenarios import load_scenarios
from perfbench import checks, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered, not 3 + 3
        ("c", 2.0, 3.0, 1),
        ("d", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_outer_time_counts_recursive_calls_once():
    spans = [("f", 0.0, 5.0, -1), ("f", 1.0, 2.0, 0), ("g", 6.0, 7.0, -1), ("f", 6.5, 7.0, 2)]
    assert tracing._outer_time(spans, "f") == pytest.approx(5.5)


@pytest.mark.parametrize("workload", ["hap-ladder", "carrier-scan"])
def test_same_seed_gives_byte_identical_scenario_files(workload, tmp_path):
    first = workloads.write_scenarios(workload, 7, ROOT, tmp_path / "a.json").read_bytes()
    second = workloads.write_scenarios(workload, 7, ROOT, tmp_path / "b.json").read_bytes()
    other = workloads.write_scenarios(workload, 8, ROOT, tmp_path / "c.json").read_bytes()
    assert first == second
    assert first != other
    assert len(load_scenarios(tmp_path / "a.json")) == len(load_scenarios(tmp_path / "c.json"))


def _probe_reports(tmp_path):
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(workloads.probe_scenarios(random.Random(3))))
    scenarios = load_scenarios(path)
    return scenarios, run(scenarios)


def test_oracle_accepts_unperturbed_reports(tmp_path):
    scenarios, reports = _probe_reports(tmp_path)
    assert all(r["ok"] for r in reports)
    assert checks.oracle_failures(scenarios, reports, seed=1, size=10**6) == {}


@pytest.mark.parametrize(
    "scenario_id, rows, field, delta",
    [
        ("probe-hap", lambda r: r["certificate"]["table"], "error", 1e-6),
        ("probe-compare", lambda r: r["certificates"], "card_X", 1),
        ("probe-density", lambda r: r["table"], "count", 1),
    ],
)
def test_oracle_fails_when_a_table_cell_is_perturbed(tmp_path, scenario_id, rows, field, delta):
    scenarios, reports = _probe_reports(tmp_path)
    report = next(r for r in reports if r["scenario_id"] == scenario_id)
    cell = next(row for row in rows(report) if not row.get("boundary", False))
    cell[field] += delta
    failures = checks.oracle_failures(scenarios, reports, seed=1, size=10**6)
    assert list(failures) == [scenario_id]


def test_traced_counts_repeat_exactly_and_originals_are_restored(tmp_path):
    import framecert.comparison
    import framecert.frames

    scenarios, _ = _probe_reports(tmp_path)
    original = framecert.frames.span_projector
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        assert framecert.comparison.span_projector is not original
        try:
            run(scenarios)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, tracing.distinct_kl_sets(tracer.hap_scenarios))
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert tracer.missing == []
    assert framecert.comparison.span_projector is original
    assert counts[0] == counts[1]
    assert counts[0]["frames.span_projector_calls"] > 0
    assert counts[0]["groups.compose_calls"] > 0


def test_worker_passes_report_every_benchmark_metric(tmp_path):
    from argparse import Namespace

    from perfbench import worker

    path = tmp_path / "probes.json"
    path.write_text(json.dumps(workloads.probe_scenarios(random.Random(5))))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = Namespace(workload="carrier-scan", scenarios=str(path), seed=5, seconds=0.0,
                     out=str(tmp_path / "result.json"))

    verdicts = worker.Verdicts(None)
    traced = worker.measure_traced(args, verdicts)
    assert {m["name"] for m in spec["per_layer"]} <= set(traced["layer_metrics"])
    assert (verdicts.attempted, verdicts.failed) == (15, 0)
    assert list(tmp_path.glob("spans-carrier-scan-seed5.jsonl.gz"))

    verdicts = worker.Verdicts(None)
    untraced = worker.measure(args, load_scenarios(path), verdicts)
    assert len(untraced["certify_samples"]) == 2
    assert untraced["cells"] > 0
    assert (verdicts.attempted, verdicts.failed) == (10, 0)
