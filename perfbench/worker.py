"""Child process of the benchmark: runs certify passes on one scenario file,
checks their outputs and writes the measurements as JSON.

    python -m perfbench.worker --workload W --scenarios FILE --seed N \
        --seconds S --trace 0|1 --out RESULT.json

It is started by ``perfbench/run.py`` with BLAS pinned to one thread and with
the checkout's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import platform
import random
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import framecert
from framecert.runner import emit, run
from framecert.scenarios import KINDS, load_scenarios
from perfbench import checks, tracing, workloads


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _certify(scenarios, parallelism: int) -> tuple[float, list[dict]]:
    """One user-visible certify: runner.run through runner.emit(json)."""
    start = perf_counter()
    reports = run(scenarios, parallelism=parallelism)
    emit(reports, "json")
    return perf_counter() - start, reports


class Verdicts:
    """Scenario-level pass/fail bookkeeping across repeated passes."""

    def __init__(self, expected_hashes: dict | None):
        self.expected = expected_hashes
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = defaultdict(list)
        self.notes: dict[str, list[str]] = {}

    @staticmethod
    def record(reports: list[dict]) -> list[tuple]:
        """The part of a pass the verdict needs: id, hash and status problems."""
        return [(r["scenario_id"], r["determinism_sha256"], checks.status_failures(r))
                for r in reports]

    def add_pass(self, records: list[tuple], oracle: dict[str, list[str]]) -> None:
        for sid, digest, status in records:
            problems = status + oracle.get(sid, [])
            if self.expected is not None and self.expected.get(sid) != digest:
                problems.append(f"hash {digest} != recorded {self.expected.get(sid)}")
            if self.first.setdefault(sid, digest) != digest:
                problems.append("hash differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    if problem not in self.problems[sid]:
                        self.problems[sid].append(problem)


def measure(args, scenarios, verdicts: Verdicts) -> dict:
    """Untraced certify passes within ``seconds``: at least two, and no pass is
    started that the previous one's duration says would end past the budget."""
    parallelism = workloads.PARALLELISM[args.workload]
    samples, records = [], []
    reports = None
    began = perf_counter()
    while len(samples) < 2 or perf_counter() - began + samples[-1] <= args.seconds:
        reports = None  # keep one pass alive at a time, as a CLI run does
        elapsed, reports = _certify(scenarios, parallelism)
        samples.append(elapsed)
        records.append(Verdicts.record(reports))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle = checks.oracle_failures(scenarios, reports, args.seed, notes=verdicts.notes)
    for record in records:
        verdicts.add_pass(record, oracle)
    return {
        "certify_samples": samples,
        "cells": sum(checks.cell_count(r) for r in reports),
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(args, verdicts: Verdicts) -> dict:
    """Three passes over the file: parallel untraced, serial untraced, serial traced."""
    threads = workloads.PARALLELISM["suite"]
    parallel_s, parallel_reports = _certify(load_scenarios(args.scenarios), threads)

    start = perf_counter()
    scenarios = load_scenarios(args.scenarios)
    load_s = perf_counter() - start
    evaluate_s = dict.fromkeys(KINDS, 0.0)
    serial_reports = []
    for scenario in scenarios:
        start = perf_counter()
        serial_reports += run([scenario])
        evaluate_s[scenario.kind] += perf_counter() - start
    serial_reports.sort(key=lambda r: r["scenario_id"])
    start = perf_counter()
    report_bytes = len(emit(serial_reports, "json"))
    emit_s = perf_counter() - start
    serial_s = sum(evaluate_s.values()) + emit_s

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_scenarios = load_scenarios(args.scenarios)
        traced_reports = []
        traced_s = 0.0
        for scenario in traced_scenarios:
            tracer.scenario = scenario.id
            start = perf_counter()
            traced_reports += run([scenario])
            traced_s += perf_counter() - start
        tracer.scenario = None
        traced_reports.sort(key=lambda r: r["scenario_id"])
        start = perf_counter()
        emit(traced_reports, "json")
        traced_s += perf_counter() - start
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer, tracing.distinct_kl_sets(tracer.hap_scenarios))
    metrics["scenarios.load_s"] = load_s
    for kind, seconds in evaluate_s.items():
        metrics[f"runner.evaluate_s.{kind}"] = seconds
    metrics["runner.emit_s"] = emit_s
    metrics["runner.report_bytes"] = report_bytes
    metrics["runner.error_reports"] = sum(1 for r in serial_reports if r["error"] is not None)
    metrics["runner.parallel_gain"] = serial_s / parallel_s
    metrics["trace.overhead_s"] = traced_s - serial_s

    oracle = checks.oracle_failures(scenarios, serial_reports, args.seed, notes=verdicts.notes)
    for reports in (parallel_reports, serial_reports, traced_reports):
        verdicts.add_pass(Verdicts.record(reports), oracle)
    _write_spans(args, tracer)
    return {"layer_metrics": metrics, "untraced_serial_s": serial_s, "traced_s": traced_s,
            "unwrapped": tracer.missing}


def _write_spans(args, tracer: tracing.Tracer) -> None:
    """Spans kept in memory during the pass, written out once at the end."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path = Path(args.out).with_name(f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for index, (name, start, end, parent, scenario) in enumerate(tracer.spans):
            out.write(json.dumps({
                "id": index, "name": name, "start": start - origin, "end": end - origin,
                "parent": parent, "workload": args.workload, "scenario": scenario,
            }) + "\n")


def warm_up(seed: int, path: Path) -> None:
    """Run the tiny probe scenarios once, untimed, so first-call costs of the
    interpreter and numpy stay out of the first timed pass."""
    probes = workloads.probe_scenarios(random.Random(f"warm-up/{seed}"))
    path.write_text(json.dumps(probes), encoding="utf-8")
    run(load_scenarios(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scenarios", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expected-hashes", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    expected = None
    if args.expected_hashes:
        expected = json.loads(Path(args.expected_hashes).read_text(encoding="utf-8"))
    verdicts = Verdicts(expected)
    scenarios = load_scenarios(args.scenarios)
    warm_up(args.seed, Path(args.out).with_name("warm-up.json"))
    if args.trace:
        result = measure_traced(args, verdicts)
    else:
        result = measure(args, scenarios, verdicts)
    result.update({
        "framecert_file": framecert.__file__,
        "provenance": provenance(),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems,
        "notes": verdicts.notes,
    })
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
