"""framecert benchmark: one workload (or all) end to end, or one traced run.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout.  It generates the workload's scenario
file from the seed, measures set-up in fresh interpreters, runs certify passes
in a child process for ``--seconds``, checks every output, prints each metric
with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Exits 2 without a result when the framecert sources or the shipped scenario
file are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SETUP_REPEATS = 9
TIME_LIMIT_S = 170  # per workload, children included

# What a user pays before the first evaluation: the CLI's imports and parsing
# the scenario file, timed inside a fresh interpreter.
SETUP_CODE = """\
import sys
from time import perf_counter
start = perf_counter()
import framecert
from framecert.runner import run
from framecert.scenarios import load_scenarios
load_scenarios(sys.argv[1])
print(perf_counter() - start)
"""


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (missing sources or inputs)."""


def child_env() -> dict:
    """Children see the checkout's sources first and one BLAS thread, so the
    suite's two runner threads never oversubscribe the cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _check_checkout(workload: str) -> None:
    if not (ROOT / "src" / "framecert" / "__init__.py").is_file():
        raise BenchmarkError(f"framecert sources not found under {ROOT / 'src'}")
    if workload == "suite" and not (ROOT / workloads.ACCEPTANCE_FILE).is_file():
        raise BenchmarkError(f"{workloads.ACCEPTANCE_FILE} not found")


def _run_child(command: list[str], timeout: float) -> str:
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchmarkError(f"{command[1:3]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    _check_checkout(workload)
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / "perfbench" / "_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scenario_file = workloads.write_scenarios(workload, seed, ROOT, work / "scenarios.json")
        setup = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                out = _run_child([sys.executable, "-c", SETUP_CODE, str(scenario_file)],
                                 deadline - time.monotonic())
                setup.append(float(out.strip().splitlines()[-1]))
        command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
                   "--scenarios", str(scenario_file), "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--out", str(work / "result.json")]
        if workload == "suite":
            command += ["--expected-hashes", str(ROOT / "perfbench" / "acceptance_hashes.json")]
        _run_child(command, deadline - time.monotonic())
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if not Path(result["framecert_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"framecert was imported from {result['framecert_file']}")
        for spans in work.glob("spans-*.jsonl.gz"):
            shutil.copy(spans, work.parent / spans.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = setup
    result["nproc"] = os.cpu_count()
    result["commit"] = git_commit()
    return result


def end_to_end(result: dict) -> dict:
    certify = statistics.median(result["certify_samples"])
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "certify_s": certify,
        "cells_per_s": result["cells"] / certify,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def metric_spec(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]


def describe(workload: str, seed: int, trace: int, result: dict) -> list[str]:
    """Human-readable lines: each metric with its unit and sample count."""
    p = result["provenance"]
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}",
        f"  provenance: nproc={result['nproc']} python={p['python']} numpy={p['numpy']} "
        f"blas={p['blas']} blas_threads=1 commit={result['commit']}",
    ]
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        values = result["layer_metrics"]
        for m in metric_spec("per_layer"):
            lines.append(f"  {m['name']:<36} {values[m['name']]:14.6g} {m['unit']}")
        lines.append(f"  (one traced serial pass; untraced serial pass "
                     f"{result['untraced_serial_s']:.4g} s, traced {result['traced_s']:.4g} s)")
        if result["unwrapped"]:
            lines.append(f"  not traced (absent): {', '.join(result['unwrapped'])}")
    else:
        values = end_to_end(result)
        samples = {"setup_s": f"median of {len(result['setup_samples'])} fresh interpreters",
                   "certify_s": f"median of {len(result['certify_samples'])} passes: "
                                + " ".join(f"{x:.4g}" for x in result["certify_samples"]),
                   "cells_per_s": f"{result['cells']} cells / median certify_s",
                   "peak_rss_mb": "1 process, max over all passes"}
        for m in metric_spec("end_to_end"):
            lines.append(f"  {m['name']:<12} {values[m['name']]:12.6g} {m['unit']:<8} "
                         f"({samples[m['name']]})")
    lines.append(f"  {'fail_frac':<12} {failed / attempted:12.6g} {'ratio':<8} "
                 f"({failed} failed of {attempted} scenario evaluations)")
    for sid, problems in sorted(result["problems"].items()):
        lines.extend(f"  FAIL {sid}: {problem}" for problem in problems)
    for sid, notes in sorted(result["notes"].items()):
        lines.extend(f"  NOTE {sid}: {note}" for note in notes)
    return lines


def metrics_json(result: dict, trace: int, prefix: str = "") -> dict:
    values = result["layer_metrics"] if trace else end_to_end(result)
    section = "per_layer" if trace else "end_to_end"
    return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metric_spec(section)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(describe(name, args.seed, args.trace, result)), flush=True)
            prefix = f"{name}." if args.workload == "all" else ""
            summary["metrics"].update(metrics_json(result, args.trace, prefix))
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
