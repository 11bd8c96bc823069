"""Batch scenario execution and canonical report serialization.

Reports are plain dicts whose floats are normalized to 12 significant digits
at assembly time, so emitting canonical JSON and parsing it back reproduces
the in-memory report exactly.  Each report carries a determinism hash over
its canonical JSON with the timestamp removed; two runs with the same
scenario file and seeds must agree hash-for-hash regardless of parallelism.
Scenarios are independent, so on Linux run() spreads them over forked
worker processes when asked for more than one; each report is canonicalized
once, in the process that evaluated it, and emit() writes it as it stands.
Individual scenario failures (a system that is not a frame, a malformed
candidate family, an escaping carrier) are captured in the report's "error"
field and never abort the batch; any other exception is a bug and aborts it.

Report rows are generated from the certificate dataclasses (HapCell,
ComparisonCertificate, DensityRow, ...): every field becomes a key, renamed
where _REPORT_NAMES says so.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from framecert import __version__
from framecert.amalgam import TAIL_INTEGRAND_CONVENTION, GroupFunction, sampling_bound_check
from framecert.comparison import (
    ComparisonScenario,
    HapPreconditionUnmet,
    NotPositive,
    comparison_run,
    density_report,
)
from framecert.frames import (
    LengthMismatch,
    NotAFrame,
    analyze_frame,
    bessel_bound_check,
    verify_dual,
)
from framecert.groups import NonSymmetricNeighborhood, OutOfCarrier, PointSet, separation_constant
from framecert.hap import HapScenario, NoAdmissibleL, find_L
from framecert.representations import DimensionMismatch, ZeroResult, ZeroWindow
from framecert.scenarios import (
    Scenario,
    build_frame,
    build_group,
    build_points,
    build_reference,
    build_vector,
)

_VOLATILE_KEYS = ("timestamp", "determinism_sha256")


# Exact types that are already canonical; checking type(obj) first skips the
# isinstance chain for almost every value a report is built from.
_AS_IS = frozenset((int, str, bool, type(None)))


def _canon(obj):
    """Canonical JSON-ready form: sorted-key dicts, lists, %.12g floats."""
    kind = type(obj)
    if kind is float:
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _AS_IS else _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [x if type(x) in _AS_IS else _canon(x) for x in obj]
    if kind in _AS_IS:
        return obj
    # numpy scalars and arrays, subclasses of int and float
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    return obj


def _dumps(canonical) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    return _dumps(_canon(obj))


def _sha256(canonical: dict) -> str:
    """determinism_sha256 of a report already in canonical form."""
    stripped = {k: v for k, v in canonical.items() if k not in _VOLATILE_KEYS}
    return hashlib.sha256(_dumps(stripped).encode("utf-8")).hexdigest()


def determinism_sha256(report: dict) -> str:
    return _sha256(_canon(report))


# Report keys that differ from the certificate dataclasses' field names.
_REPORT_NAMES = {
    "k_label": "K_radius",
    "l_label": "L_radius",
    "card_x_in_ykl": "card_X",
    "card_y_in_yk": "card_Y",
    "b_used": "B_used",
    "b_provenance": "B_provenance",
    "b_alternative": "B_alternative",
    "projected_sum_identity_error": "identity_error",
    "empirical_B_dual": "empirical",
}


@functools.cache
def _row_keys(cls) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, _REPORT_NAMES.get(f.name, f.name)) for f in dataclasses.fields(cls))


def _row(certificate, **extra) -> dict:
    """A report row: the certificate's dataclass fields under their report
    names, then ``extra``."""
    row = {key: getattr(certificate, name) for name, key in _row_keys(type(certificate))}
    row.update(extra)
    return row


def _summary(rows: list[dict], passes: int) -> dict:
    """Counts over a report's rows; rows marked boundary neither pass nor fail."""
    boundary = sum(1 for row in rows if row.get("boundary"))
    return {
        "cell_count": len(rows),
        "pass_total": passes,
        "fail_total": len(rows) - passes - boundary,
        "boundary_total": boundary,
    }


def _seal(report: dict) -> dict:
    """The finished report: ``ok`` set, canonicalized, and hashed."""
    report["ok"] = report["error"] is None and report["summary"]["fail_total"] == 0
    report = _canon(report)
    report["determinism_sha256"] = _sha256(report)
    return report


def _run_sampling_bound(spec: dict, seed: int) -> dict:
    group = build_group(spec["group"])
    rng = np.random.default_rng(seed)
    max_radius = spec["max_radius"]
    rows = []
    for t in range(spec["trials"]):
        values = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        f = GroupFunction(group, values)
        size = int(rng.integers(1, group.order + 1))
        X = PointSet(group, positions=rng.integers(0, group.order, size))
        u_radius = int(rng.integers(0, max_radius + 1))
        k_radius = int(rng.integers(0, max_radius + 1))
        check = sampling_bound_check(f, X, group.ball(k_radius), group.ball(u_radius))
        rows.append(_row(check, instance=t, points=size, u_radius=u_radius, k_radius=k_radius))
    return {
        "table": rows,
        "summary": _summary(rows, sum(1 for row in rows if row["holds"])),
    }


def _run_frame_analysis(spec: dict, seed: int) -> dict:
    frame = build_frame(spec["frame"])
    analysis = analyze_frame(frame)
    u_radius = spec.get("u_radius", 1)
    c0 = separation_constant(frame.points, frame.rep.group.ball(u_radius))

    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    for _ in range(20):
        f = rng.standard_normal(frame.rep.dim) + 1j * rng.standard_normal(frame.rep.dim)
        energy = float(np.sum(np.abs(frame.synthesis.conj().T @ f) ** 2))
        norm_sq = float(np.linalg.norm(f) ** 2)
        worst_rel = max(
            worst_rel,
            (analysis.A * norm_sq - energy) / (analysis.A * norm_sq),
            (energy - analysis.B * norm_sq) / (analysis.B * norm_sq),
        )
    dual_check = verify_dual(frame, analysis.canonical_dual)
    bessel = bessel_bound_check(analysis.canonical_dual, analysis.A)
    checks = [
        {"check": "frame_bounds", "A": analysis.A, "B": analysis.B, "ok": True},
        {"check": "frame_inequality", "trials": 20, "max_rel_violation": worst_rel,
         "ok": worst_rel <= 1e-9},
        _row(dual_check, check="dual_reconstruction"),
        _row(bessel, check="bessel_dual"),
        {"check": "separation_constant", "u_radius": u_radius, "C0": c0, "ok": True},
    ]
    return {
        "checks": checks,
        "summary": _summary(checks, sum(1 for c in checks if c["ok"])),
    }


def _radius_families(group, spec):
    U = group.ball(spec["u_radius"])
    K_family = [group.ball(r) for r in spec["k_radii"]]
    L_family = [group.ball(r) for r in spec["l_radii"]]
    return U, K_family, L_family


def _run_hap(spec: dict, seed: int) -> dict:
    frame = build_frame(spec["frame"])
    analysis = analyze_frame(frame)
    group = frame.rep.group
    f = build_vector(spec["f"], frame.rep.dim)
    U, K_family, L_family = _radius_families(group, spec)
    scenario = HapScenario(
        frame=frame,
        duals=analysis.canonical_dual,
        lower_bound=analysis.A,
        f=f,
        epsilon=spec["epsilon"],
        U=U,
        K_family=K_family,
        L_family=L_family,
        k_labels=list(spec["k_radii"]),
        l_labels=list(spec["l_radii"]),
    )
    cert = find_L(scenario)
    table = [_row(cell) for cell in cert.table]
    chosen_rows = [row for row in table if row["L_radius"] == cert.chosen_l_label]
    passed = sum(
        1 for row in chosen_rows if not row["boundary"] and row["error"] < cert.epsilon
    )
    certificate = {
        "chosen_L_radius": cert.chosen_l_label,
        "worst_error": cert.worst_error,
        "epsilon": cert.epsilon,
        "theoretical_bound": cert.theoretical_bound,
        "C0": cert.separation,
        "dual": cert.dual_label,
        "eq42_convention": TAIL_INTEGRAND_CONVENTION,
        "candidates": [_row(cand) for cand in cert.candidates],
        "table": table,
    }
    return {
        "certificate": certificate,
        "summary": _summary(chosen_rows, passed),
    }


def _run_comparison(spec: dict, seed: int) -> dict:
    frame = build_frame(spec["frame"])
    given_analysis = analyze_frame(frame)
    reference = build_reference(spec["reference"], frame.rep)
    reference_analysis = analyze_frame(reference)
    group = frame.rep.group
    U, K_family, L_family = _radius_families(group, spec)
    scenario = ComparisonScenario(
        given=frame,
        given_analysis=given_analysis,
        reference=reference,
        reference_analysis=reference_analysis,
        epsilon=spec["epsilon"],
        U=U,
        K_family=K_family,
        L_family=L_family,
        k_labels=list(spec["k_radii"]),
        l_labels=list(spec["l_radii"]),
        b_convention=spec.get("b_convention", "reference"),
    )
    certificates = comparison_run(scenario)
    hap = scenario.hap_choice
    rows = [_row(cert, ok=cert.ok) for cert in certificates]
    return {
        "hap_precondition": {
            "chosen_L_radius": hap.chosen_l_label,
            "worst_error": hap.worst_error,
            "threshold": hap.epsilon,
        },
        "certificates": rows,
        "summary": _summary(rows, sum(1 for row in rows if row["ok"])),
    }


def _run_density(spec: dict, seed: int) -> dict:
    group = build_group(spec["group"])
    X = build_points(spec["points"], group)
    K_family = [group.ball(r) for r in spec["k_radii"]]
    y_sample = spec.get("y_sample")
    if y_sample is not None:
        y_sample = [tuple(y) if isinstance(y, list) else y for y in y_sample]
    report = density_report(X, K_family, y_sample=y_sample, k_labels=list(spec["k_radii"]))
    rows = [_row(row) for row in report.rows]
    return {
        "table": rows,
        "ratio_summary": [_row(s) for s in report.summary],
        "summary": _summary(rows, sum(1 for row in rows if not row["boundary"])),
    }


# What a well-formed scenario can still run into: a system that is not a
# frame, no admissible L, an escaping carrier, a degenerate vector or a bad
# value.  Any other exception is a bug and propagates out of run().
_SCENARIO_ERRORS = (
    NotAFrame,
    LengthMismatch,
    NoAdmissibleL,
    HapPreconditionUnmet,
    NotPositive,
    OutOfCarrier,
    NonSymmetricNeighborhood,
    DimensionMismatch,
    ZeroWindow,
    ZeroResult,
    ValueError,
)

_EVALUATORS = {
    "sampling_bound": _run_sampling_bound,
    "frame_analysis": _run_frame_analysis,
    "hap": _run_hap,
    "comparison": _run_comparison,
    "density": _run_density,
}


def _evaluate(scenario: Scenario, seed_override: int | None) -> dict:
    seed = scenario.seed if seed_override is None else seed_override
    error = None
    try:
        payload = _EVALUATORS[scenario.kind](scenario.spec, seed)
    except _SCENARIO_ERRORS as exc:  # captured per-report, the batch continues
        error = {"type": type(exc).__name__, "message": str(exc)}
        payload = {"summary": _summary([], 0)}
    report = {
        "scenario_id": scenario.id,
        "kind": scenario.kind,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "error": error,
        **payload,
    }
    return _seal(report)


def run(
    scenarios: list[Scenario], parallelism: int = 1, seed_override: int | None = None
) -> list[dict]:
    """Evaluate all scenarios; output is ordered by scenario id and is
    byte-identical for fixed seeds regardless of the parallelism level.

    With ``parallelism`` > 1 the scenarios are spread over at most
    ``min(parallelism, len(scenarios), os.cpu_count())`` worker processes
    forked from this one, so they see its modules as they are.  Only Linux
    forks; on other platforms (macOS, where fork is unsafe once the system
    BLAS has run, and Windows, which has no fork), or when one worker would
    do, the scenarios run serially in this process.  An exception that is a
    bug propagates out of run() from a worker as it does from the serial
    loop."""
    seeds = [seed_override] * len(scenarios)
    workers = min(parallelism, len(scenarios), os.cpu_count() or 1)
    if workers > 1 and sys.platform == "linux":
        # imported here: the serial path and the CLI's start-up never pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            reports = list(pool.map(_evaluate, scenarios, seeds))
    else:
        reports = list(map(_evaluate, scenarios, seeds))
    return sorted(reports, key=lambda r: r["scenario_id"])


# kind -> (keys leading from a report to its rows, CSV columns)
_CSV = {
    "sampling_bound": (
        ("table",),
        ("instance", "u_radius", "k_radius", "lhs", "rhs", "C", "C0", "holds"),
    ),
    "frame_analysis": (("checks",), ("check", "ok")),
    "hap": (("certificate", "table"), ("y", "K_radius", "L_radius", "error")),
    "comparison": (
        ("certificates",),
        ("y", "K_radius", "L_radius", "trace_T", "rank_P", "card_X", "card_Y",
         "chain_ok", "final_ok"),
    ),
    "density": (("table",), ("y", "K_radius", "count", "measure", "ratio")),
}


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return value


def _emit_csv(reports: list[dict]) -> str:
    blocks = []
    for kind in dict.fromkeys(report["kind"] for report in reports):
        path, columns = _CSV[kind]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("scenario_id",) + columns)
        for report in reports:
            if report["kind"] != kind:
                continue
            rows = report
            for key in path:  # error reports have no rows
                rows = rows.get(key, {})
            for row in rows:
                writer.writerow(
                    [report["scenario_id"]] + [_csv_cell(row.get(c)) for c in columns]
                )
        blocks.append(buffer.getvalue())
    return "\n".join(blocks)


def _emit_text(reports: list[dict]) -> str:
    lines = []
    for report in reports:
        summary = report["summary"]
        status = "PASS" if report["ok"] else "FAIL"
        lines.append(
            f"scenario {report['scenario_id']} [{report['kind']}]: {status} "
            f"(cells={summary['cell_count']}, pass={summary['pass_total']}, "
            f"fail={summary['fail_total']}, boundary={summary['boundary_total']})"
        )
        if report["error"] is not None:
            lines.append(f"  error: {report['error']['type']}: {report['error']['message']}")
    counts = (
        f"{sum(1 for r in reports if r['ok'])}/{len(reports)} scenarios passed"
        if reports
        else "no scenarios"
    )
    lines.append(counts)
    return "\n".join(lines) + "\n"


def emit(reports: list[dict], format: str = "json") -> bytes:
    """Serialize reports: canonical JSON, flattened CSV, or a text summary.

    The reports must already be canonical, as run() returns them (and as
    cli's check filter leaves them): JSON output writes them as they are,
    without a second canonicalizing pass.  Use canonical_json() for
    arbitrary input."""
    if format == "json":
        return _dumps(reports).encode("utf-8")
    if format == "csv":
        return _emit_csv(reports).encode("utf-8")
    if format == "text":
        return _emit_text(reports).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
