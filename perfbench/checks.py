"""Correctness checks on certify output: report status, hashes, cell counts and
oracle re-derivations with the slow in-tree reference functions.

Oracle checks run outside the timed window.  Each re-derives a seeded sample of
cells: HAP errors with ``hap_error`` (which builds ``local_subspace``), the
chosen L's ``theoretical_tail_bound``, comparison ``card_X``/``card_Y`` and
density counts with ``translate_set``/``cardinality_count``, and comparison
``rank_P`` with ``local_subspace``.
A mismatch beyond 1e-9 (relative above 1) fails the scenario, with one
exception: a HAP cell whose dual-span rank decision sits within a decade of
the 1e-10 rank cut.  There the kept basis includes a direction that rounding
can move (or drop), so two correct computations of the same projector, with
columns in a different order, legitimately differ by more than 1e-9; such a
mismatch is reported as a near-cut note, not a failure.
"""

from __future__ import annotations

import random

import numpy as np

TOLERANCE = 1e-9
# Relative singular values in [RANK_TOLERANCE / 10, RANK_TOLERANCE * 10]
# make a rank decision that rounding can flip.
NEAR_CUT_DECADE = 10.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def cell_count(report: dict) -> int:
    """Non-boundary certificate rows of one report.

    Sampling trials, frame checks, HAP table rows for every candidate L,
    comparison certificates and density rows.
    """
    if report.get("error") is not None:
        return 0
    kind = report["kind"]
    if kind == "frame_analysis":
        return len(report["checks"])
    if kind == "hap":
        rows = report["certificate"]["table"]
    elif kind == "comparison":
        rows = report["certificates"]
    else:
        rows = report["table"]
    return sum(1 for row in rows if not row.get("boundary", False))


def status_failures(report: dict) -> list[str]:
    problems = []
    if report.get("error") is not None:
        problems.append(f"error {report['error']['type']}: {report['error']['message']}")
    if not report.get("ok", False):
        problems.append("ok is false")
    return problems


def _sample(rows: list, rng: random.Random, size: int) -> list:
    rows = [row for row in rows if not row.get("boundary", False)]
    return rows if len(rows) <= size else rng.sample(rows, size)


def near_cut(projector) -> bool:
    """Whether the projector's rank decision is within a decade of the cut."""
    from framecert.frames import RANK_TOLERANCE

    if projector.generators.shape[1] == 0:
        return False
    s = np.linalg.svd(projector.generators, compute_uv=False)
    if s[0] == 0.0:
        return False
    edge = s[max(projector.rank - 1, 0): projector.rank + 1] / s[0]
    low, high = RANK_TOLERANCE / NEAR_CUT_DECADE, RANK_TOLERANCE * NEAR_CUT_DECADE
    return bool(np.any((edge > low) & (edge < high)))


def _oracle_hap(spec, report, rng, size, notes) -> list[str]:
    from framecert.frames import analyze_frame
    from framecert.groups import product_set
    from framecert.hap import hap_error, local_subspace, theoretical_tail_bound
    from framecert.scenarios import build_frame, build_vector

    frame = build_frame(spec["frame"])
    analysis = analyze_frame(frame)
    group = frame.rep.group
    f = build_vector(spec["f"], frame.rep.dim)
    cert = report["certificate"]
    problems = []
    for row in _sample(cert["table"], rng, size):
        K, L = group.ball(row["K_radius"]), group.ball(row["L_radius"])
        error = hap_error(frame, analysis.canonical_dual, f, row["y"], K, L)
        if close(error, row["error"]):
            continue
        message = (f"hap_error at y={row['y']} K={row['K_radius']} L={row['L_radius']}: "
                   f"{error!r} != {row['error']!r}")
        projector = local_subspace(analysis.canonical_dual, frame.points, row["y"],
                                   product_set(K, L))
        if near_cut(projector):
            notes.append(message + " (rank decision within a decade of the cut)")
        else:
            problems.append(message)
    if cert["theoretical_bound"] is not None:
        bound = theoretical_tail_bound(frame, analysis.A, f, group.ball(spec["u_radius"]),
                                       group.ball(cert["chosen_L_radius"]), cert["C0"])
        if not close(bound, cert["theoretical_bound"]):
            problems.append(f"theoretical_tail_bound {bound!r} != {cert['theoretical_bound']!r}")
    return problems


def _oracle_comparison(spec, report, rng, size, notes) -> list[str]:
    from framecert.comparison import cardinality_count
    from framecert.frames import analyze_frame
    from framecert.groups import product_set, translate_set
    from framecert.hap import local_subspace
    from framecert.scenarios import build_frame, build_reference

    frame = build_frame(spec["frame"])
    duals = analyze_frame(frame).canonical_dual
    reference = build_reference(spec["reference"], frame.rep)
    group = frame.rep.group
    problems = []
    for row in _sample(report["certificates"], rng, size):
        K, L = group.ball(row["K_radius"]), group.ball(row["L_radius"])
        KL = product_set(K, L)
        card_x = cardinality_count(frame.points, translate_set(row["y"], KL))
        card_y = cardinality_count(reference.points, translate_set(row["y"], K))
        rank_p = local_subspace(duals, frame.points, row["y"], KL).rank
        if (card_x, card_y, rank_p) != (row["card_X"], row["card_Y"], row["rank_P"]):
            problems.append(f"comparison at y={row['y']} K={row['K_radius']}: "
                            f"card_X/card_Y/rank_P {(card_x, card_y, rank_p)} != "
                            f"{(row['card_X'], row['card_Y'], row['rank_P'])}")
    return problems


def _oracle_density(spec, report, rng, size, notes) -> list[str]:
    from framecert.comparison import cardinality_count
    from framecert.groups import translate_set
    from framecert.scenarios import build_group, build_points

    group = build_group(spec["group"])
    X = build_points(spec["points"], group)
    problems = []
    for row in _sample(report["table"], rng, size):
        count = cardinality_count(X, translate_set(row["y"], group.ball(row["K_radius"])))
        if count != row["count"]:
            problems.append(f"density count at y={row['y']} K={row['K_radius']}: "
                            f"{count} != {row['count']}")
    return problems


def _oracle_sampling(spec, report, rng, size, notes) -> list[str]:
    return [f"sampling trial {row['instance']} does not hold"
            for row in report["table"] if not row["holds"]]


def _oracle_frame(spec, report, rng, size, notes) -> list[str]:
    return [f"frame check {c['check']} failed" for c in report["checks"] if not c["ok"]]


_ORACLES = {
    "hap": _oracle_hap,
    "comparison": _oracle_comparison,
    "density": _oracle_density,
    "sampling_bound": _oracle_sampling,
    "frame_analysis": _oracle_frame,
}


def oracle_failures(scenarios, reports: list[dict], seed: int, size: int = 6,
                    notes: dict | None = None) -> dict[str, list[str]]:
    """Scenario id -> oracle mismatches, for every scenario whose report has no error.

    ``size`` cells per scenario are drawn with a generator seeded by ``seed``
    and the scenario id, so the sample does not depend on scenario order.
    Near-cut mismatches go to ``notes`` (scenario id -> messages) instead.
    """
    by_id = {report["scenario_id"]: report for report in reports}
    failures = {}
    for scenario in scenarios:
        report = by_id[scenario.id]
        if report.get("error") is not None:
            continue
        rng = random.Random(f"oracle/{seed}/{scenario.id}")
        scenario_notes: list[str] = []
        problems = _ORACLES[scenario.kind](scenario.spec, report, rng, size, scenario_notes)
        if problems:
            failures[scenario.id] = problems
        if scenario_notes and notes is not None:
            notes[scenario.id] = scenario_notes
    return failures
