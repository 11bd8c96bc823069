"""Batch scenario execution and canonical report serialization.

Evaluators build reports from plain values, and sealing a finished report
canonicalizes it once (floats at 12 significant digits, lists, plain Python
scalars), so emitting canonical JSON and parsing it back reproduces the
sealed report exactly.  Each report carries a determinism hash over its
canonical JSON with the timestamp removed; two runs with the same scenario
file and seeds must agree hash-for-hash at every parallelism level, given
one BLAS thread count (the pins are taken with one thread).  Sealing
also encodes the report once: the hash is taken over that encoding, and the
sealed report (a dict) keeps the full text, which emit() writes as it
stands; CSV output is that text parsed and flattened.
Scenarios are independent, and so are a HAP scan's base points, so on Linux
run() spreads them over forked worker processes when asked for more than
one: each HAP scenario, and with it its scan, is set up here, its base
points are split into one range per worker and queued first, and its
certificate is assembled here while the workers run the other scenarios.
Each report is built and encoded once, in the process that assembled it,
and its text crosses the pool with it.
Each scenario is built from its spec (group, points, frames with their
analyses, vectors, the HAP or comparison question), then answered.  The
report's "error" field captures a bad value, an escaping carrier or a
system that is not a frame while building, and no admissible L while
answering; any other exception is a bug and propagates out of run().

The HAP error table, the comparison cells and the density counts are _Table
objects built from the certificates' columns, one block per (K, L) pair or
per K, with no object per cell.  Sealing takes a table's text, which is
written column by column: the base points once per scenario, labels,
measures and a comparison's constants once per block, each error once and
each density ratio once per distinct count, and each row from one of two
templates.  A table's values are canonical as they are built, and its rows
are that text, parsed when something first reads them (tests, checks), so
they cannot disagree.  Other rows come from certificate dataclasses through
_row (an escaping box sampling trial takes only the keys): every field
becomes a key, renamed where _REPORT_NAMES says so.
canonical_json() and determinism_sha256() canonicalize arbitrary input from
scratch, a table as the list of its rows, and stay the slow reference for
the sealed text.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from collections.abc import Sequence
from datetime import datetime, timezone

import numpy as np

from framecert import __version__
from framecert.amalgam import (
    TAIL_INTEGRAND_CONVENTION,
    GroupFunction,
    SamplingBoundCheck,
    sampling_bound_check,
)
from framecert.comparison import (
    ComparisonScenario,
    HapPreconditionUnmet,
    comparison_run,
    density_report,
    sample_positions,
)
from framecert.frames import NotAFrame, analysis_coefficients, bessel_bound_check, verify_dual
from framecert.groups import OutOfCarrier, PointSet, separation_constant
from framecert.hap import HapScenario, NoAdmissibleL, certify, find_L, scan_errors
from framecert.scenarios import (
    Scenario,
    build_frame,
    build_group,
    build_points,
    build_reference,
    build_vector,
)

_VOLATILE_KEYS = ("timestamp", "determinism_sha256")


def _canon(obj):
    """Canonical JSON-ready form: str-keyed dicts, lists, %.12g floats.  A
    table, canonical as built, and any other value, numpy values included,
    pass through, for _dumps to encode or reject."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def _as_list(obj) -> list:
    """How json encodes a table: as the list of its rows."""
    if isinstance(obj, _Table):
        return list(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(canonical) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_as_list)


def canonical_json(obj) -> str:
    return _dumps(_canon(obj))


def determinism_sha256(report: dict) -> str:
    """SHA-256 of the report's canonical JSON without its volatile entries."""
    stripped = {k: v for k, v in _canon(report).items() if k not in _VOLATILE_KEYS}
    return hashlib.sha256(_dumps(stripped).encode("utf-8")).hexdigest()


# Report keys that differ from the certificate dataclasses' field names.
_REPORT_NAMES = {
    "k_label": "K_radius",
    "l_label": "L_radius",
    "empirical_B_dual": "empirical",
}


def _row(certificate, **extra) -> dict:
    """A report row: the certificate's dataclass fields under their report
    names, then ``extra``."""
    return {_REPORT_NAMES.get(f.name, f.name): getattr(certificate, f.name)
            for f in dataclasses.fields(certificate)} | extra


class _Table(Sequence):
    """A report table as column blocks, read-only: the rows of a HAP error
    table, of comparison cells or of density counts, and their canonical JSON.

    A block is the rows of one (K, L) pair or one K over the base points
    ``ys``: ``(constants, columns, inside)``, the entries its rows share, a
    column, one entry per base point, for each of its other entries, and
    the mask of its interior rows.  A column holds bools, or finite ints or
    floats with anything (None, 0) in boundary rows; a boundary row takes
    None for each (only density tables, which hold no bools, have boundary
    rows).  Every value is canonical.  text() encodes the table column by
    column: the y texts once, the constants once per block, and each row
    from its block's interior or boundary template, whose keys are y,
    boundary and the block's entries, in the order _dumps sorts them.  The
    text is not kept: sealing reads it once, and the sealed report holds
    it.  The rows are the text parsed.  A table holds only data, so it
    pickles.
    """

    __slots__ = ("ys", "blocks", "_rows")

    def __init__(self, ys: list, blocks: list[tuple[dict, dict, list]]):
        self.ys, self.blocks = ys, blocks
        self._rows = None

    def __len__(self) -> int:
        return len(self.blocks) * len(self.ys)

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if isinstance(other, (list, _Table)):
            return self.rows == list(other)
        return NotImplemented

    __hash__ = None

    @property
    def rows(self) -> list[dict]:
        """Every row, in block order: the table's own text, parsed when
        first read and kept, so a row read twice is the same dict."""
        if self._rows is None:
            self._rows = json.loads(self.text())
        return self._rows

    def _templates(self, constants: dict, columns: dict) -> tuple[str, str]:
        """A block's interior and boundary row texts, with ``%s`` for each
        value that varies by row: the interior takes the columns and y in
        key order, the boundary y alone."""
        interior, boundary = [], []
        for key in sorted((*constants, *columns, "y", "boundary")):
            name = _dumps(key)
            if key in constants:
                shared = f"{name}:{_dumps(constants[key])}".replace("%", "%%")
                interior.append(shared)
                boundary.append(shared)
            elif key == "boundary":
                interior.append(f"{name}:false")
                boundary.append(f"{name}:true")
            else:
                interior.append(f"{name}:%s")
                boundary.append(f"{name}:%s" if key == "y" else f"{name}:null")
        return "{" + ",".join(interior) + "}", "{" + ",".join(boundary) + "}"

    def text(self) -> str:
        """The table's canonical JSON, as _dumps would write its rows."""
        # ints and lists of ints, as _carrier_column and scenario files give
        # them: their Python text is their JSON text, spaces aside
        ys = [str(y).replace(" ", "") for y in self.ys]
        rows = []
        for constants, columns, inside in self.blocks:
            interior, boundary = self._templates(constants, columns)
            values = [ys if key == "y" else _column_texts(columns[key])
                      for key in sorted((*columns, "y"))]
            rows += [interior % args if inner else boundary % y
                     for args, y, inner in zip(zip(*values), ys, inside)]
        return "[" + ",".join(rows) + "]"


def _is_flag(column: list) -> bool:
    """Whether ``column`` holds bools; an empty one has no rows to write."""
    return bool(column) and isinstance(column[0], bool)


def _column_texts(column: list) -> list[str]:
    """The JSON text of each value of ``column`` as _dumps writes it, and
    None's, which a boundary row does not write, as 'None'.  A float is
    written as float.__repr__ does, and one that is not finite raises
    ValueError; the falsy values (0, -0.0, None) need no check.  Equal
    values have equal texts, so each distinct value is encoded once, except
    zeros: 0.0 == -0.0."""
    if _is_flag(column):
        return ["true" if value else "false" for value in column]
    if not all(map(math.isfinite, filter(None, column))):
        raise ValueError("Out of range float values are not JSON compliant")
    texts = {value: repr(value) for value in set(column)}
    return [texts[value] if value else repr(value) for value in column]


def _summary(rows: list[dict], flag: str | None = None) -> dict:
    """Counts over a report's rows: a row passes when ``row[flag]`` is true or,
    with no flag, when it is not boundary; boundary rows neither pass nor fail.
    A table's boundary rows are counted from its masks."""
    if isinstance(rows, _Table):
        boundary = sum(inside.count(False) for _, _, inside in rows.blocks)
        passes = (len(rows) - boundary if flag is None
                  else sum(columns[flag].count(True) for _, columns, _ in rows.blocks))
    else:
        boundary = sum(1 for row in rows if row.get("boundary"))
        passes = len(rows) - boundary if flag is None else sum(1 for row in rows if row[flag])
    return {
        "cell_count": len(rows),
        "pass_total": passes,
        "fail_total": len(rows) - passes - boundary,
        "boundary_total": boundary,
    }


class _Sealed(dict):
    """A finished report and, in ``json``, its canonical JSON as UTF-8 bytes.

    The text is encoded once, when the report is sealed, and emit() writes
    it as it stands; a sealed report is final, so changing it afterwards
    does not change its text.
    """

    __slots__ = ("json",)


def _object_parts(entries: dict[str, bytes]) -> list[bytes]:
    """The pieces of a JSON object whose values are already encoded, keys
    sorted as _dumps sorts them; joined, they are the object's text."""
    parts = [b"{"]
    for key in sorted(entries):
        if len(parts) > 1:
            parts.append(b",")
        parts += (_dumps(key).encode("utf-8"), b":", entries[key])
    parts.append(b"}")
    return parts


def _encoded(value) -> bytes:
    """``value``'s canonical JSON as UTF-8: a table's own text, a dict that
    holds a table from its entries' texts, anything else through _dumps."""
    if isinstance(value, _Table):
        return value.text().encode("utf-8")
    if isinstance(value, dict) and any(isinstance(v, _Table) for v in value.values()):
        return b"".join(_object_parts({key: _encoded(v) for key, v in value.items()}))
    return _dumps(value).encode("utf-8")


def _seal(report: dict) -> _Sealed:
    """The finished report: ``ok`` set, canonicalized, hashed, and encoded.

    ``report`` holds plain values (rows from _row, hand-built dicts, tables)
    and is canonicalized here, once; a table is canonical as it is built
    and passes through.  Each entry is encoded once: the non-volatile
    entries are hashed piece by piece, so the hashed text is never joined
    into a copy of its own, and the full text adds the timestamp and the
    hash to them.  A table, also one level down in the HAP certificate, is
    its own text.
    """
    report["ok"] = report["error"] is None and report["summary"]["fail_total"] == 0
    sealed = _Sealed(_canon(report))
    entries = {key: _encoded(value) for key, value in sealed.items()
               if key not in _VOLATILE_KEYS}
    digest = hashlib.sha256()
    for part in _object_parts(entries):
        digest.update(part)
    sealed["determinism_sha256"] = digest.hexdigest()
    for key in _VOLATILE_KEYS:
        if key in sealed:
            entries[key] = _dumps(sealed[key]).encode("utf-8")
    sealed.json = b"".join(_object_parts(entries))
    return sealed


def _sampling_setup(spec: dict, seed: int) -> tuple:
    return build_group(spec["group"]), spec, seed


def _run_sampling_bound(built: tuple) -> dict:
    group, spec, seed = built
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
        try:
            row = _row(sampling_bound_check(f, X, group.ball(k_radius), group.ball(u_radius)))
        except OutOfCarrier:
            # A window xU escapes the box carrier, so the bound is unknown:
            # the trial is boundary, not a failure.
            row = {**dict.fromkeys(f.name for f in dataclasses.fields(SamplingBoundCheck)),
                   "holds": False, "boundary": True}
        row.update(instance=t, points=size, u_radius=u_radius, k_radius=k_radius)
        rows.append(row)
    return {
        "table": rows,
        "summary": _summary(rows, "holds"),
    }


def _analyzed_frame(spec: dict, seed: int) -> tuple:
    frame = build_frame(spec["frame"])
    frame.analysis  # NotAFrame, or a LinAlgError, while building
    return frame, seed


def _run_frame_analysis(built: tuple) -> dict:
    frame, seed = built
    analysis = frame.analysis
    c0 = separation_constant(frame.points, frame.rep.group.ball(1))

    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    for _ in range(20):
        f = rng.standard_normal(frame.rep.dim) + 1j * rng.standard_normal(frame.rep.dim)
        energy = float(np.sum(np.abs(analysis_coefficients(frame, f)) ** 2))
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
        {"check": "separation_constant", "u_radius": 1, "C0": c0, "ok": True},
    ]
    return {
        "checks": checks,
        "summary": _summary(checks, "ok"),
    }


def _families(spec: dict, group) -> dict:
    """The tolerance, U, and the K and L families with their radii as labels:
    the keyword arguments a HAP and a comparison scenario share."""
    return {
        "epsilon": spec["epsilon"],
        "U": group.ball(spec["u_radius"]),
        "K_family": [group.ball(r) for r in spec["k_radii"]],
        "L_family": [group.ball(r) for r in spec["l_radii"]],
        "k_labels": list(spec["k_radii"]),
        "l_labels": list(spec["l_radii"]),
    }


def _hap_scenario(spec: dict, seed: int) -> HapScenario:
    frame = build_frame(spec["frame"])
    frame.analysis  # NotAFrame is reported before any error in f
    f = build_vector(spec["f"], frame.rep.dim)
    return HapScenario(frame=frame, f=f, **_families(spec, frame.rep.group))


def _carrier_column(group) -> list:
    """The canonical base point of every carrier position, in carrier order:
    an int on a rank-1 group, else a list of coordinates."""
    coords = group.coords[:, 0] if group.rank == 1 else group.coords
    return coords.tolist()


def _hap_payload(scenario: HapScenario, pieces=None) -> dict:
    """The HAP report's payload from find_L's certificate, or from certify's
    over ``pieces``, the scan_errors ranges that cover the carrier."""
    cert = find_L(scenario) if pieces is None else certify(scenario, list(pieces))
    # The table straight from the certificate's columns, one block per (K, L)
    # pair; each error is formatted once.
    ys = _carrier_column(cert.group)
    interior = [True] * len(ys)  # every cell of a group is scanned
    blocks = [
        ({"K_radius": _canon(k_label), "L_radius": _canon(l_label)},
         {"error": [float(f"{error:.12g}") for error in errors]}, interior)
        for (k_label, l_label), errors in zip(cert.pair_labels, cert.errors.tolist())
    ]
    # certify chose this L for its worst error: each row passes.
    chosen = _Table(ys, [block for (_, l_label), block in zip(cert.pair_labels, blocks)
                         if l_label == cert.chosen_l_label])
    return {
        "certificate": {
            "chosen_L_radius": cert.chosen_l_label,
            "worst_error": cert.worst_error,
            "epsilon": cert.epsilon,
            "theoretical_bound": cert.theoretical_bound,
            "C0": cert.separation,
            "dual": "canonical",
            "eq42_convention": TAIL_INTEGRAND_CONVENTION,
            "candidates": [_row(cand) for cand in cert.candidates],
            "table": _Table(ys, blocks),
        },
        "summary": _summary(chosen),
    }


def _comparison_scenario(spec: dict, seed: int) -> ComparisonScenario:
    frame = build_frame(spec["frame"])
    frame.analysis  # NotAFrame is reported before any error in the reference
    reference = build_reference(spec["reference"], frame.rep)
    return ComparisonScenario(given=frame, reference=reference,
                              **_families(spec, frame.rep.group))


def _comparison_payload(scenario: ComparisonScenario) -> dict:
    # The table straight from the certificates' columns, one block per K, with
    # the scenario's constants once per block.
    hap = scenario.hap_choice
    shared = _canon({"L_radius": hap.chosen_l_label, "epsilon": scenario.epsilon,
                     "B_used": scenario.reference.analysis.B,
                     "B_provenance": "upper bound of reference frame",
                     "B_alternative": 1.0 / scenario.given.analysis.A})
    ys = _carrier_column(scenario.given.rep.group)
    table = _Table(ys, [
        ({"K_radius": _canon(cert.k_label), **shared}, _canon(cert.columns), [True] * len(ys))
        for cert in comparison_run(scenario)
    ])
    return {
        "hap_precondition": {
            "chosen_L_radius": hap.chosen_l_label,
            "worst_error": hap.worst_error,
            "threshold": hap.epsilon,
        },
        "certificates": table,
        "summary": _summary(table, "ok"),
    }


def _density_setup(spec: dict, seed: int) -> tuple:
    group = build_group(spec["group"])
    X = build_points(spec["points"], group)
    K_family = [group.ball(r) for r in spec["k_radii"]]
    y_sample = spec.get("y_sample")
    sampled = None if y_sample is None else sample_positions(group, y_sample)
    return X, K_family, spec, sampled


def _run_density(built: tuple) -> dict:
    X, K_family, spec, sampled = built
    y_sample = spec.get("y_sample")
    report = density_report(X, K_family, y_sample=y_sample, k_labels=list(spec["k_radii"]),
                            sampled=sampled)
    # The table straight from the report's columns, one block per K: the
    # measure is formatted once per K and the ratio once per distinct count.
    blocks = []
    for k_label, vol, counts, inside in zip(
        report.k_labels, report.measures, report.counts.tolist(), report.inside.tolist()
    ):
        ratios = {count: _canon(count / vol) for count in set(counts)}
        blocks.append(({"K_radius": _canon(k_label), "measure": _canon(vol)},
                       {"count": counts, "ratio": [ratios[count] for count in counts]},
                       inside))
    ys = _carrier_column(X.group) if y_sample is None else _canon(y_sample)
    table = _Table(ys, blocks)
    return {
        "table": table,
        "ratio_summary": [_row(s) for s in report.summary],
        "summary": _summary(table),
    }


# What a well-formed scenario can still run into while it is built (a
# LinAlgError from a frame's analysis is a ValueError) and while it is answered.
_BUILD_ERRORS = (ValueError, OutOfCarrier, NotAFrame)
_ANSWER_ERRORS = (NoAdmissibleL, HapPreconditionUnmet)

# kind -> (build(spec, seed), answer(built)), the report's payload
_EVALUATORS = {
    "sampling_bound": (_sampling_setup, _run_sampling_bound),
    "frame_analysis": (_analyzed_frame, _run_frame_analysis),
    "hap": (_hap_scenario, _hap_payload),
    "comparison": (_comparison_scenario, _comparison_payload),
    "density": (_density_setup, _run_density),
}


def _outcome(errors: tuple, step, *args) -> tuple[object, dict | None]:
    """``(step(*args), None)``, or ``(None, error)`` when it raises one of
    ``errors``; any other exception propagates."""
    try:
        return step(*args), None
    except errors as exc:  # captured per-report, the batch continues
        return None, {"type": type(exc).__name__, "message": str(exc)}


def _report(scenario: Scenario, seed: int, payload: dict | None, error: dict | None) -> dict:
    return _seal({
        "scenario_id": scenario.id,
        "kind": scenario.kind,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "error": error,
        **(payload or {"summary": _summary([])}),
    })


def _seed(scenario: Scenario, seed_override: int | None) -> int:
    return scenario.seed if seed_override is None else seed_override


def _payload(kind: str, spec: dict, seed: int) -> tuple[dict | None, dict | None]:
    """The scenario built, then answered: ``(payload, None)``, or ``(None,
    error)`` from the step that failed.  What was built is dropped on
    return, before the report is sealed."""
    build, answer = _EVALUATORS[kind]
    built, error = _outcome(_BUILD_ERRORS, build, spec, seed)
    return (None, error) if error else _outcome(_ANSWER_ERRORS, answer, built)


def _evaluate(scenario: Scenario, seed_override: int | None) -> dict:
    seed = _seed(scenario, seed_override)
    return _report(scenario, seed, *_payload(scenario.kind, scenario.spec, seed))


def _queue_hap(pool, scenario: HapScenario, slices: int):
    """Queue the base points of a built HAP scenario, whose scan is set up,
    on ``pool`` in ``slices`` contiguous ranges; returns the pieces, which
    _hap_payload reads."""
    ranges = [r for r in np.array_split(np.arange(scenario.frame.rep.group.order), slices)
              if len(r)]
    return pool.map(
        scan_errors,
        [scenario] * len(ranges),
        [int(r[0]) for r in ranges],
        [int(r[-1]) + 1 for r in ranges],
    )


def run(
    scenarios: list[Scenario], parallelism: int = 1, seed_override: int | None = None
) -> list[dict]:
    """Evaluate all scenarios; output is ordered by scenario id and is
    byte-identical for fixed seeds and BLAS thread count at any parallelism.

    With ``parallelism`` > 1 the work is spread over at most
    ``min(parallelism, os.cpu_count(), tasks)`` worker processes forked from
    this one, so they see its modules as they are.  A HAP scenario counts
    as one task per worker: this process builds the scenario, which sets up
    its scan, splits its base points into one contiguous range per worker
    and queues the ranges ahead of the other scenarios, then assembles the
    certificate while the workers run the rest.  Each y's cells are
    computed as in the serial scan, so the report is the same, and one HAP
    scenario alone can keep every worker busy.  Only Linux forks; on other
    platforms (macOS, where fork is unsafe once the system BLAS has run, and
    Windows, which has no fork), or when one worker would do, the scenarios
    run serially in this process.  A build error (while this process builds
    a HAP scenario) or an answer error (when its pieces are read) becomes
    that report's error, as in the serial loop; any other exception
    propagates out of run(), from a worker as from this process."""
    haps = [s for s in scenarios if s.kind == "hap"]
    others = [s for s in scenarios if s.kind != "hap"]
    tasks = len(others) + len(haps) * parallelism
    workers = min(parallelism, tasks, os.cpu_count() or 1)
    if workers > 1 and sys.platform == "linux":
        # imported here: the serial path and the CLI's start-up never pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            queued_haps = []
            for scenario in haps:
                seed = _seed(scenario, seed_override)
                built, error = _outcome(_BUILD_ERRORS, _hap_scenario, scenario.spec, seed)
                pieces = None if error else _queue_hap(pool, built, workers)
                queued_haps.append((scenario, seed, built, pieces, error))
            queued = pool.map(_evaluate, others, [seed_override] * len(others))
            reports = []
            for scenario, seed, built, pieces, error in queued_haps:
                payload = None
                if error is None:
                    payload, error = _outcome(_ANSWER_ERRORS, _hap_payload, built, pieces)
                reports.append(_report(scenario, seed, payload, error))
            reports.extend(queued)
    else:
        reports = list(map(_evaluate, scenarios, [seed_override] * len(scenarios)))
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

    JSON output joins the texts that sealed reports carry, as run() and
    cli's check filter return them, without encoding them again; a plain
    dict is encoded as it stands, without canonicalizing it.  CSV output
    flattens that JSON parsed back, so its rows are the JSON rows.  Use
    canonical_json() for arbitrary input."""
    if format == "json":
        texts = (r.json if isinstance(r, _Sealed) else _dumps(r).encode("utf-8")
                 for r in reports)
        # b"[" + joined + b"]" with one copy of the joined texts, not two
        return b",".join(texts).join((b"[", b"]"))
    if format == "csv":
        return _emit_csv(json.loads(emit(reports, "json"))).encode("utf-8")
    if format == "text":
        return _emit_text(reports).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
