"""Report rows written straight from certificate columns: byte-identical to the
rows of the HAP cell views and of a cell-by-cell density reference, and no
per-cell object on the runner's path."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import framecert.runner as runner
from framecert.comparison import density_report
from framecert.groups import GroupModel, OutOfCarrier, point_set
from framecert.hap import HapCell, find_L
from framecert.runner import _canon, _row, _summary, _Table, canonical_json, emit, run
from framecert.scenarios import build_group, build_points, load_scenarios

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"
PINNED_HASHES = ROOT / "perfbench" / "acceptance_hashes.json"


def _assert_hap_payload_matches_the_views(payload, cert):
    table = payload["certificate"]["table"]
    view = [_row(cell) for cell in cert.table]
    # the text written from the columns, and the rows read through the table
    assert table.text() == canonical_json(view)
    assert canonical_json(list(table)) == canonical_json(view)
    chosen = [row for cell, row in zip(cert.table, view) if cell.l_label == cert.chosen_l_label]
    assert payload["summary"] == _summary(chosen)


# HAP on rank-2 and rank-1 groups; density over a box carrier with boundary
# rows, over sampled base points outside a box carrier and outside the
# canonical range of a cyclic one, and on a rank-1 group.
_SCENARIOS = [
    {"id": "hap-gabor-z6", "kind": "hap",
     "frame": {"rep": {"kind": "gabor", "n": 6}, "window": "gauss", "points": "full"},
     "f": "dirac0", "epsilon": 0.2, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "hap-translation-8", "kind": "hap",
     "frame": {"rep": {"kind": "translation", "n": 8}, "window": "gauss", "points": "full"},
     "f": "dirac0", "epsilon": 0.1, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2, 3]},
    {"id": "density-box", "kind": "density", "group": {"kind": "box", "halfwidths": [3, 2]},
     "points": [[0, 0], [1, -1], [3, 2], [-2, 1], [1, -1]], "k_radii": [0, 1, 2]},
    {"id": "density-box-sample", "kind": "density",
     "group": {"kind": "box", "halfwidths": [3, 2]}, "points": [[0, 0], [1, -1], [1, -1]],
     "k_radii": [0, 1], "y_sample": [[0, 0], [5, 0], [3, 2], [-1, 1], [0, -3]]},
    {"id": "density-box-rank1-sample", "kind": "density",
     "group": {"kind": "box", "halfwidths": [4]}, "points": [0, 1, 1, -3],
     "k_radii": [1, 5], "y_sample": [0, 3, 4, 7, -9]},
    {"id": "density-cyclic-rank1", "kind": "density", "group": {"kind": "cyclic", "moduli": [12]},
     "points": {"lattice": {"steps": [3]}}, "k_radii": [0, 1, 2]},
    {"id": "density-cyclic-rank1-sample", "kind": "density",
     "group": {"kind": "cyclic", "moduli": [12]}, "points": [0, 0, 5, 7],
     "k_radii": [1], "y_sample": [0, 5, 11, 17, -1]},
]


def _density_view(spec):
    group = build_group(spec["group"])
    y_sample = spec.get("y_sample")
    if y_sample is not None:
        y_sample = [tuple(y) if isinstance(y, list) else y for y in y_sample]
    return density_report(build_points(spec["points"], group),
                          [group.ball(r) for r in spec["k_radii"]],
                          y_sample=y_sample, k_labels=list(spec["k_radii"]))


def _density_rows(report) -> list[dict]:
    """A density report's rows cell by cell from its columns, in (K, y)
    order: a boundary row's count and ratio are None."""
    return [
        {"y": y, "K_radius": k_label, "count": count, "measure": vol, "ratio": count / vol,
         "boundary": False}
        if interior else
        {"y": y, "K_radius": k_label, "count": None, "measure": vol, "ratio": None,
         "boundary": True}
        for k_label, vol, counts, inside
        in zip(report.k_labels, report.measures, report.counts.tolist(), report.inside.tolist())
        for y, count, interior in zip(report.y_sample, counts, inside)
    ]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_rows_from_columns_equal_the_views_across_the_pool(tmp_path, monkeypatch, parallelism):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    path = tmp_path / "columns.json"
    path.write_text(json.dumps(_SCENARIOS))
    scenarios = load_scenarios(path)
    reports = {r["scenario_id"]: r for r in run(scenarios, parallelism=parallelism)}
    assert [r["error"] for r in reports.values()] == [None] * len(_SCENARIOS)

    for scenario in scenarios:
        report = reports[scenario.id]
        if scenario.kind == "hap":
            cert = find_L(runner._hap_scenario(scenario.spec, scenario.seed))
            _assert_hap_payload_matches_the_views(report, cert)
            continue
        view = _density_view(scenario.spec)
        rows = _density_rows(view)
        assert report["table"].text() == canonical_json(rows)
        assert canonical_json(list(report["table"])) == canonical_json(rows)
        assert report["ratio_summary"] == _canon([_row(s) for s in view.summary])
        assert report["summary"] == _summary(rows)
        assert emit([report], "json") == canonical_json([report]).encode("utf-8")

    rank1 = reports["hap-translation-8"]["certificate"]["table"]
    assert {type(row["y"]) for row in rank1} == {int}  # rank 1: plain ints
    boundary = [row for r in reports.values() if r["kind"] == "density"
                for row in r["table"] if row["boundary"]]
    assert boundary and all(row["count"] is None and row["ratio"] is None for row in boundary)
    sampled = reports["density-box-sample"]["table"]
    assert [row["y"] for row in sampled] == 2 * [[0, 0], [5, 0], [3, 2], [-1, 1], [0, -3]]
    # out of the carrier for every K; (3, 2) is a corner, so its K = 1 window escapes
    assert [row["boundary"] for row in sampled] == [False, True, False, False, True,
                                                    False, True, True, False, True]
    assert [row["y"] for row in reports["density-cyclic-rank1-sample"]["table"]] == [
        0, 5, 11, 17, -1]  # sampled elements as given, not reduced


def test_ratio_extremes_from_counts_equal_min_and_max_of_the_row_ratios():
    group = GroupModel.box([2, 3])
    rng = np.random.default_rng(11)
    X = point_set(group, [tuple(p) for p in rng.integers([-2, -3], [3, 4], size=(40, 2))])
    K_family = [group.ball(r) for r in (0, 1, 2, 3)]
    # Base points away from the origin: ball(3) covers the carrier, so every
    # one of its windows escapes and it has no interior row.
    y_sample = [(1, 1), (-1, 0), (2, 3), (0, 1), (9, 9)]
    report = density_report(X, K_family, y_sample=y_sample)
    for summary, vol, counts, inside in zip(report.summary, report.measures, report.counts,
                                            report.inside):
        ratios = [count / vol for count in counts[inside].tolist()]
        if ratios:
            assert (summary.min_ratio, summary.max_ratio) == (min(ratios), max(ratios))
            assert type(summary.min_ratio) is float and type(summary.max_ratio) is float
        else:
            assert (summary.min_ratio, summary.max_ratio) == (None, None)
    assert report.summary[3].min_ratio is None
    assert report.summary[1].min_ratio is not None
    assert report.summary[1].min_ratio != report.summary[1].max_ratio
    with pytest.raises(OutOfCarrier):
        group.index((9, 9))


def test_ratio_extremes_over_a_whole_cyclic_carrier():
    group = GroupModel.cyclic([24, 24])
    rng = np.random.default_rng(1)
    X = point_set(group, [tuple(p) for p in rng.integers(0, 24, size=(64, 2))])
    report = density_report(X, [group.ball(r) for r in (1, 2, 4)])
    assert report.inside.all()
    for summary, vol, counts in zip(report.summary, report.measures, report.counts):
        ratios = [count / vol for count in counts.tolist()]
        assert len(set(ratios)) > 2
        assert (summary.min_ratio, summary.max_ratio) == (min(ratios), max(ratios))


def _refuse(*args, **kwargs):
    raise AssertionError("a per-cell view was built")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_the_runner_builds_no_per_cell_objects(monkeypatch, parallelism):
    monkeypatch.setattr(HapCell, "__init__", _refuse)
    with pytest.raises(AssertionError, match="per-cell view"):
        HapCell(0, 0, 0, None, True)

    reports = run(load_scenarios(SUITE), parallelism=parallelism)
    encoded = emit(reports, "json")
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    assert {r["scenario_id"]: r["determinism_sha256"] for r in json.loads(encoded)} == pinned
    assert all(r["error"] is None for r in reports)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_the_runner_builds_no_table_rows(monkeypatch, parallelism):
    monkeypatch.setattr(_Table, "rows", property(_refuse))
    reports = run(load_scenarios(SUITE), parallelism=parallelism)
    encoded = emit(reports, "json")
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    assert {r["scenario_id"]: r["determinism_sha256"] for r in json.loads(encoded)} == pinned
    assert all(r["error"] is None for r in reports)
    assert emit(reports, "csv")  # the JSON text flattened, not the tables' rows
    with pytest.raises(AssertionError, match="per-cell view"):
        list(next(r for r in reports if r["kind"] == "density")["table"])
    # comparison cells too, one block per K: the summary counts from the columns
    comparisons = [r for r in reports if r["kind"] == "comparison"]
    assert len(comparisons) == 3
    for report in comparisons:
        assert isinstance(report["certificates"], _Table)
        assert len(report["certificates"].blocks) == 3  # k_radii [0, 1, 2]


def _scenario_file(tmp_path, name):
    if name == "acceptance":
        return SUITE
    path = tmp_path / "columns.json"
    path.write_text(json.dumps(_SCENARIOS))
    return path


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("name", ["acceptance", "columns"])
def test_csv_rows_equal_the_rows_of_the_json_text(tmp_path, monkeypatch, name, parallelism):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    reports = run(load_scenarios(_scenario_file(tmp_path, name)), parallelism=parallelism)
    assert any(isinstance(r.get("table"), _Table) for r in reports)
    assert emit(reports, "csv") == emit(json.loads(emit(reports, "json")), "csv")


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_interior_hap_error_aborts_the_run(tmp_path, monkeypatch, parallelism,
                                                         value):
    def spoiled(certificate):
        errors = certificate.errors.copy()
        errors[-1, -1] = value
        return dataclasses.replace(certificate, errors=errors)

    find_L, certify = runner.find_L, runner.certify
    monkeypatch.setattr(runner, "find_L", lambda scenario: spoiled(find_L(scenario)))
    monkeypatch.setattr(runner, "certify", lambda *args: spoiled(certify(*args)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    path = tmp_path / "hap.json"
    path.write_text(json.dumps(_SCENARIOS[:1]))
    with pytest.raises(ValueError, match="not JSON compliant"):
        run(load_scenarios(path), parallelism=parallelism)


def test_table_text_equals_the_encoded_rows():
    # zeros of both signs in one column, where equal values have unequal texts;
    # a boundary row; y as an int and as a list
    blocks = [
        ({"K_radius": 1, "L_radius": 2}, {"error": [0.0, -0.0, 1e-05, -0.0]},
         [True, True, True, False]),
        ({"K_radius": 1, "L_radius": 3}, {"error": [2.5, 0.0, 1e+16, 0.0]},
         [True, True, True, True]),
    ]
    table = _Table([0, [1, -2], 3, 4], blocks)

    def row(y, l_radius, error):
        return {"y": y, "K_radius": 1, "L_radius": l_radius, "error": error,
                "boundary": error is None}

    expected = [row(0, 2, 0.0), row([1, -2], 2, -0.0), row(3, 2, 1e-05), row(4, 2, None),
                row(0, 3, 2.5), row([1, -2], 3, 0.0), row(3, 3, 1e+16), row(4, 3, 0.0)]
    assert len(table) == 8
    assert table.text() == runner._dumps(expected)
    assert table.text().count('"error":-0.0') == 1 and table == expected
    assert table[5] is table[5]  # a row read twice is the same dict

    # bool columns, which only comparison tables have, and those have no
    # boundary rows; and a block with no base points, as y_sample [] gives
    flags = _Table([0, [1, -2]], [
        ({"K_radius": 0}, {"ok": [True, False], "rank_P": [2, 1]}, [True, True]),
        ({"K_radius": 1}, {"ok": [False, True], "rank_P": [0, 3]}, [True, True]),
    ])
    expected = [
        {"y": 0, "K_radius": 0, "ok": True, "rank_P": 2, "boundary": False},
        {"y": [1, -2], "K_radius": 0, "ok": False, "rank_P": 1, "boundary": False},
        {"y": 0, "K_radius": 1, "ok": False, "rank_P": 0, "boundary": False},
        {"y": [1, -2], "K_radius": 1, "ok": True, "rank_P": 3, "boundary": False},
    ]
    assert flags.text() == runner._dumps(expected) and flags == expected
    assert _summary(flags, "ok") == _summary(expected, "ok") == {
        "cell_count": 4, "pass_total": 2, "fail_total": 2, "boundary_total": 0}
    empty = _Table([], [({"K_radius": 0}, {"ok": [], "count": []}, [])])
    assert empty.text() == runner._dumps([]) == "[]" and len(empty) == 0 and empty == []
    assert _summary(empty, "ok") == _summary([], "ok")
