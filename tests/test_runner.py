"""The runner's process pool and its single canonicalizing pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framecert.runner as runner
from framecert.cli import main
from framecert.runner import _canon, canonical_json, determinism_sha256, emit, run
from framecert.scenarios import load_scenarios

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"


def _typed(obj):
    """obj with the type of every node beside it, so == also compares types."""
    if isinstance(obj, dict):
        return ("dict", {k: _typed(v) for k, v in obj.items()})
    if isinstance(obj, list):
        return ("list", [_typed(x) for x in obj])
    if isinstance(obj, float) and obj == 0.0:
        return (type(obj), obj, str(obj))  # keeps -0.0 apart from 0.0
    return (type(obj), obj)


class _IntSub(int):
    pass


class _DictSub(dict):
    pass


# Each value and its canonical form, as the isinstance chain writes it.
CANON_CASES = {
    "float64": (np.float64(1.0) / 3.0, 0.333333333333),  # a subclass of float
    "tuple": ((1, (2, 3.0), [np.float64(0.25)]), [1, [2, 3.0], [0.25]]),
    "int_keys": ({1: "a", 2: {3: 4.5}}, {"1": "a", "2": {"3": 4.5}}),
    "true_vs_1": ([True, 1, False, 0], [True, 1, False, 0]),
    "negative_zero": (-0.0, -0.0),
    "third": (1.0 / 3.0, 0.333333333333),
    "none_and_str": ({"a": None, "b": "text"}, {"a": None, "b": "text"}),
    "subclasses": (_DictSub(x=_IntSub(3)), {"x": 3}),
    "nested_report": ({"table": [{"y": (1, 2), "error": 1e-17, "boundary": False}]},
                      {"table": [{"y": [1, 2], "error": 1e-17, "boundary": False}]}),
}


@pytest.mark.parametrize("value, expected", CANON_CASES.values(), ids=CANON_CASES.keys())
def test_canon_matches_the_isinstance_chain(value, expected):
    assert _typed(_canon(value)) == _typed(expected)


def test_canon_passes_a_table_through():
    table = runner._Table([0, 1], [({"K_radius": 0}, {"count": [1, 2]}, [True, False])])
    assert _canon(table) is table
    assert canonical_json({"table": table}) == (
        '{"table":[{"K_radius":0,"boundary":false,"count":1,"y":0},'
        '{"K_radius":0,"boundary":true,"count":null,"y":1}]}')


@pytest.mark.parametrize("value", [np.int64(-7), np.bool_(True), np.float32(0.1),
                                   np.arange(3), {"count": np.int64(2)}],
                         ids=["int64", "bool_", "float32", "array", "nested"])
def test_numpy_values_that_are_not_python_scalars_fail_loudly(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json(value)


def test_emit_json_equals_canonical_json_of_the_suite():
    reports = run(load_scenarios(SUITE), parallelism=2)
    assert emit(reports, "json") == canonical_json(reports).encode("utf-8")


def test_emit_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit([], "xml")


def test_emit_json_writes_its_input_as_it_stands():
    # emit's precondition is canonical input, as run() returns it; it does
    # not canonicalize, so other input must go through canonical_json
    report = {"x": 1.0 / 3.0}
    assert emit([report], "json") == b'[{"x":0.3333333333333333}]'
    assert canonical_json([report]) == '[{"x":0.333333333333}]'
    with pytest.raises(TypeError):
        emit([{"x": np.arange(2)}], "json")


def _scenario_file(tmp_path, ids) -> str:
    payload = [
        {
            "id": sid,
            "kind": "frame_analysis",
            "frame": {"rep": {"kind": "translation", "n": 4}, "window": "dirac0",
                      "points": "full"},
        }
        for sid in ids
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("cpus", [1, 2, None], ids=["one-cpu", "two-cpus", "this-host"])
def test_worker_count_is_capped(tmp_path, monkeypatch, cpus):
    import concurrent.futures
    import multiprocessing

    seen = {}
    real_pool = concurrent.futures.ProcessPoolExecutor

    class RecordingPool(real_pool):
        def __init__(self, max_workers=None, **kwargs):
            seen["max_workers"] = max_workers
            super().__init__(max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            results = list(super().map(fn, *iterables, **kwargs))
            seen["processes"] = len(multiprocessing.active_children())
            return iter(results)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    scenarios = load_scenarios(_scenario_file(tmp_path, ["a", "b", "c"]))
    reports = run(scenarios, parallelism=64)

    cap = min(3, os.cpu_count() or 1)
    if cap == 1:
        assert seen == {}  # one worker would do: the serial loop, no pool
    else:
        assert seen["max_workers"] == cap
        assert seen["processes"] <= cap
    if cpus is not None:
        assert seen.get("processes", 0) <= 2
    assert [r["scenario_id"] for r in reports] == ["a", "b", "c"]
    serial = run(scenarios)
    assert [r["determinism_sha256"] for r in reports] == [
        r["determinism_sha256"] for r in serial]


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_no_pool_off_linux(tmp_path, monkeypatch, platform):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sys, "platform", platform)
    scenarios = load_scenarios(_scenario_file(tmp_path, ["a", "b"]))
    reports = run(scenarios, parallelism=2)
    monkeypatch.undo()
    assert [r["determinism_sha256"] for r in reports] == [
        r["determinism_sha256"] for r in run(scenarios)]


def test_importing_the_cli_loads_no_pool_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, framecert.runner, framecert.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_programming_errors_cross_the_pool(tmp_path, monkeypatch):
    def buggy(built):
        raise TypeError("a bug, not a scenario failure")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    build, _ = runner._EVALUATORS["frame_analysis"]
    monkeypatch.setitem(runner._EVALUATORS, "frame_analysis", (build, buggy))
    scenarios = load_scenarios(_scenario_file(tmp_path, ["a", "b"]))
    with pytest.raises(TypeError, match="a bug"):
        run(scenarios, parallelism=2)


def test_scenario_errors_stay_in_their_report_across_the_pool(tmp_path, monkeypatch):
    payload = [
        {
            "id": "broken",
            "kind": "frame_analysis",
            "frame": {
                "rep": {"kind": "gabor", "n": 4},
                "window": "flat",
                "points": {"lattice": {"steps": [1, 4]}},  # rank-one system
            },
        },
        {
            "id": "good",
            "kind": "frame_analysis",
            "frame": {"rep": {"kind": "translation", "n": 4}, "window": "dirac0",
                      "points": "full"},
        },
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    broken, good = run(load_scenarios(path), parallelism=2)
    assert broken["error"]["type"] == "NotAFrame" and not broken["ok"]
    assert good["error"] is None and good["ok"]


@pytest.mark.parametrize("command", ["frame-bounds", "dual"])
def test_filtered_frame_reports_hash_their_own_content(tmp_path, command):
    out = tmp_path / f"{command}.json"
    assert main([command, "--scenarios", str(SUITE), "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 4
    for report in reports:
        assert determinism_sha256(report) == report["determinism_sha256"]


def _hap_spec(sid, **changes):
    spec = {"id": sid, "kind": "hap",
            "frame": {"rep": {"kind": "gabor", "n": 8}, "window": "gauss", "points": "full"},
            "f": "dirac0", "epsilon": 0.2, "u_radius": 1, "k_radii": [0, 1],
            "l_radii": [0, 1, 2]}
    spec.update(changes)
    return spec


def _hap_file(tmp_path, specs) -> str:
    path = tmp_path / "hap.json"
    path.write_text(json.dumps(specs))
    return str(path)


def _without_timestamp(report):
    return {k: v for k, v in report.items() if k != "timestamp"}


def test_one_hap_scenario_is_split_over_the_pool(tmp_path, monkeypatch):
    import concurrent.futures

    seen = {}
    real_pool = concurrent.futures.ProcessPoolExecutor

    class RecordingPool(real_pool):
        def __init__(self, max_workers=None, **kwargs):
            seen["max_workers"] = max_workers
            super().__init__(max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            seen.setdefault("tasks", []).append((fn.__name__, len(iterables[0])))
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    scenarios = load_scenarios(_hap_file(tmp_path, [_hap_spec("z8")]))
    [pooled] = run(scenarios, parallelism=2)
    monkeypatch.undo()
    assert seen["max_workers"] == 2
    assert seen["tasks"][0] == ("scan_errors", 2)  # the y-slices, queued first
    [serial] = run(scenarios)
    assert pooled["error"] is None and pooled["ok"]
    assert _without_timestamp(pooled) == _without_timestamp(serial)


def test_hap_scenario_errors_stay_in_their_report_across_the_pool(tmp_path, monkeypatch):
    specs = [
        _hap_spec("good"),
        _hap_spec("no-admissible-L", epsilon=0.01, l_radii=[0]),
        _hap_spec("not-a-frame", frame={"rep": {"kind": "gabor", "n": 4}, "window": "flat",
                                        "points": {"lattice": {"steps": [1, 4]}}}),
    ]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    good, no_l, not_a_frame = run(load_scenarios(_hap_file(tmp_path, specs)), parallelism=2)
    assert good["error"] is None and good["ok"]
    assert no_l["error"]["type"] == "NoAdmissibleL" and not no_l["ok"]
    assert not_a_frame["error"]["type"] == "NotAFrame" and not not_a_frame["ok"]
    assert "certificate" not in no_l and "certificate" not in not_a_frame


def _buggy_slice(scenario, start, stop):
    raise TypeError("a bug in the slice, not a scenario failure")


def test_programming_errors_in_a_hap_slice_escape_run(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runner, "scan_errors", _buggy_slice)
    scenarios = load_scenarios(_hap_file(tmp_path, [_hap_spec("z8")]))
    with pytest.raises(TypeError, match="a bug in the slice"):
        run(scenarios, parallelism=2)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_oversized_carrier_fails_its_report_and_the_batch_runs_on(monkeypatch, parallelism):
    # The middle scenario's carrier has 2^33 elements: it is refused before
    # anything is allocated, and the scenarios on either side still run.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = run(load_scenarios(ROOT / "tests" / "oversized_carrier.json"),
                  parallelism=parallelism)
    by_id = {r["scenario_id"]: r for r in reports}
    oversized = by_id.pop("carrier-oversized-density")
    assert oversized["error"] == {
        "type": "ValueError",
        "message": "a carrier of 8589934592 elements exceeds the limit of 1048576"}
    assert not oversized["ok"]
    assert [(r["error"], r["ok"]) for r in by_id.values()] == [(None, True)] * 2


# A window whose entries are finite but whose frame operator overflows.
_OVERFLOWING = {"rep": {"kind": "translation", "n": 2}, "window": [[1e200, 0], [0, 0]],
                "points": "full"}


# numpy warns of the overflow it meets in the frame operator; the test is
# of what the runner makes of the non-finite bounds that follow.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_overflowing_frame_fails_its_report_and_the_batch_runs_on(tmp_path, monkeypatch,
                                                                   parallelism):
    specs = [
        {"id": "overflow-frame", "kind": "frame_analysis", "frame": _OVERFLOWING},
        _hap_spec("overflow-hap", frame=_OVERFLOWING, u_radius=0, k_radii=[0],
                  l_radii=[0, 1]),
        {**_COMPARISON_SPEC, "id": "overflow-reference",
         "frame": {"rep": {"kind": "translation", "n": 2}, "window": "dirac0",
                   "points": "full"},
         "reference": {"window": _OVERFLOWING["window"], "points": "full"}},
        {"id": "density", "kind": "density", "group": {"kind": "cyclic", "moduli": [8]},
         "points": [0, 2, 4, 6], "k_radii": [1, 2]},
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(specs))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    reports = {r["scenario_id"]: r for r in run(load_scenarios(path), parallelism=parallelism)}
    assert len(reports) == 4
    density = reports.pop("density")
    assert density["error"] is None and density["ok"]
    for report in reports.values():
        assert report["error"] == {"type": "ValueError",
                                   "message": "frame bounds nan and nan are not both finite"}
        assert not report["ok"]


def _shape_bug(generators):
    return np.zeros(3) + np.zeros(4)  # numpy raises ValueError: cannot broadcast


_COMPARISON_SPEC = {
    "id": "compare", "kind": "comparison",
    "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "gauss", "points": "full"},
    "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 4]}}},
    "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2],
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("module, spec", [
    ("hap", _hap_spec("hap")),  # the HAP scan
    ("comparison", _COMPARISON_SPEC),  # the cells only: the comparison's scan runs
], ids=["hap-scan", "comparison-cells"])
def test_a_numpy_error_while_answering_escapes_run(tmp_path, monkeypatch, module, spec,
                                                     parallelism):
    # Only building a scenario files a ValueError as its report's error, as
    # for edge-density-wrong-rank (test_reports.py::test_edge_hashes_match_the_pins)
    # and the oversized carrier above; a shape bug in the computation is a bug.
    import importlib

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    monkeypatch.setattr(importlib.import_module(f"framecert.{module}"), "span_projector",
                        _shape_bug)
    good = {"id": "good", "kind": "frame_analysis",
            "frame": {"rep": {"kind": "translation", "n": 4}, "window": "dirac0",
                      "points": "full"}}
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([spec, good]))
    with pytest.raises(ValueError, match="broadcast"):
        run(load_scenarios(path), parallelism=parallelism)


# -- one encoding per report ---------------------------------------------------

_GAUSS_Z6 = {"rep": {"kind": "gabor", "n": 6}, "window": "gauss", "points": "full"}

# Every kind, the three error kinds the runner captures most often, box-group
# density with boundary rows (whole-carrier and sampled base points), box
# sampling with a boundary trial, a tensor representation, a comparison
# whose given frame is not tight, and a comparison and a HAP scenario that each
# fail twice (a given frame that is not a frame, then a reference lattice or
# an f that cannot be built), whose reports name the frame's error.
_EDGE_SCENARIOS = [
    {"id": "box-density", "kind": "density", "group": {"kind": "box", "halfwidths": [3, 2]},
     "points": [[0, 0], [1, -1], [3, 2], [-2, 1], [1, -1]], "k_radii": [0, 1, 2]},
    {"id": "box-density-sample", "kind": "density", "group": {"kind": "box", "halfwidths": [4]},
     "points": [0, 1, 1, -3], "k_radii": [1], "y_sample": [0, 3, 4, 7]},
    {"id": "cyclic-sampling", "kind": "sampling_bound",
     "group": {"kind": "cyclic", "moduli": [5, 3]}, "trials": 4, "max_radius": 1, "seed": 9},
    {"id": "box-sampling", "kind": "sampling_bound", "group": {"kind": "box", "halfwidths": [2]},
     "trials": 3, "max_radius": 1, "seed": 5},
    {"id": "box-density-escaped-point", "kind": "density",
     "group": {"kind": "box", "halfwidths": [2]}, "points": [0, 3], "k_radii": [0]},
    {"id": "not-a-frame", "kind": "frame_analysis",
     "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "flat",
               "points": {"lattice": {"steps": [1, 4]}}}},
    {"id": "tensor-frame", "kind": "frame_analysis", "seed": 3,
     "frame": {"rep": {"kind": "tensor", "factors": [{"kind": "translation", "n": 2},
                                                     {"kind": "gabor", "n": 3}]},
               "window": "gauss", "points": "full"}},
    {"id": "hap-z6", "kind": "hap", "frame": _GAUSS_Z6, "f": "dirac0", "epsilon": 0.2,
     "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "no-admissible-L", "kind": "hap", "frame": _GAUSS_Z6, "f": "dirac0",
     "epsilon": 0.01, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0]},
    {"id": "compare-not-tight", "kind": "comparison",
     "frame": {"rep": {"kind": "gabor", "n": 4},
               "window": {"sum": ["gauss", [[0.1, 0], [0, 0.1], [0, 0], [0.05, 0.05]]]},
               "points": "full"},
     "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 4]}}},
     "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "compare-malformed-twice", "kind": "comparison",
     "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "gauss", "points": []},
     "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 3]}}},
     "epsilon": 0.5, "u_radius": 1, "k_radii": [0], "l_radii": [0]},
    {"id": "hap-malformed-twice", "kind": "hap",
     "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "flat",
               "points": {"lattice": {"steps": [1, 4]}}},
     "f": [[1, 0], [0, 0]], "epsilon": 0.2, "u_radius": 1, "k_radii": [0], "l_radii": [0]},
]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_each_report_is_encoded_once_as_canonical_json(tmp_path, monkeypatch, parallelism):
    from framecert.cli import _BOUNDS_CHECKS, _DUAL_CHECKS, _filter_checks
    from framecert.scenarios import KINDS

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_EDGE_SCENARIOS))
    reports = run(load_scenarios(path), parallelism=parallelism)
    frames = [r for r in reports if r["kind"] == "frame_analysis"]
    reports += [_filter_checks(r, names) for r in frames for names in (_BOUNDS_CHECKS, _DUAL_CHECKS)]

    assert {r["kind"] for r in reports} == set(KINDS)
    errors = {r["error"]["type"] for r in reports if r["error"] is not None}
    assert {"NotAFrame", "NoAdmissibleL", "OutOfCarrier"} <= errors
    assert any(row["boundary"] for r in reports if r["kind"] == "density" for row in r["table"])
    for scenario_id in ("compare-malformed-twice", "hap-malformed-twice"):
        malformed = next(r for r in reports if r["scenario_id"] == scenario_id)
        assert malformed["error"]["type"] == "NotAFrame"
    # Trial 0's U = ball(1) has windows that escape [-2, 2]: a boundary row,
    # and the other trials keep theirs.
    box_sampling = next(r for r in reports if r["scenario_id"] == "box-sampling")
    assert box_sampling["error"] is None
    assert box_sampling["summary"] == {"cell_count": 3, "pass_total": 2, "fail_total": 0,
                                       "boundary_total": 1}
    edge, *inner = box_sampling["table"]
    assert edge == {"instance": 0, "points": 1, "u_radius": 1, "k_radius": 0, "lhs": None,
                    "rhs": None, "C": None, "C0": None, "holds": False, "boundary": True}
    assert [(row["instance"], row["u_radius"], row["holds"]) for row in inner] == [
        (1, 0, True), (2, 0, True)]
    assert all("boundary" not in row for row in inner)
    assert all(isinstance(r, runner._Sealed) for r in reports)  # each carries its text

    encoded = emit(reports, "json")
    assert encoded == canonical_json(reports).encode("utf-8")
    assert json.loads(encoded) == reports  # lists, not tuples; floats that round-trip
    for report in reports:
        assert report["determinism_sha256"] == determinism_sha256(report)
    mixed = [reports[0], {"plain": [1, 0.5]}, dict(reports[1]), reports[2]]
    assert emit(mixed, "json") == runner._dumps(mixed).encode("utf-8")
    assert emit([], "json") == b"[]"


_NESTED_TENSOR = {"kind": "tensor", "factors": [
    {"kind": "gabor", "n": 2},
    {"kind": "tensor", "factors": [{"kind": "translation", "n": 2}, {"kind": "gabor", "n": 3}]},
]}
_NESTED_AND_LATTICE = [
    {"id": "hap-nested-tensor", "kind": "hap",
     "frame": {"rep": _NESTED_TENSOR, "window": "gauss", "points": "full"},
     "f": "dirac1", "epsilon": 0.6, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "compare-lattice", "kind": "comparison",
     "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "gauss",
               "points": {"lattice": {"steps": [1, 2]}}},
     "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 4]}}},
     "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "compare-lattice-rank1", "kind": "comparison",
     "frame": {"rep": {"kind": "translation", "n": 6}, "window": "gauss",
               "points": {"lattice": {"steps": [1]}}},
     "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1]}}},
     "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
    {"id": "density-lattice-rank1", "kind": "density", "group": {"kind": "cyclic", "moduli": [12]},
     "points": {"lattice": {"steps": [3]}}, "k_radii": [0, 1, 2], "y_sample": [0, 5, 11]},
]


@pytest.mark.parametrize("scenario, analyses", [
    ({"id": "f", "kind": "frame_analysis", "frame": _GAUSS_Z6}, 1),
    ({"id": "h", "kind": "hap", "frame": _GAUSS_Z6, "f": "dirac0", "epsilon": 0.2,
      "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]}, 1),
    ({"id": "c", "kind": "comparison", "frame": _GAUSS_Z6,
      "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 6]}}},
      "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]}, 2),
])
def test_each_frame_is_analyzed_once_per_scenario(tmp_path, monkeypatch, scenario, analyses):
    import framecert.frames

    calls = []
    analyze = framecert.frames.analyze_frame

    def counting(frame):
        calls.append(frame)
        return analyze(frame)

    monkeypatch.setattr(framecert.frames, "analyze_frame", counting)
    path = tmp_path / "one.json"
    path.write_text(json.dumps([scenario]))
    [report] = run(load_scenarios(path))
    assert report["error"] is None and report["ok"]
    assert len(calls) == analyses and len({id(frame) for frame in calls}) == analyses


def test_nested_tensor_hap_and_lattice_comparisons_agree_across_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_NESTED_AND_LATTICE))
    scenarios = load_scenarios(path)
    serial, pooled = run(scenarios, parallelism=1), run(scenarios, parallelism=2)

    assert [r["error"] for r in serial] == [None] * 4
    assert all(r["summary"]["cell_count"] > 0 for r in serial)

    def stable(reports):
        return [{k: v for k, v in r.items() if k != "timestamp"} for r in reports]

    assert stable(serial) == stable(pooled)
    for reports in (serial, pooled):
        assert emit(reports, "json") == canonical_json(reports).encode("utf-8")


def test_text_output_prints_each_report_error(tmp_path):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([s for s in _EDGE_SCENARIOS if s["id"] == "not-a-frame"]))
    lines = emit(run(load_scenarios(path)), "text").decode("utf-8").splitlines()
    assert lines[0].startswith("scenario not-a-frame [frame_analysis]: FAIL")
    assert lines[1].startswith("  error: NotAFrame: lower frame bound ")
    assert lines[2] == "0/1 scenarios passed"
