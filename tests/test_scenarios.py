import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecert.scenarios as scenarios
from framecert.cli import main
from framecert.runner import canonical_json, determinism_sha256, emit, run
from framecert.scenarios import (
    ParseError,
    Scenario,
    ValidationError,
    build_frame,
    build_group,
    build_points,
    build_reference,
    build_rep,
    build_vector,
    load_scenarios,
)

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"

MINIMAL = [
    {
        "id": "one",
        "kind": "frame_analysis",
        "frame": {
            "rep": {"kind": "translation", "n": 4},
            "window": "dirac0",
            "points": "full",
        },
    }
]


def write(tmp_path, payload) -> str:
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def test_load_minimal(tmp_path):
    scenarios = load_scenarios(write(tmp_path, MINIMAL))
    assert len(scenarios) == 1
    assert scenarios[0].id == "one"
    assert scenarios[0].seed == 0


def test_load_empty_array(tmp_path):
    assert load_scenarios(write(tmp_path, [])) == []


def test_missing_epsilon_named_in_error(tmp_path):
    bad = [
        {
            "id": "h",
            "kind": "hap",
            "frame": MINIMAL[0]["frame"],
            "f": "dirac0",
            "u_radius": 1,
            "k_radii": [0, 1],
            "l_radii": [0, 1],
        }
    ]
    with pytest.raises(ValidationError) as info:
        load_scenarios(write(tmp_path, bad))
    assert info.value.field == "epsilon"


def test_unknown_key_rejected(tmp_path):
    bad = [dict(MINIMAL[0], extra_knob=1)]
    with pytest.raises(ValidationError) as info:
        load_scenarios(write(tmp_path, bad))
    assert info.value.field == "extra_knob"


def test_duplicate_id_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_scenarios(write(tmp_path, MINIMAL + MINIMAL))


def test_parse_error_carries_position(tmp_path):
    with pytest.raises(ParseError) as info:
        load_scenarios(write(tmp_path, "[{bad json"))
    assert info.value.line == 1
    assert info.value.column is not None


@pytest.mark.parametrize(
    "mutation, field",
    [
        ({"kind": "bogus"}, "kind"),
        ({"seed": -1}, "seed"),
        ({"frame": {"rep": {"kind": "gabor"}, "window": "flat", "points": "full"}}, "rep"),
        ({"frame": {"rep": {"kind": "gabor", "n": 4}, "window": "nope", "points": "full"}},
         "window"),
        ({"frame": {"rep": {"kind": "gabor", "n": 4}, "window": "flat", "points": 3}},
         "points"),
    ],
)
def test_field_validation(tmp_path, mutation, field):
    bad = [dict(MINIMAL[0], **mutation)]
    with pytest.raises(ValidationError) as info:
        load_scenarios(write(tmp_path, bad))
    assert info.value.field == field


def test_radii_must_increase(tmp_path):
    bad = [
        {
            "id": "h",
            "kind": "hap",
            "frame": MINIMAL[0]["frame"],
            "f": "dirac0",
            "epsilon": 0.1,
            "u_radius": 1,
            "k_radii": [1, 1],
            "l_radii": [0, 1],
        }
    ]
    with pytest.raises(ValidationError) as info:
        load_scenarios(write(tmp_path, bad))
    assert info.value.field == "k_radii"


def test_builders():
    group = build_group({"kind": "cyclic", "moduli": [4, 4]})
    assert group.order == 16
    box = build_group({"kind": "box", "halfwidths": [1, 1]})
    assert box.order == 9
    rep = build_rep({"kind": "tensor", "factors": [
        {"kind": "translation", "n": 2}, {"kind": "gabor", "n": 2}]})
    assert rep.dim == 4 and rep.group.order == 8
    vec = build_vector({"sum": ["dirac0", "dirac1"]}, 4)
    assert np.allclose(vec, [1, 1, 0, 0])
    inline = build_vector([[1, 0], [0, -1]], 2)
    assert np.allclose(inline, [1, -1j])
    with pytest.raises(ValueError):
        build_vector([[1, 0]], 2)
    gabor = build_rep({"kind": "gabor", "n": 8})
    line = build_points({"lattice": {"steps": [1, 8]}}, gabor.group)
    assert set(line.points) == {(k, 0) for k in range(8)}
    explicit = build_points([[0, 0], [1, 2]], gabor.group)
    assert explicit.points == ((0, 0), (1, 2))
    with pytest.raises(ValueError):
        build_points({"lattice": {"steps": [3, 8]}}, gabor.group)  # 3 does not divide 8
    frame = build_frame(MINIMAL[0]["frame"])
    assert frame.synthesis.shape == (4, 4)


def test_emit_empty_and_floats():
    assert emit([], "json") == b"[]"
    assert canonical_json(0.5) == "0.5"
    assert canonical_json({"b": 1, "a": (1, 2)}) == '{"a":[1,2],"b":1}'
    third = canonical_json(1.0 / 3.0)
    assert third == "0.333333333333"


def test_report_roundtrip_and_canonical_floats(tmp_path):
    scenarios = load_scenarios(write(tmp_path, MINIMAL))
    reports = run(scenarios)
    parsed = json.loads(emit(reports, "json"))
    assert parsed == reports


def test_emit_csv_hap_header(tmp_path):
    payload = [
        {
            "id": "hap-demo",
            "kind": "hap",
            "frame": {
                "rep": {"kind": "gabor", "n": 4},
                "window": "gauss",
                "points": "full",
            },
            "f": "dirac0",
            "epsilon": 0.5,
            "u_radius": 1,
            "k_radii": [0, 1],
            "l_radii": [0, 1, 2],
        }
    ]
    reports = run(load_scenarios(write(tmp_path, payload)))
    text = emit(reports, "csv").decode()
    assert text.splitlines()[0] == "scenario_id,y,K_radius,L_radius,error"
    assert text.count("hap-demo") == len(reports[0]["certificate"]["table"])


def test_runner_captures_errors_without_aborting(tmp_path):
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
        MINIMAL[0],
    ]
    reports = run(load_scenarios(write(tmp_path, payload)))
    broken = next(r for r in reports if r["scenario_id"] == "broken")
    good = next(r for r in reports if r["scenario_id"] == "one")
    assert broken["error"]["type"] == "NotAFrame"
    assert not broken["ok"]
    assert good["ok"]


def test_runner_lets_programming_errors_propagate(tmp_path, monkeypatch):
    import framecert.runner as runner

    def buggy(built):
        raise TypeError("a bug, not a scenario failure")

    build, _ = runner._EVALUATORS["frame_analysis"]
    monkeypatch.setitem(runner._EVALUATORS, "frame_analysis", (build, buggy))
    with pytest.raises(TypeError, match="a bug"):
        run(load_scenarios(write(tmp_path, MINIMAL)))


def test_run_is_deterministic_across_parallelism(tmp_path):
    scenarios = load_scenarios(SUITE)
    fast = [s for s in scenarios if s.kind in ("sampling_bound", "frame_analysis", "density")]
    serial = run(fast, parallelism=1)
    threaded = run(fast, parallelism=4)

    def strip(reports):
        return [{k: v for k, v in r.items() if k != "timestamp"} for r in reports]

    assert canonical_json(strip(serial)) == canonical_json(strip(threaded))
    for a, b in zip(serial, threaded):
        assert a["determinism_sha256"] == b["determinism_sha256"]
        assert a["determinism_sha256"] == determinism_sha256(a)


def test_seed_override_changes_randomized_runs(tmp_path):
    payload = [
        {
            "id": "s",
            "kind": "sampling_bound",
            "group": {"kind": "cyclic", "moduli": [8]},
            "trials": 5,
            "max_radius": 2,
            "seed": 1,
        }
    ]
    scenarios = load_scenarios(write(tmp_path, payload))
    first = run(scenarios)[0]
    second = run(scenarios, seed_override=99)[0]
    assert first["seed"] == 1 and second["seed"] == 99
    assert first["determinism_sha256"] != second["determinism_sha256"]
    assert all(row["holds"] for row in first["table"] + second["table"])


def test_summary_counts_are_consistent(tmp_path):
    scenarios = load_scenarios(SUITE)
    fast = [s for s in scenarios if s.id != "hap-gabor-z16-gauss-dirac01"]
    for report in run(fast, parallelism=2):
        s = report["summary"]
        assert s["pass_total"] + s["fail_total"] + s["boundary_total"] == s["cell_count"]


def test_cli_suite_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["suite", "--scenarios", str(SUITE), "--out", str(out), "--format", "json"])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 13 and all(r["ok"] for r in reports)

    code = main(["check-separation", "--scenarios", str(SUITE), "--out",
                 str(tmp_path / "sep.json")])
    assert code == 0
    sep = json.loads((tmp_path / "sep.json").read_text())
    assert {r["kind"] for r in sep} == {"sampling_bound"}

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["suite", "--scenarios", str(bad)]) == 1
    capsys.readouterr()
    assert main(["suite"]) == 1  # usage error remapped from argparse's 2
    capsys.readouterr()


def test_cli_strict_failure_exit(tmp_path):
    payload = [
        {
            "id": "broken",
            "kind": "frame_analysis",
            "frame": {
                "rep": {"kind": "gabor", "n": 4},
                "window": "flat",
                "points": {"lattice": {"steps": [1, 4]}},
            },
        }
    ]
    path = write(tmp_path, payload)
    out = str(tmp_path / "r.json")
    assert main(["frame-bounds", "--scenarios", path, "--out", out]) == 0
    assert main(["frame-bounds", "--scenarios", path, "--out", out, "--strict"]) == 2


def test_cli_check_filters(tmp_path):
    path = write(tmp_path, MINIMAL)
    bounds_out = tmp_path / "bounds.json"
    dual_out = tmp_path / "dual.json"
    assert main(["frame-bounds", "--scenarios", path, "--out", str(bounds_out)]) == 0
    assert main(["dual", "--scenarios", path, "--out", str(dual_out)]) == 0
    bounds = json.loads(bounds_out.read_text())[0]
    dual = json.loads(dual_out.read_text())[0]
    assert {c["check"] for c in bounds["checks"]} == {
        "frame_bounds", "frame_inequality", "separation_constant"}
    assert {c["check"] for c in dual["checks"]} == {"dual_reconstruction", "bessel_dual"}


def test_cli_text_to_stdout(tmp_path, capsys):
    path = write(tmp_path, MINIMAL)
    assert main(["suite", "--scenarios", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "1/1 scenarios passed" in out


def _hap(**changes):
    return dict({"id": "h", "kind": "hap", "frame": MINIMAL[0]["frame"], "f": "dirac0",
                 "epsilon": 0.5, "u_radius": 1, "k_radii": [0], "l_radii": [0, 1]}, **changes)


def _density(**changes):
    return dict({"id": "d", "kind": "density", "group": {"kind": "cyclic", "moduli": [4, 4]},
                 "points": [[1, 2]], "k_radii": [0]}, **changes)


# The text is written as it stands: json.dumps would refuse NaN and turn
# 1e999 into Infinity, and json.loads reads all three.
_NAN_VECTOR = '[[NaN, 0], [0, 0], [1, 0], [0, 0]]'
_INVALID_FILES = {
    "epsilon-1e999": (json.dumps([_hap()]).replace('"epsilon": 0.5', '"epsilon": 1e999'),
                      "epsilon"),
    "epsilon-nan": (json.dumps([_hap()]).replace('"epsilon": 0.5', '"epsilon": NaN'),
                    "epsilon"),
    "vector-nan": (json.dumps([_hap()]).replace('"f": "dirac0"', '"f": ' + _NAN_VECTOR), "f"),
    "point-null": (json.dumps([_density(points=[None])]), "points"),
    "point-float": (json.dumps([_density(points=[1.5])]), "points"),
    "point-bool": (json.dumps([_density(points=[[True, 0]])]), "points"),
    "point-overflow": (json.dumps([_density(points=[[10**29, 2]])]), "points"),
    "point-truncated": (json.dumps([_density(points=[[1.5, 2]])]), "points"),
    "frame-point-float": (json.dumps([dict(MINIMAL[0], frame=dict(
        MINIMAL[0]["frame"], points=[1.5, 2]))]), "points"),
    "y-null": (json.dumps([_density(y_sample=[None])]), "y_sample"),
    "y-overflow": (json.dumps([_density(y_sample=[[10**29, 2]])]), "y_sample"),
    "y-truncated": (json.dumps([_density(y_sample=[[1.9, 2.2]])]), "y_sample"),
}


@pytest.mark.parametrize("text, field", _INVALID_FILES.values(), ids=_INVALID_FILES.keys())
def test_cli_rejects_non_finite_numbers_and_non_integer_elements(tmp_path, capsys, text, field):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError) as info:
        load_scenarios(path)
    assert info.value.field == field
    assert main(["suite", "--scenarios", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("framecert: error: ") and captured.err.count("\n") == 1
    assert f".{field}" in captured.err


def test_elements_in_the_signed_64_bit_range_load(tmp_path):
    # the extremes load; whether they lie in the carrier is a build-time question
    box = {"kind": "box", "halfwidths": [2]}
    payload = [_density(group=box, points=[-(2**63), 2**63 - 1, [0]], y_sample=[[1], 2])]
    report = run(load_scenarios(write(tmp_path, payload)))[0]
    assert report["error"]["type"] == "OutOfCarrier"


def test_an_element_of_the_wrong_rank_stays_in_its_report(tmp_path):
    payload = [_density(points=[5]), _density(id="e", points=[[1, 2, 3]]),
               dict(MINIMAL[0], id="fine")]
    reports = run(load_scenarios(write(tmp_path, payload)))
    assert reports[0]["error"] == {"type": "ValueError",
                                   "message": "element 5 has rank 1, expected 2"}
    # the element as the file writes it, as for y_sample
    assert reports[1]["error"]["message"] == "element [1, 2, 3] has rank 3, expected 2"
    assert reports[2]["ok"]


# -- radii and empty point sets ------------------------------------------------


def _radius_file(key, radius):
    """One scenario whose ``key`` radius (or its last entry) is ``radius``."""
    if key == "max_radius":
        return [{"id": "s", "kind": "sampling_bound", "group": {"kind": "cyclic", "moduli": [4]},
                 "trials": 3, "max_radius": radius, "seed": 2}]
    return [_hap(**{key: radius if key == "u_radius" else [0, radius]})]


_RADIUS_KEYS = ("u_radius", "max_radius", "k_radii", "l_radii")


@pytest.mark.parametrize("radius", [2**63, 10**30])
@pytest.mark.parametrize("key", _RADIUS_KEYS)
def test_cli_rejects_radii_outside_signed_64_bit(tmp_path, capsys, key, radius):
    path = write(tmp_path, _radius_file(key, radius))
    with pytest.raises(ValidationError) as info:
        load_scenarios(path)
    assert info.value.field == key
    assert main(["suite", "--scenarios", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("framecert: error: ") and captured.err.count("\n") == 1
    assert f".{key}" in captured.err and "[0, 2^63)" in captured.err


def test_cli_rejects_a_group_too_large_for_its_coordinates(tmp_path, capsys):
    # Without the bound the file loads and building the group overflows int64.
    path = write(tmp_path, [_density(group={"kind": "cyclic", "moduli": [2**70]})])
    assert main(["density", "--scenarios", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("framecert: error: ") and captured.err.count("\n") == 1
    assert "scenarios[0].group.moduli" in captured.err and "[1, 2^63)" in captured.err


@pytest.mark.parametrize("key", _RADIUS_KEYS)
def test_the_largest_radius_loads_and_runs(tmp_path, key):
    # A ball of radius 2^63 - 1 is the whole carrier.
    report = run(load_scenarios(write(tmp_path, _radius_file(key, 2**63 - 1))))[0]
    assert report["error"] is None and report["ok"]


_NO_POINTS_ERROR = {"type": "NotAFrame",
                    "message": "lower frame bound 0.000e+00 vanishes relative to upper bound 0.000e+00"}


def test_a_frame_without_points_is_not_a_frame(tmp_path):
    payload = [dict(MINIMAL[0], frame=dict(MINIMAL[0]["frame"], points=[]))]
    report = run(load_scenarios(write(tmp_path, payload)))[0]
    assert report["error"] == _NO_POINTS_ERROR


def test_a_reference_without_points_is_not_a_frame(tmp_path):
    payload = [{"id": "c", "kind": "comparison", "frame": MINIMAL[0]["frame"],
                "reference": {"window": "dirac0", "points": []}, "epsilon": 0.5,
                "u_radius": 1, "k_radii": [0], "l_radii": [0, 1]}]
    report = run(load_scenarios(write(tmp_path, payload)))[0]
    assert report["error"] == _NO_POINTS_ERROR


# -- rejections: every check of a scenario file, by field and JSON path --------


def _comparison(**changes):
    return dict({"id": "c", "kind": "comparison", "frame": MINIMAL[0]["frame"],
                 "reference": {"window": "dirac0", "points": "full"}, "epsilon": 0.5,
                 "u_radius": 1, "k_radii": [0], "l_radii": [0, 1]}, **changes)


def _sampling(**changes):
    return dict({"id": "s", "kind": "sampling_bound", "group": {"kind": "cyclic", "moduli": [4]},
                 "trials": 3, "max_radius": 1}, **changes)


def _rep(rep):
    return [dict(MINIMAL[0], frame=dict(MINIMAL[0]["frame"], rep=rep))]


def _points(points):
    return [_density(points=points)]


# name -> (file contents, ValidationError.field, JSON path the message names)
_REJECTED_FILES = {
    "item-not-object": ([3], "scenarios[0]", "scenarios[0] must be an object"),
    "id-empty": ([dict(MINIMAL[0], id="")], "id", "scenarios[0].id"),
    "id-not-string": ([dict(MINIMAL[0], id=7)], "id", "scenarios[0].id"),
    "epsilon-string": ([_hap(epsilon="0.5")], "epsilon", "scenarios[0].epsilon"),
    "epsilon-bool": ([_hap(epsilon=True)], "epsilon", "scenarios[0].epsilon"),
    "epsilon-beyond-float": ([_hap(epsilon=10**400)], "epsilon", "scenarios[0].epsilon"),
    "comparison-epsilon-1": ([_comparison(epsilon=1)], "epsilon", "scenarios[0].epsilon"),
    "trials-zero": ([_sampling(trials=0)], "trials", "scenarios[0].trials"),
    # B in the comparison chain is the reference frame's: the key is gone
    "b-convention": ([_comparison(b_convention="given")], "b_convention",
                     "scenarios[0]: unknown key 'b_convention'"),
    "b-convention-reference": ([_comparison(b_convention="reference")], "b_convention",
                               "scenarios[0]: unknown key 'b_convention'"),
    # a frame_analysis C0 is always taken over the ball of radius 1
    "frame-analysis-u-radius": ([dict(MINIMAL[0], u_radius=1)], "u_radius",
                                "scenarios[0]: unknown key 'u_radius'"),
    "k-radii-empty": ([_hap(k_radii=[])], "k_radii", "scenarios[0].k_radii"),
    "l-radii-not-list": ([_hap(l_radii=2)], "l_radii", "scenarios[0].l_radii"),
    "group-not-object": ([_density(group="Z4")], "group", "scenarios[0].group"),
    "cyclic-keys": ([_density(group={"kind": "cyclic", "moduli": [4], "n": 4})], "group",
                    "scenarios[0].group"),
    "moduli-zero": ([_density(group={"kind": "cyclic", "moduli": [4, 0]})], "moduli",
                    "scenarios[0].group.moduli"),
    "moduli-empty": ([_density(group={"kind": "cyclic", "moduli": []})], "moduli",
                     "scenarios[0].group.moduli"),
    "box-keys": ([_density(group={"kind": "box", "moduli": [2]})], "group",
                 "scenarios[0].group"),
    "halfwidths-negative": ([_density(group={"kind": "box", "halfwidths": [-1]})],
                            "halfwidths", "scenarios[0].group.halfwidths"),
    # Group sizes fit the int64 carrier coordinates: a box side is 2m + 1.
    # Only sizes the bounds reject are loaded here, since a size they admit
    # is enumerated when the scenario runs.
    "moduli-2^63": ([_density(group={"kind": "cyclic", "moduli": [4, 2**63]})], "moduli",
                    "scenarios[0].group.moduli"),
    "moduli-2^70": ([_density(group={"kind": "cyclic", "moduli": [2**70]})], "moduli",
                    "scenarios[0].group.moduli"),
    "halfwidths-2^62": ([_density(group={"kind": "box", "halfwidths": [1, 2**62]})],
                        "halfwidths", "scenarios[0].group.halfwidths"),
    "halfwidths-2^63": ([_density(group={"kind": "box", "halfwidths": [2**63]})],
                        "halfwidths", "scenarios[0].group.halfwidths"),
    "rep-n-2^63": (_rep({"kind": "gabor", "n": 2**63}), "n", "scenarios[0].frame.rep.n"),
    "tensor-factor-n-2^64": (_rep({"kind": "tensor", "factors": [
        {"kind": "gabor", "n": 2}, {"kind": "translation", "n": 2**64}]}), "n",
        "scenarios[0].frame.rep.factors[1].n"),
    "group-kind": ([_density(group={"kind": "torus", "moduli": [4]})], "group",
                   "scenarios[0].group.kind"),
    "rep-not-object": (_rep("gabor"), "rep", "scenarios[0].frame.rep"),
    "rep-keys": (_rep({"kind": "gabor", "n": 4, "m": 4}), "rep", "scenarios[0].frame.rep"),
    "rep-n-zero": (_rep({"kind": "translation", "n": 0}), "n", "scenarios[0].frame.rep.n"),
    "tensor-keys": (_rep({"kind": "tensor"}), "rep", "scenarios[0].frame.rep"),
    "tensor-one-factor": (_rep({"kind": "tensor", "factors": [{"kind": "gabor", "n": 2}]}),
                          "factors", "scenarios[0].frame.rep.factors"),
    "tensor-factor-kind": (_rep({"kind": "tensor", "factors": [
        {"kind": "gabor", "n": 2}, {"kind": "fourier", "n": 2}]}), "rep",
        "scenarios[0].frame.rep.factors[1].kind"),
    "rep-kind": (_rep({"kind": "fourier", "n": 4}), "rep", "scenarios[0].frame.rep.kind"),
    "vector-number": ([_hap(f=3)], "f", "scenarios[0].f"),
    "vector-sum-not-list": ([_hap(f={"sum": "flat"})], "f", "scenarios[0].f"),
    "window-object": ([dict(MINIMAL[0], frame=dict(MINIMAL[0]["frame"], window={"flat": 1}))],
                      "window", "scenarios[0].frame.window"),
    "lattice-keys": (_points({"lattice": {"steps": [2, 2], "offset": [0, 0]}}), "points",
                     "scenarios[0].points.lattice"),
    "lattice-steps-zero": (_points({"lattice": {"steps": [2, 0]}}), "steps",
                           "scenarios[0].points.lattice.steps"),
    "lattice-steps-empty": (_points({"lattice": {"steps": []}}), "steps",
                            "scenarios[0].points.lattice.steps"),
    "frame-keys": ([dict(MINIMAL[0], frame={"rep": {"kind": "gabor", "n": 4},
                                            "window": "flat"})],
                   "frame", "scenarios[0].frame"),
    "reference-keys": ([_comparison(reference={"window": "flat", "points": "full",
                                               "rep": {"kind": "gabor", "n": 4}})],
                       "reference", "scenarios[0].reference"),
    "reference-window": ([_comparison(reference={"window": "flat\n", "points": "full"})],
                         "window", "scenarios[0].reference.window"),
    # a term of a sum is named by the key the sum sits under
    "f-sum-term": ([_hap(f={"sum": ["flat", 3]})], "f", "scenarios[0].f.sum[1]"),
    "window-sum-term": ([dict(MINIMAL[0], frame=dict(MINIMAL[0]["frame"], window={
        "sum": ["dirac0", {"sum": ["flat", "dirac"]}]}))], "window",
        "scenarios[0].frame.window.sum[1].sum[1]"),
}
# The preset names match whole: "$" would also match before a final newline.
for _preset in ("flat\n", "dirac0\n", "dirac"):
    _REJECTED_FILES[f"window-{_preset!r}"] = (
        [dict(MINIMAL[0], frame=dict(MINIMAL[0]["frame"], window=_preset))], "window",
        "scenarios[0].frame.window")
    _REJECTED_FILES[f"f-{_preset!r}"] = ([_hap(f=_preset)], "f", "scenarios[0].f")


@pytest.mark.parametrize("payload, field, where", _REJECTED_FILES.values(),
                         ids=_REJECTED_FILES.keys())
def test_a_rejected_file_names_its_field_and_path(tmp_path, payload, field, where):
    with pytest.raises(ValidationError) as info:
        load_scenarios(write(tmp_path, payload))
    assert info.value.field == field
    assert where in str(info.value)


_MALFORMED_BUILDS = {
    "vector-preset": (lambda: build_vector("flat\n", 4), "vector"),
    "group-kind": (lambda: build_group({"kind": "torus", "moduli": [4]}), "group"),
    "tensor-one-factor": (lambda: build_rep({"kind": "tensor",
                                             "factors": [{"kind": "gabor", "n": 2}]}), "factors"),
    "lattice-without-steps": (lambda: build_points({"lattice": {}}, build_group(
        {"kind": "cyclic", "moduli": [4]})), "points"),
    "frame-without-points": (lambda: build_frame({"rep": {"kind": "gabor", "n": 4},
                                                  "window": "flat"}), "frame"),
    "reference-with-rep": (lambda: build_reference(
        dict(MINIMAL[0]["frame"]), build_rep({"kind": "gabor", "n": 4})), "reference"),
}


@pytest.mark.parametrize("build, field", _MALFORMED_BUILDS.values(),
                         ids=_MALFORMED_BUILDS.keys())
def test_a_builder_checks_its_descriptor(build, field):
    with pytest.raises(ValidationError) as info:
        build()
    assert info.value.field == field


_UNREADABLE_FILES = {
    "not-an-array": (b'{"id": "x"}', "must contain a JSON array"),
    "not-utf-8": (b'[{"id": "\xff"}]', "not UTF-8"),
}


@pytest.mark.parametrize("content, message", _UNREADABLE_FILES.values(),
                         ids=_UNREADABLE_FILES.keys())
def test_cli_reports_an_unreadable_file_in_one_line(tmp_path, capsys, content, message):
    path = tmp_path / "scenarios.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=message):
        load_scenarios(path)
    assert main(["suite", "--scenarios", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("framecert: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


_LATTICE_ERRORS = {
    "box-group": ({"kind": "box", "halfwidths": [4]}, [2], "cyclic-product group"),
    "wrong-rank": ({"kind": "cyclic", "moduli": [4, 4]}, [2], "needs 2 steps"),
    "not-dividing": ({"kind": "cyclic", "moduli": [6]}, [4], "does not divide"),
}


@pytest.mark.parametrize("group, steps, message", _LATTICE_ERRORS.values(),
                         ids=_LATTICE_ERRORS.keys())
def test_a_lattice_that_does_not_fit_its_group_stays_in_its_report(tmp_path, group, steps,
                                                                    message):
    with pytest.raises(ValueError, match=message):
        build_points({"lattice": {"steps": steps}}, build_group(group))
    payload = [_density(group=group, points={"lattice": {"steps": steps}})]
    report = run(load_scenarios(write(tmp_path, payload)))[0]
    assert report["error"]["type"] == "ValueError" and message in report["error"]["message"]


# -- the documented schema -------------------------------------------------------


def _documented_keys(entries) -> list:
    """(kind, required keys, optional keys) from "key, key [, key]" texts,
    in the order they are written."""
    documented = []
    for kind, keys in entries:
        required, _, optional = keys.partition("[")
        documented.append((kind, tuple(re.findall(r"\w+", required)),
                           tuple(re.findall(r"\w+", optional))))
    return documented


def test_the_readme_and_the_docstring_list_the_schema():
    """Both documents list every kind with its required and [optional] keys
    as the loader checks them, so that a key added or removed in one place
    cannot leave a document stale."""
    schema = [(kind, *keys) for kind, keys in scenarios._KIND_KEYS.items()]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("Descriptors:", 1)[0]
    entries = re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", section, re.M | re.S)
    assert _documented_keys(entries) == schema
    docstring = scenarios.__doc__.split("their keys:", 1)[1].split("Descriptors:", 1)[0]
    entries = re.findall(r"^    (\w+) +(.*?)(?=^    \w|\Z)", docstring, re.M | re.S)
    assert _documented_keys(entries) == schema


# -- loader fuzz -----------------------------------------------------------------

_FUZZ_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# Any JSON value, NaN and infinities included (json.dumps writes them, and
# json.loads reads them back).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
# The loaded examples above, and the first scenario of each kind in the
# shipped file.
_FUZZ_BASES = [MINIMAL[0], _hap(), _density()] + list(
    {item["kind"]: item for item in reversed(json.loads(SUITE.read_text(encoding="utf-8")))}
    .values())


def _nodes(value, path=()):
    """The path to ``value`` and to every list and dict nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def _one_key_mutations(draw):
    """A base scenario with one key anywhere in it replaced by any JSON value,
    deleted, or added."""
    scenario = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    containers = [(path, node) for path, node in _nodes(scenario)
                  if isinstance(node, (dict, list)) and (node or isinstance(node, dict))]
    _, node = draw(st.sampled_from(containers))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = draw(st.sampled_from(["replace", "delete", "add"] if isinstance(node, dict)
                                  else ["replace"]))
    if action == "add":
        known = ["id", "kind", "seed", *{k for keys in scenarios._KIND_KEYS.values()
                                         for group in keys for k in group}]
        node[draw(st.sampled_from(sorted(known)) | st.text(max_size=6))] = draw(_JSON)
    elif action == "delete" and keys:
        del node[draw(st.sampled_from(keys))]
    elif keys:
        node[draw(st.sampled_from(keys))] = draw(_JSON)
    return [scenario]


@_FUZZ_SETTINGS
@given(payload=_JSON | _one_key_mutations())
def test_the_loader_loads_or_rejects_any_json(tmp_path_factory, payload):
    """Every JSON value either loads or raises ValidationError or
    ParseError, and nothing else."""
    path = write(tmp_path_factory.mktemp("fuzz"), payload)
    try:
        loaded = load_scenarios(path)
    except (ValidationError, ParseError):
        return
    assert isinstance(loaded, list) and all(isinstance(s, Scenario) for s in loaded)
