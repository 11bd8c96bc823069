"""Report content: pinned acceptance and edge hashes, boundary comparison rows,
comparison rows against a cell-by-cell reference, seeds."""

import json
from pathlib import Path

import numpy as np
import pytest

import framecert.runner as runner
from framecert.cli import main
from framecert.comparison import ComparisonScenario, comparison_certificate, comparison_run
from framecert.frames import coherent_frame
from framecert.groups import GroupModel, OutOfCarrier, full_point_set, product_set
from framecert.representations import Representation
from framecert.runner import canonical_json, run
from framecert.scenarios import build_frame, build_reference, is_seed, load_scenarios

# the comparisons on a box carrier and with a lattice reference
from test_comparison import _box_comparison, _lattice_comparison

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"
PINNED_HASHES = ROOT / "perfbench" / "acceptance_hashes.json"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_acceptance_hashes_match_the_pins(parallelism):
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    reports = run(load_scenarios(SUITE), parallelism=parallelism)
    assert {r["scenario_id"]: r["determinism_sha256"] for r in reports} == pinned


# Report paths the acceptance file does not reach: comparisons on a tensor
# rep, of Gabor Z4 against a Dirac lattice, against a Fourier lattice
# reference and with duplicate points; density with no samples, no points, samples outside a box
# carrier and a sample of the wrong rank (an error report); box sampling with
# a trial that escapes.  Every dimension is at most 8.
EDGE = Path(__file__).resolve().parent / "edge_scenarios.json"
EDGE_HASHES = {
    "edge-compare-duplicates-z5":
        "1e696714248f9896ccb7004f56a3bcda8a8d81e2dc080b816494b0809c9fb739",
    "edge-compare-fourier-lattice-z6":
        "4f01b378d19e074dd5fc2903499e066a358a13986d0998dcf333fb918e68ad36",
    "edge-compare-gabor-vs-dirac-z4":
        "a240e4c7b4af4f6d2f10a3c6d1eed01bb239c377ba589eff7c596441067faab0",
    "edge-compare-tensor-z2xz3":
        "0ee30edfd58971f9fd22bc249492ace480312c1108f0a6da61cd9ad027bfd13e",
    "edge-density-box-outside":
        "e65867cb7ea762a682eb26816cb755798fcd91c4ff270b0a594601fcd040a853",
    "edge-density-no-points":
        "5f855b6bbdb424d77ad2383e6e86f50078554bf2e341ba57f27945ff336fa103",
    "edge-density-no-samples":
        "ad1b5c64a448b4b8bb39c57591ffd683ea928c3522d34ec6a23329704984109c",
    "edge-density-wrong-rank":
        "f36155b96c2c8756401d93a7d7ac813c2bce66b5ee4af502a0e0dd37e50ea39c",
    "edge-sampling-box":
        "75ee0e29af31dc8f73e41a2d1b8919ca8e79d5a31b98ea015e868bb17a93f583",
}


@pytest.mark.parametrize("parallelism", [1, 2])
def test_edge_hashes_match_the_pins(monkeypatch, parallelism):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    reports = run(load_scenarios(EDGE), parallelism=parallelism)
    assert {r["scenario_id"]: r["determinism_sha256"] for r in reports} == EDGE_HASHES
    errors = {r["scenario_id"]: r["error"] for r in reports if r["error"] is not None}
    assert list(errors) == ["edge-density-wrong-rank"]
    summaries = {r["scenario_id"]: r["summary"] for r in reports}
    assert summaries["edge-density-no-samples"]["cell_count"] == 0
    assert summaries["edge-density-box-outside"]["boundary_total"] == 5
    assert summaries["edge-sampling-box"]["boundary_total"] == 1
    # B = 1/A of the dual would fail the trace's lower bound in 16 cells here;
    # with the reference's B, the chain holds in all 32
    assert summaries["edge-compare-gabor-vs-dirac-z4"] == {
        "cell_count": 32, "pass_total": 32, "fail_total": 0, "boundary_total": 0}


class _RollRep(Representation):
    """Unitary cyclic rolls indexed by a truncated carrier: the only way to
    reach boundary comparison cells, since every shipped representation acts
    on a cyclic group."""

    def __init__(self, halfwidth: int):
        self.kind = "roll"
        self.group = GroupModel.box([halfwidth])
        self.dim = self.group.order

    def apply(self, x, v):
        return np.roll(v, self.group.canon(x))


def _dirac_frame(rep):
    window = np.zeros(rep.dim, dtype=complex)
    window[0] = 1.0
    return coherent_frame(rep, window, full_point_set(rep.group))


_SPEC = {"frame": None, "reference": None, "epsilon": 0.5, "u_radius": 1,
         "k_radii": [1], "l_radii": [0, 1]}
# A comparison cell's values and its flags, the last one ``ok``.
_VALUES = ("trace_T", "rank_P", "card_X", "card_Y", "lhs", "restricted_sum", "identity_error",
           "star_signed", "star_bound")
_FLAGS = ("chain_ok", "final_ok", "restricted_sum_ok", "identity_ok", "star_ok",
          "trace_lemma_ok", "trace_lower_ok", "ok")


def _windows_escape_at_the_ends():
    """The scenario of _SPEC on [-2, 2]: y.K escapes for y = -2 and 2."""
    rep = _RollRep(2)
    group = rep.group
    return ComparisonScenario(
        given=_dirac_frame(rep),
        reference=_dirac_frame(rep),
        epsilon=0.5,
        U=group.ball(1),
        K_family=[group.ball(1)],
        L_family=[group.ball(0), group.ball(1)],
        k_labels=[1],
        l_labels=[0, 1],
    )


def _a_product_escapes():
    """On [-2, 2] with L = ball(1): K = ball(2) has K.L escaping for every y."""
    rep = _RollRep(2)
    group = rep.group
    return ComparisonScenario(
        given=_dirac_frame(rep),
        reference=_dirac_frame(rep),
        epsilon=0.5,
        U=group.ball(1),
        K_family=[group.ball(0), group.ball(2)],
        L_family=[group.ball(1)],
        k_labels=[0, 2],
        l_labels=[1],
    )


def test_boundary_comparison_certificates_and_rows(monkeypatch):
    scenario = _windows_escape_at_the_ends()
    frame, reference = scenario.given, scenario.reference
    group = frame.rep.group
    (cert,) = comparison_run(scenario)
    assert cert.k_label == 1
    assert set(cert.columns) == {*_VALUES, *_FLAGS}
    boundary = [p for p, inside in enumerate(cert.inside) if not inside]
    assert [group.carrier[p] for p in boundary] == [-2, 2]  # y.K escapes [-2, 2] at the ends
    for name, column in cert.columns.items():
        # flags are False, computed values None
        expected = False if name in _FLAGS else None
        assert all(column[p] is expected for p in boundary), name
        inner = [value for value, inside in zip(column, cert.inside) if inside]
        assert all(type(value) is bool for value in inner) == (name in _FLAGS), name
    assert scenario.hap_choice.chosen_l_label == 0

    # The report rows, through the evaluator, with the box-group frames.
    monkeypatch.setattr(runner, "build_frame", lambda desc: frame)
    monkeypatch.setattr(runner, "build_reference", lambda desc, rep: reference)
    payload = runner._run_comparison(_SPEC, 0)
    rows = payload["certificates"]
    assert isinstance(rows, runner._Table) and len(rows.blocks) == 1
    edge = [row for row in rows if row["boundary"]]
    inner = [row for row in rows if not row["boundary"]]
    assert len(edge) == 2 and len(inner) == 3
    assert all(set(row) == set(inner[0]) for row in rows)
    renamed = {"K_radius", "L_radius", "card_X", "card_Y", "B_used", "identity_error", "ok"}
    assert renamed <= set(inner[0])
    for row in edge:
        assert row["ok"] is False and row["trace_T"] is None and row["card_X"] is None
    # every row carries the scenario's constants
    for row in rows:
        assert row["L_radius"] == 0 and row["epsilon"] == 0.5
        assert row["B_used"] == reference.analysis.B
        assert row["B_provenance"] == "upper bound of reference frame"
        assert row["B_alternative"] == 1.0 / frame.analysis.A
    assert all(row["ok"] for row in inner)
    assert payload["summary"] == {
        "cell_count": 5, "pass_total": 3, "fail_total": 0, "boundary_total": 2
    }


def test_seed_predicate():
    assert is_seed(0) and is_seed(2**64 - 1)
    assert not is_seed(-1) and not is_seed(2**64)
    assert not is_seed(True) and not is_seed(1.0) and not is_seed("1") and not is_seed(None)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_seeds_outside_unsigned_64_bit(seed, capsys):
    assert main(["suite", "--scenarios", str(SUITE), "--seed", seed]) == 1
    assert "--seed" in capsys.readouterr().err


def test_cli_runs_the_largest_seed(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps([
        {"id": "s", "kind": "sampling_bound", "group": {"kind": "cyclic", "moduli": [8]},
         "trials": 2, "max_radius": 1},
        {"id": "f", "kind": "frame_analysis",
         "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "gauss", "points": "full"}},
    ]))
    out = tmp_path / "out.json"
    top = str(2**64 - 1)
    assert main(["suite", "--scenarios", str(path), "--seed", top, "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["seed"] for r in reports] == [2**64 - 1] * 2
    assert all(r["error"] is None and r["ok"] for r in reports)


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_cli_rejects_a_non_positive_parallel(parallel, capsys):
    assert main(["suite", "--scenarios", str(SUITE), "--parallel", parallel]) == 1
    assert "--parallel" in capsys.readouterr().err


def test_cli_runs_at_parallel_one(tmp_path):
    out = tmp_path / "out.json"
    args = ["frame-bounds", "--scenarios", str(SUITE), "--parallel", "1", "--out", str(out)]
    assert main(args) == 0
    assert all(r["ok"] for r in json.loads(out.read_text()))


def _cli_hashes(tmp_path, command, scenarios) -> dict:
    out = tmp_path / f"{command}.json"
    args = [command, "--scenarios", str(scenarios), "--parallel", "2", "--out", str(out)]
    assert main(args) == 0
    return {r["scenario_id"]: r["determinism_sha256"] for r in json.loads(out.read_text())}


def test_cli_at_parallel_two_keeps_the_pinned_hashes(tmp_path, monkeypatch):
    # Two CPUs, so the split HAP scan runs in the pool on any host.
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    z16 = "hap-gabor-z16-gauss-dirac01"
    alone = tmp_path / "z16.json"
    alone.write_text(json.dumps(
        [s for s in json.loads(SUITE.read_text(encoding="utf-8")) if s["id"] == z16]))
    assert _cli_hashes(tmp_path, "hap", alone) == {z16: pinned[z16]}
    assert _cli_hashes(tmp_path, "suite", SUITE) == pinned


def test_cli_reports_an_unwritable_output_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["density", "--scenarios", str(SUITE), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("framecert: error: ") and err.count("\n") == 1
    assert "No such file or directory" in err and not out.exists()


def test_cli_reports_a_directory_given_as_scenario_file(capsys):
    assert main(["density", "--scenarios", str(SUITE.parent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("framecert: error: ") and err.count("\n") == 1
    assert "Is a directory" in err


def test_a_window_whose_chosen_product_escapes_has_only_boundary_cells():
    scenario = _a_product_escapes()
    group = scenario.given.rep.group
    assert scenario.hap_choice.chosen_l_label == 1
    with pytest.raises(OutOfCarrier):  # K.L escapes [-2, 2]
        product_set(group.ball(2), scenario.hap_choice.chosen_L)
    computed, escaped = comparison_run(scenario)
    assert (computed.k_label, escaped.k_label) == (0, 2)
    assert escaped.inside == [False] * group.order
    assert escaped.columns == {name: [None] * group.order for name in _VALUES} | {
        name: [False] * group.order for name in _FLAGS}
    inside = [y for y, interior in zip(group.carrier, computed.inside) if interior]
    assert inside == [-1, 0, 1]
    assert all(ok for ok, interior in zip(computed.columns["ok"], computed.inside) if interior)


def _reference_rows(scenario) -> list[dict]:
    """A comparison report's rows cell by cell: each cell's values from
    comparison_certificate, or None and false in a boundary cell, with its
    y and K and the scenario's constants."""
    group = scenario.given.rep.group
    hap = scenario.hap_choice
    constants = {"L_radius": hap.chosen_l_label, "epsilon": scenario.epsilon,
                 "B_used": scenario.reference.analysis.B,
                 "B_provenance": "upper bound of reference frame",
                 "B_alternative": 1.0 / scenario.given.analysis.A}
    rows = []
    for K, k_label in zip(scenario.K_family, scenario.k_labels):
        try:
            kl_positions = product_set(K, hap.chosen_L).positions()
        except OutOfCarrier:
            kl_positions = None
        for yp, y in enumerate(group.carrier):
            cell = comparison_certificate(scenario, yp, K.positions(), kl_positions)
            boundary = cell is None
            if boundary:
                cell = dict.fromkeys(_VALUES) | dict.fromkeys(_FLAGS, False)
            else:
                assert list(cell) == [*_VALUES, *_FLAGS]
                assert cell["ok"] == all(cell[flag] for flag in _FLAGS[:-1])
            rows.append({"y": y, "K_radius": k_label, **cell, **constants,
                         "boundary": boundary})
    return rows


def _acceptance_comparison(scenario_id):
    """The shipped comparison ``scenario_id``, as the runner builds it."""
    spec = next(s for s in json.loads(SUITE.read_text(encoding="utf-8")) if s["id"] == scenario_id)

    def make():
        frame = build_frame(spec["frame"])
        reference = build_reference(spec["reference"], frame.rep)
        return ComparisonScenario(given=frame, reference=reference,
                                  **runner._families(spec, frame.rep.group))

    return make


_COMPARISONS = {
    "box": _box_comparison,  # y.K escapes while y.K.L stays; duplicate points
    "lattice": _lattice_comparison,
    "windows-escape-at-the-ends": _windows_escape_at_the_ends,
    "a-product-escapes": _a_product_escapes,
    **{scenario_id: _acceptance_comparison(scenario_id)
       for scenario_id in ("compare-gabor-vs-dirac-z8", "compare-gabor-vs-gabor-z8",
                           "compare-dirac-vs-dirac-z8")},
}


@pytest.mark.parametrize("make", _COMPARISONS.values(), ids=_COMPARISONS.keys())
def test_comparison_rows_equal_the_cell_by_cell_reference(make):
    scenario = make()
    payload = runner._comparison_payload(scenario)
    rows = _reference_rows(scenario)
    table = payload["certificates"]
    assert len(table.blocks) == len(scenario.K_family)
    assert table.text() == canonical_json(rows)
    assert payload["summary"] == runner._summary(rows, "ok")
