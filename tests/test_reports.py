"""Report content: pinned acceptance hashes, boundary comparison rows, seeds."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import framecert.runner as runner
from framecert.cli import main
from framecert.comparison import ComparisonCertificate, ComparisonScenario, comparison_run
from framecert.frames import coherent_frame
from framecert.groups import GroupModel, OutOfCarrier, full_point_set, product_set
from framecert.representations import Representation
from framecert.runner import run
from framecert.scenarios import is_seed, load_scenarios

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"
PINNED_HASHES = ROOT / "perfbench" / "acceptance_hashes.json"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_acceptance_hashes_match_the_pins(parallelism):
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    reports = run(load_scenarios(SUITE), parallelism=parallelism)
    assert {r["scenario_id"]: r["determinism_sha256"] for r in reports} == pinned


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
         "k_radii": [1], "l_radii": [0, 1], "b_convention": "dual_of_given"}
# Fields a boundary certificate takes from its cell.
_GIVEN = {"y", "k_label"}


def test_boundary_comparison_certificates_and_rows(monkeypatch):
    rep = _RollRep(2)
    frame, reference = _dirac_frame(rep), _dirac_frame(rep)
    group = rep.group
    scenario = ComparisonScenario(
        given=frame,
        reference=reference,
        epsilon=0.5,
        U=group.ball(1),
        K_family=[group.ball(1)],
        L_family=[group.ball(0), group.ball(1)],
        k_labels=[1],
        l_labels=[0, 1],
        b_convention="dual_of_given",
    )
    certificates = comparison_run(scenario)
    boundary = [c for c in certificates if c.boundary]
    assert [c.y for c in boundary] == [-2, 2]  # y.K escapes [-2, 2] at the ends
    for cert in boundary:
        for f in fields(cert):
            if f.name not in _GIVEN | {"boundary"}:
                # flags are False, computed values None
                expected = False if f.type == "bool" else None
                assert getattr(cert, f.name) is expected, f.name
        assert cert.boundary is True and cert.ok is False
        assert cert.k_label == 1
    assert scenario.hap_choice.chosen_l_label == 0
    assert scenario.b_provenance == "upper bound of dual of E_g"

    # The report rows, through the evaluator, with the box-group frames.
    monkeypatch.setattr(runner, "build_frame", lambda desc: frame)
    monkeypatch.setattr(runner, "build_reference", lambda desc, rep: reference)
    payload = runner._run_comparison(_SPEC, 0)
    rows = payload["certificates"]
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
        assert row["B_used"] == scenario.b_used
        assert row["B_provenance"] == "upper bound of dual of E_g"
        assert row["B_alternative"] == scenario.b_alternative
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
    rep = _RollRep(2)
    frame, reference = _dirac_frame(rep), _dirac_frame(rep)
    group = rep.group
    scenario = ComparisonScenario(
        given=frame,
        reference=reference,
        epsilon=0.5,
        U=group.ball(1),
        K_family=[group.ball(0), group.ball(2)],
        L_family=[group.ball(1)],
        k_labels=[0, 2],
        l_labels=[1],
    )
    assert scenario.hap_choice.chosen_l_label == 1
    with pytest.raises(OutOfCarrier):  # K.L escapes [-2, 2]
        product_set(group.ball(2), scenario.hap_choice.chosen_L)
    certificates = comparison_run(scenario)
    escaped = [c for c in certificates if c.k_label == 2]
    assert escaped == [
        ComparisonCertificate(y=y, k_label=2) for y in group.carrier
    ]
    computed = [c for c in certificates if c.k_label == 0]
    assert [c.y for c in computed if not c.boundary] == [-1, 0, 1]
    assert all(c.ok for c in computed if not c.boundary)
