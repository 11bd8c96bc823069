"""Report content: pinned acceptance hashes, boundary comparison rows, seeds."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import framecert.runner as runner
from framecert.cli import main
from framecert.comparison import ComparisonScenario, comparison_run
from framecert.frames import analyze_frame, coherent_frame
from framecert.groups import GroupModel, full_point_set
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
# Fields a boundary certificate takes from its cell and scenario.
_GIVEN = {"y", "k_label", "l_label", "epsilon", "b_used", "b_provenance", "b_alternative"}


def test_boundary_comparison_certificates_and_rows(monkeypatch):
    rep = _RollRep(2)
    frame, reference = _dirac_frame(rep), _dirac_frame(rep)
    group = rep.group
    scenario = ComparisonScenario(
        given=frame,
        given_analysis=analyze_frame(frame),
        reference=reference,
        reference_analysis=analyze_frame(reference),
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
        assert cert.epsilon == 0.5 and cert.k_label == 1 and cert.l_label == 0
        assert cert.b_used == scenario.b_used
        assert cert.b_provenance == scenario.b_provenance == "upper bound of dual of E_g"
        assert cert.b_alternative == scenario.b_alternative

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
        assert row["B_provenance"] == "upper bound of dual of E_g"
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
