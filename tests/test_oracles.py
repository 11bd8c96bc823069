"""Metamorphic oracles over whole tables, of the acceptance scenarios and of
the cyclic edge comparisons: every cell is covariant under the translations
that map the point sets onto themselves, a HAP error does not grow along the
nested L family, and a comparison's counts are density counts that sum to
|X|·|K·L| and |Y|·|K|."""

from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from framecert.comparison import density_report
from framecert.groups import product_set
from framecert.runner import run
from framecert.scenarios import (
    build_frame,
    build_group,
    build_points,
    build_reference,
    load_scenarios,
)

SUITE = Path(__file__).resolve().parent.parent / "scenarios" / "acceptance.json"
EDGE = Path(__file__).resolve().parent / "edge_scenarios.json"

# Covariant cells agree up to rounding: the Z16 HAP errors vary over y by at
# most 5e-12, and the 12-digit canonical floats add at most 1e-11.
COVARIANCE_TOLERANCE = 1e-10
# The spans are nested in L, so a projection error can grow only by rounding;
# certify's "the first L that succeeds is minimal" relies on this.
MONOTONICITY_TOLERANCE = 1e-12


def translation_symmetries(*point_sets) -> np.ndarray:
    """Λ: the carrier positions λ whose translation maps each point set onto
    itself, multiplicities included, so that counts[p·λ] = counts[p] for
    every carrier position p.  Cyclic carriers only: there no translate
    leaves the carrier."""
    group = point_sets[0].group
    assert group.moduli is not None, "translation symmetries need a cyclic carrier"
    shifted = np.array([group.multiply_masked(group.all_positions, lam)[0]
                        for lam in range(group.order)])
    fixed = np.ones(group.order, dtype=bool)
    for X in point_sets:
        counts = X.counts()
        fixed &= (counts[shifted] == counts).all(axis=1)
    return np.flatnonzero(fixed)


def _point_sets(scenario):
    spec = scenario.spec
    if scenario.kind == "density":
        return [build_points(spec["points"], build_group(spec["group"]))]
    frame = build_frame(spec["frame"])
    if scenario.kind == "hap":
        return [frame.points]
    return [frame.points, build_reference(spec["reference"], frame.rep).points]


def _rows(report) -> list[dict]:
    if report["kind"] == "hap":
        return report["certificate"]["table"]
    return report["table"] if report["kind"] == "density" else report["certificates"]


_SCENARIOS = {s.id: s for s in load_scenarios(SUITE) if s.kind in ("hap", "comparison",
                                                                   "density")}
# The edge comparisons on cyclic carriers: tensor Z2 x Z3, Gabor Z4, a Fourier
# lattice on Z6 and duplicate points on Z5, where Λ is trivial.
_SCENARIOS |= {s.id: s for s in load_scenarios(EDGE) if s.kind == "comparison"}
_TRIVIAL_SYMMETRY = {"edge-compare-duplicates-z5"}


@pytest.fixture(scope="module")
def reports():
    return {r["scenario_id"]: r for r in run(list(_SCENARIOS.values()))}


def _blocks(report, group) -> dict:
    """Each (K, L) or K block's rows, by the carrier position of their y."""
    blocks = defaultdict(dict)
    for row in _rows(report):
        blocks[row["K_radius"], row.get("L_radius")][group.index(row["y"])] = row
    return blocks


def _moved_cells(block, group, lam) -> list[str]:
    """The fields that differ between a cell at y and the cell at y·λ."""
    positions = group.all_positions
    moved = group.multiply_masked(positions, lam)[0]
    fields = []
    for key in block[0].keys() - {"y"}:
        column = np.array([block[p][key] for p in positions.tolist()])
        if column.dtype.kind == "f":
            same = np.allclose(column[moved], column, rtol=0, atol=COVARIANCE_TOLERANCE)
        else:  # ranks, counts, flags and labels match exactly
            same = np.array_equal(column[moved], column)
        if not same:
            fields.append(key)
    return fields


@pytest.mark.parametrize("scenario_id", [i for i in _SCENARIOS if i not in _TRIVIAL_SYMMETRY])
def test_every_cell_is_covariant_under_the_symmetries_of_its_point_sets(reports,
                                                                         scenario_id):
    scenario, report = _SCENARIOS[scenario_id], reports[scenario_id]
    point_sets = _point_sets(scenario)
    group = point_sets[0].group
    symmetries = translation_symmetries(*point_sets)
    assert len(symmetries) > 1 and symmetries[0] == 0
    blocks = _blocks(report, group)
    for block in blocks.values():
        assert sorted(block) == list(range(group.order))
        assert not any(row["boundary"] for row in block.values())
        for lam in symmetries.tolist():
            assert _moved_cells(block, group, lam) == [], (scenario_id, lam)
    # the oracle can fail: a translation outside Λ moves some cell
    others = sorted(set(range(group.order)) - set(symmetries.tolist()))
    if others:
        assert any(_moved_cells(block, group, lam) for block in blocks.values()
                   for lam in others)


def test_the_symmetries_of_the_acceptance_point_sets():
    def symmetries(scenario_id):
        return translation_symmetries(*_point_sets(_SCENARIOS[scenario_id])).tolist()

    assert symmetries("density-evens-z8") == [0, 2, 4, 6]
    # Y is the lattice [1, 8], the translations (k, 0): Λ = Z8 x {0}
    gabor_vs_dirac = symmetries("compare-gabor-vs-dirac-z8")
    group = _point_sets(_SCENARIOS["compare-gabor-vs-dirac-z8"])[0].group
    assert [group.carrier[p] for p in gabor_vs_dirac] == [(k, 0) for k in range(8)]
    assert len(symmetries("hap-gabor-z16-gauss-dirac01")) == 256


def test_the_symmetries_of_the_edge_point_sets():
    def symmetries(scenario_id):
        point_sets = _point_sets(_SCENARIOS[scenario_id])
        group = point_sets[0].group
        return [group.carrier[p] for p in translation_symmetries(*point_sets).tolist()]

    assert len(symmetries("edge-compare-tensor-z2xz3")) == 6  # both point sets are full
    assert symmetries("edge-compare-gabor-vs-dirac-z4") == [(k, 0) for k in range(4)]
    assert symmetries("edge-compare-fourier-lattice-z6") == [(0, k) for k in range(6)]
    # X = [0, 1, 2, 3, 4, 0, 2]: 0 and 2 twice, so no translation but 0 keeps it,
    # and the counting identities count |X| = 7 with multiplicity
    assert symmetries("edge-compare-duplicates-z5") == [0]
    assert len(_point_sets(_SCENARIOS["edge-compare-duplicates-z5"])[0]) == 7


@pytest.mark.parametrize("scenario_id", [i for i, s in _SCENARIOS.items() if s.kind == "hap"])
def test_the_hap_error_does_not_grow_along_the_nested_l_family(reports, scenario_id):
    l_radii = _SCENARIOS[scenario_id].spec["l_radii"]
    errors = defaultdict(list)  # (K, y) -> interior errors in L-family order
    table = sorted(reports[scenario_id]["certificate"]["table"],
                   key=lambda row: l_radii.index(row["L_radius"]))
    for row in table:
        if not row["boundary"]:
            errors[row["K_radius"], str(row["y"])].append(row["error"])
    assert len(errors) > 0 and all(len(e) == len(l_radii) for e in errors.values())
    for cell, along_l in errors.items():
        assert all(b <= a + MONOTONICITY_TOLERANCE for a, b in zip(along_l, along_l[1:])), cell


@pytest.mark.parametrize("scenario_id",
                         [i for i, s in _SCENARIOS.items() if s.kind == "comparison"])
def test_the_comparison_counts_are_density_counts(reports, scenario_id):
    scenario = _SCENARIOS[scenario_id]
    X, Y = _point_sets(scenario)
    group = X.group
    rows = reports[scenario_id]["certificates"]
    for k_radius in scenario.spec["k_radii"]:
        block = [row for row in rows if row["K_radius"] == k_radius]
        assert len(block) == group.order and not any(row["boundary"] for row in block)
        K = group.ball(k_radius)
        KL = product_set(K, group.ball(block[0]["L_radius"]))
        at = [group.index(row["y"]) for row in block]
        # card_X counts X in y·K·L, card_Y counts Y in y·K
        assert [row["card_X"] for row in block] == density_report(X, [KL]).counts[0, at].tolist()
        assert [row["card_Y"] for row in block] == density_report(Y, [K]).counts[0, at].tolist()
        # on a cyclic carrier each point lies in y·W for exactly |W| base points y
        assert sum(row["card_X"] for row in block) == len(X) * len(KL)
        assert sum(row["card_Y"] for row in block) == len(Y) * len(K)
