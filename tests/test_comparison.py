import re
from pathlib import Path

import numpy as np
import pytest

from framecert.comparison import (
    ComparisonScenario,
    HapPreconditionUnmet,
    NotPositive,
    cardinality_count,
    comparison_run,
    density_report,
    qpq_operator,
    trace_bounds_check,
)
from framecert.frames import FrameSystem, coherent_frame, span_projector
from framecert.groups import (
    GroupModel,
    compact_set,
    full_point_set,
    point_set,
    product_set,
    translate_set,
)
from framecert.hap import NoAdmissibleL, find_L, local_subspace
from framecert.representations import (
    GaborRep,
    TranslationRep,
    dirac_vector,
    periodized_gaussian,
)
import framecert.hap
import framecert.runner as runner
from framecert.runner import run
from framecert.scenarios import build_frame, build_points, build_reference, load_scenarios
from test_hap import fixed_blocks as _fixed_blocks

SUITE = Path(__file__).resolve().parent.parent / "scenarios" / "acceptance.json"


def _scenario(given, reference, epsilon, k_radii=(0, 1, 2), l_radii=(0, 1, 2, 3, 4), **kw):
    group = given.rep.group
    return ComparisonScenario(
        given=given,
        reference=reference,
        epsilon=epsilon,
        U=group.ball(1),
        K_family=[group.ball(r) for r in k_radii],
        L_family=[group.ball(r) for r in l_radii],
        k_labels=list(k_radii),
        l_labels=list(l_radii),
        **kw,
    )


def _cells(certificates, group) -> list[dict]:
    """Each (y, K) cell read off its certificate's columns, in (K, y) order,
    with its K label and y."""
    cells = []
    for cert in certificates:
        assert all(len(column) == group.order for column in cert.columns.values())
        for y, *values in zip(group.carrier, *cert.columns.values()):
            cells.append({"k_label": cert.k_label, "y": y, **dict(zip(cert.columns, values))})
    return cells


def test_trace_bounds_identity_onb():
    onb = np.eye(4, dtype=complex)
    check = trace_bounds_check(np.eye(4), onb, 1.0, 1.0)
    assert check.sum == pytest.approx(4.0)
    assert check.trace == pytest.approx(4.0)
    assert check.ok


def test_trace_bounds_projector_onb():
    P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    check = trace_bounds_check(P, np.eye(4, dtype=complex), 1.0, 1.0)
    assert check.sum == pytest.approx(2.0) and check.trace == pytest.approx(2.0)


def test_trace_bounds_random_psd_against_duplicated_frame():
    rng = np.random.default_rng(21)
    W = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    T = W @ W.conj().T / 8.0
    vectors = np.column_stack([np.eye(8)[0]] + [np.eye(8)[i] for i in range(8)])
    evals = np.linalg.eigvalsh(vectors @ vectors.conj().T)
    check = trace_bounds_check(T, vectors, float(evals[0]), float(evals[-1]))
    assert check.ok
    assert check.sum / float(evals[-1]) < check.trace < check.sum / float(evals[0])


def test_trace_bounds_rejects_negative_operator():
    with pytest.raises(NotPositive):
        trace_bounds_check(np.diag([1.0, -0.5]), np.eye(2, dtype=complex), 1.0, 1.0)


def test_qpq_examples():
    identity4 = span_projector(np.eye(4, dtype=complex))
    T = qpq_operator(identity4, identity4)
    assert np.trace(T).real == pytest.approx(4.0)
    P = span_projector(np.eye(2, dtype=complex)[:, :1])
    Q_orth = span_projector(np.eye(2, dtype=complex)[:, 1:])
    assert np.allclose(qpq_operator(P, Q_orth), 0)
    # hand-computed 2x2: Q onto (e1+e2)/sqrt2, P onto e1, trace QPQ = 1/2
    Q = span_projector(np.array([[1.0], [1.0]]) / np.sqrt(2))
    T = qpq_operator(P, Q)
    assert np.trace(T).real == pytest.approx(0.5)
    assert np.allclose(T, 0.25 * np.ones((2, 2)))


def test_qpq_eigenvalues_and_rank():
    rng = np.random.default_rng(22)
    for _ in range(10):
        mp, mq = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        P = span_projector(rng.standard_normal((6, mp)) + 1j * rng.standard_normal((6, mp)))
        Q = span_projector(rng.standard_normal((6, mq)) + 1j * rng.standard_normal((6, mq)))
        T = qpq_operator(P, Q)
        evals = np.linalg.eigvalsh(T)
        assert evals[0] >= -1e-10 and evals[-1] <= 1 + 1e-10
        rank_T = int(np.sum(evals > 1e-10))
        assert rank_T <= min(P.rank, Q.rank)


def test_cardinality_examples():
    z8 = GroupModel.cyclic([8])
    assert cardinality_count(full_point_set(z8), z8.ball(1)) == 3
    assert cardinality_count(point_set(z8, [0, 0, 1]), compact_set(z8, [0])) == 2
    assert cardinality_count(full_point_set(z8), compact_set(z8, [])) == 0


def test_comparison_trivial_dirac_vs_dirac():
    rep = TranslationRep(8)
    group = rep.group
    onb = coherent_frame(rep, dirac_vector(8), full_point_set(group))
    scenario = _scenario(onb, onb, epsilon=0.5, k_radii=(1,), l_radii=(0, 1))
    assert scenario.hap_choice.chosen_l_label == 0
    cells = _cells(comparison_run(scenario), group)
    assert len(cells) == group.order
    for cell in cells:
        assert cell["card_X"] == cell["card_Y"] == 3
        assert cell["trace_T"] == pytest.approx(3.0)
        assert cell["rank_P"] == 3
        assert cell["lhs"] == pytest.approx(1.5)
        assert cell["ok"]


def test_comparison_gabor_vs_dirac_line():
    rep = GaborRep(8)
    group = rep.group
    given = coherent_frame(rep, periodized_gaussian(8), full_point_set(group))
    reference = coherent_frame(rep, dirac_vector(8), point_set(group, [(k, 0) for k in range(8)]))
    scenario = _scenario(given, reference, epsilon=0.5, k_radii=(0, 1), l_radii=(0, 1, 2, 3, 4))
    ref_analysis = scenario.reference.analysis
    assert ref_analysis.A == pytest.approx(1.0) and ref_analysis.B == pytest.approx(1.0)
    cells = _cells(comparison_run(scenario), group)
    assert all(cell["ok"] for cell in cells)
    # proof-step identity and the signed leftover term are reported per cell
    for cell in cells:
        assert cell["identity_error"] <= 1e-10
        assert cell["star_signed"] <= 1e-12  # nonpositive up to rounding
        assert abs(cell["star_signed"]) <= cell["star_bound"] + 1e-9


def test_comparison_randomized_windows_chain_holds():
    rng = np.random.default_rng(23)
    rep = GaborRep(4)
    group = rep.group
    for trial in range(5):
        window = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        given = coherent_frame(rep, window, full_point_set(group))
        reference = coherent_frame(
            rep, dirac_vector(4), point_set(group, [(k, 0) for k in range(4)])
        )
        scenario = _scenario(given, reference, epsilon=0.4, k_radii=(0, 1), l_radii=(0, 1, 2))
        for cell in _cells(comparison_run(scenario), group):
            assert cell["trace_T"] <= cell["rank_P"] + 1e-9
            assert cell["rank_P"] <= cell["card_X"]
            assert cell["ok"]


def test_comparison_hap_precondition_unmet():
    rep = GaborRep(8)
    group = rep.group
    given = coherent_frame(rep, periodized_gaussian(8), full_point_set(group))
    reference = coherent_frame(rep, dirac_vector(8), point_set(group, [(k, 0) for k in range(8)]))
    scenario = _scenario(given, reference, epsilon=0.01, l_radii=(0,))
    with pytest.raises(NoAdmissibleL) as unmet:
        find_L(scenario.hap)
    with pytest.raises(HapPreconditionUnmet) as caught:
        _ = scenario.hap_choice
    assert str(caught.value) == str(unmet.value)  # find_L's exact message


def test_comparison_rows_record_the_reference_b_and_the_dual_b():
    """B in the chain is the reference frame's upper bound; 1/A of the given
    frame's dual is recorded beside it.  A perturbed Gabor window is not
    tight, so the two differ."""
    rep = GaborRep(4)
    window = periodized_gaussian(4) + 0.1 * dirac_vector(4, 1)
    given = coherent_frame(rep, window, full_point_set(rep.group))
    lattice = point_set(rep.group, [(k, 0) for k in range(4)])
    reference = coherent_frame(rep, dirac_vector(4), lattice)
    scenario = _scenario(given, reference, epsilon=0.5, k_radii=(0, 1), l_radii=(0, 1, 2))
    rows = runner._comparison_payload(scenario)["certificates"]
    assert len(rows) == 2 * rep.group.order and all(row["ok"] for row in rows)
    assert {row["B_used"] for row in rows} == {runner._canon(reference.analysis.B)}
    assert {row["B_alternative"] for row in rows} == {runner._canon(1.0 / given.analysis.A)}
    assert {row["B_provenance"] for row in rows} == {"upper bound of reference frame"}
    assert reference.analysis.B != pytest.approx(1.0 / given.analysis.A)
    # lhs is ||h||^2 (1 - epsilon) card_Y / B with the reference's B
    for row in rows:
        assert row["lhs"] == pytest.approx(0.5 * row["card_Y"] / reference.analysis.B)


def test_density_examples():
    z8 = GroupModel.cyclic([8])
    full = density_report(full_point_set(z8), [z8.ball(1), z8.ball(2)])
    assert full.inside.all()
    assert full.counts.tolist() == [[3] * 8, [5] * 8]  # ratio 1 everywhere
    assert [(s.min_ratio, s.max_ratio) for s in full.summary] == [(1.0, 1.0), (1.0, 1.0)]
    evens = density_report(point_set(z8, [0, 2, 4, 6]), [z8.ball(1)])
    assert evens.counts.tolist() == [[1, 2] * 4]
    assert evens.summary[0].min_ratio == pytest.approx(1 / 3)
    assert evens.summary[0].max_ratio == pytest.approx(2 / 3)


def test_density_lattice_z16():
    group = GroupModel.cyclic([16, 16])
    lattice = point_set(
        group, [(2 * i, 2 * j) for i in range(8) for j in range(8)]
    )
    report = density_report(lattice, [group.ball(8)], y_sample=[(0, 0), (1, 1), (3, 7)])
    # ball(8) is the whole carrier: the ratio is exactly 1/(2*2)
    assert report.inside.all() and report.counts.tolist() == [[64] * 3]
    assert report.measures == [256.0]
    assert (report.summary[0].min_ratio, report.summary[0].max_ratio) == (0.25, 0.25)


def test_density_boundary_rows_on_box():
    box = GroupModel.box([2])
    X = full_point_set(box)
    report = density_report(X, [box.ball(1)])
    # y.K escapes [-2, 2] at both ends
    assert report.inside.tolist() == [[False, True, True, True, False]]
    assert report.counts[report.inside].tolist() == [3, 3, 3]  # ratio 1
    assert (report.summary[0].min_ratio, report.summary[0].max_ratio) == (1.0, 1.0)


@pytest.mark.parametrize("k_labels", [[1], [0, 1, 2]])
def test_density_rejects_labels_that_do_not_match_the_windows(k_labels):
    # A shorter list used to keep both windows' counts but drop K1's summary.
    z8 = GroupModel.cyclic([8])
    with pytest.raises(ValueError, match="k_labels"):
        density_report(full_point_set(z8), [z8.ball(0), z8.ball(1)], k_labels=k_labels)


@pytest.mark.parametrize("k_labels, l_labels", [([0], None), ([0, 1, 2], None), (None, [0])])
def test_comparison_rejects_labels_that_do_not_match_their_family(k_labels, l_labels):
    rep = GaborRep(4)
    group = rep.group
    frame = coherent_frame(rep, periodized_gaussian(4), full_point_set(group))
    with pytest.raises(ValueError, match="labels"):
        ComparisonScenario(
            given=frame, reference=frame, epsilon=0.5, U=group.ball(1),
            K_family=[group.ball(0), group.ball(1)], L_family=[group.ball(0), group.ball(1)],
            k_labels=k_labels, l_labels=l_labels,
        )


def _comparison(given, reference, epsilon, K_family, L_family):
    return ComparisonScenario(
        given=given,
        reference=reference,
        epsilon=epsilon,
        U=given.rep.group.ball(1),
        K_family=K_family,
        L_family=L_family,
    )


def _lattice_comparison():
    rep = GaborRep(6)
    group = rep.group
    # every carrier point once, and (0, 0) and (1, 2) twice
    points = point_set(group, list(group.carrier) + [(0, 0), (1, 2)])
    given = coherent_frame(rep, periodized_gaussian(6), points)
    reference = coherent_frame(rep, dirac_vector(6),
                               build_points({"lattice": {"steps": [1, 6]}}, group))
    return _comparison(given, reference, 0.5, [group.ball(0), group.ball(1)],
                       [group.ball(r) for r in (0, 1, 2, 3)])


def _l_without_identity_comparison():
    """The lattice comparison's frames with every L a translate of a ball
    that misses the identity, so y.K need not lie in y.K.L."""
    scenario = _lattice_comparison()
    group = scenario.given.rep.group
    return _comparison(scenario.given, scenario.reference, 0.5, scenario.hap.K_family,
                       [translate_set((3, 3), group.ball(r)) for r in (0, 1, 2)])


def _gabor_z8_comparison():
    rep = GaborRep(8)
    group = rep.group
    given = coherent_frame(rep, periodized_gaussian(8), full_point_set(group))
    reference = coherent_frame(rep, dirac_vector(8), point_set(group, [(k, 0) for k in range(8)]))
    return _scenario(given, reference, epsilon=0.5, k_radii=(0, 1), l_radii=(0, 1, 2, 3, 4))


def test_comparison_run_builds_each_chosen_product_once(monkeypatch):
    """Each chosen K.L is built once, by the HAP scenario: comparison_run
    calls no product_set, translate_set or local_subspace in any framecert
    namespace, and hands each block of base points the positions of K and
    of product_set(K, chosen L), the blocks covering the carrier in order."""
    import framecert.comparison
    import framecert.groups
    import framecert.hap

    scenario = _gabor_z8_comparison()
    group = scenario.given.rep.group
    # the HAP scan's own set algebra, and the expected products, before counting
    expected = [product_set(K, scenario.hap_choice.chosen_L).positions()
                for K in scenario.hap.K_family]
    calls = {"product_set": 0, "translate_set": 0, "local_subspace": 0}
    handed = []

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    cell_columns = framecert.comparison._cell_columns

    def recording_columns(scenario, first, last, k_positions, kl_positions):
        handed.append((first, last, k_positions, kl_positions))
        return cell_columns(scenario, first, last, k_positions, kl_positions)

    for module in (framecert.groups, framecert.hap, framecert.comparison):
        for name, original in (("product_set", product_set), ("translate_set", translate_set),
                               ("local_subspace", local_subspace)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter(name, original))
    monkeypatch.setattr(framecert.comparison, "_cell_columns", recording_columns)
    monkeypatch.setattr(framecert.comparison, "block_ranges", _fixed_blocks(5))
    # the counters are live: the reference oracle goes through all three
    framecert.hap.hap_error(scenario.given, scenario.given.analysis.canonical_dual,
                            scenario.reference.window, (0, 0), group.ball(0), group.ball(0))
    assert calls == {"product_set": 1, "translate_set": 2, "local_subspace": 1}
    calls.update(product_set=0, translate_set=0, local_subspace=0)

    comparison_run(scenario)
    assert calls == {"product_set": 0, "translate_set": 0, "local_subspace": 0}
    blocks = -(-group.order // 5)
    assert len(handed) == len(scenario.hap.K_family) * blocks
    for K, kl, start in zip(scenario.hap.K_family, expected, range(0, len(handed), blocks)):
        cells = handed[start:start + blocks]
        assert [(first, last) for first, last, _, _ in cells] == _fixed_blocks(5)(
            0, group.order, None)
        assert all(np.array_equal(k, K.positions()) for _, _, k, _ in cells)
        assert all(np.array_equal(kl_positions, kl) for _, _, _, kl_positions in cells)


_BLOCK_COMPARISONS = {
    "gabor-z8": _gabor_z8_comparison,  # full given frame, card_Y constant per K
    "lattice": _lattice_comparison,  # duplicate points, ragged card_Y
    "l-without-identity": _l_without_identity_comparison,
}


@pytest.mark.parametrize("make", _BLOCK_COMPARISONS.values(), ids=_BLOCK_COMPARISONS.keys())
@pytest.mark.parametrize("size", [1, 3, None])  # None: the whole carrier in one block
def test_comparison_run_has_the_same_bits_at_every_block_size(monkeypatch, make, size):
    import framecert.comparison

    scenario = make()
    order = scenario.given.rep.group.order
    expected = comparison_run(scenario)
    monkeypatch.setattr(framecert.comparison, "block_ranges", _fixed_blocks(size or order))
    blocked = comparison_run(scenario)
    # repr writes each float's shortest round-trip text, so equal text is equal bits
    assert [(c.k_label, repr(c.columns)) for c in blocked] == \
        [(c.k_label, repr(c.columns)) for c in expected]
    if make is _lattice_comparison:
        assert all(len(set(c.columns["card_Y"])) > 1 for c in blocked)


_SCENARIO_FILES = [SUITE, Path(__file__).resolve().parent / "edge_scenarios.json"]


@pytest.mark.parametrize("path", _SCENARIO_FILES, ids=[p.stem for p in _SCENARIO_FILES])
def test_the_comparison_chooses_find_L_s_candidate(path):
    """hap_choice stops at the first candidate below the threshold; it is
    find_L's chosen L with its worst error, or find_L's failure."""
    compared = 0
    for spec in (s.spec for s in load_scenarios(path) if s.kind == "comparison"):
        try:
            scenario = runner._comparison_scenario(spec, 0)
        except runner._BUILD_ERRORS:
            continue  # an error report, with no HAP question
        try:
            cert = find_L(scenario.hap)
        except NoAdmissibleL as unmet:
            with pytest.raises(HapPreconditionUnmet, match=f"^{re.escape(str(unmet))}$"):
                _ = scenario.hap_choice
            continue
        choice = scenario.hap_choice
        assert (choice.chosen_index, choice.chosen_l_label, choice.epsilon) == (
            cert.chosen_index, cert.chosen_l_label, cert.epsilon)
        assert choice.chosen_L == cert.chosen_L
        assert repr(choice.worst_error) == repr(cert.worst_error)
        compared += 1
    assert compared >= 3


@pytest.mark.parametrize("path", _SCENARIO_FILES, ids=[p.stem for p in _SCENARIO_FILES])
def test_a_comparison_computes_no_tail_bound(monkeypatch, path):
    """A comparison reads only the HAP question's choice: building and
    answering it never touches V_g f, its local maximum or C0."""
    def refused(*args):
        raise AssertionError("a comparison computed a tail-bound ingredient")

    comparisons = [s.spec for s in load_scenarios(path) if s.kind == "comparison"]
    expected = [runner._comparison_payload(runner._comparison_scenario(spec, 0))
                for spec in comparisons]
    for name in ("voice_transform", "local_max", "separation_constant"):
        monkeypatch.setattr(framecert.hap, name, refused)
    answered = [runner._comparison_payload(runner._comparison_scenario(spec, 0))
                for spec in comparisons]
    assert len(answered) >= 3
    assert runner.canonical_json(answered) == runner.canonical_json(expected)


_ORACLE_COMPARISONS = {
    "lattice": _lattice_comparison,
    "l-without-identity": _l_without_identity_comparison,  # y.K need not lie in y.K.L
}


@pytest.mark.parametrize("make", _ORACLE_COMPARISONS.values(), ids=_ORACLE_COMPARISONS.keys())
def test_comparison_cells_match_the_set_oracles(make):
    """Every (y, K) cell against the element-set reference: translate_set,
    local_subspace and cardinality_count, and the trace of QPQ from the
    reference projectors, bit for bit."""
    scenario = make()
    given, reference = scenario.given, scenario.reference
    group = given.rep.group
    chosen_L = scenario.hap_choice.chosen_L
    certs = comparison_run(scenario)
    assert [cert.k_label for cert in certs] == scenario.hap.k_labels
    # the families and labels live on the HAP question only
    assert not any(hasattr(scenario, name)
                   for name in ("U", "K_family", "L_family", "k_labels", "l_labels"))
    cells = _cells(certs, group)
    windows = [K for K in scenario.hap.K_family for _ in group.carrier]
    assert [cell["y"] for cell in cells] == list(group.carrier) * len(scenario.hap.K_family)
    outside = 0  # cells whose y.K does not lie in y.K.L
    for cell, K in zip(cells, windows):
        y = cell["y"]
        KL = product_set(K, chosen_L)
        yk, ykl = translate_set(y, K), translate_set(y, KL)
        outside += not yk.issubset(ykl)
        P = local_subspace(scenario.given.analysis.canonical_dual, given.points, y, KL)
        Q = span_projector(
            reference.synthesis[:, np.flatnonzero(yk.indicator[reference.points.positions()])]
        )
        assert cell["rank_P"] == P.rank
        assert cell["card_X"] == cardinality_count(given.points, ykl)
        assert cell["card_Y"] == cardinality_count(reference.points, yk)
        assert cell["trace_T"] == trace_bounds_check(
            qpq_operator(P, Q), reference.synthesis, scenario.reference.analysis.A,
            scenario.reference.analysis.B,
        ).trace
        assert cell["ok"]
    assert any(cell["card_X"] > len(translate_set(cell["y"], product_set(K, chosen_L)))
               for cell, K in zip(cells, windows))  # duplicates count
    assert (outside > 0) == (group.identity not in chosen_L)


def test_a_box_comparison_is_rejected():
    from test_frames import _RollRep

    rep = _RollRep(2)
    frame = coherent_frame(rep, dirac_vector(5), full_point_set(rep.group))
    with pytest.raises(ValueError, match=r"GroupModel\(box, \(2,\)\)"):
        _scenario(frame, frame, epsilon=0.5, k_radii=(1,), l_radii=(0, 1))


# -- rejections ------------------------------------------------------------------


def _dirac_onb(n=4):
    rep = TranslationRep(n)
    return coherent_frame(rep, dirac_vector(n), full_point_set(rep.group))


_ONB = _dirac_onb()
_COMPARISON_REJECTIONS = {
    "frames-on-two-groups": (_dirac_onb(), {}),
    "epsilon-zero": (_ONB, {"epsilon": 0.0}),
    "epsilon-one": (_ONB, {"epsilon": 1.0}),
}


@pytest.mark.parametrize("reference, changes", _COMPARISON_REJECTIONS.values(),
                         ids=_COMPARISON_REJECTIONS.keys())
def test_invalid_comparison_scenarios_raise_value_error(reference, changes):
    kwargs = {"epsilon": 0.5, "k_radii": (0,), "l_radii": (0, 1), **changes}
    with pytest.raises(ValueError):
        _scenario(_ONB, reference, **kwargs)


# -- counting identities on the shipped comparisons ------------------------------


def test_comparison_counts_obey_the_counting_identities():
    """Each x_j lies in yKL for |KL| base points y and each reference point
    in yK for |K| of them, so on a cyclic carrier the column sums are
    |X| |KL| and |Y| |K|; and each cell's counts are the density counts of
    X over KL and of Y over K at its y, read off the windows, not the
    point-slot table."""
    scenarios = sorted((s for s in load_scenarios(SUITE) if s.kind == "comparison"),
                       key=lambda s: s.id)  # run() orders its reports by id
    assert len(scenarios) == 3
    sums = {}
    for scenario, report in zip(scenarios, run(scenarios)):
        assert report["scenario_id"] == scenario.id and report["error"] is None
        frame = build_frame(scenario.spec["frame"])
        X, Y = frame.points, build_reference(scenario.spec["reference"], frame.rep).points
        group = frame.rep.group
        L = group.ball(report["hap_precondition"]["chosen_L_radius"])
        ys = [list(y) if isinstance(y, tuple) else y for y in group.carrier]
        for radius in scenario.spec["k_radii"]:
            K = group.ball(radius)
            KL = product_set(K, L)
            cells = [c for c in report["certificates"] if c["K_radius"] == radius]
            assert [c["y"] for c in cells] == ys and not any(c["boundary"] for c in cells)
            card_x = [c["card_X"] for c in cells]
            card_y = [c["card_Y"] for c in cells]
            assert sum(card_x) == len(X) * len(KL)
            assert sum(card_y) == len(Y) * len(K)
            assert card_x == density_report(X, [KL]).counts[0].tolist()
            assert card_y == density_report(Y, [K]).counts[0].tolist()
            sums[scenario.id, radius] = (sum(card_x), sum(card_y))
    assert sums["compare-gabor-vs-dirac-z8", 1] == (1600, 72)  # 64 * 25 and 8 * 9
