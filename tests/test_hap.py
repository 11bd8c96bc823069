import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import framecert.hap
from framecert.frames import analyze_frame, coherent_frame, span_projector
from framecert.groups import (
    OutOfCarrier,
    compact_set,
    full_point_set,
    measure,
    product_set,
    separation_constant,
)
from framecert.hap import (
    HapCell,
    HapScenario,
    NoAdmissibleL,
    certify,
    find_L,
    hap_error,
    local_subspace,
    scan_errors,
    theoretical_tail_bound,
)
from framecert.representations import (
    GaborRep,
    TranslationRep,
    apply_rep,
    dirac_vector,
    periodized_gaussian,
)


def dirac_onb(n=8):
    rep = TranslationRep(n)
    frame = coherent_frame(rep, dirac_vector(n), full_point_set(rep.group))
    return frame, analyze_frame(frame)


def gabor_gauss(n=8):
    rep = GaborRep(n)
    frame = coherent_frame(rep, periodized_gaussian(n), full_point_set(rep.group))
    return frame, analyze_frame(frame)


def ball_scenario(frame, f, epsilon, u=1, k_radii=(0, 1, 2), l_radii=(0, 1, 2, 3, 4)):
    group = frame.rep.group
    return HapScenario(
        frame=frame,
        f=np.asarray(f, dtype=complex),
        epsilon=epsilon,
        U=group.ball(u),
        K_family=[group.ball(r) for r in k_radii],
        L_family=[group.ball(r) for r in l_radii],
        k_labels=list(k_radii),
        l_labels=list(l_radii),
    )


def test_local_subspace_examples():
    frame, analysis = dirac_onb(8)
    group = frame.rep.group
    P = local_subspace(analysis.canonical_dual, frame.points, 0, compact_set(group, [0, 1]))
    assert P.rank == 2
    assert np.allclose(P.matrix, np.diag([1.0, 1, 0, 0, 0, 0, 0, 0]))
    full = local_subspace(analysis.canonical_dual, frame.points, 3, compact_set(group, group.carrier))
    assert full.rank == 8 and np.allclose(full.matrix, np.eye(8))
    empty = local_subspace(analysis.canonical_dual, frame.points, 0, compact_set(group, []))
    assert empty.rank == 0 and np.allclose(empty.matrix, 0)


def test_hap_error_dirac_onb_is_zero():
    frame, analysis = dirac_onb(8)
    group = frame.rep.group
    K0 = compact_set(group, [0])
    for y in group.carrier:
        err = hap_error(frame, analysis.canonical_dual, dirac_vector(8), y, K0, K0)
        assert err == pytest.approx(0.0, abs=1e-12)


def test_hap_error_full_L_is_zero():
    frame, analysis = gabor_gauss(8)
    group = frame.rep.group
    err = hap_error(
        frame, analysis.canonical_dual, dirac_vector(8), (2, 3),
        group.ball(1), compact_set(group, group.carrier),
    )
    assert err == pytest.approx(0.0, abs=1e-9)


def test_hap_error_monotone_between_two_radii():
    frame, analysis = gabor_gauss(8)
    group = frame.rep.group
    f = dirac_vector(8)
    e2 = hap_error(frame, analysis.canonical_dual, f, group.identity, group.ball(1), group.ball(2))
    e3 = hap_error(frame, analysis.canonical_dual, f, group.identity, group.ball(1), group.ball(3))
    assert e3 <= e2 + 1e-12


def test_find_L_trivial_dirac():
    frame, _ = dirac_onb(8)
    cert = find_L(ball_scenario(frame, dirac_vector(8), epsilon=0.1))
    assert cert.chosen_l_label == 0
    assert cert.worst_error == pytest.approx(0.0, abs=1e-12)


def test_find_L_epsilon_above_norm_picks_smallest():
    # projection is a contraction, so error <= ||f|| < epsilon at every cell
    frame, _ = gabor_gauss(8)
    f = dirac_vector(8)
    cert = find_L(ball_scenario(frame, f, epsilon=1.1))
    assert cert.chosen_l_label == 0


def test_theoretical_bound_examples():
    frame, analysis = dirac_onb(8)
    group = frame.rep.group
    f = dirac_vector(8)
    carrier = compact_set(group, group.carrier)
    c0 = separation_constant(frame.points, group.ball(1))
    assert theoretical_tail_bound(frame, analysis.A, f, group.ball(1), carrier, c0) == 0.0
    # tail of the self-located transform: C = 3/3 = 1, A = 1, tail = 2
    bound = theoretical_tail_bound(frame, analysis.A, f, group.ball(1), group.ball(1), c0)
    assert bound == pytest.approx(np.sqrt(2.0))
    bounds = [
        theoretical_tail_bound(frame, analysis.A, f, group.ball(1), group.ball(r), c0)
        for r in range(5)
    ]
    for smaller_l, larger_l in zip(bounds, bounds[1:]):
        assert smaller_l >= larger_l - 1e-12  # bound grows as L shrinks


def test_certificate_domination_and_tables():
    frame, _ = gabor_gauss(8)
    cert = find_L(ball_scenario(frame, dirac_vector(8), epsilon=0.2))
    assert cert.worst_error < 0.2
    assert cert.theoretical_bound is not None
    assert cert.worst_error <= cert.theoretical_bound + 1e-9
    assert all(c.domination_ok for c in cert.candidates)
    by_l = {c.l_label: c.theoretical_bound for c in cert.candidates}
    for cell in cert.table:
        assert not cell.boundary
        assert cell.error <= by_l[cell.l_label] + 1e-9
    # table covers every (K, L, y) cell
    group = frame.rep.group
    assert len(cert.table) == 3 * 5 * group.order


def test_monotonicity_in_L_per_cell():
    frame, _ = gabor_gauss(8)
    cert = find_L(ball_scenario(frame, dirac_vector(8), epsilon=0.2))
    per_cell = {}
    for cell in cert.table:
        per_cell.setdefault((cell.y, cell.k_label), []).append((cell.l_label, cell.error))
    for history in per_cell.values():
        history.sort()
        for (_, before), (_, after) in zip(history, history[1:]):
            assert after <= before + 1e-12


def test_translation_rep_errors_independent_of_y():
    frame, analysis = dirac_onb(8)
    group = frame.rep.group
    rng = np.random.default_rng(20)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    duals = analysis.canonical_dual
    K, L = group.ball(1), group.ball(1)
    errors = [hap_error(frame, duals, f, y, K, L) for y in group.carrier]
    assert max(errors) - min(errors) <= 1e-12


def test_zero_vector_gives_zero_errors():
    frame, _ = gabor_gauss(8)
    cert = find_L(ball_scenario(frame, np.zeros(8), epsilon=0.05))
    assert cert.chosen_l_label == 0
    assert cert.worst_error == 0.0


def test_no_admissible_L():
    frame, _ = gabor_gauss(8)
    with pytest.raises(NoAdmissibleL):
        find_L(ball_scenario(frame, dirac_vector(8), epsilon=0.01, l_radii=(0,)))


def test_scenario_validation():
    frame, _ = dirac_onb(8)
    group = frame.rep.group
    with pytest.raises(ValueError):
        ball_scenario(frame, dirac_vector(8), epsilon=-1.0)
    # nan used to end in NoAdmissibleL ("worst error < nan") and inf to
    # certify the smallest L whatever its error
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            ball_scenario(frame, dirac_vector(8), epsilon=epsilon)
    with pytest.raises(ValueError):
        HapScenario(
            frame=frame, f=dirac_vector(8), epsilon=0.1, U=group.ball(1),
            K_family=[group.ball(1)],
            L_family=[group.ball(2), group.ball(1)],  # not nested increasing
        )


@pytest.mark.parametrize("k_labels, l_labels", [([0], None), ([0, 1, 2], None), (None, [0])])
def test_scenario_rejects_labels_that_do_not_match_their_family(k_labels, l_labels):
    # Fewer K labels used to end in an IndexError inside certify; extra ones
    # were ignored.
    frame, _ = dirac_onb(8)
    group = frame.rep.group
    with pytest.raises(ValueError, match="labels"):
        HapScenario(
            frame=frame, f=dirac_vector(8), epsilon=0.1, U=group.ball(1),
            K_family=[group.ball(0), group.ball(1)], L_family=[group.ball(0), group.ball(1)],
            k_labels=k_labels, l_labels=l_labels,
        )


def test_a_box_carrier_is_rejected_and_hap_error_still_raises_on_it():
    # A box has no group law at its edges: the HAP needs a group.
    from test_frames import _RollRep

    rep = _RollRep(2)
    group = rep.group
    frame = coherent_frame(rep, dirac_vector(5), full_point_set(group))
    with pytest.raises(ValueError, match=r"GroupModel\(box, \(2,\)\)"):
        HapScenario(frame=frame, f=dirac_vector(5), epsilon=0.5, U=group.ball(1),
                    K_family=[group.ball(1)], L_family=[group.ball(0), group.ball(1)])
    # the reference oracle propagates the escape instead of skipping it
    with pytest.raises(OutOfCarrier):
        hap_error(frame, frame.analysis.canonical_dual, dirac_vector(5), 2, group.ball(1),
                  group.ball(0))


def _reference_table(scenario):
    """find_L's cell table from one projector per (y, K, L) cell, in (K, L, y)
    order, with the columns in the same order as find_L's."""
    frame = scenario.frame
    group = frame.rep.group
    transported = np.column_stack([apply_rep(frame.rep, x, scenario.f) for x in group.carrier])
    by_position = [[] for _ in range(group.order)]
    for j, p in enumerate(frame.points.positions().tolist()):
        by_position[p].append(j)
    table = []
    for ik, K in enumerate(scenario.K_family):
        for il, L in enumerate(scenario.L_family):
            k_label, l_label = scenario.k_labels[ik], scenario.l_labels[il]
            kl_positions = product_set(K, L).positions()
            for yp, y in enumerate(group.carrier):
                yk = group.multiply(yp, K.positions())
                ykl = group.multiply(yp, kl_positions)
                selected = [j for p in ykl.tolist() for j in by_position[p]]
                projector = span_projector(scenario.duals[:, selected])
                targets = transported[:, yk]
                residual = targets - projector.matrix @ targets
                error = float(np.max(np.linalg.norm(residual, axis=0)))
                table.append(HapCell(y, k_label, l_label, error, False))
    return table


def _random_vector(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_find_L_table_equals_per_cell_reference_exactly():
    frame, _ = gabor_gauss(8)
    scenario = ball_scenario(frame, _random_vector(8, 3), epsilon=2.0)
    cert = find_L(scenario)
    assert cert.table == _reference_table(scenario)  # floats compared with ==
    assert all(not cell.boundary for cell in cert.table)


def test_find_L_builds_one_projector_per_y_and_distinct_kl_set(monkeypatch):
    frame, _ = gabor_gauss(8)
    group = frame.rep.group
    scenario = ball_scenario(frame, _random_vector(8, 3), epsilon=2.0)
    builds = []

    def counting(generators):
        builds.append(generators.shape[1])
        return span_projector(generators)

    monkeypatch.setattr(framecert.hap, "span_projector", counting)
    find_L(scenario)
    distinct = {product_set(K, L) for K in scenario.K_family for L in scenario.L_family}
    # 15 (K, L) pairs share 5 K.L sets: balls of radius 0..3 and the carrier.
    assert len(distinct) == 5
    assert len(builds) == group.order * len(distinct) == 320


def _gabor_scenario():
    frame, _ = gabor_gauss(8)
    return ball_scenario(frame, _random_vector(8, 3), epsilon=2.0)


def _sliced_certificate(scenario, slices, mapper):
    """find_L's certificate with the base points scanned in ``slices``
    contiguous ranges through ``mapper`` (map's signature)."""
    ranges = np.array_split(np.arange(scenario.frame.rep.group.order), slices)
    pieces = mapper(
        scan_errors, [scenario] * slices, [int(r[0]) for r in ranges],
        [int(r[-1]) + 1 for r in ranges],
    )
    return certify(scenario, list(pieces))


SPLIT_SCENARIOS = {"gabor-z8": _gabor_scenario}


@pytest.mark.parametrize("make", SPLIT_SCENARIOS.values(), ids=SPLIT_SCENARIOS.keys())
@pytest.mark.parametrize("slices", [1, 2, 3])
def test_sliced_scan_equals_serial_find_L(make, slices):
    scenario = make()
    serial = find_L(scenario)
    sliced = _sliced_certificate(scenario, slices, map)
    assert sliced.table == serial.table  # floats compared with ==
    assert sliced.candidates == serial.candidates
    assert sliced.worst_error == serial.worst_error


@pytest.mark.skipif(sys.platform != "linux", reason="the runner forks only on Linux")
@pytest.mark.parametrize("make", SPLIT_SCENARIOS.values(), ids=SPLIT_SCENARIOS.keys())
def test_sliced_scan_through_a_fork_pool_equals_serial_find_L(make):
    scenario = make()
    serial = find_L(scenario)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        for slices in (1, 2, 3):
            sliced = _sliced_certificate(scenario, slices, pool.map)
            assert sliced.table == serial.table
            assert sliced.candidates == serial.candidates


def test_a_tail_bound_below_a_cell_error_fails_domination():
    # A lower bound 10^6 times too large shrinks every tail bound by 10^3:
    # L = 0 leaves an error of 0.707 against a bound of 0.0014.
    frame, _ = gabor_gauss(8)
    frame.analysis.A *= 1e6
    group = frame.rep.group
    scenario = HapScenario(
        frame=frame, f=dirac_vector(8), epsilon=0.2, U=group.ball(1),
        K_family=[group.ball(0), group.ball(1)], L_family=[group.ball(r) for r in range(4)],
        k_labels=[0, 1], l_labels=[0, 1, 2, 3],
    )
    cert = find_L(scenario)
    first = cert.candidates[0]
    assert not first.passed and not first.domination_ok
    assert first.worst_error == pytest.approx(0.7071, abs=1e-4)
    assert first.theoretical_bound == pytest.approx(0.0014, abs=1e-4)
    assert all(c.domination_ok for c in cert.candidates[1:])
    assert cert.chosen_l_label == 1


# -- rejections ------------------------------------------------------------------

_ONB, _ = dirac_onb(4)
_BALLS = [_ONB.rep.group.ball(r) for r in range(2)]
_HAP_REJECTIONS = {
    "K-family-empty": {"K_family": []},
    "L-family-empty": {"L_family": []},
}


@pytest.mark.parametrize("changes", _HAP_REJECTIONS.values(), ids=_HAP_REJECTIONS.keys())
def test_invalid_hap_scenarios_raise_value_error(changes):
    kwargs = {"frame": _ONB, "f": dirac_vector(4), "epsilon": 0.5, "U": _BALLS[1],
              "K_family": _BALLS[:1], "L_family": _BALLS[:2], **changes}
    with pytest.raises(ValueError):
        HapScenario(**kwargs)
