"""Acceptance gate: every certified inequality and identity, at desk scale.

Each criterion prints one PASS/FAIL line in the terminal summary (see
conftest).  Tolerances are pinned here and nowhere else.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from framecert.amalgam import GroupFunction, sampling_bound_check
from framecert.comparison import ComparisonScenario, comparison_run, trace_bounds_check
from framecert.frames import (
    analyze_frame,
    best_approx_check,
    bessel_bound_check,
    coherent_frame,
    span_projector,
    verify_dual,
)
from framecert.groups import GroupModel, PointSet, full_point_set, point_set
from framecert.hap import HapScenario, find_L
from framecert.representations import (
    GaborRep,
    TranslationRep,
    dirac_vector,
    flat_vector,
    periodized_gaussian,
)
from framecert.runner import canonical_json, run
from framecert.scenarios import load_scenarios

SUITE = Path(__file__).resolve().parent.parent / "scenarios" / "acceptance.json"


def _record(number, description, passed):
    record_criterion(number, description, passed)
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def dirac_onb_z8():
    rep = TranslationRep(8)
    return coherent_frame(rep, dirac_vector(8), full_point_set(rep.group))


def fourier_onb_z8():
    rep = GaborRep(8)
    points = point_set(rep.group, [(0, l) for l in range(8)])
    return coherent_frame(rep, flat_vector(8), points)


def full_gabor(n, window=None):
    rep = GaborRep(n)
    window = periodized_gaussian(n) if window is None else window
    return coherent_frame(rep, window, full_point_set(rep.group))


def gabor_lattice_z8():
    rep = GaborRep(8)
    points = point_set(rep.group, [(k, 2 * l) for k in range(8) for l in range(4)])
    return coherent_frame(rep, periodized_gaussian(8), points)


def test_criterion_1_sampling_bound():
    """200 randomized instances of the weighted sampling inequality."""
    rng = np.random.default_rng(20260809)
    groups = [
        GroupModel.cyclic([8]),
        GroupModel.cyclic([16]),
        GroupModel.cyclic([32]),
        GroupModel.cyclic([64]),
        GroupModel.cyclic([4, 4]),
        GroupModel.cyclic([8, 8]),
    ]
    violations = 0
    for i in range(200):
        group = groups[i % len(groups)]
        values = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        f = GroupFunction(group, values)
        size = int(rng.integers(1, group.order + 1))
        X = PointSet(group, tuple(group.carrier[j] for j in rng.integers(0, group.order, size)))
        K = group.ball(int(rng.integers(0, 4)))
        U = group.ball(int(rng.integers(0, 4)))
        check = sampling_bound_check(f, X, K, U)
        assert check.C == pytest.approx(check.C0 / len(U))
        violations += not check.holds
    _record(1, f"sampling bound holds on 200/200 randomized instances "
               f"(violations={violations})", violations == 0)


def test_criterion_2_frame_bounds():
    """Tight bounds A = B = N for the full time-frequency system; ONBs give (1, 1)."""
    ok = True
    details = []
    for n in (4, 8, 16):
        A, B = (lambda a: (a.A, a.B))(analyze_frame(full_gabor(n)))
        ok &= abs(A - n) <= 1e-9 * n and abs(B - n) <= 1e-9 * n
        details.append(f"N={n}:({A:.3f},{B:.3f})")
    for name, frame in (("dirac", dirac_onb_z8()), ("fourier", fourier_onb_z8())):
        analysis = analyze_frame(frame)
        ok &= abs(analysis.A - 1) <= 1e-12 and abs(analysis.B - 1) <= 1e-12
        details.append(f"{name}:({analysis.A:.12f},{analysis.B:.12f})")
    _record(2, "frame bounds " + " ".join(details), ok)


def test_criterion_3_duality():
    """Canonical dual reconstructs exactly; tight frames have dual bound 1/A."""
    shipped = {
        "dirac-onb": dirac_onb_z8(),
        "fourier-onb": fourier_onb_z8(),
        "gabor-z4": full_gabor(4),
        "gabor-z8": full_gabor(8),
        "gabor-z8-flat": full_gabor(8, flat_vector(8)),
        "gabor-z16": full_gabor(16),
        "gabor-z8-lattice": gabor_lattice_z8(),
    }
    ok = True
    worst = 0.0
    for name, frame in shipped.items():
        analysis = analyze_frame(frame)
        check = verify_dual(frame, analysis.canonical_dual)
        worst = max(worst, check.max_error)
        ok &= check.max_error <= 1e-9
        bessel = bessel_bound_check(analysis.canonical_dual, analysis.A)
        ok &= bessel.ok
        tight = abs(analysis.A - analysis.B) <= 1e-9 * analysis.B
        if tight:
            ok &= abs(bessel.empirical_B_dual - 1.0 / analysis.A) <= 1e-9 / analysis.A
    _record(3, f"canonical duality on {len(shipped)} shipped frames "
               f"(worst reconstruction error {worst:.2e})", ok)


def test_criterion_4_best_approximation():
    """Projection error never beaten by random coefficient trials."""
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        m = int(rng.integers(1, 6))
        gens = rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        check = best_approx_check(span_projector(gens), h, trials=1000, rng=rng)
        ok &= check.proj_error <= check.min_trial_error + 1e-12
    _record(4, "best-approximation dominance over 20 projectors x 1000 trials", ok)


def test_criterion_5_trace_sandwich():
    """(1/B) sum <Th_k,h_k> <= tr T <= (1/A) sum, over 100 PSD x 10 frames on C^8."""
    rng = np.random.default_rng(505)
    operators = []
    for _ in range(100):
        W = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        operators.append(W @ W.conj().T / 8.0)
    frames = []
    for _ in range(10):
        m = int(rng.integers(8, 17))
        frames.append(rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m)))
    ok = True
    for T in operators:
        for V in frames:
            evals = np.linalg.eigvalsh(V @ V.conj().T)
            check = trace_bounds_check(T, V, float(evals[0]), float(evals[-1]))
            ok &= check.ok
    # equality case: against an orthonormal basis the quadratic sum IS the trace
    onb = np.eye(8, dtype=complex)
    for T in operators:
        check = trace_bounds_check(T, onb, 1.0, 1.0)
        ok &= abs(check.sum - check.trace) <= 1e-12
    _record(5, "trace sandwich on 1000 operator/frame pairs + ONB equality", ok)


def _hap_scenario(frame, f, epsilon):
    group = frame.rep.group
    k_radii, l_radii = [0, 1, 2], list(range(9))
    return HapScenario(
        frame=frame,
        f=f,
        epsilon=epsilon,
        U=group.ball(1),
        K_family=[group.ball(r) for r in k_radii],
        L_family=[group.ball(r) for r in l_radii],
        k_labels=k_radii,
        l_labels=l_radii,
    )


def test_criterion_6_homogeneous_approximation():
    """find_L certifies uniformly over all 256 base points and the window family."""
    frame = full_gabor(16)
    vectors = {
        "dirac0": dirac_vector(16),
        "dirac0+dirac1": dirac_vector(16) + dirac_vector(16, 1),
        "gauss": periodized_gaussian(16),
    }
    # regression radii pinned from the exhaustive table run
    expected_radius = {
        (0.2, "dirac0"): 2, (0.2, "dirac0+dirac1"): 1, (0.2, "gauss"): 0,
        (0.05, "dirac0"): 2, (0.05, "dirac0+dirac1"): 2, (0.05, "gauss"): 0,
    }
    ok = True
    chosen = []
    for epsilon in (0.2, 0.05):
        for name, f in vectors.items():
            cert = find_L(_hap_scenario(frame, f, epsilon))
            ok &= cert.worst_error < epsilon
            ok &= len(cert.table) == 3 * 9 * 256
            ok &= cert.chosen_l_label == expected_radius[(epsilon, name)]
            bounds = {c.l_label: c.theoretical_bound for c in cert.candidates}
            per_cell = {}
            for cell in cert.table:
                ok &= not cell.boundary
                ok &= cell.error <= bounds[cell.l_label] + 1e-9
                per_cell.setdefault((cell.y, cell.k_label), []).append(
                    (cell.l_label, cell.error))
            for history in per_cell.values():
                history.sort()
                for (_, before), (_, after) in zip(history, history[1:]):
                    ok &= after <= before + 1e-12
            chosen.append(f"eps={epsilon}/{name}->L={cert.chosen_l_label}")
    _record(6, "uniform approximation certified on full Gabor Z16 (" + ", ".join(chosen) + ")",
            ok)


def test_criterion_7_comparison_theorem():
    """Counting chain and final inequality over all base points and windows."""
    gabor = full_gabor(8)
    gabor_group = gabor.rep.group
    dirac_line = coherent_frame(
        gabor.rep, dirac_vector(8), point_set(gabor_group, [(k, 0) for k in range(8)])
    )
    onb = dirac_onb_z8()
    pairs = [
        ("gabor-vs-dirac", gabor, dirac_line),
        ("gabor-vs-gabor", gabor, gabor),
        ("dirac-vs-dirac", onb, onb),
    ]
    ok = True
    total = 0
    for name, given, reference in pairs:
        group = given.rep.group
        for epsilon in (0.5, 0.1):
            scenario = ComparisonScenario(
                given=given,
                reference=reference,
                epsilon=epsilon,
                U=group.ball(1),
                K_family=[group.ball(r) for r in (0, 1, 2)],
                L_family=[group.ball(r) for r in range(5)],
                k_labels=[0, 1, 2],
                l_labels=list(range(5)),
            )
            for cert in comparison_run(scenario):
                total += len(cert.columns["ok"])
                c = cert.columns
                for trace, rank, card_x, lhs, chain_ok, final_ok, cell_ok in zip(
                    c["trace_T"], c["rank_P"], c["card_X"], c["lhs"], c["chain_ok"],
                    c["final_ok"], c["ok"], strict=True,
                ):
                    ok &= trace <= rank + 1e-9
                    ok &= rank <= card_x
                    ok &= lhs <= card_x + 1e-9
                    ok &= chain_ok and final_ok and cell_ok
    _record(7, f"comparison chain and final inequality on {total} cells", ok)


def test_criterion_8_determinism():
    """The full shipped suite run twice produces identical canonical JSON."""
    scenarios = load_scenarios(SUITE)
    first = run(scenarios, parallelism=1)
    second = run(scenarios, parallelism=2)

    def strip(reports):
        return [{k: v for k, v in r.items() if k != "timestamp"} for r in reports]

    identical = canonical_json(strip(first)) == canonical_json(strip(second))
    hashes = all(
        a["determinism_sha256"] == b["determinism_sha256"] for a, b in zip(first, second)
    )
    all_pass = all(r["ok"] for r in first)
    _record(8, f"determinism across reruns and parallelism ({len(first)} scenarios, "
               f"all ok={all_pass})", identical and hashes and all_pass)
