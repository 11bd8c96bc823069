import tracemalloc

import numpy as np
import pytest

from framecert.amalgam import (
    GroupFunction,
    amalgam_norm,
    dirac_function,
    group_function,
    local_max,
    sampling_bound_check,
    tail_mass,
)
from framecert.groups import (
    GroupModel,
    NonSymmetricNeighborhood,
    OutOfCarrier,
    compact_set,
    full_point_set,
    measure,
    point_set,
    separation_constant,
)


@pytest.fixture
def z8():
    return GroupModel.cyclic([8])


def _brute_local_max(f, U):
    """Definition-level oracle: scan each window by explicit composition."""
    group = f.group
    out = np.zeros(group.order)
    for i, x in enumerate(group.carrier):
        out[i] = max(abs(f.values[group.index(group.compose(x, u))]) for u in U.members)
    return out


def test_local_max_examples(z8):
    d0 = dirac_function(z8, 0)
    assert np.array_equal(local_max(d0, z8.ball(1)).values, [1, 1, 0, 0, 0, 0, 0, 1])
    f = group_function(z8, np.array([1.0, 2, 0, 0, 0, 0, 0, 0]))
    assert np.array_equal(local_max(f, z8.ball(0)).values, np.abs(f.values))
    expected = _brute_local_max(f, z8.ball(1))
    assert np.array_equal(expected, [2, 2, 2, 0, 0, 0, 0, 1])
    assert np.array_equal(local_max(f, z8.ball(1)).values, expected)


def test_local_max_matches_oracle_randomized():
    rng = np.random.default_rng(4)
    for group in (GroupModel.cyclic([12]), GroupModel.cyclic([4, 4])):
        for _ in range(10):
            f = GroupFunction(group, rng.standard_normal(group.order)
                              + 1j * rng.standard_normal(group.order))
            U = group.ball(int(rng.integers(0, 3)))
            assert np.allclose(local_max(f, U).values, _brute_local_max(f, U))


def test_local_max_rejects_nonsymmetric(z8):
    with pytest.raises(NonSymmetricNeighborhood):
        local_max(dirac_function(z8, 0), compact_set(z8, [0, 1]))


def test_pointwise_domination(z8):
    rng = np.random.default_rng(5)
    f = GroupFunction(z8, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for r in (0, 1, 2):
        U = z8.ball(r)
        sharp = local_max(f, U)
        assert np.all(sharp.values >= np.abs(f.values) - 1e-15)
        # f#(x) >= |f(x_j)| whenever x_j lies in the window xU
        for x in z8.carrier:
            window = {z8.compose(x, u) for u in U.members}
            for xj in window:
                assert sharp.value_at(x) >= abs(f.value_at(xj)) - 1e-15


def test_amalgam_norm_examples(z8):
    assert amalgam_norm(dirac_function(z8, 0), z8.ball(1)) == pytest.approx(np.sqrt(3))
    zero = group_function(z8, np.zeros(8))
    assert amalgam_norm(zero, z8.ball(1)) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = GroupFunction(z8, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert amalgam_norm(f, z8.ball(2)) >= amalgam_norm(f, z8.ball(1)) - 1e-12


def test_tail_mass_examples(z8):
    d0 = dirac_function(z8, 0)
    U = z8.ball(1)
    assert tail_mass(d0, U, compact_set(z8, z8.carrier)) == 0.0
    empty = compact_set(z8, [])
    assert tail_mass(d0, U, empty) == pytest.approx(amalgam_norm(d0, U) ** 2)
    # L = {7,0,1}: L^c U = {1..7}, f# is the indicator of {7,0,1} -> mass 2
    assert tail_mass(d0, U, compact_set(z8, [7, 0, 1])) == pytest.approx(2.0)


def test_tail_mass_monotone_in_L(z8):
    rng = np.random.default_rng(7)
    f = GroupFunction(z8, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    U = z8.ball(1)
    tails = [tail_mass(f, U, z8.ball(r)) for r in range(5)]
    for smaller, larger in zip(tails, tails[1:]):
        assert larger <= smaller + 1e-12


def test_proof_step_inequality():
    """|f(x_j)|^2 <= (1/|U|) sum_{x in x_j U} f#(x)^2 for every point."""
    rng = np.random.default_rng(8)
    group = GroupModel.cyclic([16])
    for _ in range(20):
        f = GroupFunction(group, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        U = group.ball(int(rng.integers(0, 3)))
        sharp = local_max(f, U)
        X = point_set(group, rng.integers(0, 16, size=int(rng.integers(1, 17))))
        for xj in X.points:
            window = [group.compose(xj, u) for u in U.members]
            rhs = sum(sharp.value_at(x) ** 2 for x in window)
            assert abs(f.value_at(xj)) ** 2 <= rhs / measure(U) + 1e-12


def test_sampling_bound_examples(z8):
    d0 = dirac_function(z8, 0)
    X = full_point_set(z8)
    K0 = compact_set(z8, [0])
    check = sampling_bound_check(d0, X, K0, z8.ball(1))
    assert check.lhs == 0.0 and check.holds

    d1 = dirac_function(z8, 1)
    check = sampling_bound_check(d1, X, K0, z8.ball(1))
    assert check.C0 == 3
    assert check.C == pytest.approx(1.0)
    assert check.lhs == pytest.approx(1.0)
    assert check.rhs == pytest.approx(3.0)
    assert check.holds


def test_sampling_bound_randomized_z16():
    rng = np.random.default_rng(9)
    group = GroupModel.cyclic([16])
    for _ in range(100):
        f = GroupFunction(group, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        X = point_set(group, rng.integers(0, 16, size=int(rng.integers(1, 17))))
        K = compact_set(group, rng.integers(0, 16, size=int(rng.integers(0, 17))))
        U = group.ball(int(rng.integers(1, 3)))
        check = sampling_bound_check(f, X, K, U)
        assert check.holds
        assert check.C == pytest.approx(check.C0 / measure(U))


def test_sampling_bound_constant_is_sharp_from_the_derivation(z8):
    # the constant must be exactly C0/|U|, not anything looser
    X = point_set(z8, [0, 0, 4])
    U = z8.ball(1)
    check = sampling_bound_check(dirac_function(z8, 4), X, compact_set(z8, [0]), U)
    assert check.C0 == separation_constant(X, U)
    assert check.C == check.C0 / 3.0


def test_amalgam_on_box_group_raises_at_the_edge():
    box = GroupModel.box([2])
    f = dirac_function(box, 0)
    # radius-0 windows never leave the carrier
    assert np.array_equal(local_max(f, box.ball(0)).values, np.abs(f.values))
    with pytest.raises(OutOfCarrier):
        local_max(f, box.ball(1))


def test_group_function_length_validation(z8):
    with pytest.raises(ValueError):
        group_function(z8, np.zeros(5))


@pytest.mark.parametrize("n", [45, 46])
def test_first_window_scan_builds_no_carrier_sized_table(n):
    """|G| = 2025 and 2116 sit either side of where a |G| x |G| compose table
    (16 MB at 2025) once switched to per-element loops; neither side may
    allocate anything near that on the first scan."""
    group = GroupModel.cyclic([n, n])
    rng = np.random.default_rng(n)
    f = GroupFunction(group, rng.standard_normal(group.order))
    X = point_set(group, [group.carrier[i] for i in rng.integers(0, group.order, 64)])
    U = group.ball(1)
    tracemalloc.start()
    try:
        sharp = local_max(f, U)
        c0 = separation_constant(X, U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(sharp.values, _brute_local_max(f, U))
    assert 1 <= c0 <= len(X)
