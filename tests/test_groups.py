import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framecert.groups import (
    MAX_CARRIER_ORDER,
    CompactSet,
    GroupModel,
    NonSymmetricNeighborhood,
    OutOfCarrier,
    compact_set,
    complement,
    full_point_set,
    is_symmetric,
    measure,
    point_set,
    product_set,
    separation_constant,
    translate_set,
)
from framecert.representations import GaborRep


@pytest.fixture
def z8():
    return GroupModel.cyclic([8])


@pytest.fixture
def z4x4():
    return GroupModel.cyclic([4, 4])


def test_compose_examples(z8, z4x4):
    assert z8.compose(3, 6) == 1
    assert z4x4.compose((1, 2), (3, 3)) == (0, 1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = z8.carrier[rng.integers(0, 8)]
        assert z8.compose(z8.identity, x) == x
        assert z8.compose(x, z8.identity) == x


def test_inverse_examples(z8, z4x4):
    assert z8.inverse(3) == 5
    assert z4x4.inverse((1, 2)) == (3, 2)
    assert z8.inverse(z8.identity) == z8.identity
    for x in z8.carrier:
        assert z8.compose(x, z8.inverse(x)) == z8.identity


def test_ball_examples(z8, z4x4):
    assert z8.ball(1).members == frozenset({7, 0, 1})
    assert z8.ball(0).members == frozenset({0})
    assert len(z4x4.ball(1)) == 9


def test_ball_symmetry(z8, z4x4):
    for group in (z8, z4x4, GroupModel.cyclic([5]), GroupModel.box([2, 1])):
        for r in range(4):
            U = group.ball(r)
            assert group.identity in U
            assert is_symmetric(U)
            for x in U.members:
                assert group.inverse(x) in U


def test_product_set_examples(z8):
    z4 = GroupModel.cyclic([4])
    assert product_set(compact_set(z8, [0, 1]), compact_set(z8, [0, 1])).members == frozenset(
        {0, 1, 2}
    )
    K = compact_set(z8, [2, 5, 6])
    assert product_set(K, compact_set(z8, [0])).members == K.members
    assert product_set(compact_set(z4, [0, 2]), compact_set(z4, [0, 2])).members == frozenset(
        {0, 2}
    )


def test_product_monotonicity(z8):
    rng = np.random.default_rng(1)
    for _ in range(20):
        small = compact_set(z8, rng.choice(8, size=3, replace=False))
        big = compact_set(z8, set(small.members) | {int(rng.integers(0, 8))})
        L = compact_set(z8, rng.choice(8, size=2, replace=False))
        assert product_set(small, L).members <= product_set(big, L).members


def test_translate_examples(z8, z4x4):
    assert translate_set(3, compact_set(z8, [0, 1])).members == frozenset({3, 4})
    K = compact_set(z8, [1, 5])
    assert translate_set(z8.identity, K).members == K.members
    assert translate_set((1, 0), compact_set(z4x4, [(0, 0), (0, 1)])).members == frozenset(
        {(1, 0), (1, 1)}
    )


def test_left_invariance_of_measure(z8, z4x4):
    for group in (z8, z4x4):
        rng = np.random.default_rng(2)
        for _ in range(10):
            size = int(rng.integers(1, group.order))
            K = compact_set(group, [group.carrier[i] for i in rng.choice(group.order, size)])
            y = group.carrier[int(rng.integers(0, group.order))]
            assert measure(translate_set(y, K)) == measure(K)


def test_complement_examples():
    z4 = GroupModel.cyclic([4])
    assert complement(compact_set(z4, [0])).members == frozenset({1, 2, 3})
    assert complement(compact_set(z4, z4.carrier)).members == frozenset()
    assert complement(compact_set(z4, [])).members == frozenset(z4.carrier)


def test_measure_examples(z8, z4x4):
    assert measure(compact_set(z8, [7, 0, 1])) == 3.0
    assert measure(compact_set(z8, [])) == 0.0
    assert measure(compact_set(z4x4, z4x4.carrier)) == 16.0


def test_separation_examples(z8):
    assert separation_constant(full_point_set(z8), z8.ball(1)) == 3
    assert separation_constant(point_set(z8, [0]), z8.ball(1)) == 1
    assert separation_constant(point_set(z8, [0]), z8.ball(2)) == 1
    # exhaustive oracle over the 8 translates for the duplicated set {0, 0, 1}
    X = point_set(z8, [0, 0, 1])
    best = 0
    for x in z8.carrier:
        xU = {z8.compose(x, u) for u in z8.ball(1).members}
        best = max(best, sum(1 for p in X.points if p in xU))
    assert best == 3
    assert separation_constant(X, z8.ball(1)) == 3


def test_separation_definition_matches_indicator_sum():
    """sup_x card(X in xU) equals the sup norm of sum_j chi_{x_j U} for balls."""
    rng = np.random.default_rng(3)
    groups = [GroupModel.cyclic([12]), GroupModel.cyclic([4, 4])]
    for trial in range(50):
        group = groups[trial % 2]
        size = int(rng.integers(1, 2 * group.order))
        X = point_set(group, [group.carrier[i] for i in rng.integers(0, group.order, size)])
        U = group.ball(int(rng.integers(0, 3)))
        indicator_sum = np.zeros(group.order, dtype=int)
        for p in X.points:
            for u in U.members:
                indicator_sum[group.index(group.compose(p, u))] += 1
        assert separation_constant(X, U) == int(indicator_sum.max())


def test_separation_rejects_nonsymmetric(z8):
    lopsided = compact_set(z8, [0, 1])
    with pytest.raises(NonSymmetricNeighborhood):
        separation_constant(full_point_set(z8), lopsided)
    no_identity = compact_set(z8, [1, 7])
    with pytest.raises(NonSymmetricNeighborhood):
        separation_constant(full_point_set(z8), no_identity)


def test_box_group_boundary_policy():
    box = GroupModel.box([2])
    assert box.compose(-1, 1) == 0
    assert box.inverse(2) == -2
    with pytest.raises(OutOfCarrier):
        box.compose(2, 1)
    with pytest.raises(OutOfCarrier):
        product_set(compact_set(box, [1, 2]), compact_set(box, [1]))
    with pytest.raises(OutOfCarrier):
        translate_set(2, compact_set(box, [1]))
    assert box.ball(1).members == frozenset({-1, 0, 1})
    assert separation_constant(full_point_set(box), box.ball(1)) == 3


def test_canon_and_haar(z8, z4x4):
    assert z8.canon(11) == 3
    assert z4x4.canon((5, -1)) == (1, 3)
    assert measure(z8.ball(1)) == 3.0
    assert measure(compact_set(z4x4, z4x4.carrier)) == 16.0


# Carriers above the bound, each rejected before anything is allocated: a
# modulus of 2^33 alone would ask numpy for 64 GiB.
_OVERSIZED = {
    "cyclic-2^33": lambda: GroupModel.cyclic([2**33]),
    "gabor-2^11": lambda: GaborRep(2**11),
    "box": lambda: GroupModel.box([2**19, 2**40]),
}


@pytest.mark.parametrize("make", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_a_carrier_above_the_bound_is_a_value_error(make):
    with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_CARRIER_ORDER}"):
        make()


def test_diameter(z8, z4x4):
    assert z8.diameter == 4
    assert z4x4.diameter == 2
    assert GroupModel.box([3]).diameter == 3


# -- the vectorised group law against a per-element reference ----------------


class _ReferenceLaw:
    """Per-element group law on coordinate tuples; None marks a box escape."""

    def __init__(self, kind, sizes):
        self.kind, self.sizes = kind, tuple(sizes)
        if kind == "cyclic":
            axes = [range(n) for n in sizes]
        else:
            axes = [range(-m, m + 1) for m in sizes]
        self.carrier = list(itertools.product(*axes))

    def _reduce(self, coords):
        if self.kind == "cyclic":
            return tuple(c % n for c, n in zip(coords, self.sizes))
        if all(-m <= c <= m for c, m in zip(coords, self.sizes)):
            return tuple(coords)
        return None

    def compose(self, a, b):
        return self._reduce([x + y for x, y in zip(a, b)])

    def inverse(self, a):
        return self._reduce([-x for x in a])

    def metric(self, a):
        if self.kind == "cyclic":
            return max(min(c, n - c) for c, n in zip(a, self.sizes))
        return max(abs(c) for c in a)


_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def _groups(draw):
    kind = draw(st.sampled_from(["cyclic", "box"]))
    rank = draw(st.integers(1, 3))
    bounds = (1, 6) if kind == "cyclic" else (0, 3)
    sizes = draw(st.lists(st.integers(*bounds), min_size=rank, max_size=rank))
    return GroupModel(kind, sizes), _ReferenceLaw(kind, sizes)


@st.composite
def _groups_with_positions(draw, arrays=3):
    group, ref = draw(_groups())
    size = draw(st.integers(1, 12))
    positions = st.lists(st.integers(0, group.order - 1), min_size=size, max_size=size)
    return group, ref, [np.array(draw(positions), dtype=np.int64) for _ in range(arrays)]


def _rows(group, coords):
    return [tuple(row) for row in np.asarray(coords).reshape(-1, group.rank).tolist()]


@_PROPERTY_SETTINGS
@given(_groups())
def test_carrier_order_and_positions_match_reference(case):
    group, ref = case
    assert _rows(group, group.coords) == ref.carrier
    assert np.array_equal(group.index(group.coords), np.arange(group.order))
    for p, x in enumerate(group.carrier):
        assert group.index(x) == p


@_PROPERTY_SETTINGS
@given(_groups_with_positions())
def test_vectorised_compose_matches_reference_rowwise(case):
    group, ref, (p, q, _) = case
    a, b = group.coords[p], group.coords[q]
    expected = [ref.compose(x, y) for x, y in zip(_rows(group, a), _rows(group, b))]
    positions, inside = group.multiply_masked(p, q)
    assert inside.tolist() == [e is not None for e in expected]
    for pos, ok, e in zip(positions.tolist(), inside.tolist(), expected):
        if ok:
            assert ref.carrier[pos] == e
    if all(e is not None for e in expected):
        assert _rows(group, group.compose(a, b)) == expected
        assert np.array_equal(group.multiply(p, q), positions)
    else:
        with pytest.raises(OutOfCarrier):
            group.compose(a, b)
        with pytest.raises(OutOfCarrier):
            group.multiply(p, q)


@_PROPERTY_SETTINGS
@given(_groups_with_positions())
def test_single_element_compose_escapes_exactly_where_reference_does(case):
    group, ref, (p, q, _) = case
    for i, j in zip(p.tolist(), q.tolist()):
        x, y = group.carrier[i], group.carrier[j]
        expected = ref.compose(ref.carrier[i], ref.carrier[j])
        if expected is None:
            with pytest.raises(OutOfCarrier):
                group.compose(x, y)
        else:
            assert group.compose(x, y) == group._from_coords(expected)


@_PROPERTY_SETTINGS
@given(_groups_with_positions())
def test_associativity_where_defined(case):
    group, ref, (p, q, r) = case
    ab, in_ab = group.multiply_masked(p, q)
    bc, in_bc = group.multiply_masked(q, r)
    ab_c, in_ab_c = group.multiply_masked(ab, r)
    a_bc, in_a_bc = group.multiply_masked(p, bc)
    defined = in_ab & in_bc & in_ab_c & in_a_bc
    assert np.array_equal(ab_c[defined], a_bc[defined])
    x, y, z = ([ref.carrier[i] for i in idx.tolist()] for idx in (p, q, r))
    for k, (xk, yk, zk) in enumerate(zip(x, y, z)):
        left, right = ref.compose(xk, yk), ref.compose(yk, zk)
        ref_defined = (left is not None and right is not None
                       and ref.compose(left, zk) is not None
                       and ref.compose(xk, right) is not None)
        assert bool(defined[k]) == ref_defined
    if group.kind == "cyclic":
        assert defined.all()


@_PROPERTY_SETTINGS
@given(_groups())
def test_identity_and_inverses(case):
    group, ref = case
    coords = group.coords
    identity = np.zeros(group.rank, dtype=np.int64)
    assert np.array_equal(group.compose(coords, identity), coords)
    assert np.array_equal(group.compose(identity, coords), coords)
    inverses = group.inverse(coords)
    assert _rows(group, inverses) == [ref.inverse(x) for x in ref.carrier]
    assert not np.any(group.compose(coords, inverses))
    assert np.array_equal(group.inverse(inverses), coords)
    assert group.metric(coords).tolist() == [ref.metric(x) for x in ref.carrier]


@_PROPERTY_SETTINGS
@given(_groups(), st.integers(0, 4))
def test_balls_are_symmetric_and_match_reference(case, radius):
    group, ref = case
    U = group.ball(radius)
    expected = [x for x in ref.carrier if ref.metric(x) <= radius]
    assert _rows(group, group.coords[U.positions()]) == expected
    assert group.identity in U
    assert is_symmetric(U)


@_PROPERTY_SETTINGS
@given(_groups(), st.integers(0, 3), st.integers(0, 3))
def test_ball_products_add_radii(case, a, b):
    group, ref = case
    products = {ref.compose(x, y) for x in ref.carrier if ref.metric(x) <= a
                for y in ref.carrier if ref.metric(y) <= b}
    if None in products:
        with pytest.raises(OutOfCarrier):
            product_set(group.ball(a), group.ball(b))
    else:
        assert product_set(group.ball(a), group.ball(b)) == group.ball(a + b)


def test_one_dimensional_array_is_one_element(z8, z4x4):
    # A 1-D array of length rank is one element, like a tuple; coordinate
    # arrays (batches) have at least two axes.
    assert z4x4.canon(np.array([5, 6])) == (1, 2)
    assert z4x4.index(np.array([1, 2])) == z4x4.index((1, 2))
    assert z8.canon(np.array([11])) == 3
    assert z8.index(np.array([3])) == 3
    assert z4x4.contains(np.array([1, 2]))
    assert np.array([1, 2]) in z4x4.ball(2)
    batch = np.zeros((5, 2), dtype=np.int64)
    assert z4x4.canon(batch).shape == (5, 2)
    assert not z4x4.contains(batch)
    assert batch not in z4x4.ball(1)


@pytest.mark.parametrize("element", [(1.5, 2), (1.9, 2), (1.0, 2), (True, 2), (np.True_, 2),
                                     np.array([1.5, 2.0]), np.array([True, False])])
def test_non_integer_coordinates_are_not_elements(z4x4, element):
    # int() used to truncate them: (1.5, 2) was (1, 2), and (True, 2) too.
    for method in (z4x4.index, z4x4.canon, z4x4.metric, lambda x: z4x4.compose(x, (0, 0))):
        with pytest.raises(ValueError, match="non-integer coordinates"):
            method(element)
    assert not z4x4.contains(element)
    assert element not in z4x4.ball(2)


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
def test_coordinate_arrays_need_an_integer_dtype(z4x4, dtype):
    batch = np.array([[1.5, 2.0], [0, 1]]).astype(dtype)
    with pytest.raises(ValueError, match=r"element .* has non-integer coordinates"):
        z4x4.index(batch)
    assert z4x4.index(np.array([[1, 2]], dtype=np.int32)).tolist() == [6]
    assert z4x4.index(np.zeros((0, 2), dtype=dtype)).size == 0
    z8 = GroupModel.cyclic([8])
    assert z8.index(np.uint8(3)) == 3 and z8.contains(7) and not z8.contains(7.0)


@pytest.mark.parametrize("element", [2**63, -2**63 - 1, 2**70, (2**63, 0), np.uint64(2**63)])
def test_coordinates_outside_signed_64_bit_are_not_elements(element):
    # They used to raise OverflowError, from contains and from `in` too.
    group = GroupModel.cyclic([8]) if np.ndim(element) == 0 else GroupModel.cyclic([8, 8])
    for method in (group.index, group.canon, group.metric):
        with pytest.raises(ValueError, match=r"outside the signed 64-bit range"):
            method(element)
    assert not group.contains(element)
    assert element not in group.ball(1)


@pytest.mark.parametrize("group", [GroupModel.cyclic([4, 4]), GroupModel.box([4, 4])],
                         ids=["cyclic", "box"])
def test_uint64_coordinate_arrays_are_rejected(group):
    # They used to pass as integers and give float positions: [6.] on Z4 x Z4.
    batch = np.array([[1, 2]], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"element \(1, 2\) has coordinates int64 cannot hold"):
        group.index(batch)
    assert not group.contains(batch)
    assert group.index(batch.astype(np.uint32)).tolist() == [group.index((1, 2))]
    assert group.index(np.zeros((0, 2), dtype=np.uint64)).size == 0


def test_the_most_negative_int64_is_not_in_a_box():
    # abs(-2**63) overflows to -2**63, which passed the box's |x| <= m test.
    box = GroupModel.box([2])
    assert not box.contains(-2**63)
    with pytest.raises(OutOfCarrier):
        box.index(np.array([[-2**63]]))
    assert GroupModel.cyclic([8]).index(-2**63) == 0


def test_escape_messages_name_the_first_escaping_pair():
    box = GroupModel.box([2, 2])
    with pytest.raises(OutOfCarrier, match=r"product of \(2, 0\) and \(1, 0\) escapes"):
        product_set(compact_set(box, [(0, 0), (1, 0)]), compact_set(box, [(2, 0), (0, 1)]))
    with pytest.raises(OutOfCarrier, match=r"product of \(0, 2\) and \(0, 1\) escapes"):
        translate_set((0, 2), compact_set(box, [(0, -1), (0, 0), (0, 1)]))
    with pytest.raises(OutOfCarrier, match=r"element \(3, 0\) lies outside"):
        box.canon(np.array([[0, 0], [3, 0], [4, 0]]))


def test_compact_set_constructor_needs_sorted_distinct_positions(z8):
    assert CompactSet(z8, [0, 2, 5]) == compact_set(z8, [5, 0, 2])
    for bad in ([2, 0], [0, 2, 2], [-1, 3], [3, 8], [[0, 1]]):
        with pytest.raises(ValueError):
            CompactSet(z8, bad)


# -- per-axis translates against the coordinate law ---------------------------


@st.composite
def _broadcast_positions(draw):
    """A group and two position operands of mutually broadcastable shapes;
    a 0-d operand is sometimes a plain int."""
    group, _ = draw(_groups())
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    elements = st.integers(0, group.order - 1)

    def operand(shape):
        if shape == () and draw(st.booleans()):
            return draw(elements)
        return draw(hnp.arrays(np.int64, shape, elements=elements))

    p, q = (operand(shape) for shape in shapes.input_shapes)
    return group, p, q, shapes.result_shape


@_PROPERTY_SETTINGS
@given(_broadcast_positions())
def test_multiply_masked_matches_compose_and_index(case):
    group, p, q, shape = case
    expected = np.zeros(shape, dtype=np.int64)
    expected_inside = np.ones(shape, dtype=bool)
    pairs = zip(np.broadcast_to(p, shape).ravel().tolist(),
                np.broadcast_to(q, shape).ravel().tolist())
    for k, (i, j) in enumerate(pairs):
        try:
            expected.flat[k] = group.index(group.compose(group.carrier[i], group.carrier[j]))
        except OutOfCarrier:  # escaped box products: position 0, masked out
            expected_inside.flat[k] = False

    positions, inside = group.multiply_masked(p, q)
    assert np.shape(positions) == shape and np.shape(inside) == shape
    assert np.asarray(positions).dtype == np.int64 and np.asarray(inside).dtype == bool
    assert np.array_equal(positions, expected)
    assert np.array_equal(inside, expected_inside)
    if expected_inside.all():
        assert np.array_equal(group.multiply(p, q), expected)
    else:
        with pytest.raises(OutOfCarrier):
            group.multiply(p, q)


def test_point_slots_list_each_positions_indices_ascending(z4x4):
    # (1, 2) three times, (0, 0) twice, (3, 3) once
    X = point_set(z4x4, [(1, 2), (0, 0), (1, 2), (3, 3), (0, 0), (1, 2)])
    slots = X.slots
    assert slots.shape == (z4x4.order, 3) and not slots.flags.writeable
    assert slots[z4x4.index((1, 2))].tolist() == [0, 2, 5]
    assert slots[z4x4.index((0, 0))].tolist() == [1, 4, -1]
    assert slots[z4x4.index((3, 3))].tolist() == [3, -1, -1]
    assert (slots[z4x4.index((2, 2))] == -1).all()
    assert X.slots is slots  # built once
    # position by position in the given order, duplicates kept
    at = z4x4.index(np.array([(3, 3), (2, 2), (1, 2), (0, 0)]))
    assert X.indices_at(at).tolist() == [3, 0, 2, 5, 1, 4]
    assert X.indices_at(at[::-1]).tolist() == [1, 4, 0, 2, 5, 3]
    assert X.indices_at(np.array([], dtype=np.int64)).tolist() == []


def test_point_slots_of_full_and_empty_point_sets(z8):
    full = full_point_set(z8)
    assert full.slots.tolist() == [[j] for j in range(8)]
    assert full.indices_at(np.array([5, 1, 5])).tolist() == [5, 1, 5]
    empty = point_set(z8, [])
    assert empty.slots.shape == (8, 0)
    assert empty.indices_at(z8.all_positions).tolist() == []


@_PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 7), max_size=20), st.lists(st.integers(0, 7), max_size=10))
def test_indices_at_matches_a_scan_of_the_point_list(points, at):
    X = point_set(GroupModel.cyclic([8]), points)
    expected = [j for p in at for j, x in enumerate(points) if x == p]
    assert X.indices_at(np.array(at, dtype=np.int64)).tolist() == expected


# -- rejections ------------------------------------------------------------------

_Z4, _OTHER_Z4 = GroupModel.cyclic([4]), GroupModel.cyclic([4])
_GROUP_REJECTIONS = {
    "no-coordinates": lambda: GroupModel("cyclic", []),
    "cyclic-modulus-zero": lambda: GroupModel.cyclic([4, 0]),
    "box-halfwidth-negative": lambda: GroupModel.box([2, -1]),
    "unknown-kind": lambda: GroupModel("torus", [4]),
    "ball-radius-negative": lambda: _Z4.ball(-1),
    "product-across-groups": lambda: product_set(_Z4.ball(1), _OTHER_Z4.ball(1)),
    "coordinates-of-another-rank": lambda: _Z4.index(np.zeros((3, 2), dtype=np.int64)),
}


@pytest.mark.parametrize("build", _GROUP_REJECTIONS.values(), ids=_GROUP_REJECTIONS.keys())
def test_invalid_group_arguments_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
