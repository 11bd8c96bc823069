"""Finite groups with counting measure, metric balls, and compact-set algebra.

Two kinds of group are supported:

* products of cyclic groups ``Z_N1 x ... x Z_Nk``, where composition wraps
  modulo each ``N_i``, and
* bounded box truncations ``[-m_i, m_i]^k`` of ``Z^k``, where compositions
  that leave the carrier raise :class:`OutOfCarrier` instead of wrapping
  (silent wrapping would corrupt any boundary analysis built on top).  A
  box has no group law at its edges, so it serves the sampling bound and
  density tables, which mark escaping windows as boundary; the HAP and the
  comparison need a group, and HapScenario rejects a box.

The carrier is enumerated in row-major order of its coordinates, so an
element's position is a mixed-radix number and ``GroupModel.coords`` holds
all coordinates as one ``(|G|, rank)`` int array.  The group law (``canon``,
``compose``, ``inverse``, ``metric``, ``index``) takes either one element or
a coordinate array of shape ``(..., rank)``; the cyclic wrap and the box
escape rule live only in ``GroupModel._reduce``.  Hot paths (balls,
translates, product sets, window scans) work on position arrays, a block
of set members at a time, so no |G| x |G| table is ever built and
temporaries stay within BLOCK_ELEMENTS.  ``multiply_masked`` translates
position arrays axis by axis on 1-D arrays, through per-axis tables of
O(extent) entries read off ``_reduce``.  Elements as Python values -- plain ints
for rank-1 groups, tuples of ints otherwise -- appear only at the I/O
boundary: parsing scenarios and writing report rows.

The Haar measure is counting measure, so every "integral" below is a plain
sum and the measure of a set is its number of elements.  A carrier has at
most MAX_CARRIER_ORDER elements; a larger one raises ValueError before
anything is allocated.  Balls use the max metric with per-coordinate
cyclic distance ``min(d, N - d)`` on cyclic groups and ``|d|`` on boxes; both
choices make every ball symmetric and put the identity inside.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Element = int | tuple[int, ...]

# The most elements a carrier may have: enumerating one costs about 150 B per
# element, and the largest carrier in use or planned has 20,736 (Gabor Z_144).
MAX_CARRIER_ORDER = 2**20

# Elements of one block's temporaries in the batched scans (set members in
# window_reduce and product_set, base points in the HAP and comparison scans).
BLOCK_ELEMENTS = 2**14


def block_ranges(start: int, stop: int, per_item: int) -> list[tuple[int, int]]:
    """Ranges covering start..stop-1 in order, of at least one item each and
    at most BLOCK_ELEMENTS elements at ``per_item`` elements per item."""
    step = max(1, BLOCK_ELEMENTS // max(per_item, 1))
    return [(first, min(first + step, stop)) for first in range(start, stop, step)]


class OutOfCarrier(Exception):
    """A composition or translate left the carrier of a truncated group."""


class NonSymmetricNeighborhood(Exception):
    """The operation needs a symmetric neighborhood U = U^{-1} containing e."""


class GroupModel:
    """Finite group carrier with composition and metric balls."""

    def __init__(self, kind: str, sizes: Sequence[int]):
        sizes = tuple(int(s) for s in sizes)
        if not sizes:
            raise ValueError("at least one coordinate is required")
        if kind == "cyclic":
            if any(n < 1 for n in sizes):
                raise ValueError(f"cyclic moduli must be positive, got {sizes}")
            low, extents = (0,) * len(sizes), sizes
            self.moduli: tuple[int, ...] | None = sizes
            self.halfwidths: tuple[int, ...] | None = None
        elif kind == "box":
            if any(m < 0 for m in sizes):
                raise ValueError(f"box halfwidths must be nonnegative, got {sizes}")
            low, extents = tuple(-m for m in sizes), tuple(2 * m + 1 for m in sizes)
            self.moduli = None
            self.halfwidths = sizes
        else:
            raise ValueError(f"unknown group kind {kind!r}")
        order = math.prod(extents)  # a Python int: no overflow, no allocation
        if order > MAX_CARRIER_ORDER:
            raise ValueError(
                f"a carrier of {order} elements exceeds the limit of {MAX_CARRIER_ORDER}")
        self.kind = kind
        self.rank = len(sizes)
        self._sizes = np.array(sizes, dtype=np.int64)
        self._low = np.array(low, dtype=np.int64)
        self._strides = np.array(
            [int(np.prod(extents[i + 1:])) for i in range(self.rank)], dtype=np.int64
        )
        coords = np.indices(extents).reshape(self.rank, -1).T + self._low
        coords.flags.writeable = False
        self.coords: np.ndarray = coords
        self.carrier: tuple[Element, ...] = tuple(map(self._from_coords, coords.tolist()))
        self.all_positions = np.arange(len(self.carrier), dtype=np.int64)
        self.all_positions.flags.writeable = False
        self.identity: Element = 0 if self.rank == 1 else (0,) * self.rank
        self._balls: dict[int, CompactSet] = {}
        self._axes = tuple(self._axis(i, extent) for i, extent in enumerate(extents))

    def _axis(self, i: int, extent: int):
        """Translate tables of axis ``i``: the axis digit (coordinate minus its
        lowest value) of every carrier position, and for each sum of two digits
        the product's share of the position and whether the product stays in
        the carrier on this axis (None on cyclic groups, where it always does).

        The tables are read off ``_reduce``, so the wrap and the escape rule
        are not restated here.
        """
        digits = self.coords[:, i] - self._low[i]
        sums = np.zeros((2 * extent - 1, self.rank), dtype=np.int64)
        sums[:, i] = np.arange(2 * extent - 1) + 2 * self._low[i]
        reduced, inside = self._reduce(sums)
        share = (reduced[:, i] - self._low[i]) * self._strides[i]
        return digits, share, inside

    @classmethod
    def cyclic(cls, moduli: Sequence[int]) -> "GroupModel":
        return cls("cyclic", moduli)

    @classmethod
    def box(cls, halfwidths: Sequence[int]) -> "GroupModel":
        return cls("box", halfwidths)

    def __repr__(self) -> str:
        sizes = self.moduli if self.kind == "cyclic" else self.halfwidths
        return f"GroupModel({self.kind}, {sizes})"

    @property
    def order(self) -> int:
        return len(self.carrier)

    # -- the group law -------------------------------------------------------

    def _reduce(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Coordinates (..., rank) in carrier form, and the mask of rows in the carrier.

        The one place where the kinds differ: cyclic coordinates wrap modulo
        N, so every row is in and the mask is None; box coordinates never
        wrap, and a row outside [-m, m] is masked out.
        """
        if self.moduli is not None:
            return coords % self._sizes, None
        # two comparisons, not abs(): abs(-2**63) overflows to -2**63
        return coords, np.all((-self._sizes <= coords) & (coords <= self._sizes), axis=-1)

    def _from_coords(self, coords: Sequence[int]) -> Element:
        return coords[0] if self.rank == 1 else tuple(coords)

    def _out(self, coords: np.ndarray, element: bool):
        return self._from_coords(coords.tolist()) if element else coords

    def _checked(self, coords: np.ndarray, message) -> np.ndarray:
        """Carrier form of ``coords``; on an escape raises OutOfCarrier(message(row)),
        where ``row`` indexes the first coordinate row outside the carrier."""
        coords, inside = self._reduce(coords)
        if inside is not None and not inside.all():
            raise OutOfCarrier(message(np.unravel_index(np.argmin(inside), inside.shape)))
        return coords

    def _name(self, x, coords: np.ndarray, element: bool, row) -> Element:
        """``x`` if it is one element, else the element at index ``row`` of its
        coordinate array broadcast against the other operand."""
        if element and not isinstance(x, np.ndarray):
            return x
        row = row[len(row) - coords.ndim + 1:]
        row = tuple(min(r, n - 1) for r, n in zip(row, coords.shape))
        return self._from_coords(coords[row].tolist())

    def _carrier(self, x) -> tuple[np.ndarray, bool]:
        """Carrier-form coordinates of an element or a coordinate array
        (..., rank), and whether ``x`` was a single element.

        A coordinate array has at least two axes; a 1-D array is one element,
        like a tuple.  A coordinate that is not an integer (or is a bool), or
        lies outside the signed 64-bit range, raises ValueError; so does a
        coordinate array of uint64, which int64 cannot hold.
        """
        if isinstance(x, np.ndarray) and x.ndim >= 2:
            if x.shape[-1] != self.rank:
                raise ValueError(f"coordinate arrays need a last axis of {self.rank}")
            integer = x.dtype.kind in "iu"
            # an empty batch has no coordinate
            if x.size and not (integer and np.can_cast(x.dtype, np.int64)):
                first = self._from_coords(x.reshape(-1, self.rank)[0].tolist())
                problem = "coordinates int64 cannot hold" if integer else "non-integer coordinates"
                raise ValueError(f"element {first!r} has {problem} ({x.dtype})")
            coords, element = x, False
        else:
            x_coords = (x,) if isinstance(x, (int, float, np.generic)) else tuple(x)
            if len(x_coords) != self.rank:
                raise ValueError(f"element {x!r} has rank {len(x_coords)}, expected {self.rank}")
            for c in x_coords:  # a bool is an int, but no coordinate
                if type(c) is not int and not isinstance(c, np.integer):
                    raise ValueError(f"element {x!r} has non-integer coordinates")
                if not -2**63 <= c < 2**63:
                    raise ValueError(f"element {x!r} has a coordinate outside the signed "
                                     "64-bit range")
            coords, element = np.array(x_coords, dtype=np.int64), True
        return self._checked(
            coords,
            lambda row: f"element {self._name(x, coords, element, row)!r} lies outside the carrier",
        ), element

    def canon(self, x):
        """Carrier form of an element or coordinate array; wraps cyclic coordinates.

        Box coordinates outside the carrier raise :class:`OutOfCarrier`.
        """
        return self._out(*self._carrier(x))

    def compose(self, a, b):
        """Group product a.b of elements, or row-wise of coordinate arrays (broadcast).

        Raises OutOfCarrier when a box product escapes.
        """
        ca, ea = self._carrier(a)
        cb, eb = self._carrier(b)
        product = self._checked(
            ca + cb,
            lambda row: f"product of {self._name(a, ca, ea, row)!r} and "
            f"{self._name(b, cb, eb, row)!r} escapes the carrier",
        )
        return self._out(product, ea and eb)

    def inverse(self, a):
        coords, element = self._carrier(a)
        # -x stays in a symmetric box and wraps on a cyclic group.
        return self._out(self._reduce(-coords)[0], element)

    def metric(self, x):
        """Max-metric distance to the identity, per element or per coordinate row."""
        coords, element = self._carrier(x)
        if self.moduli is not None:
            coords = np.minimum(coords, self._sizes - coords)
        distance = np.abs(coords).max(axis=-1)
        return int(distance) if element else distance

    def _position(self, coords: np.ndarray) -> np.ndarray:
        """Mixed-radix positions of carrier coordinates (..., rank), summed axis by axis."""
        position = (coords[..., 0] - self._low[0]) * self._strides[0]
        for i in range(1, self.rank):
            position += (coords[..., i] - self._low[i]) * self._strides[i]
        return position

    def index(self, x):
        """Carrier position of an element, or positions of a coordinate array."""
        coords, element = self._carrier(x)
        positions = self._position(coords)
        return int(positions) if element else positions

    def contains(self, x) -> bool:
        """Whether ``x`` is one element of the carrier; a coordinate array is not."""
        try:
            return self._carrier(x)[1]
        except (OutOfCarrier, ValueError, TypeError):
            return False

    def multiply(self, p, q) -> np.ndarray:
        """Positions of x_p . x_q for position arrays (broadcast); raises on a box escape."""
        # compose gives one product as an element (an int or a tuple), hence atleast_1d
        return self._position(np.atleast_1d(self.compose(self.coords[p], self.coords[q])))

    def multiply_masked(self, p, q) -> tuple[np.ndarray, np.ndarray]:
        """Positions of x_p . x_q and the mask of products inside the carrier.

        Computed axis by axis on 1-D arrays: the two digits are added and the
        sum is looked up in the axis's translate tables.  Escaped products
        (box kind only) get position 0; callers use the mask.
        """
        position, inside = 0, None
        for digits, share, kept in self._axes:
            digit_sum = digits[p] + digits[q]
            position += share[digit_sum]
            if kept is not None:
                inside = kept[digit_sum] if inside is None else inside & kept[digit_sum]
        if inside is None:
            return position, np.ones(np.shape(position), dtype=bool)
        return np.where(inside, position, 0), inside

    # -- derived structure ---------------------------------------------------

    @property
    def diameter(self) -> int:
        return int(self.metric(self.coords).max())

    def ball(self, radius: int) -> "CompactSet":
        """Symmetric metric ball {x : metric(x, e) <= radius} around the identity."""
        radius = int(radius)
        if radius < 0:
            raise ValueError(f"ball radius must be nonnegative, got {radius}")
        if radius not in self._balls:
            positions = np.flatnonzero(self.metric(self.coords) <= radius)
            self._balls[radius] = CompactSet(self, positions)
        return self._balls[radius]

    def mask(self, positions) -> np.ndarray:
        """Boolean carrier mask that is True at ``positions``."""
        mask = np.zeros(self.order, dtype=bool)
        mask[positions] = True
        return mask


def _frozen(positions) -> np.ndarray:
    """A read-only int64 copy, so callers' arrays are neither aliased nor frozen."""
    positions = np.array(positions, dtype=np.int64)
    positions.flags.writeable = False
    return positions


class CompactSet:
    """Finite subset of a group carrier, held as its sorted distinct positions.

    The constructor takes those positions and rejects any other array; build
    a set from elements with :func:`compact_set` or from a carrier mask with
    :meth:`of_mask`.  ``members`` (a frozenset of elements) is derived on
    demand for callers that want elements.
    """

    def __init__(self, group: GroupModel, positions):
        positions = _frozen(positions)
        if positions.ndim != 1 or np.any(np.diff(positions) <= 0) or (
            len(positions) and not 0 <= positions[0] <= positions[-1] < group.order
        ):
            raise ValueError("CompactSet needs sorted distinct carrier positions")
        self.group = group
        self._positions = positions

    @classmethod
    def of_mask(cls, group: GroupModel, mask: np.ndarray) -> "CompactSet":
        return cls(group, np.flatnonzero(mask))

    def __repr__(self) -> str:
        return f"CompactSet({self.group!r}, {len(self)} members)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactSet):
            return NotImplemented
        return self.group is other.group and np.array_equal(self._positions, other._positions)

    def __hash__(self) -> int:
        return hash((id(self.group), self._positions.tobytes()))

    def __contains__(self, x) -> bool:
        return self.group.contains(x) and bool(self.indicator[self.group.index(x)])

    def __len__(self) -> int:
        return len(self._positions)

    @cached_property
    def indicator(self) -> np.ndarray:
        """Boolean carrier mask of the set."""
        mask = self.group.mask(self._positions)
        mask.flags.writeable = False
        return mask

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> list[Element]:
        carrier = self.group.carrier
        return [carrier[p] for p in self._positions.tolist()]

    def positions(self) -> np.ndarray:
        return self._positions

    def issubset(self, other: "CompactSet") -> bool:
        return self.group is other.group and bool(other.indicator[self._positions].all())


class PointSet:
    """Indexed list of group elements, held as carrier positions.

    Duplicates are allowed and indices are distinct.  ``points`` (the
    elements as a tuple) is derived on demand.
    """

    def __init__(self, group: GroupModel, points: Iterable = (), *, positions=None):
        self.group = group
        if positions is None:
            positions = [group.index(p) for p in points]
        self._positions = _frozen(positions)

    def __repr__(self) -> str:
        return f"PointSet({self.group!r}, {len(self)} points)"

    def __len__(self) -> int:
        return len(self._positions)

    @cached_property
    def points(self) -> tuple:
        carrier = self.group.carrier
        return tuple(carrier[p] for p in self._positions.tolist())

    def positions(self) -> np.ndarray:
        return self._positions

    def counts(self) -> np.ndarray:
        """Multiplicity of every carrier position in the point list."""
        return np.bincount(self._positions, minlength=self.group.order)

    @cached_property
    def slots(self) -> np.ndarray:
        """Point-slot table: row p lists the indices of the points at carrier
        position p ascending, padded with -1 to the largest multiplicity."""
        positions, counts = self._positions, self.counts()
        order = np.argsort(positions, kind="stable")
        rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        slots = np.full((self.group.order, counts.max(initial=0)), -1, dtype=np.int64)
        slots[positions[order], rank] = order
        slots.flags.writeable = False
        return slots

    def indices_at(self, positions) -> np.ndarray:
        """Indices of the points at ``positions``: position by position in the
        given order, each position's indices ascending, duplicates kept."""
        slots = self.slots[positions].ravel()
        return slots[slots >= 0]


def compact_set(group: GroupModel, members: Iterable) -> CompactSet:
    return CompactSet.of_mask(group, group.mask([group.index(x) for x in members]))


def point_set(group: GroupModel, points: Iterable) -> PointSet:
    return PointSet(group, points)


def full_point_set(group: GroupModel) -> PointSet:
    return PointSet(group, positions=group.all_positions)


def measure(K: CompactSet) -> float:
    """Haar measure of K: counting measure, the number of its elements."""
    return float(len(K))


def product_set(K: CompactSet, L: CompactSet) -> CompactSet:
    """Pointwise product set KL = {k.l}, a block of K at a time; on boxes,
    OutOfCarrier names the first escaping (k, l) in position order."""
    if K.group is not L.group:
        raise ValueError("product of sets from different groups")
    group = K.group
    k_positions, l_positions = K.positions(), L.positions()
    mask = np.zeros(group.order, dtype=bool)
    for first, stop in block_ranges(0, len(K), len(L)):
        mask[group.multiply(k_positions[first:stop, None], l_positions[None, :])] = True
    return CompactSet.of_mask(group, mask)


def translate_set(y, K: CompactSet) -> CompactSet:
    """Left translate yK; preserves Haar measure on cyclic groups."""
    group = K.group
    return CompactSet(group, np.sort(group.multiply(group.index(y), K.positions())))


def complement(K: CompactSet) -> CompactSet:
    return CompactSet.of_mask(K.group, ~K.indicator)


def is_symmetric(U: CompactSet) -> bool:
    group = U.group
    inverses = group.index(group.inverse(group.coords[U.positions()]))
    return bool(U.indicator[inverses].all())


def require_symmetric_ball(U: CompactSet) -> None:
    """Check U = U^{-1} and e in U, else raise NonSymmetricNeighborhood."""
    if U.group.identity not in U or not is_symmetric(U):
        raise NonSymmetricNeighborhood(
            "a symmetric neighborhood U = U^{-1} containing the identity is required"
        )


def window_reduce(values: np.ndarray, S: CompactSet, ufunc, at=None):
    """``ufunc``-reduce ``values`` over every window xS, for x at positions ``at``.

    ``at`` defaults to the whole carrier.  One gather and one ``ufunc.reduce``
    per block of S's members; the callers' reductions (np.maximum of |f|,
    np.add of integer counts) are exact, so blocks do not change them.
    Returns the reductions (starting from zero) and the mask of the x whose
    window stays in the carrier; members that escape a truncated carrier are
    left out of the reduction.
    """
    group = S.group
    at = group.all_positions if at is None else at
    members = S.positions()
    acc = np.zeros(len(at), dtype=values.dtype)
    whole = np.ones(len(at), dtype=bool)
    for first, stop in block_ranges(0, len(members), len(at)):
        shifted, inside = group.multiply_masked(at[None, :], members[first:stop, None])
        ufunc(acc, ufunc.reduce(values[shifted], axis=0, where=inside, initial=0), out=acc)
        whole &= inside.all(axis=0)
    return acc, whole


def separation_constant(X: PointSet, U: CompactSet) -> int:
    """Largest number of points of X, counted with multiplicity, in any translate xU.

    For symmetric U this equals the sup norm of sum_j chi_{x_j U}; symmetry is
    enforced so both readings agree.
    """
    require_symmetric_ball(U)
    totals, _ = window_reduce(X.counts(), U, np.add)
    return int(totals.max())
