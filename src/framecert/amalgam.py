"""Local maximum functions, amalgam norms, tail masses, and the sampling bound.

For a function f on the carrier and a symmetric ball U, the local maximum
function is f#(x) = max_{y in xU} |f(y)|.  Its l2 norm under counting
measure is the amalgam norm; the portion of its squared mass living on (L^c)U is the tail
mass.  The sampling bound certified here states that for a relatively
separated point set X = {x_j} and any compact K,

    sum_{x_j not in K} |f(x_j)|^2  <=  (C0 / |U|) * sum_{x in K^c U} f#(x)^2,

where C0 is the separation constant of X relative to U.  Tail masses use the
squared integrand throughout (reported as convention "squared").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framecert.groups import (
    CompactSet,
    GroupModel,
    OutOfCarrier,
    PointSet,
    complement,
    measure,
    product_set,
    require_symmetric_ball,
    separation_constant,
    window_reduce,
)

# Tail masses integrate the squared local maximum function.
TAIL_INTEGRAND_CONVENTION = "squared"


@dataclass
class GroupFunction:
    """Function on a group carrier; ``values`` follow carrier order."""

    group: GroupModel
    values: np.ndarray

    def value_at(self, x) -> complex:
        return self.values[self.group.index(x)]


def group_function(group: GroupModel, values) -> GroupFunction:
    values = np.asarray(values)
    if values.shape != (group.order,):
        raise ValueError(
            f"expected {group.order} values in carrier order, got shape {values.shape}"
        )
    return GroupFunction(group, values)


def dirac_function(group: GroupModel, x) -> GroupFunction:
    values = np.zeros(group.order)
    values[group.index(x)] = 1.0
    return GroupFunction(group, values)


def local_max(f: GroupFunction, U: CompactSet) -> GroupFunction:
    """Local maximum function f#(x) = max_{y in xU} |f(y)|.

    Raises OutOfCarrier if any window xU escapes a truncated carrier: values
    of f beyond the carrier are unknown, so the maximum cannot be certified.
    """
    require_symmetric_ball(U)
    group = f.group
    sharp, whole = window_reduce(np.abs(f.values), U, np.maximum)
    if not whole.all():
        raise OutOfCarrier(f"a neighborhood window escapes the carrier of {group!r}")
    return GroupFunction(group, sharp)


def amalgam_norm(f: GroupFunction, U: CompactSet) -> float:
    """l2 norm of the local maximum function under counting measure."""
    sharp = local_max(f, U)
    return float(np.sqrt(np.sum(sharp.values**2)))


def tail_mass(f: GroupFunction, U: CompactSet, L: CompactSet) -> float:
    """Squared mass of f# on the inflated complement (L^c)U."""
    return sharp_tail_mass(local_max(f, U), U, L)


def sharp_tail_mass(sharp: GroupFunction, U: CompactSet, L: CompactSet) -> float:
    """Squared mass on (L^c)U of an already computed local maximum function."""
    idx = product_set(complement(L), U).positions()
    return float(np.sum(sharp.values[idx] ** 2))


@dataclass(frozen=True)
class SamplingBoundCheck:
    lhs: float
    rhs: float
    C: float
    C0: int
    holds: bool


def sampling_bound_check(
    f: GroupFunction, X: PointSet, K: CompactSet, U: CompactSet
) -> SamplingBoundCheck:
    """Evaluate both sides of the sampling bound and report whether it holds.

    holds is lhs <= rhs * (1 + 1e-9); a False value would falsify the bound
    and is a reportable finding, not an exception.
    """
    c0 = separation_constant(X, U)
    c = c0 / measure(U)
    outside = X.positions()[~K.indicator[X.positions()]]
    # Left to right in point order; a pairwise np.sum would round differently.
    lhs = float(sum(np.abs(f.values[outside]) ** 2))
    rhs = c * tail_mass(f, U, K)
    return SamplingBoundCheck(lhs=lhs, rhs=rhs, C=c, C0=c0, holds=lhs <= rhs * (1 + 1e-9))
