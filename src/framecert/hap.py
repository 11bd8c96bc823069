"""Uniform local approximation certificates for coherent frames.

Given a frame {pi(x_j) g} with canonical dual {h_j}, a test vector f, and a
tolerance epsilon, the task is to find a compact set L such that for every
group element y and every window K of a configured ball family,

    max_{x in yK} || pi(x) f - P_{yKL} pi(x) f ||  <  epsilon,

where P_{yKL} projects onto span{h_j : x_j in yKL}.  On a finite carrier the
quantifiers over y and K are checked exhaustively, cell by cell, and the
certificate stores the full error table together with a closed-form tail
bound

    ( (C0 / |U|) * tail_mass(V_g f, U, L) / A )^(1/2)

that dominates every cell error, since the canonical dual's Bessel constant
is at most 1/A.  The candidate list for L is scanned smallest-first, so the
first success is also the minimal admissible candidate by monotonicity of
the error in L.

The projector a cell needs depends only on the set yKL, so the scan builds
one projector per base point y and distinct K.L set, shared by the (K, L)
pairs with that product.  Its generators are the duals of the points at
K.L's sorted positions translated by y, in that order (PointSet.indices_at):
the column order fixes the SVD's rounding, and with it every table float
and the determinism hashes.  The scan takes a block of base points at a
time, with each distinct set's projectors stacked over the block, and each
(K, L) pair takes one stacked product, residual and norm per block, each
y's slice laid out as a one-y product's operands.  BLAS rounds a column
differently in products of different widths (by up to ~1e-15 for complex
d x d @ d x n, d 4-32), so batching the windows of several K would move the
hashes, while stacking over y does not.  find_L scans every candidate for
the report's table; choose_L, for a comparison, scans each candidate's rows
only and stops at the first success.

The question needs a group: every translate yK and yKL, and every tail
window, must stay in the carrier, as it does on a product of cyclic groups.
A box truncation's products escape at its edges, so HapScenario rejects a
frame on one, and no cell is ever left out of the scan.

Building a HapScenario sets up the scan, none of which depends on y, so
find_L is two steps: scan_errors over any range of base points, and
certify over the pieces, which alone computes C0, V_g f's local maximum
function and the tail bounds; a comparison, through choose_L, computes
none of them.  find_L runs one range over the whole carrier; the runner
splits the carrier over worker processes and gets the same certificate:
choose_L's HapChoice plus the bounds and the (K, L) x y error array, which
HapCertificate.table lists as HapCell objects, built on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from framecert.amalgam import GroupFunction, local_max, sharp_tail_mass
from framecert.frames import FrameSystem, SpanProjector, span_projector
from framecert.groups import (
    CompactSet,
    GroupModel,
    PointSet,
    block_ranges,
    measure,
    product_set,
    require_symmetric_ball,
    separation_constant,
    translate_set,
)
from framecert.representations import apply_rep, carrier_orbit, voice_transform


class NoAdmissibleL(Exception):
    """No candidate met the tolerance; the candidate family is malformed.

    On a finite group the full carrier leaves only rounding in every cell
    (errors of 1e-15 to 6e-15 on full Gabor systems over Z16 and Z24), so
    this happens when the largest candidate falls short of the carrier or
    epsilon is down at that rounding level.
    """


def local_subspace(duals, X: PointSet, y, S: CompactSet) -> SpanProjector:
    """Projector onto span{h_j : x_j in yS}; empty selection gives the zero map."""
    duals = np.asarray(duals, dtype=complex)
    selected = np.flatnonzero(translate_set(y, S).indicator[X.positions()])
    return span_projector(duals[:, selected])


def hap_error(frame: FrameSystem, duals, f, y, K: CompactSet, L: CompactSet) -> float:
    """max_{x in yK} ||pi(x) f - P pi(x) f|| with P onto span{h_j : x_j in yKL}.

    OutOfCarrier propagates on truncated groups, where a window escapes;
    HapScenario takes no frame on one.
    """
    projector = local_subspace(duals, frame.points, y, product_set(K, L))
    targets = np.column_stack(
        [apply_rep(frame.rep, x, f) for x in translate_set(y, K).sorted_members()]
    )
    residual = targets - projector.apply(targets)
    return float(np.max(np.linalg.norm(residual, axis=0)))


def theoretical_tail_bound(
    frame: FrameSystem, lower_bound: float, f, U: CompactSet, L: CompactSet, C0: int
) -> float:
    """Tail bound ((C0/|U|) * tail_mass(V_g f, U, L) / A)^(1/2).

    Valid as a uniform upper bound for hap_error at every (y, K) when the
    dual family obeys the Bessel inequality with constant 1/A.
    """
    sharp = local_max(voice_transform(frame.rep, frame.window, f), U)
    return _tail_bound(sharp, U, L, C0, lower_bound)


def _tail_bound(sharp: GroupFunction, U: CompactSet, L: CompactSet, C0: int,
                lower_bound: float) -> float:
    """The tail bound from the local maximum function of V_g f."""
    c = C0 / measure(U)
    return float(np.sqrt(c * sharp_tail_mass(sharp, U, L) / lower_bound))


@dataclass
class HapScenario:
    """One approximation question: frame, test vector, tolerance, families;
    the duals are ``frame.analysis``'s.

    Built, it is also the question's cell scan, set up once: what
    scan_errors needs for any range of base points, none of which depends
    on y; C0 and the tail bounds are certify's.  A box carrier raises
    ValueError before any set-up, and a U that is not a symmetric ball
    raises NonSymmetricNeighborhood.
    """

    frame: FrameSystem
    f: np.ndarray
    epsilon: float
    U: CompactSet
    K_family: list[CompactSet]
    L_family: list[CompactSet]
    k_labels: list | None = None
    l_labels: list | None = None
    duals: np.ndarray = field(init=False)
    orbit: np.ndarray = field(init=False)  # row x is pi(x) f, for every carrier position x
    k_positions: list[np.ndarray] = field(init=False)
    kl_positions: list[np.ndarray] = field(init=False)  # the distinct K.L sets
    pairs: list[tuple[int, int, int]] = field(init=False)  # (K, L, K.L set) per table row

    def __post_init__(self) -> None:
        group = self.frame.rep.group
        if group.kind == "box":
            raise ValueError(f"the HAP needs a group, and the products of {group!r} "
                             "escape its carrier")
        self.duals = self.frame.analysis.canonical_dual
        if not 0 < self.epsilon < np.inf:  # also refuses nan
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not self.K_family:
            raise ValueError("K_family must be nonempty")
        if not self.L_family:
            raise ValueError("L_family must be nonempty")
        for smaller, larger in zip(self.L_family, self.L_family[1:]):
            if not smaller.issubset(larger):
                raise ValueError("L_family must be nested increasing")
        self.k_labels = family_labels(self.k_labels, self.K_family, "k_labels")
        self.l_labels = family_labels(self.l_labels, self.L_family, "l_labels")
        self.f = np.asarray(self.f, dtype=complex)

        self.orbit = carrier_orbit(self.frame.rep, self.f)
        self.frame.points.slots  # built here, so workers get it pickled with the points
        require_symmetric_ball(self.U)

        # Every (K, L) pair in table order, with the index of its K.L set among
        # the distinct ones.
        kl_index: dict[CompactSet, int] = {}
        self.pairs = [(ik, il, kl_index.setdefault(product_set(K, L), len(kl_index)))
                      for ik, K in enumerate(self.K_family)
                      for il, L in enumerate(self.L_family)]
        self.k_positions = [K.positions() for K in self.K_family]
        self.kl_positions = [kl.positions() for kl in kl_index]


def family_labels(labels, family, name: str) -> list:
    """One label per member of ``family``: its indices by default, else
    ``labels``, which must have the family's length."""
    if labels is None:
        return list(range(len(family)))
    if len(labels) != len(family):
        raise ValueError(f"{name} has {len(labels)} labels for {len(family)} sets")
    return labels


@dataclass(frozen=True)
class HapCell:
    """One cell of HapCertificate.table, the per-cell view of its columns;
    every cell is scanned, so none is boundary."""

    y: object
    k_label: object
    l_label: object
    error: float
    boundary: bool


@dataclass(frozen=True)
class HapCandidate:
    l_label: object
    worst_error: float
    theoretical_bound: float
    passed: bool
    domination_ok: bool


@dataclass(frozen=True, eq=False)
class HapChoice:
    """The chosen L of a question and its worst error, without the table."""

    chosen_index: int  # of the chosen L in the candidate family
    chosen_L: CompactSet
    chosen_l_label: object
    worst_error: float
    epsilon: float


@dataclass(frozen=True, eq=False)
class HapCertificate(HapChoice):
    """Outcome of the candidate scan: the choice, the chosen L's tail bound,
    C0, every candidate, and the full table as columns.

    Row r of ``errors`` is the table's r-th (K, L) pair, whose labels are
    ``pair_labels[r]``; column p is the base point at carrier position p of
    ``group``.
    """

    theoretical_bound: float
    separation: int
    candidates: list[HapCandidate]
    group: GroupModel
    pair_labels: list[tuple[object, object]]
    errors: np.ndarray  # (pairs, |G|)

    @property
    def table(self) -> list[HapCell]:
        """One HapCell per cell in (K, L, y) order, built from the columns on
        each access."""
        return [
            HapCell(y, k_label, l_label, error, False)
            for (k_label, l_label), row_errors in zip(self.pair_labels, self.errors.tolist())
            for y, error in zip(self.group.carrier, row_errors)
        ]


def scan_errors(scenario: HapScenario, start: int, stop: int, rows=None) -> np.ndarray:
    """Cell errors of the base points at carrier positions start..stop-1,
    with one row per (K, L) pair of the table, or per table row listed in
    ``rows``, and one column per base point.  Each y is independent of the
    others, so any split of the carrier into ranges or blocks gives the same
    columns.
    """
    group, points, duals = scenario.frame.rep.group, scenario.frame.points, scenario.duals
    pairs = scenario.pairs if rows is None else [scenario.pairs[row] for row in rows]
    rows_of_set: dict[int, list[int]] = {}  # the rows of each K.L set, in row order
    for row, (_, _, s) in enumerate(pairs):
        rows_of_set.setdefault(s, []).append(row)
    dim, widths = duals.shape[0], sum(len(k) for k in scenario.k_positions)
    errors = np.empty((len(pairs), stop - start))
    for first, last in block_ranges(start, stop, group.order + dim * (dim + widths)):
        # y.x for every y of the block and carrier position x
        translated = group.multiply_masked(np.arange(first, last)[:, None],
                                           group.all_positions[None, :])[0]
        # each y's (dim, |K|) targets laid out as one y's gather: BLAS rounds by layout
        targets = [scenario.orbit[translated[:, k]].transpose(0, 2, 1)
                   for k in scenario.k_positions]
        for s, set_rows in rows_of_set.items():
            projectors = np.stack([span_projector(duals[:, points.indices_at(ykl)]).matrix
                                   for ykl in translated[:, scenario.kl_positions[s]]])
            for row in set_rows:
                target = targets[pairs[row][0]]
                residual = target - np.matmul(projectors, target)
                # np.linalg.norm(residual, axis=0) per y, written out
                norms = np.sqrt((residual.conj() * residual).real.sum(axis=1))
                errors[row, first - start:last - start] = norms.max(axis=1)
    return errors


def certify(scenario: HapScenario, pieces: list[np.ndarray]) -> HapCertificate:
    """The certificate from scan_errors' pieces, which must cover every base
    point once, in carrier order.  The pieces are joined into the
    certificate's error columns as they are; each candidate is read off the
    rows of its L and given its tail bound."""
    errors = np.concatenate(pieces, axis=1)
    frame, U = scenario.frame, scenario.U
    separation = separation_constant(frame.points, U)
    sharp = local_max(voice_transform(frame.rep, frame.window, scenario.f), U)
    l_of_row = np.array([il for _, il, _ in scenario.pairs])
    candidates = []
    for il, L in enumerate(scenario.L_family):
        bound = _tail_bound(sharp, U, L, separation, frame.analysis.A)
        row_errors = errors[l_of_row == il]
        worst = float(row_errors.max())
        candidates.append(
            HapCandidate(
                l_label=scenario.l_labels[il],
                worst_error=worst,
                theoretical_bound=bound,
                passed=worst < scenario.epsilon,
                domination_ok=bool(np.all(row_errors <= bound + 1e-9)),
            )
        )
    choice = _first_success(scenario, [c.worst_error for c in candidates])
    return HapCertificate(
        **vars(choice),
        theoretical_bound=candidates[choice.chosen_index].theoretical_bound,
        separation=separation,
        candidates=candidates,
        group=frame.rep.group,
        pair_labels=[(scenario.k_labels[ik], scenario.l_labels[il])
                     for ik, il, _ in scenario.pairs],
        errors=errors,
    )


def _first_success(scenario: HapScenario, worst_errors) -> HapChoice:
    """The first candidate below epsilon, read off ``worst_errors`` (one per
    candidate, in family order) no further."""
    for il, worst in enumerate(worst_errors):
        if worst < scenario.epsilon:
            return HapChoice(il, scenario.L_family[il], scenario.l_labels[il], worst,
                             scenario.epsilon)
    raise NoAdmissibleL(
        f"no candidate among {scenario.l_labels} reached worst error < {scenario.epsilon}")


def choose_L(scenario: HapScenario) -> HapChoice:
    """find_L's chosen L and worst error, from the rows of one candidate at a
    time, smallest first, scanning none past the first success."""
    order = scenario.frame.rep.group.order
    worst_errors = (float(scan_errors(scenario, 0, order, [
        row for row, (_, l_index, _) in enumerate(scenario.pairs) if l_index == il]).max())
        for il in range(len(scenario.L_family)))
    return _first_success(scenario, worst_errors)


def find_L(scenario: HapScenario) -> HapCertificate:
    """Scan the candidate family smallest-first and certify the first success.

    Error tables are computed for *every* candidate (they are wanted in
    reports and for monotonicity checks), so the scan does not stop early.

    y is the outer loop (scan_errors), here as one range over the whole
    carrier; the runner may split the carrier into ranges and run them in
    worker processes, with the same table.  The table still lists cells in
    (K, L, y) order.
    """
    return certify(scenario, [scan_errors(scenario, 0, scenario.frame.rep.group.order)])
