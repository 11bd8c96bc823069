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

The projector a cell needs depends only on the set yKL, not on which K and L
produced it, so the scan runs y outermost and builds one projector per
distinct K.L set at each y; every (K, L) pair with that product reuses it.
Its generators are the duals of the points at K.L's sorted positions
translated by y, in that order (PointSet.indices_at): the column order fixes
the SVD's rounding, and with it every table float and the determinism
hashes.  Per y, one composition of y with the whole carrier gives every yK
and yKL, and each window's transported test vectors are gathered once.
Each (K, L) pair keeps its own residual product: BLAS rounds a column
differently in products of different widths (by up to ~1e-15 for complex
d x d @ d x n, d 4-32), so batching the windows of several K would move the
hashes.

The question needs a group: every translate yK and yKL, and every tail
window, must stay in the carrier, as it does on a product of cyclic groups.
A box truncation's products escape at its edges, so HapScenario rejects a
frame on one, and no cell is ever left out of the scan.

Building a HapScenario sets up everything that does not depend on y, so
find_L is two steps: scan_errors over any range of base points, and
certify over the pieces.  find_L runs one range over the whole carrier;
the runner splits the carrier over worker processes and gets the same
certificate.  The certificate keeps the table as the error array the scan
produced, one row per (K, L) pair and one column per base point;
HapCertificate.table lists the same cells as HapCell objects, built on
access for library callers.
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
    measure,
    product_set,
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
    the duals and the lower bound A are ``frame.analysis``'s.

    Built, it is also the question's cell scan, set up once: what
    scan_errors needs for any range of base points, and the tail bounds that
    certify reads.  None of it depends on the base point y.  The frame must
    act over a group: a box carrier raises ValueError before any set-up.
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
    lower_bound: float = field(init=False)
    transported: np.ndarray = field(init=False)  # pi(x) f for every carrier position x, as columns
    separation: int = field(init=False)
    bounds: list[float] = field(init=False)
    k_positions: list[np.ndarray] = field(init=False)
    kl_positions: list[np.ndarray] = field(init=False)  # the distinct K.L sets
    pairs: list[tuple[int, int, int]] = field(init=False)  # (K, L, K.L set) per table row

    def __post_init__(self) -> None:
        group = self.frame.rep.group
        if group.kind == "box":
            raise ValueError(f"the HAP needs a group, and the products of {group!r} "
                             "escape its carrier")
        analysis = self.frame.analysis
        self.duals, self.lower_bound = analysis.canonical_dual, analysis.A
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

        frame = self.frame
        self.transported = carrier_orbit(frame.rep, self.f).T
        frame.points.slots  # built here, so the scenario pickles it to workers with the points
        self.separation = separation_constant(frame.points, self.U)
        sharp = local_max(voice_transform(frame.rep, frame.window, self.f), self.U)
        self.bounds = [_tail_bound(sharp, self.U, L, self.separation, self.lower_bound)
                       for L in self.L_family]

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


@dataclass(eq=False)
class HapCertificate:
    """Outcome of the candidate scan: chosen set, worst error, and the full
    table as columns.

    Row r of ``errors`` is the table's r-th (K, L) pair, whose labels are
    ``pair_labels[r]``; column p is the base point at carrier position p of
    ``group``.
    """

    chosen_index: int  # of the chosen L in the candidate family
    chosen_L: CompactSet
    chosen_l_label: object
    worst_error: float
    theoretical_bound: float
    epsilon: float
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


def scan_errors(scenario: HapScenario, start: int, stop: int) -> np.ndarray:
    """Cell errors of the base points at carrier positions start..stop-1,
    with one row per (K, L) pair of the table and one column per base point.
    Each y is independent of the others, so any split of the carrier into
    ranges gives the same columns.
    """
    group, points = scenario.frame.rep.group, scenario.frame.points
    errors = np.zeros((len(scenario.pairs), stop - start))
    for column, yp in enumerate(range(start, stop)):
        # y.x for every carrier position x: each y.K and y.K.L is read off it.
        translated = group.multiply_masked(yp, group.all_positions)[0]
        targets = [scenario.transported[:, translated[k]] for k in scenario.k_positions]
        # Scoped to this y: keeping every y's projectors would hold
        # |G| x (distinct sets) dim x dim matrices at once.
        projectors: dict[int, np.ndarray] = {}
        for row, (ik, _, s) in enumerate(scenario.pairs):
            if s not in projectors:
                kl = scenario.kl_positions[s]
                # Columns follow K.L's sorted positions translated one by
                # one; the column order fixes the SVD's rounding, hence the
                # hashes.
                projectors[s] = span_projector(
                    scenario.duals[:, points.indices_at(translated[kl])]).matrix
            # One product per (K, L) pair: a column's rounding depends on the
            # width of the product it is computed in, so batching the targets
            # of several K into one product would move the hashes.
            residual = targets[ik] - projectors[s] @ targets[ik]
            # np.linalg.norm(residual, axis=0), written out
            errors[row, column] = np.sqrt((residual.conj() * residual).real.sum(axis=0)).max()
    return errors


def certify(scenario: HapScenario, pieces: list[np.ndarray]) -> HapCertificate:
    """The certificate from scan_errors' pieces, which must cover every base
    point once, in carrier order.  The pieces are joined into the
    certificate's error columns as they are; each candidate is read off the
    rows of its L."""
    errors = np.concatenate(pieces, axis=1)
    l_of_row = np.array([il for _, il, _ in scenario.pairs])
    candidates = []
    for il, bound in enumerate(scenario.bounds):
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
    chosen_index = next((il for il, c in enumerate(candidates) if c.passed), None)
    if chosen_index is None:
        raise NoAdmissibleL(
            f"no candidate among {scenario.l_labels} reached worst error < {scenario.epsilon}"
        )
    return HapCertificate(
        chosen_index=chosen_index,
        chosen_L=scenario.L_family[chosen_index],
        chosen_l_label=scenario.l_labels[chosen_index],
        worst_error=candidates[chosen_index].worst_error,
        theoretical_bound=scenario.bounds[chosen_index],
        epsilon=scenario.epsilon,
        separation=scenario.separation,
        candidates=candidates,
        group=scenario.frame.rep.group,
        pair_labels=[(scenario.k_labels[ik], scenario.l_labels[il])
                     for ik, il, _ in scenario.pairs],
        errors=errors,
    )


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
