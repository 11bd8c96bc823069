"""Uniform local approximation certificates for coherent frames.

Given a frame {pi(x_j) g} with dual family {h_j}, a test vector f, and a
tolerance epsilon, the task is to find a compact set L such that for every
group element y and every window K of a configured ball family,

    max_{x in yK} || pi(x) f - P_{yKL} pi(x) f ||  <  epsilon,

where P_{yKL} projects onto span{h_j : x_j in yKL}.  On a finite carrier the
quantifiers over y and K are checked exhaustively, cell by cell, and the
certificate stores the full error table together with a closed-form tail
bound

    ( (C0 / |U|) * tail_mass(V_g f, U, L) / A )^(1/2)

that dominates every cell error whenever the dual family's Bessel constant is
at most 1/A (true for the canonical dual).  The candidate list for L is
scanned smallest-first, so the first success is also the minimal admissible
candidate by monotonicity of the error in L.

The projector a cell needs depends only on the set yKL, not on which K and L
produced it, so the scan runs y outermost and builds one projector per
distinct K.L set at each y; every (K, L) pair with that product reuses it.
Its generators are the duals of K.L's sorted positions translated by y, in
that order: the column order fixes the SVD's rounding, and with it every
table float and the determinism hashes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framecert.amalgam import GroupFunction, local_max, sharp_tail_mass
from framecert.frames import FrameSystem, SpanProjector, span_projector
from framecert.groups import (
    CompactSet,
    OutOfCarrier,
    PointSet,
    measure,
    product_set,
    separation_constant,
    translate_set,
)
from framecert.representations import apply_rep, voice_transform


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
    return span_projector(duals[:, selected], dim=duals.shape[0])


def hap_error(frame: FrameSystem, duals, f, y, K: CompactSet, L: CompactSet) -> float:
    """max_{x in yK} ||pi(x) f - P pi(x) f|| with P onto span{h_j : x_j in yKL}.

    OutOfCarrier propagates on truncated groups; boundary cells are the
    caller's to report, never to skip silently.
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
    """The tail bound from the local maximum function of V_g f; raises
    OutOfCarrier when the tail domain (L^c)U escapes a truncated carrier."""
    c = C0 / measure(U)
    return float(np.sqrt(c * sharp_tail_mass(sharp, U, L) / lower_bound))


@dataclass
class HapScenario:
    """One approximation question: frame with duals, test vector, tolerance, families."""

    frame: FrameSystem
    duals: np.ndarray
    lower_bound: float
    f: np.ndarray
    epsilon: float
    U: CompactSet
    K_family: list[CompactSet]
    L_family: list[CompactSet]
    k_labels: list | None = None
    l_labels: list | None = None
    dual_label: str = "canonical"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.K_family:
            raise ValueError("K_family must be nonempty")
        if not self.L_family:
            raise ValueError("L_family must be nonempty")
        for smaller, larger in zip(self.L_family, self.L_family[1:]):
            if not smaller.issubset(larger):
                raise ValueError("L_family must be nested increasing")
        if self.k_labels is None:
            self.k_labels = list(range(len(self.K_family)))
        if self.l_labels is None:
            self.l_labels = list(range(len(self.L_family)))
        self.duals = np.asarray(self.duals, dtype=complex)
        self.f = np.asarray(self.f, dtype=complex)


@dataclass(frozen=True)
class HapCell:
    y: object
    k_label: object
    l_label: object
    error: float | None
    boundary: bool


@dataclass(frozen=True)
class HapCandidate:
    l_label: object
    worst_error: float | None
    theoretical_bound: float | None
    passed: bool
    domination_ok: bool


@dataclass
class HapCertificate:
    """Outcome of the candidate scan: chosen set, worst error, and full table."""

    chosen_L: CompactSet
    chosen_l_label: object
    worst_error: float
    theoretical_bound: float | None
    epsilon: float
    separation: int
    passed: bool
    table: list[HapCell]
    candidates: list[HapCandidate]
    dual_label: str


def _translate(group, yp: int, positions: np.ndarray) -> np.ndarray | None:
    """Positions of y.S for y at carrier position ``yp``, in the order of S's
    positions; None when y.S escapes a truncated carrier."""
    translated, inside = group.multiply_masked(yp, positions)
    return translated if inside.all() else None


def find_L(scenario: HapScenario) -> HapCertificate:
    """Scan the candidate family smallest-first and certify the first success.

    Error tables are computed for *every* candidate (they are wanted in
    reports and for monotonicity checks), so the scan does not stop early.
    Cells whose windows escape a truncated carrier are marked boundary and
    excluded from the pass/fail aggregate.

    y is the outer loop: at each y one projector is built per distinct K.L
    set whose translate yKL stays in the carrier, from the duals at K.L's
    sorted positions translated one by one (the column order pins the
    hashes), and only that y's projectors are held.  The table still lists
    cells in (K, L, y) order.
    """
    frame = scenario.frame
    group = frame.rep.group
    dim = frame.rep.dim

    transported = np.column_stack([apply_rep(frame.rep, x, scenario.f) for x in group.carrier])
    by_position: list[list[int]] = [[] for _ in range(group.order)]
    for j, p in enumerate(frame.points.positions().tolist()):
        by_position[p].append(j)

    c0 = separation_constant(frame.points, scenario.U)
    try:
        transform = voice_transform(frame.rep, frame.window, scenario.f)
        sharp = local_max(transform, scenario.U)
    except OutOfCarrier:
        # The window maxima already escape a truncated carrier.
        sharp = None
    bounds: list[float | None] = [None] * len(scenario.L_family)
    if sharp is not None:
        for il, L in enumerate(scenario.L_family):
            try:
                bounds[il] = _tail_bound(sharp, scenario.U, L, c0, scenario.lower_bound)
            except OutOfCarrier:
                pass  # this tail domain escapes; no closed form

    # Every (K, L) pair in table order, with the index of its K.L set among
    # the distinct ones, or None when K.L escapes a truncated carrier.
    kl_index: dict[CompactSet, int] = {}
    pairs: list[tuple[int, int, int | None]] = []
    for ik, K in enumerate(scenario.K_family):
        for il, L in enumerate(scenario.L_family):
            try:
                kl = product_set(K, L)
            except OutOfCarrier:
                pairs.append((ik, il, None))
                continue
            pairs.append((ik, il, kl_index.setdefault(kl, len(kl_index))))
    kl_positions = [kl.positions() for kl in kl_index]

    errors = np.zeros((len(pairs), group.order))
    inside = np.zeros((len(pairs), group.order), dtype=bool)
    for yp in range(group.order):
        yk = [_translate(group, yp, K.positions()) for K in scenario.K_family]
        # Scoped to this y: keeping every y's projectors would hold
        # |G| x (distinct sets) dim x dim matrices at once.
        projectors: dict[int, np.ndarray | None] = {}
        for row, (ik, _, s) in enumerate(pairs):
            if s is None or yk[ik] is None:
                continue
            if s not in projectors:
                ykl = _translate(group, yp, kl_positions[s])
                if ykl is None:
                    projectors[s] = None
                else:
                    # Columns follow K.L's sorted positions translated one by
                    # one; the column order fixes the SVD's rounding, hence
                    # the hashes.
                    selected = [j for p in ykl.tolist() for j in by_position[p]]
                    projectors[s] = span_projector(scenario.duals[:, selected], dim=dim).matrix
            matrix = projectors[s]
            if matrix is None:
                continue
            targets = transported[:, yk[ik]]
            residual = targets - matrix @ targets
            errors[row, yp] = np.max(np.linalg.norm(residual, axis=0))
            inside[row, yp] = True

    table: list[HapCell] = []
    worst: dict[int, float] = {}
    dominated: dict[int, bool] = {il: True for il in range(len(scenario.L_family))}
    for row, (ik, il, _) in enumerate(pairs):
        k_label, l_label = scenario.k_labels[ik], scenario.l_labels[il]
        for y, error, interior in zip(group.carrier, errors[row].tolist(), inside[row].tolist()):
            if not interior:
                table.append(HapCell(y, k_label, l_label, None, True))
                continue
            table.append(HapCell(y, k_label, l_label, error, False))
            if error > worst.get(il, -1.0):
                worst[il] = error
            if bounds[il] is not None and error > bounds[il] + 1e-9:
                dominated[il] = False

    candidates = []
    chosen_index = None
    for il in range(len(scenario.L_family)):
        worst_l = worst.get(il)
        passed = worst_l is not None and worst_l < scenario.epsilon
        candidates.append(
            HapCandidate(
                l_label=scenario.l_labels[il],
                worst_error=worst_l,
                theoretical_bound=bounds[il],
                passed=passed,
                domination_ok=dominated[il],
            )
        )
        if passed and chosen_index is None:
            chosen_index = il
    if chosen_index is None:
        raise NoAdmissibleL(
            f"no candidate among {scenario.l_labels} reached worst error < {scenario.epsilon}"
        )
    return HapCertificate(
        chosen_L=scenario.L_family[chosen_index],
        chosen_l_label=scenario.l_labels[chosen_index],
        worst_error=worst[chosen_index],
        theoretical_bound=bounds[chosen_index],
        epsilon=scenario.epsilon,
        separation=c0,
        passed=True,
        table=table,
        candidates=candidates,
        dual_label=scenario.dual_label,
    )
