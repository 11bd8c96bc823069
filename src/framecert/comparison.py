"""Two-frame comparison: trace sandwich, QPQ operators, and counting certificates.

Setup: a given coherent frame E_g = {pi(x_j) g} with canonical dual {h_j},
and a reference frame E_h = {pi(y_k) h} on the same group, ideally an
orthonormal basis; both frames' bounds and the dual come from
FrameSystem.analysis.  For a base point y, a window K, and the inflation set
L chosen so that the dual spans of E_g approximate transported copies of h
to within epsilon * ||h||, let

    P = projector onto span{h_j      : x_j in yKL},
    Q = projector onto span{pi(y_k)h : y_k in yK},
    T = QPQ.

T is positive with eigenvalues in [0, 1], so tr T <= rank P <= card{x_j in
yKL}.  From below, the trace sandwich against the reference frame and the
approximation property give tr T >= ||h||^2 (1 - epsilon) card{y_k in yK} /
B.  Every cell records the full chain, the signed leftover term, and the
final counting inequality

    ||h||^2 B^{-1} (1 - epsilon) card{k : y_k in yK} <= card{j : x_j in yKL}.

B is the upper frame bound of the reference frame, the bound of the trace
sandwich the chain runs through; the runner also records the upper bound 1/A
of the dual of E_g beside it, for comparison only.

L is ComparisonScenario.hap_choice, a HapChoice from the comparison's HAP
question (ComparisonScenario.hap, built with the scenario: every K.L, and U
checked for symmetry only, as no tail bound is computed): the first
candidate to meet epsilon * ||h||, scanned smallest-first over its own table
rows.  Cells work on carrier positions, a block of base points at a time:
one GroupModel.multiply_masked translates K and K.L by every y of the block,
and the point sets' slot tables give P's duals and Q's reference atoms in
frame-index order, the order that fixes the SVDs' rounding.  Each cell keeps
its own two SVDs; T = (QP)Q, its spectrum, the sums and the flags run
stacked over the block (the sums with a cell's reference atoms over the
cells of equal card_Y), each cell's operands laid out as alone, so every
value is bit for bit the one-cell value of comparison_certificate.  Like the
HAP, the comparison needs a group: its HapScenario rejects a box carrier, so
every cell is computed.  comparison_run returns one certificate per K with
its cells as columns under their report names, as the runner writes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from framecert.frames import FrameSystem, SpanProjector, span_projector
from framecert.groups import (CompactSet, OutOfCarrier, PointSet, block_ranges, measure,
                              window_reduce)
from framecert.hap import HapChoice, HapScenario, NoAdmissibleL, choose_L, family_labels

_REL_SLACK = 1e-9


class NotPositive(Exception):
    """The operator has an eigenvalue below -1e-10 and is not positive."""


class HapPreconditionUnmet(Exception):
    """No candidate L met the epsilon * ||h|| approximation threshold."""


def _leq(a, b):
    """a <= b up to a relative slack, elementwise on arrays."""
    return a <= b + _REL_SLACK * np.maximum(np.abs(a), np.abs(b)) + 1e-12


@dataclass(frozen=True)
class TraceBoundsCheck:
    sum: float
    trace: float
    ok: bool


def trace_bounds_check(T, frame_vectors, A_f: float, B_f: float) -> TraceBoundsCheck:
    """Certify (1/B) sum_k <T v_k, v_k>  <=  tr T  <=  (1/A) sum_k <T v_k, v_k>
    for T, or field by field for each T of a stack (..., d, d).

    The trace is computed spectrally.  Raises NotPositive, with the first
    such T's lowest eigenvalue, when a T has an eigenvalue below -1e-10.
    """
    T = np.asarray(T, dtype=complex)
    evals = np.linalg.eigvalsh(T)
    negative = evals[..., 0][evals[..., 0] < -1e-10]
    if negative.size:
        raise NotPositive(f"minimum eigenvalue {float(negative[0]):.3e} is below -1e-10")
    vectors = np.asarray(frame_vectors, dtype=complex)
    quad_sum = np.sum(np.conj(vectors) * np.matmul(T, vectors), axis=(-2, -1)).real
    trace = evals.sum(axis=-1)
    ok = _leq(quad_sum / B_f, trace) & _leq(trace, quad_sum / A_f)
    return TraceBoundsCheck(sum=quad_sum, trace=trace, ok=ok)


def qpq_operator(P: SpanProjector, Q: SpanProjector) -> np.ndarray:
    """T = QPQ, a positive finite-rank map supported on range(Q)."""
    return Q.matrix @ P.matrix @ Q.matrix


def cardinality_count(X: PointSet, S: CompactSet) -> int:
    """Number of indices j with x_j in S, counted with multiplicity."""
    return int(np.count_nonzero(S.indicator[X.positions()]))


class ComparisonScenario:
    """Given frame, reference frame, tolerance, and ``hap``, the HAP question
    beneath them (frame = given, f = h, threshold epsilon * ||h||), which
    holds U, the window and inflation families and their labels."""

    def __init__(self, given: FrameSystem, reference: FrameSystem, epsilon: float,
                 U: CompactSet, K_family: list[CompactSet], L_family: list[CompactSet],
                 k_labels: list | None = None, l_labels: list | None = None) -> None:
        if given.rep.group is not reference.rep.group:
            raise ValueError("both frames must live on the same group")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        reference.analysis  # NotAFrame is reported before any error in the HAP question
        self.given, self.reference, self.epsilon = given, reference, epsilon
        self.h_norm_sq = float(np.linalg.norm(reference.window) ** 2)
        self.hap = HapScenario(frame=given, f=reference.window,
                               epsilon=epsilon * float(np.linalg.norm(reference.window)),
                               U=U, K_family=K_family, L_family=L_family,
                               k_labels=k_labels, l_labels=l_labels)

    @cached_property
    def hap_choice(self) -> HapChoice:
        """The L that serves every certificate of the batch, and its worst error."""
        try:
            return choose_L(self.hap)
        except NoAdmissibleL as exc:
            raise HapPreconditionUnmet(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class ComparisonCertificate:
    """The (y, K) cells of one window K as columns, one entry per carrier
    position under each report name: trace, rank, both counts, every
    verified inequality, and ``ok``, true where all seven flags are.  The
    chosen L, the tolerance and B belong to the scenario."""

    k_label: object
    columns: dict[str, list]


def _sorted_slots(points: PointSet, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``positions``, its points' indices ascending after -1 pads, and their number."""
    slots = np.sort(points.slots[positions].reshape(len(positions), -1), axis=1)
    return slots, np.count_nonzero(slots >= 0, axis=1)


def _cell_columns(scenario: ComparisonScenario, first: int, last: int,
                  k_positions: np.ndarray, kl_positions: np.ndarray) -> dict[str, np.ndarray]:
    """The counting chain of the (y, K) cells for y at carrier positions
    first..last-1, from the positions of K and of K.L for the chosen L: one
    array per report name, one entry per cell, each the one-cell value."""
    given, reference = scenario.given, scenario.reference
    group, duals, atoms = given.rep.group, given.analysis.canonical_dual, reference.synthesis
    B, h_sq, epsilon = reference.analysis.B, scenario.h_norm_sq, scenario.epsilon
    ys = np.arange(first, last)[:, None]
    # The duals of the points in y.K.L and the reference atoms of the points
    # in y.K, each in frame-index order, the order that fixes the SVDs' rounding.
    x_slots, card_x = _sorted_slots(given.points, group.multiply_masked(ys, kl_positions)[0])
    y_slots, card_y = _sorted_slots(reference.points, group.multiply_masked(ys, k_positions)[0])
    P = [span_projector(duals[:, row[row >= 0]]) for row in x_slots]
    Q_stack = np.stack([span_projector(atoms[:, row[row >= 0]]).matrix for row in y_slots])
    P_stack, rank_p = np.stack([p.matrix for p in P]), np.array([p.rank for p in P])
    T = np.matmul(np.matmul(Q_stack, P_stack), Q_stack)  # QPQ, as (QP)Q
    check = trace_bounds_check(T, atoms, reference.analysis.A, B)

    restricted_sum, projected_sum = np.empty(len(P)), np.empty(len(P))
    for ny in set(card_y.tolist()):
        cells = np.flatnonzero(card_y == ny)
        # (cells, dim, ny), each slice laid out as atoms[:, indices] is
        ref_atoms = atoms.T[y_slots[cells, y_slots.shape[1] - ny:]].transpose(0, 2, 1)
        for sums, operator in ((restricted_sum, T), (projected_sum, P_stack)):
            sums[cells] = np.sum(np.conj(ref_atoms) * np.matmul(operator[cells], ref_atoms),
                                 axis=(1, 2)).real

    lhs = h_sq * (1.0 - epsilon) * card_y / B
    identity_error = np.abs(restricted_sum - projected_sum)
    star_signed = (projected_sum - card_y * h_sq) / B
    star_bound = epsilon * h_sq * card_y / B
    flags = {
        "chain_ok": (check.trace <= rank_p + _REL_SLACK) & (rank_p <= card_x),
        "final_ok": lhs <= card_x + _REL_SLACK,
        "restricted_sum_ok": restricted_sum >= (1.0 - epsilon) * h_sq * card_y - 1e-9,
        "identity_ok": identity_error <= 1e-10,
        "star_ok": np.abs(star_signed) <= star_bound + 1e-9,
        "trace_lemma_ok": check.ok,
        "trace_lower_ok": _leq(projected_sum / B, check.trace),
    }
    return {"trace_T": check.trace, "rank_P": rank_p, "card_X": card_x, "card_Y": card_y,
            "lhs": lhs, "restricted_sum": restricted_sum, "identity_error": identity_error,
            "star_signed": star_signed, "star_bound": star_bound,
            **flags, "ok": np.logical_and.reduce(list(flags.values()))}


def comparison_certificate(scenario: ComparisonScenario, yp: int, k_positions: np.ndarray,
                           kl_positions: np.ndarray) -> dict:
    """The values of the (y, K) cell at carrier position ``yp`` under their
    report names, as comparison_run computes them: a block of one cell."""
    columns = _cell_columns(scenario, yp, yp + 1, k_positions, kl_positions)
    return {name: column.tolist()[0] for name, column in columns.items()}


def comparison_run(scenario: ComparisonScenario) -> list[ComparisonCertificate]:
    """One certificate per window K, in family order, over the carrier, a
    block of base points at a time."""
    chosen, hap = scenario.hap_choice.chosen_index, scenario.hap
    dim, size = scenario.reference.synthesis.shape
    certificates = []
    for ik, s in [(ik, s) for ik, il, s in hap.pairs if il == chosen]:
        k, kl = hap.k_positions[ik], hap.kl_positions[s]
        per_y = len(kl) * scenario.given.points.slots.shape[1] + dim * (4 * dim + 2 * size)
        blocks = [_cell_columns(scenario, first, last, k, kl)
                  for first, last in block_ranges(0, scenario.given.rep.group.order, per_y)]
        columns = {name: np.concatenate([b[name] for b in blocks]).tolist() for name in blocks[0]}
        certificates.append(ComparisonCertificate(hap.k_labels[ik], columns))
    return certificates


@dataclass(frozen=True)
class DensitySummary:
    k_label: object
    min_ratio: float | None
    max_ratio: float | None


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Counting ratios card{x_j in yK} / |K| as columns.

    Row i of ``counts`` and ``inside`` is the window K_i, labelled
    ``k_labels[i]`` with Haar measure ``measures[i]``; column n is the base
    point ``y_sample[n]``.  A cell that is not inside (yK escapes a truncated
    carrier, or y lies outside it) is boundary, and its count is not a count
    of yK.  The ratio of an inside cell is ``count / measure``.
    """

    y_sample: Sequence
    k_labels: list
    measures: list[float]
    counts: np.ndarray  # (|K family|, len(y_sample)), int
    inside: np.ndarray  # (|K family|, len(y_sample)), bool

    @property
    def summary(self) -> list[DensitySummary]:
        """The smallest and largest ratio per K over its inside cells, or None
        when it has none.  Dividing by a positive measure is monotone and
        correctly rounded, so they are the extreme counts divided once."""
        summary = []
        for k_label, vol, counts, inside in zip(self.k_labels, self.measures, self.counts,
                                                self.inside):
            interior = counts[inside]
            if interior.size:
                summary.append(DensitySummary(k_label, int(interior.min()) / vol,
                                              int(interior.max()) / vol))
            else:
                summary.append(DensitySummary(k_label, None, None))
        return summary


def density_report(
    X: PointSet, K_family: list[CompactSet], y_sample=None, k_labels=None, sampled=None
) -> DensityReport:
    """Counting ratios card{x_j in yK} / |K| per (y, K), as columns, with the
    per-K extremes as a derived view.

    The starting point for density statements: expanding windows whose count
    per unit Haar measure stabilizes reveal the density of the point set.
    ``y_sample`` defaults to the whole carrier; sampled base points outside
    a truncated carrier give boundary cells.  ``sampled``, when given, is
    sample_positions' answer for ``y_sample``.
    """
    group = X.group
    if y_sample is None:
        y_sample = group.carrier
        y_positions, y_inside = group.all_positions, np.ones(group.order, dtype=bool)
    else:
        y_positions, y_inside = sample_positions(group, y_sample) if sampled is None else sampled
    k_labels = family_labels(k_labels, K_family, "k_labels")
    point_counts = X.counts()
    counts = np.zeros((len(K_family), len(y_positions)), dtype=point_counts.dtype)
    inside = np.zeros((len(K_family), len(y_positions)), dtype=bool)
    for ik, K in enumerate(K_family):
        counts[ik], inside[ik] = window_reduce(point_counts, K, np.add, at=y_positions)
    inside &= y_inside
    return DensityReport(
        y_sample=y_sample,
        k_labels=k_labels,
        measures=[measure(K) for K in K_family],
        counts=counts,
        inside=inside,
    )


def sample_positions(group, y_sample) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the sampled base points and the mask of those in the carrier."""
    positions, inside = [], []
    for y in y_sample:
        try:
            positions.append(group.index(y))
            inside.append(True)
        except OutOfCarrier:
            positions.append(0)
            inside.append(False)
    return np.array(positions, dtype=np.int64), np.array(inside, dtype=bool)
