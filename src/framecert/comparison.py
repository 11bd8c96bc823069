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

Cells work on carrier positions: each K.L is read off the comparison's HAP
question (ComparisonScenario.hap, a HapScenario built with the scenario,
which builds them all), each cell translates K and K.L with
GroupModel.multiply_masked, and the point sets' slot tables
(PointSet.indices_at) give P's duals and Q's reference atoms, both in
frame-index order, the order that fixes the SVDs' rounding.  Like the HAP,
the comparison needs a group, whose translates never escape: its
HapScenario rejects a box carrier, so every cell is computed.
comparison_run returns one certificate per K with its cells as columns
under their report names, as the runner writes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from framecert.frames import FrameSystem, SpanProjector, span_projector
from framecert.groups import CompactSet, OutOfCarrier, PointSet, measure, window_reduce
from framecert.hap import HapCertificate, HapScenario, NoAdmissibleL, family_labels, find_L

_REL_SLACK = 1e-9


class NotPositive(Exception):
    """The operator has an eigenvalue below -1e-10 and is not positive."""


class HapPreconditionUnmet(Exception):
    """No candidate L met the epsilon * ||h|| approximation threshold."""


def _leq(a: float, b: float) -> bool:
    return a <= b + _REL_SLACK * max(abs(a), abs(b)) + 1e-12


@dataclass(frozen=True)
class TraceBoundsCheck:
    sum: float
    trace: float
    ok: bool


def trace_bounds_check(T, frame_vectors, A_f: float, B_f: float) -> TraceBoundsCheck:
    """Certify (1/B) sum_k <T v_k, v_k>  <=  tr T  <=  (1/A) sum_k <T v_k, v_k>.

    The trace is computed spectrally.  Raises NotPositive when T has an
    eigenvalue below -1e-10.
    """
    T = np.asarray(T, dtype=complex)
    evals = np.linalg.eigvalsh(T)
    if float(evals[0]) < -1e-10:
        raise NotPositive(f"minimum eigenvalue {float(evals[0]):.3e} is below -1e-10")
    vectors = np.asarray(frame_vectors, dtype=complex)
    quad_sum = float(np.sum(np.conj(vectors) * (T @ vectors)).real)
    trace = float(evals.sum())
    ok = _leq(quad_sum / B_f, trace) and _leq(trace, quad_sum / A_f)
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
    def hap_choice(self) -> HapCertificate:
        """The HAP certificate; its L serves every certificate of the batch."""
        try:
            return find_L(self.hap)
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


def comparison_certificate(scenario: ComparisonScenario, yp: int, k_positions: np.ndarray,
                           kl_positions: np.ndarray) -> dict:
    """The full counting chain for the (y, K) cell at carrier position ``yp``,
    from the positions of K and of K.L for the chosen L: the cell's values
    under their report names."""
    group = scenario.given.rep.group
    yk = group.multiply_masked(yp, k_positions)[0]
    ykl = group.multiply_masked(yp, kl_positions)[0]

    # The duals of the points in y.K.L and the reference atoms of the points
    # in y.K, each in frame-index order.
    duals = scenario.given.analysis.canonical_dual
    P = span_projector(duals[:, np.sort(scenario.given.points.indices_at(ykl))])
    ref_atoms = scenario.reference.synthesis[:, np.sort(scenario.reference.points.indices_at(yk))]
    Q = span_projector(ref_atoms)
    T = qpq_operator(P, Q)

    reference = scenario.reference.analysis
    trace_check = trace_bounds_check(T, scenario.reference.synthesis, reference.A, reference.B)
    card_x = P.generators.shape[1]
    card_y = ref_atoms.shape[1]
    h_sq = scenario.h_norm_sq
    lhs = h_sq * (1.0 - scenario.epsilon) * card_y / reference.B

    restricted_sum = float(np.sum(np.conj(ref_atoms) * (T @ ref_atoms)).real)
    projected_sum = float(np.sum(np.conj(ref_atoms) * (P.matrix @ ref_atoms)).real)
    identity_error = abs(restricted_sum - projected_sum)
    star_signed = (projected_sum - card_y * h_sq) / reference.B
    star_bound = scenario.epsilon * h_sq * card_y / reference.B

    flags = {
        "chain_ok": trace_check.trace <= P.rank + _REL_SLACK and P.rank <= card_x,
        "final_ok": lhs <= card_x + _REL_SLACK,
        "restricted_sum_ok": restricted_sum >= (1.0 - scenario.epsilon) * h_sq * card_y - 1e-9,
        "identity_ok": identity_error <= 1e-10,
        "star_ok": abs(star_signed) <= star_bound + 1e-9,
        "trace_lemma_ok": trace_check.ok,
        "trace_lower_ok": _leq(projected_sum / reference.B, trace_check.trace),
    }
    return {"trace_T": trace_check.trace, "rank_P": P.rank, "card_X": card_x, "card_Y": card_y,
            "lhs": lhs, "restricted_sum": restricted_sum, "identity_error": identity_error,
            "star_signed": star_signed, "star_bound": star_bound,
            **flags, "ok": all(flags.values())}


def comparison_run(scenario: ComparisonScenario) -> list[ComparisonCertificate]:
    """One certificate per window K, in family order, over the carrier."""
    chosen, hap = scenario.hap_choice.chosen_index, scenario.hap
    certificates = []
    for ik, s in [(ik, s) for ik, il, s in hap.pairs if il == chosen]:
        cells = [comparison_certificate(scenario, yp, hap.k_positions[ik], hap.kl_positions[s])
                 for yp in range(scenario.given.rep.group.order)]
        columns = {name: [cell[name] for cell in cells] for name in cells[0]}
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
