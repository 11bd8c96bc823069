"""Two-frame comparison: trace sandwich, QPQ operators, and counting certificates.

Setup: a given coherent frame E_g = {pi(x_j) g} with dual family {h_j}, and a
reference frame E_h = {pi(y_k) h} on the same group, ideally an orthonormal
basis.  For a base point y, a window K, and the inflation set L chosen so
that the dual spans of E_g approximate transported copies of h to within
epsilon * ||h||, let

    P = projector onto span{h_j      : x_j in yKL},
    Q = projector onto span{pi(y_k)h : y_k in yK},
    T = QPQ.

T is positive with eigenvalues in [0, 1], so tr T <= rank P <= card{x_j in
yKL}.  From below, the trace sandwich against the reference frame and the
approximation property give tr T >= ||h||^2 (1 - epsilon) card{y_k in yK} /
B.  Every certificate records the full chain, the signed leftover term, and
the final counting inequality

    ||h||^2 B^{-1} (1 - epsilon) card{k : y_k in yK} <= card{j : x_j in yKL}.

B defaults to the upper frame bound of the reference frame (what the chain
uses); the alternative reading, the upper bound 1/A of the dual of E_g, is
recorded alongside for transparency and can be selected instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from framecert.frames import FrameAnalysis, FrameSystem, SpanProjector, span_projector
from framecert.groups import (
    CompactSet,
    OutOfCarrier,
    PointSet,
    measure,
    product_set,
    translate_set,
    window_reduce,
)
from framecert.hap import HapCertificate, HapScenario, NoAdmissibleL, find_L

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


@dataclass
class ComparisonScenario:
    """Given frame, reference frame, tolerance, and the window/inflation families."""

    given: FrameSystem
    given_analysis: FrameAnalysis
    reference: FrameSystem
    reference_analysis: FrameAnalysis
    epsilon: float
    U: CompactSet
    K_family: list[CompactSet]
    L_family: list[CompactSet]
    k_labels: list | None = None
    l_labels: list | None = None
    b_convention: str = "reference"

    def __post_init__(self) -> None:
        if self.given.rep.group is not self.reference.rep.group:
            raise ValueError("both frames must live on the same group")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.b_convention not in ("reference", "dual_of_given"):
            raise ValueError(f"unknown b_convention {self.b_convention!r}")
        if self.k_labels is None:
            self.k_labels = list(range(len(self.K_family)))
        if self.l_labels is None:
            self.l_labels = list(range(len(self.L_family)))

    @property
    def h_norm_sq(self) -> float:
        return float(np.linalg.norm(self.reference.window) ** 2)

    @property
    def b_used(self) -> float:
        if self.b_convention == "reference":
            return self.reference_analysis.B
        return 1.0 / self.given_analysis.A

    @property
    def b_provenance(self) -> str:
        if self.b_convention == "reference":
            return "upper bound of reference frame"
        return "upper bound of dual of E_g"

    @property
    def b_alternative(self) -> float:
        if self.b_convention == "reference":
            return 1.0 / self.given_analysis.A
        return self.reference_analysis.B

    @cached_property
    def hap_choice(self) -> HapCertificate:
        """L chosen so the given frame's dual spans track transported copies of h.

        The threshold is epsilon * ||h||, uniform over all y and the whole
        window family; one L serves every certificate of the batch.
        """
        threshold = self.epsilon * float(np.linalg.norm(self.reference.window))
        scenario = HapScenario(
            frame=self.given,
            duals=self.given_analysis.canonical_dual,
            lower_bound=self.given_analysis.A,
            f=self.reference.window,
            epsilon=threshold,
            U=self.U,
            K_family=self.K_family,
            L_family=self.L_family,
            k_labels=self.k_labels,
            l_labels=self.l_labels,
        )
        try:
            return find_L(scenario)
        except NoAdmissibleL as exc:
            raise HapPreconditionUnmet(str(exc)) from exc


@dataclass
class ComparisonCertificate:
    """One (y, K) cell: trace, rank, both counts, and every verified inequality.

    The defaults describe a boundary cell, one whose window escapes a
    truncated carrier: nothing is computed and no inequality is verified.
    """

    y: object
    k_label: object
    l_label: object
    epsilon: float
    b_used: float
    b_provenance: str
    b_alternative: float
    trace_T: float | None = None
    rank_P: int | None = None
    card_x_in_ykl: int | None = None
    card_y_in_yk: int | None = None
    lhs: float | None = None
    chain_ok: bool = False
    final_ok: bool = False
    restricted_sum: float | None = None
    restricted_sum_ok: bool = False
    projected_sum_identity_error: float | None = None
    identity_ok: bool = False
    star_signed: float | None = None
    star_bound: float | None = None
    star_ok: bool = False
    trace_lemma_ok: bool = False
    trace_lower_ok: bool = False
    boundary: bool = True

    @property
    def ok(self) -> bool:
        return (
            not self.boundary
            and self.chain_ok
            and self.final_ok
            and self.restricted_sum_ok
            and self.identity_ok
            and self.star_ok
            and self.trace_lemma_ok
            and self.trace_lower_ok
        )


def comparison_certificate(
    scenario: ComparisonScenario, y, K: CompactSet, k_label=None
) -> ComparisonCertificate:
    """Build and verify the full counting chain for one (y, K) cell."""
    choice = scenario.hap_choice
    L = choice.chosen_L
    l_label = choice.chosen_l_label
    if k_label is None:
        try:
            k_label = scenario.k_labels[scenario.K_family.index(K)]
        except ValueError:
            k_label = None
    dim = scenario.given.rep.dim
    cell = dict(y=y, k_label=k_label, l_label=l_label, epsilon=scenario.epsilon,
                b_used=scenario.b_used, b_provenance=scenario.b_provenance,
                b_alternative=scenario.b_alternative)
    try:
        ykl = translate_set(y, product_set(K, L))
        yk = translate_set(y, K)
    except OutOfCarrier:
        return ComparisonCertificate(**cell)

    duals = scenario.given_analysis.canonical_dual
    # Selections in frame-index order: the column order fixes the SVD's rounding.
    sel_x = np.flatnonzero(ykl.indicator[scenario.given.points.positions()])
    sel_y = np.flatnonzero(yk.indicator[scenario.reference.points.positions()])
    P = span_projector(duals[:, sel_x], dim=dim)
    ref_atoms = scenario.reference.synthesis[:, sel_y]
    Q = span_projector(ref_atoms, dim=dim)
    T = qpq_operator(P, Q)

    trace_check = trace_bounds_check(
        T,
        scenario.reference.synthesis,
        scenario.reference_analysis.A,
        scenario.reference_analysis.B,
    )
    card_x = len(sel_x)
    card_y = len(sel_y)
    h_sq = scenario.h_norm_sq
    b_used = scenario.b_used
    lhs = h_sq * (1.0 - scenario.epsilon) * card_y / b_used

    restricted_sum = float(np.sum(np.conj(ref_atoms) * (T @ ref_atoms)).real)
    projected_sum = float(np.sum(np.conj(ref_atoms) * (P.matrix @ ref_atoms)).real)
    identity_error = abs(restricted_sum - projected_sum)
    star_signed = (projected_sum - card_y * h_sq) / b_used
    star_bound = scenario.epsilon * h_sq * card_y / b_used

    chain_ok = trace_check.trace <= P.rank + _REL_SLACK and P.rank <= card_x
    final_ok = lhs <= card_x + _REL_SLACK
    return ComparisonCertificate(
        **cell,
        trace_T=trace_check.trace,
        rank_P=P.rank,
        card_x_in_ykl=card_x,
        card_y_in_yk=card_y,
        lhs=lhs,
        chain_ok=chain_ok,
        final_ok=final_ok,
        restricted_sum=restricted_sum,
        restricted_sum_ok=restricted_sum >= (1.0 - scenario.epsilon) * h_sq * card_y - 1e-9,
        projected_sum_identity_error=identity_error,
        identity_ok=identity_error <= 1e-10,
        star_signed=star_signed,
        star_bound=star_bound,
        star_ok=abs(star_signed) <= star_bound + 1e-9,
        trace_lemma_ok=trace_check.ok,
        trace_lower_ok=_leq(projected_sum / b_used, trace_check.trace),
        boundary=False,
    )


def comparison_run(scenario: ComparisonScenario) -> list[ComparisonCertificate]:
    """Certificates for every (y, K) cell, in carrier-by-family order."""
    certificates = []
    for ik, K in enumerate(scenario.K_family):
        for y in scenario.given.rep.group.carrier:
            certificates.append(
                comparison_certificate(scenario, y, K, k_label=scenario.k_labels[ik])
            )
    return certificates


@dataclass(frozen=True)
class DensityRow:
    y: object
    k_label: object
    count: int | None
    measure: float
    ratio: float | None
    boundary: bool


@dataclass(frozen=True)
class DensitySummary:
    k_label: object
    min_ratio: float | None
    max_ratio: float | None


@dataclass(frozen=True)
class DensityReport:
    rows: list[DensityRow]
    summary: list[DensitySummary]


def density_report(
    X: PointSet, K_family: list[CompactSet], y_sample=None, k_labels=None
) -> DensityReport:
    """Counting ratios card{x_j in yK} / |K| per (y, K), with per-K extremes.

    The starting point for density statements: expanding windows whose count
    per unit Haar measure stabilizes reveal the density of the point set.
    """
    group = X.group
    if y_sample is None:
        y_sample = group.carrier
        y_positions, y_inside = group.all_positions, np.ones(group.order, dtype=bool)
    else:
        y_positions, y_inside = _sample_positions(group, y_sample)
    if k_labels is None:
        k_labels = list(range(len(K_family)))
    point_counts = X.counts()
    rows = []
    summary = []
    for ik, K in enumerate(K_family):
        vol = measure(K)
        counts, whole = window_reduce(point_counts, K, np.add, at=y_positions)
        whole &= y_inside
        ratios = []
        for y, count, inside in zip(y_sample, counts.tolist(), whole.tolist()):
            if not inside:
                rows.append(DensityRow(y, k_labels[ik], None, vol, None, True))
                continue
            ratio = count / vol
            ratios.append(ratio)
            rows.append(DensityRow(y, k_labels[ik], count, vol, ratio, False))
        summary.append(
            DensitySummary(
                k_label=k_labels[ik],
                min_ratio=min(ratios) if ratios else None,
                max_ratio=max(ratios) if ratios else None,
            )
        )
    return DensityReport(rows=rows, summary=summary)


def _sample_positions(group, y_sample) -> tuple[np.ndarray, np.ndarray]:
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
