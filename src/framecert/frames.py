"""Coherent frame systems: frame operator, bounds, duals, and span projectors.

A coherent frame is the family {pi(x_j) g : j in J} for a window g and a
point set X = {x_j}.  The frame operator S f = sum_j inner(f, pi(x_j) g)
pi(x_j) g is assembled as a d x d matrix and eigendecomposed; its extreme
eigenvalues are the optimal frame bounds, which FrameSystem.analysis computes
once per frame with the canonical dual.  Orthogonal projectors onto spans
of generator columns are built from a singular value decomposition with a
fixed relative rank tolerance, because downstream counting arguments compare
projector ranks against integer cardinalities and need stable rank decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from framecert.groups import PointSet
from framecert.representations import Representation, carrier_orbit

# Relative singular-value threshold for rank decisions and frame viability.
RANK_TOLERANCE = 1e-10


class NotAFrame(Exception):
    """The system does not span the Hilbert space (lower bound vanishes)."""


class LengthMismatch(Exception):
    """A dual family must have exactly one vector per frame index."""


@dataclass
class FrameSystem:
    """Window, point set, and the cached synthesis matrix of atoms pi(x_j) g."""

    rep: Representation
    window: np.ndarray
    points: PointSet
    synthesis: np.ndarray  # shape (dim, |J|), column j is pi(x_j) g

    @property
    def size(self) -> int:
        return self.synthesis.shape[1]

    @cached_property
    def analysis(self) -> FrameAnalysis:
        """Bounds and canonical dual, on first access; NotAFrame if none."""
        return analyze_frame(self)


def coherent_frame(rep: Representation, window, points: PointSet) -> FrameSystem:
    if points.group is not rep.group:
        raise ValueError("point set must live on the representation's group")
    window = np.asarray(window, dtype=complex)
    # Orbit row p is pi(x_p) g bit for bit.  C order: BLAS may round a product
    # differently by operand layout, and the determinism hashes pin rounding.
    atoms = np.ascontiguousarray(carrier_orbit(rep, window)[points.positions()].T)
    return FrameSystem(rep=rep, window=window, points=points, synthesis=atoms)


def analysis_coefficients(frame: FrameSystem, f) -> np.ndarray:
    """c_j = inner(f, pi(x_j) g), the samples of V_g f on the point set."""
    f = np.asarray(f, dtype=complex)
    return frame.synthesis.conj().T @ f


def frame_operator(frame: FrameSystem) -> np.ndarray:
    """S = sum_j atom_j atom_j^*; self-adjoint and positive semidefinite."""
    return frame.synthesis @ frame.synthesis.conj().T


def _bounds_of(S: np.ndarray) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(S)
    lower, upper = float(evals[0]), float(evals[-1])
    if not np.isfinite([lower, upper]).all():  # an overflowing frame operator
        raise ValueError(f"frame bounds {lower:.3e} and {upper:.3e} are not both finite")
    if lower <= RANK_TOLERANCE * upper:
        raise NotAFrame(
            f"lower frame bound {lower:.3e} vanishes relative to upper bound {upper:.3e}"
        )
    return lower, upper


def frame_bounds(frame: FrameSystem) -> tuple[float, float]:
    """Optimal frame bounds (A, B) = extreme eigenvalues of the frame operator."""
    return _bounds_of(frame_operator(frame))


@dataclass
class FrameAnalysis:
    """Bounds and canonical dual of a verified frame."""

    A: float
    B: float
    canonical_dual: np.ndarray  # shape (dim, |J|), column j is S^{-1} pi(x_j) g


def analyze_frame(frame: FrameSystem) -> FrameAnalysis:
    S = frame_operator(frame)
    lower, upper = _bounds_of(S)
    duals = np.linalg.solve(S, frame.synthesis)
    return FrameAnalysis(A=lower, B=upper, canonical_dual=duals)


def canonical_dual(frame: FrameSystem) -> np.ndarray:
    return analyze_frame(frame).canonical_dual


@dataclass(frozen=True)
class DualCheck:
    max_error: float
    ok: bool


def verify_dual(frame: FrameSystem, duals) -> DualCheck:
    """Worst reconstruction error of e_i = sum_j inner(e_i, atom_j) h_j over the basis."""
    duals = np.asarray(duals, dtype=complex)
    if duals.shape != frame.synthesis.shape:
        raise LengthMismatch(
            f"expected {frame.size} dual vectors of dimension {frame.rep.dim}, got {duals.shape}"
        )
    residual = np.eye(frame.rep.dim) - duals @ frame.synthesis.conj().T
    max_error = float(np.max(np.linalg.norm(residual, axis=0)))
    return DualCheck(max_error=max_error, ok=max_error <= 1e-9)


@dataclass(frozen=True)
class BesselCheck:
    empirical_B_dual: float
    bound: float
    ok: bool


def bessel_bound_check(duals, A_of_primary: float) -> BesselCheck:
    """Compare the dual system's upper frame bound against 1/A of the primary.

    The inequality is guaranteed only for the canonical dual; for other dual
    families the empirical constant is still reported, and callers should not
    treat the flag as a certificate.
    """
    duals = np.asarray(duals, dtype=complex)
    evals = np.linalg.eigvalsh(duals @ duals.conj().T)
    empirical = float(evals[-1])
    bound = 1.0 / A_of_primary
    return BesselCheck(empirical_B_dual=empirical, bound=bound, ok=empirical <= bound * (1 + 1e-9))


@dataclass
class SpanProjector:
    """Orthogonal projector onto the span of the listed generators, and its rank."""

    generators: np.ndarray  # shape (dim, m), columns as given (duplicates kept)
    matrix: np.ndarray  # shape (dim, dim)
    rank: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


def span_projector(generators: np.ndarray) -> SpanProjector:
    """Projector basis @ basis^* onto the span of the columns of the (dim, m)
    array ``generators``, the basis orthonormal.

    Rank is the number of singular values above RANK_TOLERANCE times the
    largest, so no columns or all-zero ones give an empty basis: the zero
    projector.  Anything but a 2-D array raises TypeError.
    """
    if not (isinstance(generators, np.ndarray) and generators.ndim == 2):
        raise TypeError("span_projector takes the generators as the columns of a 2-D array")
    gen = np.asarray(generators, dtype=complex)
    if gen.shape[1] == 0:
        basis, rank = gen, 0
    else:
        u, s, _ = np.linalg.svd(gen, full_matrices=False)
        rank = int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))
        basis = u[:, :rank]
    return SpanProjector(gen, basis @ basis.conj().T, rank)


@dataclass(frozen=True)
class BestApproxCheck:
    proj_error: float
    min_trial_error: float
    ok: bool


def best_approx_check(
    projector: SpanProjector, h, trials: int = 1000, rng=None
) -> BestApproxCheck:
    """Randomized dominance trial for the best-approximation property.

    No random combination of the generators may beat the orthogonal
    projection: ||h - Ph|| <= ||h - sum_j d_j v_j|| for every coefficient
    choice d.
    """
    rng = np.random.default_rng(rng)
    h = np.asarray(h, dtype=complex)
    proj_error = float(np.linalg.norm(h - projector.apply(h)))
    m = projector.generators.shape[1]
    if m == 0:
        min_trial = float(np.linalg.norm(h))
    else:
        coeffs = rng.standard_normal((m, trials)) + 1j * rng.standard_normal((m, trials))
        residuals = h[:, None] - projector.generators @ coeffs
        min_trial = float(np.min(np.linalg.norm(residuals, axis=0)))
    return BestApproxCheck(
        proj_error=proj_error,
        min_trial_error=min_trial,
        ok=proj_error <= min_trial + 1e-12,
    )
