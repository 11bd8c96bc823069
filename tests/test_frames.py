import numpy as np
import pytest

from framecert.frames import (
    FrameSystem,
    LengthMismatch,
    NotAFrame,
    analysis_coefficients,
    analyze_frame,
    best_approx_check,
    bessel_bound_check,
    canonical_dual,
    coherent_frame,
    frame_bounds,
    frame_operator,
    span_projector,
    verify_dual,
)
from framecert.groups import GroupModel, full_point_set, point_set
from framecert.representations import (
    GaborRep,
    Representation,
    TensorRep,
    TranslationRep,
    apply_rep,
    dirac_vector,
    flat_vector,
    periodized_gaussian,
)


def dirac_onb(n=8):
    rep = TranslationRep(n)
    return coherent_frame(rep, dirac_vector(n), full_point_set(rep.group))


def full_gabor(n=4, window=None):
    rep = GaborRep(n)
    if window is None:
        window = dirac_vector(n)
    return coherent_frame(rep, window, full_point_set(rep.group))


def duplicated_frame():
    """{e1, e1, e2} in C^2, assembled directly as a frame system stand-in."""
    rep = TranslationRep(2)
    e1, e2 = dirac_vector(2, 0), dirac_vector(2, 1)
    points = point_set(rep.group, [0, 0, 1])
    return FrameSystem(rep=rep, window=e1, points=points,
                       synthesis=np.column_stack([e1, e1, e2]))


def test_analysis_coefficients_examples():
    frame = dirac_onb(8)
    c = analysis_coefficients(frame, dirac_vector(8, 2))
    assert np.allclose(c, dirac_vector(8, 2))
    assert np.allclose(analysis_coefficients(frame, np.zeros(8)), 0)
    gabor = full_gabor(4)
    c = analysis_coefficients(gabor, dirac_vector(4))
    expected = np.array([1.0 if x[0] == 0 else 0.0 for x in gabor.rep.group.carrier])
    assert np.allclose(np.abs(c), expected)


def test_frame_operator_examples():
    assert np.allclose(frame_operator(dirac_onb(8)), np.eye(8))
    assert np.allclose(frame_operator(duplicated_frame()), np.diag([2.0, 1.0]))
    # full time-frequency system: oracle eigendecomposition of the assembled operator
    for window in (dirac_vector(4), periodized_gaussian(4)):
        S = frame_operator(full_gabor(4, window))
        evals = np.linalg.eigvalsh(S)
        assert np.allclose(evals, 4.0 * np.linalg.norm(window) ** 2)
        assert np.allclose(S, 4.0 * np.eye(4), atol=1e-12)


def test_frame_bounds_examples():
    assert frame_bounds(dirac_onb(8)) == pytest.approx((1.0, 1.0))
    assert frame_bounds(duplicated_frame()) == pytest.approx((1.0, 2.0))


def test_frame_bounds_match_svd_oracle():
    """Independent route: squared extreme singular values of the synthesis map."""
    rng = np.random.default_rng(16)
    rep = GaborRep(8)
    window = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    frame = coherent_frame(rep, window, full_point_set(rep.group))
    s = np.linalg.svd(frame.synthesis, compute_uv=False)
    A, B = frame_bounds(frame)
    assert A == pytest.approx(s[-1] ** 2, rel=1e-9)
    assert B == pytest.approx(s[0] ** 2, rel=1e-9)


def test_not_a_frame_when_span_degenerates():
    # time shifts of the flat window all coincide: a rank-one system
    rep = GaborRep(4)
    points = point_set(rep.group, [(k, 0) for k in range(4)])
    shifts_of_flat = coherent_frame(rep, flat_vector(4), points)
    evals = np.linalg.eigvalsh(frame_operator(shifts_of_flat))
    assert evals[0] == pytest.approx(0.0, abs=1e-12)  # oracle: zero eigenvalue
    with pytest.raises(NotAFrame):
        frame_bounds(shifts_of_flat)
    # time shifts of a dirac, by contrast, form the standard basis
    shifts_of_dirac = coherent_frame(rep, dirac_vector(4), points)
    assert frame_bounds(shifts_of_dirac) == pytest.approx((1.0, 1.0))


class _RollRep(Representation):
    """Unitary cyclic rolls indexed by a truncated carrier: a frame on a box.
    Its frame bounds are defined; the HAP and the comparison reject it."""

    def __init__(self, halfwidth: int):
        self.kind = "roll"
        self.group = GroupModel.box([halfwidth])
        self.dim = self.group.order

    def apply(self, x, v):
        return np.roll(v, self.group.canon(x), axis=-1)


@pytest.mark.parametrize("case", ["gabor-full", "gabor-lattice", "translation", "tensor", "box",
                                  "duplicates", "empty"])
def test_coherent_frame_atoms_equal_per_point_apply_rep_bit_for_bit(case):
    gabor, translation = GaborRep(6), TranslationRep(5)
    tensor, box = TensorRep(TranslationRep(2), GaborRep(3)), _RollRep(3)
    rep, points = {
        "gabor-full": (gabor, full_point_set(gabor.group)),
        "gabor-lattice": (gabor, point_set(gabor.group, [(k, l) for k in range(0, 6, 2)
                                                         for l in range(0, 6, 3)])),
        "translation": (translation, point_set(translation.group, [4, 1, 3])),
        "tensor": (tensor, full_point_set(tensor.group)),
        "box": (box, full_point_set(box.group)),
        "duplicates": (gabor, point_set(gabor.group, [(1, 2), (0, 0), (1, 2), (5, 5), (0, 0)])),
        "empty": (gabor, point_set(gabor.group, [])),
    }[case]
    rng = np.random.default_rng(11)
    window = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    frame = coherent_frame(rep, window, points)
    assert frame.synthesis.shape == (rep.dim, len(points.points))
    for j, x in enumerate(points.points):
        assert np.array_equal(frame.synthesis[:, j], apply_rep(rep, x, window))


def test_frame_analysis_is_computed_once_and_matches_analyze_frame():
    frame = full_gabor(4, periodized_gaussian(4))
    analysis = frame.analysis
    assert frame.analysis is analysis
    direct = analyze_frame(frame)
    assert (analysis.A, analysis.B) == (direct.A, direct.B)
    assert np.array_equal(analysis.canonical_dual, direct.canonical_dual)
    rep = GaborRep(4)
    empty = coherent_frame(rep, dirac_vector(4), point_set(rep.group, []))
    with pytest.raises(NotAFrame):
        empty.analysis


def test_canonical_dual_examples():
    frame = dirac_onb(8)
    assert np.allclose(canonical_dual(frame), frame.synthesis)
    dup = duplicated_frame()
    duals = canonical_dual(dup)
    assert np.allclose(duals, np.column_stack([[0.5, 0], [0.5, 0], [0, 1.0]]))
    gabor = full_gabor(4, periodized_gaussian(4))
    assert np.allclose(canonical_dual(gabor), gabor.synthesis / 4.0)


def test_verify_dual():
    dup = duplicated_frame()
    assert verify_dual(dup, canonical_dual(dup)).ok
    onb = dirac_onb(8)
    assert verify_dual(onb, onb.synthesis).ok  # self-dual
    bad = verify_dual(dup, dup.synthesis)  # reconstructs 2 e1 from e1
    assert not bad.ok
    assert bad.max_error == pytest.approx(1.0)
    with pytest.raises(LengthMismatch):
        verify_dual(dup, dup.synthesis[:, :2])


def test_bessel_bound_check():
    onb = dirac_onb(8)
    check = bessel_bound_check(onb.synthesis, 1.0)
    assert check.empirical_B_dual == pytest.approx(1.0) and check.ok
    dup = duplicated_frame()
    duals = canonical_dual(dup)
    check = bessel_bound_check(duals, 1.0)
    assert check.empirical_B_dual == pytest.approx(1.0) and check.ok
    gabor = full_gabor(4, periodized_gaussian(4))
    check = bessel_bound_check(canonical_dual(gabor), 4.0)
    assert check.empirical_B_dual == pytest.approx(0.25) and check.ok


def test_frame_inequality_with_attainment():
    rng = np.random.default_rng(17)
    rep = GaborRep(8)
    window = periodized_gaussian(8)
    frame = coherent_frame(rep, window, point_set(rep.group, [
        (k, l) for k in range(0, 8, 1) for l in range(0, 8, 2)
    ]))
    analysis = analyze_frame(frame)
    for _ in range(50):
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        energy = float(np.sum(np.abs(analysis_coefficients(frame, f)) ** 2))
        nsq = float(np.linalg.norm(f) ** 2)
        assert analysis.A * nsq * (1 - 1e-9) <= energy <= analysis.B * nsq * (1 + 1e-9)
    evals, vecs = np.linalg.eigh(frame_operator(frame))
    for idx, bound in ((0, analysis.A), (-1, analysis.B)):
        f = vecs[:, idx]
        energy = float(np.sum(np.abs(analysis_coefficients(frame, f)) ** 2))
        assert energy == pytest.approx(bound, rel=1e-6)


def test_tightness_scaling():
    rep = GaborRep(4)
    window = periodized_gaussian(4)
    base = frame_bounds(coherent_frame(rep, window, full_point_set(rep.group)))
    for s in (0.5, 2.0, 3.0):
        scaled = frame_bounds(coherent_frame(rep, s * window, full_point_set(rep.group)))
        assert scaled[0] == pytest.approx(s**2 * base[0], rel=1e-9)
        assert scaled[1] == pytest.approx(s**2 * base[1], rel=1e-9)


def test_span_projector_examples():
    P = span_projector(np.eye(3)[:, [0, 0, 1]])
    assert P.rank == 2
    assert np.allclose(P.matrix, np.diag([1.0, 1.0, 0.0]))
    empty = span_projector(np.zeros((4, 0)))
    assert empty.rank == 0 and np.allclose(empty.matrix, 0) and empty.matrix.shape == (4, 4)
    half = span_projector(np.array([[1.0], [1.0]]) / np.sqrt(2))
    assert half.rank == 1
    assert np.allclose(half.matrix, 0.5 * np.ones((2, 2)))


def test_span_projector_laws():
    rng = np.random.default_rng(18)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        gens = rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m))
        gens[:, -1] = gens[:, 0]  # force a dependency
        P = span_projector(gens)
        assert np.linalg.norm(P.matrix @ P.matrix - P.matrix, 2) <= 1e-10
        assert np.linalg.norm(P.matrix - P.matrix.conj().T, 2) <= 1e-10
        for j in range(m):
            assert np.linalg.norm(P.apply(gens[:, j]) - gens[:, j]) <= 1e-9
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.vdot(w, P.apply(v)) == pytest.approx(np.vdot(P.apply(w), v), abs=1e-10)


def test_span_projector_zero_vectors_only():
    P = span_projector(np.zeros((3, 2)))
    assert P.rank == 0 and np.allclose(P.matrix, 0)


def test_best_approx_check():
    rng = np.random.default_rng(19)
    e1 = np.eye(4, dtype=complex)[0]
    P = span_projector(e1[:, None])
    inside = best_approx_check(P, 2.5 * e1, trials=100, rng=rng)
    assert inside.proj_error == pytest.approx(0.0, abs=1e-12) and inside.ok
    orth = best_approx_check(P, np.eye(4, dtype=complex)[2], trials=100, rng=rng)
    assert orth.proj_error == pytest.approx(1.0)
    assert orth.min_trial_error >= 1.0 - 1e-12 and orth.ok
    gens = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    check = best_approx_check(span_projector(gens), h, trials=1000, rng=rng)
    assert check.ok


# -- rejections ------------------------------------------------------------------


def _dirac_frame(points=None):
    rep = TranslationRep(4)
    return coherent_frame(rep, dirac_vector(4), points or full_point_set(rep.group))


_FRAME_REJECTIONS = {
    "points-on-another-group": (
        lambda: _dirac_frame(full_point_set(TranslationRep(4).group)), ValueError),
    "dual-of-wrong-shape": (lambda: verify_dual(_dirac_frame(), np.zeros((4, 3))),
                            LengthMismatch),
    # generators are the columns of a 2-D array; a list of vectors is not
    # read as its rows
    "projector-of-a-vector-list": (lambda: span_projector([dirac_vector(4)]), TypeError),
    "projector-of-a-nested-list": (lambda: span_projector([[1.0, 0.0], [0.0, 1.0]]), TypeError),
    "projector-of-one-vector": (lambda: span_projector(dirac_vector(4)), TypeError),
    "projector-of-a-3-d-array": (lambda: span_projector(np.zeros((2, 2, 2))), TypeError),
}


@pytest.mark.parametrize("build, error", _FRAME_REJECTIONS.values(),
                         ids=_FRAME_REJECTIONS.keys())
def test_invalid_frame_arguments_raise(build, error):
    with pytest.raises(error):
        build()
