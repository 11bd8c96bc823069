import numpy as np
import pytest

from framecert.amalgam import tail_mass
from framecert.groups import GroupModel
from framecert.representations import (
    DimensionMismatch,
    GaborRep,
    TensorRep,
    TranslationRep,
    ZeroResult,
    ZeroWindow,
    apply_rep,
    carrier_orbit,
    dirac_vector,
    flat_vector,
    inner,
    mollify_window,
    periodized_gaussian,
    vector_preset,
    voice_transform,
)


def _gabor_matrix(n, k, l):
    """Independent oracle: the explicit matrix of M_l T_k on C^n."""
    M = np.zeros((n, n), dtype=complex)
    for t in range(n):
        M[t, (t - k) % n] = np.exp(2j * np.pi * l * t / n)
    return M


def test_inner_convention():
    f = np.array([1 + 2j, 3.0])
    g = np.array([2.0, 1j])
    assert inner(f, g) == pytest.approx((1 + 2j) * 2 + 3 * (-1j))
    assert inner(g, g) == pytest.approx(5.0)


def test_apply_translation_dirac():
    rep = TranslationRep(4)
    assert np.allclose(apply_rep(rep, 1, dirac_vector(4)), dirac_vector(4, 1))


def test_apply_gabor_examples():
    rep = GaborRep(4)
    assert np.allclose(apply_rep(rep, (0, 1), dirac_vector(4)), dirac_vector(4))
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.allclose(apply_rep(rep, rep.group.identity, v), v)
    rng = np.random.default_rng(10)
    for _ in range(5):
        k, l = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(apply_rep(rep, (k, l), w), _gabor_matrix(4, k, l) @ w)


def test_unitarity_all_reps():
    reps = [TranslationRep(8), GaborRep(4), TensorRep(TranslationRep(3), GaborRep(2))]
    rng = np.random.default_rng(11)
    for rep in reps:
        for _ in range(20):
            v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            norm = np.linalg.norm(v)
            for x in rep.group.carrier:
                assert abs(np.linalg.norm(rep.apply(x, v)) - norm) <= 1e-12 * norm


def test_gabor_cocycle_is_unimodular():
    rep = GaborRep(8)
    rng = np.random.default_rng(12)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for _ in range(20):
        x = rep.group.carrier[int(rng.integers(0, 64))]
        y = rep.group.carrier[int(rng.integers(0, 64))]
        lhs = rep.apply(x, rep.apply(y, v))
        rhs = rep.apply(rep.group.compose(x, y), v)
        # pi(x) pi(y) = c(x, y) pi(xy) with a constant phase of modulus one
        ratio = lhs[np.argmax(np.abs(rhs))] / rhs[np.argmax(np.abs(rhs))]
        assert abs(abs(ratio) - 1.0) < 1e-12
        assert np.allclose(lhs, ratio * rhs, atol=1e-12)


def test_tensor_rep_against_kron_oracle():
    left, right = TranslationRep(3), GaborRep(2)
    rep = TensorRep(left, right)
    rng = np.random.default_rng(13)
    v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for x in rep.group.carrier:
        x1, x2 = x[0], (x[1], x[2])
        expected = np.kron(left.apply(x1, v1), right.apply(x2, v2))
        assert np.allclose(rep.apply(x, np.kron(v1, v2)), expected)


def test_voice_transform_examples():
    rep = GaborRep(4)
    d0 = dirac_vector(4)
    vt = voice_transform(rep, d0, d0)
    for x in rep.group.carrier:
        expected = 1.0 if x[0] == 0 else 0.0
        assert abs(abs(vt.value_at(x)) - expected) < 1e-12
    # V_g g(e) = ||g||^2
    g = np.array([1.0, 2j, -1.0, 0.5])
    assert voice_transform(rep, g, g).value_at((0, 0)) == pytest.approx(
        np.linalg.norm(g) ** 2
    )


def test_voice_transform_flat_window_oracle():
    """Direct evaluation of all 16 inner products for g = (1,1,1,1)/2, f = dirac0."""
    rep = GaborRep(4)
    g = flat_vector(4)
    f = dirac_vector(4)
    vt = voice_transform(rep, g, f)
    for (k, l) in rep.group.carrier:
        oracle = np.vdot(_gabor_matrix(4, k, l) @ g, f)
        assert vt.value_at((k, l)) == pytest.approx(oracle)
        assert abs(vt.value_at((k, l))) == pytest.approx(0.5)


def test_voice_transform_errors():
    rep = GaborRep(4)
    with pytest.raises(ZeroWindow):
        voice_transform(rep, np.zeros(4), dirac_vector(4))
    with pytest.raises(DimensionMismatch):
        voice_transform(rep, dirac_vector(5), dirac_vector(4))
    with pytest.raises(DimensionMismatch):
        apply_rep(rep, (0, 0), np.zeros(3))


def test_covariance_modulus():
    """|V_g(pi(x) f)(x_j)| = |V_g f(x^{-1} x_j)| for translation and gabor."""
    rng = np.random.default_rng(14)
    for rep in (TranslationRep(8), GaborRep(4)):
        group = rep.group
        f = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        g = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        vt = voice_transform(rep, g, f)
        for _ in range(10):
            x = group.carrier[int(rng.integers(0, group.order))]
            shifted = voice_transform(rep, g, apply_rep(rep, x, f))
            for xj in (group.carrier[i] for i in rng.integers(0, group.order, 5)):
                expected = abs(vt.value_at(group.compose(group.inverse(x), xj)))
                assert abs(abs(shifted.value_at(xj)) - expected) <= 1e-12 * max(1, expected)


def test_cauchy_schwarz():
    rng = np.random.default_rng(15)
    rep = GaborRep(8)
    for _ in range(10):
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vt = voice_transform(rep, g, f)
        assert np.max(np.abs(vt.values)) <= np.linalg.norm(f) * np.linalg.norm(g) + 1e-12


def test_mollify_examples():
    rep = TranslationRep(4)
    g0 = dirac_vector(4)
    assert np.allclose(mollify_window(rep, g0, {0: 1.0}), g0)
    out = mollify_window(rep, g0, {0: 0.5, 1: 0.5})
    assert np.allclose(out, [0.5, 0.5, 0, 0])


def test_mollify_improves_tail_concentration():
    """A box-kernel average has smaller normalized self-transform tails than a dirac."""
    rep = GaborRep(8)
    group = rep.group
    d0 = dirac_vector(8)
    kernel = {x: 1.0 / 9.0 for x in group.ball(1).members}
    mollified = mollify_window(rep, d0, kernel)
    mollified = mollified / np.linalg.norm(mollified)
    U, L = group.ball(1), group.ball(2)
    tail_dirac = tail_mass(voice_transform(rep, d0, d0), U, L)
    tail_mollified = tail_mass(voice_transform(rep, mollified, mollified), U, L)
    assert tail_mollified < tail_dirac


def test_mollify_zero_result():
    # translates of the flat vector coincide, so opposite weights cancel exactly
    rep = TranslationRep(4)
    with pytest.raises(ZeroResult):
        mollify_window(rep, flat_vector(4), {0: 1.0, 1: -1.0})


def test_presets():
    assert np.allclose(vector_preset("dirac2", 8), dirac_vector(8, 2))
    assert np.linalg.norm(vector_preset("flat", 4)) == pytest.approx(1.0)
    gauss = vector_preset("gauss", 16)
    assert np.linalg.norm(gauss) == pytest.approx(1.0)
    assert np.all(gauss.real > 0)
    # wrap-around symmetry g(t) = g(-t)
    assert np.allclose(gauss, np.roll(gauss[::-1], 1))
    with pytest.raises(ValueError):
        vector_preset("bogus", 4)


def test_periodized_gaussian_truncation_converged():
    # widening the wrap range changes nothing at double precision
    t = np.arange(16, dtype=float)
    wide = np.zeros(16)
    for m in range(-40, 41):
        wide += np.exp(-np.pi * (t + m * 16) ** 2 / 16)
    wide /= np.linalg.norm(wide)
    assert np.allclose(periodized_gaussian(16), wide, atol=1e-15)


def _looped_tensor_apply(rep, x, v):
    """The column-by-column TensorRep.apply that the batched one replaced,
    kept as its bit-for-bit reference."""
    x1, x2 = rep._split(x)
    block = np.asarray(v).reshape(rep.left.dim, rep.right.dim)
    block = np.stack([rep.left.apply(x1, block[:, j]) for j in range(rep.right.dim)], axis=1)
    block = np.stack([rep.right.apply(x2, block[i, :]) for i in range(rep.left.dim)], axis=0)
    return block.reshape(-1)


def _nested_tensor():
    return TensorRep(GaborRep(2), TensorRep(TranslationRep(2), GaborRep(3)))


BATCH_REPS = {
    "translation": lambda: TranslationRep(5),
    "gabor": lambda: GaborRep(6),
    "tensor": lambda: TensorRep(GaborRep(3), TranslationRep(4)),
    "nested-tensor": _nested_tensor,
}


@pytest.mark.parametrize("make", BATCH_REPS.values(), ids=BATCH_REPS.keys())
def test_apply_acts_on_the_last_axis_of_a_batch(make):
    rep = make()
    rng = np.random.default_rng(17)
    V = rng.standard_normal((3, rep.dim)) + 1j * rng.standard_normal((3, rep.dim))
    for x in rep.group.carrier:
        batch = rep.apply(x, V)
        assert batch.shape == V.shape
        assert np.array_equal(batch, np.stack([rep.apply(x, v) for v in V]))


@pytest.mark.parametrize("rep", [TensorRep(GaborRep(3), GaborRep(4)), _nested_tensor()],
                         ids=["tensor", "nested-tensor"])
def test_tensor_apply_equals_the_column_loops_bit_for_bit(rep):
    rng = np.random.default_rng(19)
    v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    for x in rep.group.carrier:
        assert np.array_equal(rep.apply(x, v), _looped_tensor_apply(rep, x, v))


def test_voice_transform_is_a_group_function():
    from framecert.amalgam import GroupFunction

    rep = GaborRep(4)
    transform = voice_transform(rep, flat_vector(4), dirac_vector(4))
    assert type(transform) is GroupFunction and transform.group is rep.group


ORBIT_REPS = {
    **{f"gabor-{n}": (lambda n=n: GaborRep(n)) for n in (1, 2, 4, 8, 16, 24, 32)},
    **BATCH_REPS,
}


@pytest.mark.parametrize("make", ORBIT_REPS.values(), ids=ORBIT_REPS.keys())
def test_orbit_rows_equal_apply_bit_for_bit(make):
    rep = make()
    rng = np.random.default_rng(23)
    v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    looped = np.stack([apply_rep(rep, x, v) for x in rep.group.carrier])
    orbit = carrier_orbit(rep, v)
    assert orbit.shape == (rep.group.order, rep.dim) and orbit.dtype == complex
    assert orbit.tobytes() == looped.tobytes()
    # the voice transform reads its atoms off the orbit: same inner products
    g = periodized_gaussian(rep.dim)
    values = np.array([inner(v, rep.apply(x, g)) for x in rep.group.carrier])
    assert voice_transform(rep, g, v).values.tobytes() == values.tobytes()


def test_carrier_orbit_checks_the_dimension():
    with pytest.raises(DimensionMismatch):
        carrier_orbit(GaborRep(4), np.ones(5))
    with pytest.raises(DimensionMismatch):
        carrier_orbit(TranslationRep(3), np.ones((3, 3)))


# -- rejections ------------------------------------------------------------------


class _BoxRep:
    """Stands in for a representation over a box-truncated group."""

    group = GroupModel.box([2])


_REP_REJECTIONS = {
    "tensor-left-box": (lambda: TensorRep(_BoxRep(), TranslationRep(2)), ValueError),
    "tensor-right-box": (lambda: TensorRep(TranslationRep(2), _BoxRep()), ValueError),
    # preset names match whole: "$" would also match before a final newline
    "preset-flat-newline": (lambda: vector_preset("flat\n", 4), ValueError),
    "preset-dirac0-newline": (lambda: vector_preset("dirac0\n", 4), ValueError),
    "preset-dirac-without-index": (lambda: vector_preset("dirac", 4), ValueError),
    "preset-leading-space": (lambda: vector_preset(" gauss", 4), ValueError),
    "voice-source-wrong-dimension": (
        lambda: voice_transform(TranslationRep(4), np.ones(4), np.ones((4, 1))),
        DimensionMismatch),
    "mollify-wrong-dimension": (
        lambda: mollify_window(TranslationRep(4), np.ones(5), {0: 1.0}), DimensionMismatch),
}


@pytest.mark.parametrize("build, error", _REP_REJECTIONS.values(), ids=_REP_REJECTIONS.keys())
def test_invalid_representation_arguments_raise(build, error):
    with pytest.raises(error):
        build()
