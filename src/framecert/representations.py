"""Unitary group representations on C^d and the windowed transform V_g f.

The inner product convention is fixed once for the whole package:

    inner(f, g) = sum_i f_i * conj(g_i)

(linear in the first slot).  The windowed transform of f against a window g
is V_g f(x) = inner(f, pi(x) g), sampled on the entire carrier.

The time-frequency representation is projective: pi(x) pi(y) = c(x, y) pi(xy)
with |c(x, y)| = 1.  Everything consumed downstream (spans, moduli of
coefficients) is unaffected by the cocycle.
"""

from __future__ import annotations

import re
from typing import Mapping

import numpy as np

from framecert.amalgam import GroupFunction
from framecert.groups import Element, GroupModel


class DimensionMismatch(Exception):
    """Vector dimension does not match the representation space."""


class ZeroWindow(Exception):
    """The analyzing window must be nonzero."""


class ZeroResult(Exception):
    """A mollifying kernel annihilated the window."""


def inner(f, g) -> complex:
    """inner(f, g) = sum f_i conj(g_i); conjugate-linear in the second slot."""
    return complex(np.vdot(np.asarray(g), np.asarray(f)))


class Representation:
    """Matrix-free unitary action of a finite group on C^dim."""

    kind: str
    group: GroupModel
    dim: int

    def apply(self, x, v: np.ndarray) -> np.ndarray:
        """pi(x) applied along the last axis of ``v``, whose length is dim;
        any leading axes are a batch, and each vector is acted on alone."""
        raise NotImplementedError

    def orbit(self, v: np.ndarray) -> np.ndarray:
        """pi(x) v for every carrier element x, one row per element in carrier
        order: row p is apply(x_p, v), bit for bit, for a vector v of length dim."""
        return np.stack([self.apply(x, v) for x in self.group.carrier])


class TranslationRep(Representation):
    """Cyclic shift action of Z_n on C^n: (pi(k) v)(t) = v(t - k)."""

    def __init__(self, n: int):
        self.kind = "translation"
        self.group = GroupModel.cyclic([n])
        self.dim = int(n)

    def apply(self, x, v: np.ndarray) -> np.ndarray:
        return np.roll(v, self.group.canon(x), axis=-1)


class GaborRep(Representation):
    """Time-frequency shifts of Z_n x Z_n on C^n: pi(k, l) = M_l T_k.

    (T_k v)(t) = v(t - k) and (M_l v)(t) = exp(2 pi i l t / n) v(t).
    """

    def __init__(self, n: int):
        self.kind = "gabor"
        self.n = int(n)
        self.group = GroupModel.cyclic([n, n])
        self.dim = int(n)
        self._t = np.arange(self.n)

    def apply(self, x, v: np.ndarray) -> np.ndarray:
        k, l = self.group.canon(x)
        return np.exp(2j * np.pi * l * self._t / self.n) * np.roll(v, k, axis=-1)

    def orbit(self, v: np.ndarray) -> np.ndarray:
        # The carrier lists (k, l) row-major, so row k*n + l is M_l T_k v: each
        # phase and each shift is computed once, as apply computes it.
        phases = np.stack([np.exp(2j * np.pi * l * self._t / self.n) for l in range(self.n)])
        shifts = np.stack([np.roll(v, k) for k in range(self.n)])
        return (phases * shifts[:, None, :]).reshape(self.n * self.n, self.n)


class TensorRep(Representation):
    """Tensor product of two cyclic-group representations."""

    def __init__(self, left: Representation, right: Representation):
        if left.group.kind != "cyclic" or right.group.kind != "cyclic":
            raise ValueError("tensor factors must act over cyclic-product groups")
        self.kind = "tensor"
        self.left = left
        self.right = right
        assert left.group.moduli is not None and right.group.moduli is not None
        self.group = GroupModel.cyclic(left.group.moduli + right.group.moduli)
        self.dim = left.dim * right.dim

    def _split(self, x) -> tuple[Element, Element]:
        coords = self.group.canon(x)
        r = self.left.group.rank
        return self.left.group._from_coords(coords[:r]), self.right.group._from_coords(coords[r:])

    def apply(self, x, v: np.ndarray) -> np.ndarray:
        x1, x2 = self._split(x)
        block = v.reshape(v.shape[:-1] + (self.left.dim, self.right.dim))
        # The left factor acts on the columns of each (left.dim, right.dim) block.
        block = self.left.apply(x1, block.swapaxes(-1, -2)).swapaxes(-1, -2)
        return self.right.apply(x2, block).reshape(v.shape)


def _vector(rep: Representation, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (rep.dim,):
        raise DimensionMismatch(f"expected a vector of dimension {rep.dim}, got shape {v.shape}")
    return v


def apply_rep(rep: Representation, x, v) -> np.ndarray:
    """pi(x) v with dimension validation; norm is preserved to rounding."""
    return rep.apply(x, _vector(rep, v))


def carrier_orbit(rep: Representation, v) -> np.ndarray:
    """pi(x) v for every carrier element x, one row per element in carrier
    order, with dimension validation; row p equals apply_rep(rep, x_p, v)."""
    return rep.orbit(_vector(rep, v))


def voice_transform(rep: Representation, g, f) -> GroupFunction:
    """V_g f(x) = inner(f, pi(x) g) for every carrier element x."""
    g, f = _vector(rep, g), _vector(rep, f)
    if np.linalg.norm(g) == 0.0:
        raise ZeroWindow("the analyzing window must be nonzero")
    values = np.array([inner(f, atom) for atom in rep.orbit(g)])
    return GroupFunction(group=rep.group, values=values)


def mollify_window(rep: Representation, g0, kernel: Mapping) -> np.ndarray:
    """Averaged window sum_x kernel(x) pi(x) g0 for a finitely supported kernel.

    Raises ZeroResult when the output norm falls below 1e-12 (a destructive
    kernel), since the result could not serve as a window.
    """
    g0 = _vector(rep, g0)
    out = np.zeros(rep.dim, dtype=complex)
    for x, weight in kernel.items():
        xc = rep.group.canon(x)
        out += complex(weight) * rep.apply(xc, g0)
    if np.linalg.norm(out) < 1e-12:
        raise ZeroResult("mollifying kernel produced a numerically zero window")
    return out


# The names vector_preset takes, whole: "dirac<k>", "flat" and "gauss".
PRESET_RE = re.compile(r"dirac(\d+)|flat|gauss")


def dirac_vector(dim: int, index: int = 0) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index % dim] = 1.0
    return v


def flat_vector(dim: int) -> np.ndarray:
    return np.ones(dim, dtype=complex) / np.sqrt(dim)


def periodized_gaussian(dim: int) -> np.ndarray:
    """Unit-norm sampled Gaussian wrapped around Z_dim."""
    t = np.arange(dim, dtype=float)
    acc = np.zeros(dim)
    for m in range(-8, 9):
        acc += np.exp(-np.pi * (t + m * dim) ** 2 / dim)
    return (acc / np.linalg.norm(acc)).astype(complex)


def vector_preset(name: str, dim: int) -> np.ndarray:
    """Named vectors: "dirac<k>", "flat", or "gauss"."""
    match = PRESET_RE.fullmatch(name)
    if match is None:
        raise ValueError(f"unknown vector preset {name!r}")
    if match[1] is not None:
        return dirac_vector(dim, int(match[1]))
    return flat_vector(dim) if name == "flat" else periodized_gaussian(dim)
