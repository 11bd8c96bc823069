"""Scenario files: JSON schema validation and descriptor construction.

A scenario file is a JSON array of objects.  Shared keys: "id" (unique
string), "kind", and optional "seed" (unsigned 64-bit, default 0).  Kinds and
their keys:

    sampling_bound   group, trials, max_radius
    frame_analysis   frame
    hap              frame, f, epsilon, u_radius, k_radii, l_radii
    comparison       frame, reference, epsilon, u_radius, k_radii, l_radii
    density          group, points, k_radii [, y_sample]

Descriptors:

    group      {"kind": "cyclic", "moduli": [N1, ...]}
               {"kind": "box", "halfwidths": [m1, ...]}
    rep        {"kind": "translation" | "gabor", "n": N}
               {"kind": "tensor", "factors": [repdesc, repdesc]}
    vector     "dirac<k>" | "flat" | "gauss" | [[re, im], ...]
               | {"sum": [vecdesc, ...]}
    points     "full" | [element, ...] | {"lattice": {"steps": [a1, ...]}}
    element    int | [int, ...]   (signed 64-bit coordinates)
    radius     int in [0, 2^63)   (u_radius, max_radius, k_radii, l_radii)
    size       int in [1, 2^63)   (moduli, n; a box halfwidth is in [0, 2^62))
    frame      {"rep": repdesc, "window": vecdesc, "points": pointsdesc}
    reference  {"window": vecdesc, "points": pointsdesc}   (rep is shared)

Unknown keys are rejected so typos fail loudly instead of silently changing
what gets certified.  Each descriptor kind is written once, in a function
that checks it and returns its builder: loading checks, running builds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from framecert.frames import FrameSystem, coherent_frame
from framecert.groups import GroupModel, PointSet, full_point_set, point_set
from framecert.representations import (
    PRESET_RE,
    GaborRep,
    Representation,
    TensorRep,
    TranslationRep,
    vector_preset,
)

_COMMON_KEYS = ("id", "kind", "seed")
# kind -> (required keys, optional keys)
_KIND_KEYS = {
    "sampling_bound": (("group", "trials", "max_radius"), ()),
    "frame_analysis": (("frame",), ()),
    "hap": (("frame", "f", "epsilon", "u_radius", "k_radii", "l_radii"), ()),
    "comparison": (("frame", "reference", "epsilon", "u_radius", "k_radii", "l_radii"), ()),
    "density": (("group", "points", "k_radii"), ("y_sample",)),
}
KINDS = tuple(_KIND_KEYS)


class ParseError(Exception):
    """The scenario file is not UTF-8, not valid JSON, or not a JSON array."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(Exception):
    """A scenario field is missing, unknown, or has an invalid value."""

    def __init__(self, field_name: str, message: str | None = None):
        self.field = field_name
        super().__init__(message or f"invalid scenario field: {field_name}")


@dataclass
class Scenario:
    id: str
    kind: str
    seed: int
    spec: dict = field(repr=False)


def load_scenarios(path) -> list[Scenario]:
    """Parse and validate a scenario file; unknown keys are rejected."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, list):
        raise ParseError("scenario file must contain a JSON array")
    scenarios = []
    seen_ids: set[str] = set()
    for i, item in enumerate(data):
        where = f"scenarios[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(where, f"{where} must be an object")
        scenario = _validate_scenario(item, where)
        if scenario.id in seen_ids:
            raise ValidationError("id", f"duplicate scenario id {scenario.id!r}")
        seen_ids.add(scenario.id)
        scenarios.append(scenario)
    return scenarios


def _int_in(value, low: int, high: int | None = None) -> bool:
    """value is an int, not a bool, with low <= value (and value < high)."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value >= low
        and (high is None or value < high)
    )


def _finite(value) -> bool:
    """value is an int or float, not a bool, that a float holds finitely."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_element(value) -> bool:
    """value is a group element as JSON gives it: an int or a list of ints,
    each in the signed 64-bit range of the carrier coordinates."""
    coords = value if isinstance(value, list) else [value]
    return all(_int_in(c, -(2**63), 2**63) for c in coords)


def is_seed(value) -> bool:
    """value is an unsigned 64-bit integer, as every seed must be."""
    return _int_in(value, 0, 2**64)


def _validate_scenario(item: dict, where: str) -> Scenario:
    sid = item.get("id")
    if not isinstance(sid, str) or not sid:
        raise ValidationError("id", f"{where}.id must be a nonempty string")
    kind = item.get("kind")
    if kind not in KINDS:
        raise ValidationError("kind", f"{where}.kind must be one of {KINDS}, got {kind!r}")
    required, optional = _KIND_KEYS[kind]
    for key in item:
        if key not in _COMMON_KEYS + required + optional:
            raise ValidationError(key, f"{where}: unknown key {key!r} for kind {kind!r}")
    for key in required:
        if key not in item:
            raise ValidationError(key, f"{where}: kind {kind!r} requires key {key!r}")
    seed = item.get("seed", 0)
    if not is_seed(seed):
        raise ValidationError("seed", f"{where}.seed must be an unsigned 64-bit integer")

    # each descriptor is checked by the function that builds it; the
    # builders are dropped here and made again when the scenario runs
    if "group" in item:
        _group(item["group"], f"{where}.group")
    for key in ("frame", "reference"):
        if key in item:
            _frame(item[key], f"{where}.{key}", key)
    if "f" in item:
        _vector(item["f"], f"{where}.f", "f")
    if "points" in item:
        _points(item["points"], f"{where}.points")
    if "epsilon" in item:
        eps = item["epsilon"]
        if not _finite(eps) or eps <= 0:
            raise ValidationError("epsilon", f"{where}.epsilon must be a finite positive number")
        if kind == "comparison" and not eps < 1:
            raise ValidationError("epsilon", f"{where}.epsilon must lie in (0, 1) for comparison")
    if "u_radius" in item:
        _validate_radius(item["u_radius"], "u_radius", where)
    for key in ("k_radii", "l_radii"):
        if key in item:
            _validate_radii(item[key], key, where)
    if "trials" in item:
        trials = item["trials"]
        if not _int_in(trials, 1):
            raise ValidationError("trials", f"{where}.trials must be a positive integer")
    if "max_radius" in item:
        _validate_radius(item["max_radius"], "max_radius", where)
    if "y_sample" in item:
        _validate_elements(item["y_sample"], "y_sample", f"{where}.y_sample")
    return Scenario(id=sid, kind=kind, seed=seed, spec=dict(item))


def _validate_radius(value, name: str, where: str) -> None:
    if not _int_in(value, 0, 2**63):
        raise ValidationError(name, f"{where}.{name} must be an integer in [0, 2^63)")


def _validate_radii(value, name: str, where: str) -> None:
    if not isinstance(value, list) or not value:
        raise ValidationError(name, f"{where}.{name} must be a nonempty list of radii")
    if not all(_int_in(r, 0, 2**63) for r in value):
        raise ValidationError(name, f"{where}.{name} entries must be integers in [0, 2^63)")
    if any(b <= a for a, b in zip(value, value[1:])):
        raise ValidationError(name, f"{where}.{name} must be strictly increasing")


def _validate_elements(value, name: str, where: str) -> None:
    # An element's rank and carrier membership are checked against the group
    # at build time, where a mismatch stays inside its report.
    if not isinstance(value, list) or not all(_is_element(e) for e in value):
        raise ValidationError(name, f"{where} must be a list of elements, each an integer "
                                    "or a list of integers in the signed 64-bit range")


def _group(desc, where: str) -> Callable[[], GroupModel]:
    if not isinstance(desc, dict):
        raise ValidationError("group", f"{where} must be an object")
    kind = desc.get("kind")
    if kind not in ("cyclic", "box"):
        raise ValidationError("group", f"{where}.kind must be 'cyclic' or 'box'")
    # sizes fit the signed 64-bit carrier coordinates, and so does a box side 2m + 1
    key, low, high = ("moduli", 1, 63) if kind == "cyclic" else ("halfwidths", 0, 62)
    if set(desc) != {"kind", key}:
        raise ValidationError("group", f"{where} must have exactly keys kind, {key}")
    sizes = desc[key]
    if not isinstance(sizes, list) or not sizes or not all(_int_in(n, low, 2**high) for n in sizes):
        raise ValidationError(key, f"{where}.{key} must be a nonempty list of integers "
                                   f"in [{low}, 2^{high})")
    return functools.partial(GroupModel.cyclic if kind == "cyclic" else GroupModel.box, sizes)


def _rep(desc, where: str) -> Callable[[], Representation]:
    if not isinstance(desc, dict):
        raise ValidationError("rep", f"{where} must be an object")
    kind = desc.get("kind")
    if kind in ("translation", "gabor"):
        if set(desc) != {"kind", "n"}:
            raise ValidationError("rep", f"{where} must have exactly keys kind, n")
        if not _int_in(desc["n"], 1, 2**63):
            raise ValidationError("n", f"{where}.n must be an integer in [1, 2^63)")
        return functools.partial(TranslationRep if kind == "translation" else GaborRep,
                                 desc["n"])
    if kind == "tensor":
        if set(desc) != {"kind", "factors"}:
            raise ValidationError("rep", f"{where} must have exactly keys kind, factors")
        factors = desc["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise ValidationError("factors",
                                  f"{where}.factors must list exactly two representations")
        left, right = (_rep(sub, f"{where}.factors[{k}]") for k, sub in enumerate(factors))
        return lambda: TensorRep(left(), right())
    raise ValidationError("rep", f"{where}.kind must be 'translation', 'gabor', or 'tensor'")


def _vector(desc, where: str, field_name: str) -> Callable[[int], np.ndarray]:
    """``field_name`` is the scenario or frame key the vector sits under,
    also for a term of a sum."""
    if isinstance(desc, str):
        if not PRESET_RE.fullmatch(desc):
            raise ValidationError(field_name, f"{where}: unknown vector preset {desc!r}")
        return functools.partial(vector_preset, desc)
    if isinstance(desc, list):
        if not all(isinstance(e, list) and len(e) == 2 and all(map(_finite, e)) for e in desc):
            raise ValidationError(field_name, f"{where}: inline vectors are "
                                  "[[re, im], ...] arrays of finite numbers")

        def inline(dim: int) -> np.ndarray:
            values = np.array([complex(re, im) for re, im in desc])
            if values.shape != (dim,):
                raise ValueError(f"inline vector has length {values.size}, expected {dim}")
            return values

        return inline
    if isinstance(desc, dict) and set(desc) == {"sum"} and isinstance(desc["sum"], list):
        terms = [_vector(sub, f"{where}.sum[{k}]", field_name)
                 for k, sub in enumerate(desc["sum"])]
        return lambda dim: sum((term(dim) for term in terms), np.zeros(dim, dtype=complex))
    raise ValidationError(field_name, f"{where}: not a recognized vector descriptor")


def _points(desc, where: str) -> Callable[[GroupModel], PointSet]:
    if desc == "full":
        return full_point_set
    if isinstance(desc, list):
        _validate_elements(desc, "points", where)
        return lambda group: point_set(group, desc)
    if isinstance(desc, dict) and set(desc) == {"lattice"}:
        lattice = desc["lattice"]
        if not isinstance(lattice, dict) or set(lattice) != {"steps"}:
            raise ValidationError("points", f"{where}.lattice must have exactly key steps")
        steps = lattice["steps"]
        if not isinstance(steps, list) or not steps or not all(_int_in(s, 1) for s in steps):
            raise ValidationError("steps", f"{where}.lattice.steps must be positive integers")

        def sublattice(group: GroupModel) -> PointSet:
            if group.moduli is None:
                raise ValueError("lattice point sets require a cyclic-product group")
            if len(steps) != group.rank:
                raise ValueError(f"lattice needs {group.rank} steps, got {len(steps)}")
            for s, n in zip(steps, group.moduli):
                if n % s != 0:
                    raise ValueError(f"lattice step {s} does not divide modulus {n}")
            axes = [range(0, n, s) for s, n in zip(steps, group.moduli)]
            return point_set(group, itertools.product(*axes))

        return sublattice
    raise ValidationError("points", f"{where}: not a recognized point-set descriptor")


def _frame(desc, where: str, field_name: str) -> Callable[..., FrameSystem]:
    """A "frame" names its rep; a "reference" is built on the frame's rep,
    which its builder takes."""
    keys = ("rep", "window", "points") if field_name == "frame" else ("window", "points")
    if not isinstance(desc, dict) or set(desc) != set(keys):
        raise ValidationError(field_name, f"{where} must have exactly keys {', '.join(keys)}")
    own_rep = _rep(desc["rep"], f"{where}.rep") if field_name == "frame" else None
    window = _vector(desc["window"], f"{where}.window", "window")
    points = _points(desc["points"], f"{where}.points")

    def frame(rep: Representation | None = None) -> FrameSystem:
        if rep is None:
            rep = own_rep()
        return coherent_frame(rep, window(rep.dim), points(rep.group))

    return frame


def build_group(desc: dict) -> GroupModel:
    return _group(desc, "group")()


def build_rep(desc: dict) -> Representation:
    return _rep(desc, "rep")()


def build_vector(desc, dim: int) -> np.ndarray:
    return _vector(desc, "vector", "vector")(dim)


def build_points(desc, group: GroupModel) -> PointSet:
    return _points(desc, "points")(group)


def build_frame(desc: dict) -> FrameSystem:
    return _frame(desc, "frame", "frame")()


def build_reference(desc: dict, rep: Representation) -> FrameSystem:
    return _frame(desc, "reference", "reference")(rep)
