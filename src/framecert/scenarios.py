"""Scenario files: JSON schema validation and descriptor construction.

A scenario file is a JSON array of objects.  Shared keys: "id" (unique
string), "kind", and optional "seed" (unsigned 64-bit, default 0).  Kinds and
their keys:

    sampling_bound   group, trials, max_radius
    frame_analysis   frame [, u_radius]
    hap              frame, f, epsilon, u_radius, k_radii, l_radii
    comparison       frame, reference, epsilon, u_radius, k_radii, l_radii
                     [, b_convention]
    density          group, points, k_radii [, y_sample]

Descriptors:

    group      {"kind": "cyclic", "moduli": [N1, ...]}
               {"kind": "box", "halfwidths": [m1, ...]}
    rep        {"kind": "translation" | "gabor", "n": N}
               {"kind": "tensor", "factors": [repdesc, repdesc]}
    vector     "dirac<k>" | "flat" | "gauss" | [[re, im], ...]
               | {"sum": [vecdesc, ...]}
    points     "full" | [element, ...] | {"lattice": {"steps": [a1, ...]}}
    frame      {"rep": repdesc, "window": vecdesc, "points": pointsdesc}
    reference  {"window": vecdesc, "points": pointsdesc}   (rep is shared)

Unknown keys are rejected so typos fail loudly instead of silently changing
what gets certified.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from framecert.frames import FrameSystem, coherent_frame
from framecert.groups import GroupModel, PointSet, full_point_set, point_set
from framecert.representations import (
    GaborRep,
    Representation,
    TensorRep,
    TranslationRep,
    vector_preset,
)

KINDS = ("sampling_bound", "frame_analysis", "hap", "comparison", "density")

_COMMON_KEYS = ("id", "kind", "seed")
# kind -> (required keys, optional keys)
_KIND_KEYS = {
    "sampling_bound": (("group", "trials", "max_radius"), ()),
    "frame_analysis": (("frame",), ("u_radius",)),
    "hap": (("frame", "f", "epsilon", "u_radius", "k_radii", "l_radii"), ()),
    "comparison": (
        ("frame", "reference", "epsilon", "u_radius", "k_radii", "l_radii"),
        ("b_convention",),
    ),
    "density": (("group", "points", "k_radii"), ("y_sample",)),
}

_PRESET_RE = re.compile(r"(dirac\d+|flat|gauss)$")


class ParseError(Exception):
    """The scenario file is not valid JSON (or not a JSON array)."""

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
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
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


def is_seed(value) -> bool:
    """value is an unsigned 64-bit integer, as every seed must be."""
    return _int_in(value, 0, 2**64)


def _fail(field_name: str, message: str):
    raise ValidationError(field_name, message)


def _leaf(where: str) -> str:
    """Last path segment of a descriptor location, e.g. 'scenarios[0].f' -> 'f'."""
    return where.rsplit(".", 1)[-1].split("[", 1)[0]


def _validate_scenario(item: dict, where: str) -> Scenario:
    sid = item.get("id")
    if not isinstance(sid, str) or not sid:
        _fail("id", f"{where}.id must be a nonempty string")
    kind = item.get("kind")
    if kind not in KINDS:
        _fail("kind", f"{where}.kind must be one of {KINDS}, got {kind!r}")
    required, optional = _KIND_KEYS[kind]
    for key in item:
        if key not in _COMMON_KEYS + required + optional:
            _fail(key, f"{where}: unknown key {key!r} for kind {kind!r}")
    for key in required:
        if key not in item:
            _fail(key, f"{where}: kind {kind!r} requires key {key!r}")
    seed = item.get("seed", 0)
    if not is_seed(seed):
        _fail("seed", f"{where}.seed must be an unsigned 64-bit integer")

    if "group" in item:
        _validate_group(item["group"], f"{where}.group")
    if "frame" in item:
        _validate_frame(item["frame"], f"{where}.frame")
    if "reference" in item:
        _validate_reference(item["reference"], f"{where}.reference")
    if "f" in item:
        _validate_vector(item["f"], f"{where}.f")
    if "points" in item:
        _validate_points(item["points"], f"{where}.points")
    if "epsilon" in item:
        eps = item["epsilon"]
        if not isinstance(eps, (int, float)) or isinstance(eps, bool) or eps <= 0:
            _fail("epsilon", f"{where}.epsilon must be a positive number")
        if kind == "comparison" and not eps < 1:
            _fail("epsilon", f"{where}.epsilon must lie in (0, 1) for comparison")
    if "u_radius" in item:
        _validate_radius(item["u_radius"], "u_radius", where)
    for key in ("k_radii", "l_radii"):
        if key in item:
            _validate_radii(item[key], key, where)
    if "trials" in item:
        trials = item["trials"]
        if not _int_in(trials, 1):
            _fail("trials", f"{where}.trials must be a positive integer")
    if "max_radius" in item:
        _validate_radius(item["max_radius"], "max_radius", where)
    if "b_convention" in item and item["b_convention"] not in ("reference", "dual_of_given"):
        _fail("b_convention", f"{where}.b_convention must be 'reference' or 'dual_of_given'")
    if "y_sample" in item and not isinstance(item["y_sample"], list):
        _fail("y_sample", f"{where}.y_sample must be a list of elements")
    return Scenario(id=sid, kind=kind, seed=seed, spec=dict(item))


def _validate_radius(value, name: str, where: str) -> None:
    if not _int_in(value, 0):
        _fail(name, f"{where}.{name} must be a nonnegative integer")


def _validate_radii(value, name: str, where: str) -> None:
    if not isinstance(value, list) or not value:
        _fail(name, f"{where}.{name} must be a nonempty list of radii")
    if not all(_int_in(r, 0) for r in value):
        _fail(name, f"{where}.{name} entries must be nonnegative integers")
    if any(b <= a for a, b in zip(value, value[1:])):
        _fail(name, f"{where}.{name} must be strictly increasing")


def _validate_group(desc, where: str) -> None:
    if not isinstance(desc, dict):
        _fail("group", f"{where} must be an object")
    kind = desc.get("kind")
    if kind == "cyclic":
        if set(desc) != {"kind", "moduli"}:
            _fail("group", f"{where} must have exactly keys kind, moduli")
        moduli = desc["moduli"]
        if not isinstance(moduli, list) or not moduli or not all(_int_in(n, 1) for n in moduli):
            _fail("moduli", f"{where}.moduli must be a nonempty list of positive integers")
    elif kind == "box":
        if set(desc) != {"kind", "halfwidths"}:
            _fail("group", f"{where} must have exactly keys kind, halfwidths")
        widths = desc["halfwidths"]
        if not isinstance(widths, list) or not widths or not all(_int_in(m, 0) for m in widths):
            _fail("halfwidths", f"{where}.halfwidths must be nonnegative integers")
    else:
        _fail("group", f"{where}.kind must be 'cyclic' or 'box'")


def _validate_rep(desc, where: str) -> None:
    if not isinstance(desc, dict):
        _fail("rep", f"{where} must be an object")
    kind = desc.get("kind")
    if kind in ("translation", "gabor"):
        if set(desc) != {"kind", "n"}:
            _fail("rep", f"{where} must have exactly keys kind, n")
        if not _int_in(desc["n"], 1):
            _fail("n", f"{where}.n must be a positive integer")
    elif kind == "tensor":
        if set(desc) != {"kind", "factors"}:
            _fail("rep", f"{where} must have exactly keys kind, factors")
        factors = desc["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            _fail("factors", f"{where}.factors must list exactly two representations")
        for k, sub in enumerate(factors):
            _validate_rep(sub, f"{where}.factors[{k}]")
    else:
        _fail("rep", f"{where}.kind must be 'translation', 'gabor', or 'tensor'")


def _validate_vector(desc, where: str) -> None:
    if isinstance(desc, str):
        if not _PRESET_RE.match(desc):
            _fail(_leaf(where), f"{where}: unknown vector preset {desc!r}")
        return
    if isinstance(desc, list):
        for entry in desc:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(not isinstance(c, (int, float)) or isinstance(c, bool) for c in entry)
            ):
                _fail(_leaf(where), f"{where}: inline vectors are [[re, im], ...] arrays")
        return
    if isinstance(desc, dict) and set(desc) == {"sum"} and isinstance(desc["sum"], list):
        for k, sub in enumerate(desc["sum"]):
            _validate_vector(sub, f"{where}.sum[{k}]")
        return
    _fail(_leaf(where), f"{where}: not a recognized vector descriptor")


def _validate_points(desc, where: str) -> None:
    if desc == "full":
        return
    if isinstance(desc, list):
        return  # element shapes are checked against the group at build time
    if isinstance(desc, dict) and set(desc) == {"lattice"}:
        lattice = desc["lattice"]
        if not isinstance(lattice, dict) or set(lattice) != {"steps"}:
            _fail("points", f"{where}.lattice must have exactly key steps")
        steps = lattice["steps"]
        if not isinstance(steps, list) or not steps or not all(_int_in(s, 1) for s in steps):
            _fail("steps", f"{where}.lattice.steps must be positive integers")
        return
    _fail("points", f"{where}: not a recognized point-set descriptor")


def _validate_frame(desc, where: str) -> None:
    if not isinstance(desc, dict) or set(desc) != {"rep", "window", "points"}:
        _fail("frame", f"{where} must have exactly keys rep, window, points")
    _validate_rep(desc["rep"], f"{where}.rep")
    _validate_vector(desc["window"], f"{where}.window")
    _validate_points(desc["points"], f"{where}.points")


def _validate_reference(desc, where: str) -> None:
    if not isinstance(desc, dict) or set(desc) != {"window", "points"}:
        _fail("reference", f"{where} must have exactly keys window, points")
    _validate_vector(desc["window"], f"{where}.window")
    _validate_points(desc["points"], f"{where}.points")


def build_group(desc: dict) -> GroupModel:
    if desc["kind"] == "cyclic":
        return GroupModel.cyclic(desc["moduli"])
    return GroupModel.box(desc["halfwidths"])


def build_rep(desc: dict) -> Representation:
    kind = desc["kind"]
    if kind == "translation":
        return TranslationRep(desc["n"])
    if kind == "gabor":
        return GaborRep(desc["n"])
    left, right = (build_rep(sub) for sub in desc["factors"])
    return TensorRep(left, right)


def build_vector(desc, dim: int) -> np.ndarray:
    if isinstance(desc, str):
        return vector_preset(desc, dim)
    if isinstance(desc, dict):
        total = np.zeros(dim, dtype=complex)
        for sub in desc["sum"]:
            total = total + build_vector(sub, dim)
        return total
    values = np.array([complex(re, im) for re, im in desc])
    if values.shape != (dim,):
        raise ValueError(f"inline vector has length {values.size}, expected {dim}")
    return values


def build_points(desc, group: GroupModel) -> PointSet:
    if desc == "full":
        return full_point_set(group)
    if isinstance(desc, dict):
        steps = desc["lattice"]["steps"]
        if group.kind != "cyclic" or group.moduli is None:
            raise ValueError("lattice point sets require a cyclic-product group")
        if len(steps) != group.rank:
            raise ValueError(f"lattice needs {group.rank} steps, got {len(steps)}")
        for s, n in zip(steps, group.moduli):
            if n % s != 0:
                raise ValueError(f"lattice step {s} does not divide modulus {n}")
        axes = [range(0, n, s) for s, n in zip(steps, group.moduli)]
        if group.rank == 1:
            return point_set(group, axes[0])
        return point_set(group, itertools.product(*axes))
    return point_set(group, [tuple(p) if isinstance(p, list) else p for p in desc])


def build_frame(desc: dict) -> FrameSystem:
    rep = build_rep(desc["rep"])
    window = build_vector(desc["window"], rep.dim)
    points = build_points(desc["points"], rep.group)
    return coherent_frame(rep, window, points)


def build_reference(desc: dict, rep: Representation) -> FrameSystem:
    window = build_vector(desc["window"], rep.dim)
    points = build_points(desc["points"], rep.group)
    return coherent_frame(rep, window, points)
