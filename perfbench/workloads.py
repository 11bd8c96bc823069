"""Scenario files for the benchmark workloads, generated from a seed.

Every rung keeps its carrier, its window/inflation families and its trial
and point counts fixed, so the cell count and the work done do not depend on
the seed; the seed only draws test vectors, window mixes, point lists and the
sampling trials' random functions.  The same seed gives a byte-identical file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("suite", "hap-ladder", "carrier-scan")

# Scenario batches run with --parallel equal to the two cores of the reference
# machine for the shipped suite (the user's everyday run); the generated
# ladders run serially, as a single `framecert <kind>` call does by default.
PARALLELISM = {"suite": 2, "hap-ladder": 1, "carrier-scan": 1}

ACCEPTANCE_FILE = Path("scenarios") / "acceptance.json"


def _unit_vector(rng: random.Random, dim: int) -> list[list[float]]:
    """Seeded complex unit vector as an inline [[re, im], ...] descriptor."""
    re = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    im = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(a * a + b * b for a, b in zip(re, im)))
    return [[a / norm, b / norm] for a, b in zip(re, im)]


def _window_mix(rng: random.Random, dim: int) -> dict:
    """Gaussian window plus a seeded perturbation of norm 0.1.

    The full Gabor system is a tight frame for any nonzero window, so the
    comparison probe's frame is valid for every seed.
    """
    return {"sum": ["gauss", [[0.1 * a, 0.1 * b] for a, b in _unit_vector(rng, dim)]]}


def _points(rng: random.Random, n: int, count: int) -> list[list[int]]:
    return [[rng.randrange(n), rng.randrange(n)] for _ in range(count)]


def _gabor_frame(n: int, window) -> dict:
    return {"rep": {"kind": "gabor", "n": n}, "window": window, "points": "full"}


def probe_scenarios(rng: random.Random) -> list[dict]:
    """One tiny scenario of each kind on a 4x4 carrier.

    Appended to every generated workload (well under 1% of its time) so that
    every layer is exercised and every per-layer metric is measured on every
    workload; also used to warm the interpreter before timing.
    """
    return [
        {"id": "probe-sampling", "kind": "sampling_bound",
         "group": {"kind": "cyclic", "moduli": [4, 4]}, "trials": 2, "max_radius": 1,
         "seed": rng.randrange(2**32)},
        {"id": "probe-frame", "kind": "frame_analysis", "frame": _gabor_frame(4, "gauss"),
         "seed": rng.randrange(2**32)},
        {"id": "probe-hap", "kind": "hap", "frame": _gabor_frame(4, "gauss"),
         "f": _unit_vector(rng, 4), "epsilon": 0.1, "u_radius": 1,
         "k_radii": [0, 1], "l_radii": [0, 1, 2]},
        {"id": "probe-compare", "kind": "comparison",
         "frame": _gabor_frame(4, _window_mix(rng, 4)),
         "reference": {"window": "dirac0", "points": {"lattice": {"steps": [1, 4]}}},
         "epsilon": 0.5, "u_radius": 1, "k_radii": [0, 1], "l_radii": [0, 1, 2]},
        {"id": "probe-density", "kind": "density",
         "group": {"kind": "cyclic", "moduli": [4, 4]}, "points": _points(rng, 4, 6),
         "k_radii": [1]},
    ]


def _hap_ladder(rng: random.Random) -> list[dict]:
    # Z16 is the acceptance criterion-6 shape: 27 (K, L) pairs, 9 distinct K.L
    # sets.  Z24 keeps K {0, 2} and trims L to {0, 6, 12} to hold the time.
    rungs = [(16, [0, 1, 2], list(range(9))), (24, [0, 2], [0, 6, 12])]
    return [
        {
            "id": f"hap-gabor-z{n}",
            "kind": "hap",
            "frame": _gabor_frame(n, "gauss"),
            "f": _unit_vector(rng, n),
            "epsilon": 0.05,
            "u_radius": 1,
            "k_radii": k_radii,
            "l_radii": l_radii,
        }
        for n, k_radii, l_radii in rungs
    ]


def _carrier_scan(rng: random.Random) -> list[dict]:
    # 24x24 (576) sits below the compose-table limit of 2048, 46x46 (2116)
    # above it.  The runner draws each trial's U and K radii from the scenario
    # seed, so max_radius is 0 to keep the work independent of the seed; the
    # table build (below the limit) and the fallback loops (above it) still run.
    scenarios = []
    for n in (24, 46):
        scenarios.append(
            {"id": f"sampling-c{n}", "kind": "sampling_bound",
             "group": {"kind": "cyclic", "moduli": [n, n]}, "trials": 8,
             "max_radius": 0, "seed": rng.randrange(2**32)}
        )
    for n, k_radii in ((24, [1, 2, 4]), (46, [1, 4])):
        scenarios.append(
            {"id": f"density-c{n}", "kind": "density",
             "group": {"kind": "cyclic", "moduli": [n, n]}, "points": _points(rng, n, 64),
             "k_radii": k_radii}
        )
    return scenarios


_GENERATORS = {
    "hap-ladder": _hap_ladder,
    "carrier-scan": _carrier_scan,
}


def scenario_text(workload: str, seed: int, root: Path) -> str:
    """The scenario file the program sees for ``workload`` at ``seed``."""
    if workload == "suite":
        return (root / ACCEPTANCE_FILE).read_text(encoding="utf-8")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    scenarios = _GENERATORS[workload](rng) + probe_scenarios(rng)
    return json.dumps(scenarios, indent=1) + "\n"


def write_scenarios(workload: str, seed: int, root: Path, path: Path) -> Path:
    path.write_text(scenario_text(workload, seed, root), encoding="utf-8")
    return path
