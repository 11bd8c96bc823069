"""Outside-in tracing of framecert: spans at public function boundaries, counters
on per-element methods, and the per-layer metrics computed from them.

The tracer rebinds each traced function in every framecert namespace that
binds it (``hap`` and ``comparison`` import ``span_projector`` by name, for
example) and restores the originals on ``uninstall``.  Methods that run
10^5-10^6 times per scenario (``compose``, ``canon``, ``index``, set
membership, ``Representation.apply``, ``inner``) get counters only, so their
time lands in the self time of the span that called them.  The traced pass is
serial: the span stack is not shared between threads.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# Spans: one per call of these public functions and methods, by module.
SPAN_TARGETS = {
    "framecert.groups": (
        "GroupModel.__init__", "GroupModel.ball", "CompactSet.positions",
        "CompactSet.sorted_members", "PointSet.positions", "compact_set", "point_set",
        "full_point_set", "measure", "product_set", "translate_set", "complement",
        "is_symmetric", "require_symmetric_ball", "separation_constant",
    ),
    "framecert.amalgam": (
        "group_function", "dirac_function", "local_max", "amalgam_norm", "tail_mass",
        "sampling_bound_check",
    ),
    "framecert.representations": (
        "apply_rep", "voice_transform", "mollify_window", "vector_preset", "dirac_vector",
        "flat_vector", "periodized_gaussian",
    ),
    "framecert.frames": (
        "coherent_frame", "analysis_coefficients", "frame_operator", "frame_bounds",
        "analyze_frame", "canonical_dual", "verify_dual", "bessel_bound_check",
        "span_projector", "best_approx_check",
    ),
    "framecert.hap": ("local_subspace", "hap_error", "theoretical_tail_bound", "find_L"),
    "framecert.comparison": (
        "trace_bounds_check", "qpq_operator", "cardinality_count", "comparison_certificate",
        "comparison_run", "density_report", "ComparisonScenario.hap_choice",
    ),
    "framecert.scenarios": (
        "load_scenarios", "build_group", "build_rep", "build_vector", "build_points",
        "build_frame", "build_reference",
    ),
    "framecert.runner": ("run", "emit", "canonical_json", "determinism_sha256"),
}

# Counters only: target -> metric name.
COUNT_TARGETS = {
    "framecert.groups": {
        "GroupModel.compose": "groups.compose_calls",
        "GroupModel.canon": "groups.canon_calls",
        "GroupModel.index": "groups.index_calls",
        "CompactSet.__contains__": "groups.contains_calls",
    },
    "framecert.representations": {
        "TranslationRep.apply": "representations.apply_calls",
        "GaborRep.apply": "representations.apply_calls",
        "TensorRep.apply": "representations.apply_calls",
        "inner": "representations.inner_calls",
    },
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` are ``(name, start, end, parent_index, ...)`` tuples; a parent of
    -1 marks a root.  Child intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _resolve(module, target: str):
    """(owner, attribute, value) for "func" or "Class.method"; None if absent."""
    owner = module
    *path, attr = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, scenario_id)
        self.counts: Counter = Counter()
        self.scenario: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []
        # Hook state for the derived metrics.
        self._seen_groups: weakref.WeakSet = weakref.WeakSet()
        self.local_max_first_s = 0.0
        self.hap_scenarios: list = []
        self.hap_cells = 0
        self.find_L_builds = 0
        self._find_L_depth = 0
        self._frame_sizes: list[set] = []
        self.svd_calls = 0
        self.svd_flops = 0
        self.full_span_builds = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[name] for name in SPAN_TARGETS}
        for mod_name, targets in SPAN_TARGETS.items():
            layer = mod_name.split(".", 1)[1]
            for target in targets:
                found = _resolve(modules[mod_name], target)
                if found is None:
                    self.missing.append(f"{mod_name}.{target}")
                    continue
                self._patch(found, self._span_wrapper(f"{layer}.{target}", found[2]))
        for mod_name, targets in COUNT_TARGETS.items():
            for target, metric in targets.items():
                found = _resolve(sys.modules[mod_name], target)
                if found is None:
                    self.missing.append(f"{mod_name}.{target}")
                    continue
                self.counts[metric] += 0
                self._patch(found, self._count_wrapper(metric, found[2]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, found, wrapper) -> None:
        owner, attr, original = found
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # Rebind in every framecert namespace that imported the function by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] != "framecert":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        if isinstance(fn, functools.cached_property):
            prop = functools.cached_property(self._span_wrapper(name, fn.func))
            prop.__set_name__(None, fn.attrname)
            return prop
        enter = getattr(self, "_enter_" + name.rsplit(".", 1)[1], None)
        leave = getattr(self, "_leave_" + name.rsplit(".", 1)[1], None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.scenario)
                if leave is not None:
                    leave(args, kwargs, result, end - start)

        return spanned

    # -- hooks for derived metrics -----------------------------------------

    @staticmethod
    def _arg(args, kwargs, position: int, name: str):
        return args[position] if len(args) > position else kwargs[name]

    def _leave_local_max(self, args, kwargs, result, duration) -> None:
        group = self._arg(args, kwargs, 0, "f").group
        if group not in self._seen_groups:
            self._seen_groups.add(group)
            self.local_max_first_s += duration

    def _enter_find_L(self, args, kwargs) -> None:
        scenario = self._arg(args, kwargs, 0, "scenario")
        self._frame_sizes.append({scenario.duals.shape[1]})
        self._find_L_depth += 1

    def _leave_find_L(self, args, kwargs, result, duration) -> None:
        self._frame_sizes.pop()
        self._find_L_depth -= 1
        self.hap_scenarios.append(self._arg(args, kwargs, 0, "scenario"))
        if result is not None:
            self.hap_cells += sum(1 for cell in result.table if not cell.boundary)

    def _enter_comparison_certificate(self, args, kwargs) -> None:
        scenario = self._arg(args, kwargs, 0, "scenario")
        self._frame_sizes.append({scenario.given.size, scenario.reference.size})

    def _leave_comparison_certificate(self, args, kwargs, result, duration) -> None:
        self._frame_sizes.pop()

    def _leave_span_projector(self, args, kwargs, result, duration) -> None:
        if result is None:
            return
        d, m = result.generators.shape
        if m:
            self.svd_calls += 1
            self.svd_flops += svd_flops(d, m)
        if self._frame_sizes and m in self._frame_sizes[-1]:
            self.full_span_builds += 1
        if self._find_L_depth:
            self.find_L_builds += 1


def svd_flops(rows: int, cols: int) -> int:
    """Real flops of a thin complex SVD with vectors, from the matrix shape.

    Golub-Van Loan's Golub-Reinsch count for U1, Sigma and V (14 l k^2 + 8 k^3
    with l >= k the long and short sides), times 4 for complex arithmetic.
    A computed figure, not a measured one.
    """
    k, l = min(rows, cols), max(rows, cols)
    return 4 * (14 * l * k * k + 8 * k**3)


def distinct_kl_sets(hap_scenarios) -> int:
    """Distinct y.K.L position sets over the traced find_L calls.

    Enumerated through the public groups API; run it with tracing off.
    """
    from framecert.groups import OutOfCarrier, product_set, translate_set

    total = 0
    for scenario in hap_scenarios:
        group = scenario.frame.rep.group
        kl_sets = {}
        for K in scenario.K_family:
            for L in scenario.L_family:
                try:
                    KL = product_set(K, L)
                except OutOfCarrier:
                    continue
                kl_sets.setdefault(KL.members, KL)
        translates = set()
        for KL in kl_sets.values():
            for y in group.carrier:
                try:
                    translates.add(translate_set(y, KL).members)
                except OutOfCarrier:
                    continue
        total += len(translates)
    return total


def _outer_time(spans, name: str) -> float:
    """Total time inside calls of ``name``, counting recursive calls once."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_metrics(tracer: Tracer, distinct_sets: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    spans = tracer.spans
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    calls = Counter()
    for span, self_s in zip(spans, selfs):
        layer_self[span[0].split(".", 1)[0]] += self_s
        name_self[span[0]] += self_s
        calls[span[0]] += 1
    projector_calls = calls["frames.span_projector"]
    metrics = dict(tracer.counts)
    metrics.update({
        "groups.self_s": layer_self["groups"],
        "groups.product_set_s": _outer_time(spans, "groups.product_set"),
        "groups.translate_set_s": _outer_time(spans, "groups.translate_set"),
        "groups.separation_constant_s": _outer_time(spans, "groups.separation_constant"),
        "amalgam.local_max_calls": calls["amalgam.local_max"],
        "amalgam.local_max_s": _outer_time(spans, "amalgam.local_max"),
        "amalgam.local_max_first_s": tracer.local_max_first_s,
        "amalgam.sampling_bound_check_s": _outer_time(spans, "amalgam.sampling_bound_check"),
        "representations.voice_transform_s": _outer_time(spans, "representations.voice_transform"),
        "representations.self_s": layer_self["representations"],
        "frames.span_projector_calls": projector_calls,
        "frames.span_projector_s": _outer_time(spans, "frames.span_projector"),
        "frames.svd_calls": tracer.svd_calls,
        "frames.svd_flops_computed": tracer.svd_flops,
        "frames.full_span_share": tracer.full_span_builds / projector_calls if projector_calls else 0.0,
        "frames.analyze_frame_s": _outer_time(spans, "frames.analyze_frame"),
        "hap.find_L_s": _outer_time(spans, "hap.find_L"),
        "hap.find_L_self_s": name_self["hap.find_L"],
        "hap.cells": tracer.hap_cells,
        "hap.distinct_kl_share": distinct_sets / tracer.find_L_builds if tracer.find_L_builds else 0.0,
        "comparison.certificate_calls": calls["comparison.comparison_certificate"],
        "comparison.certificate_self_s": name_self["comparison.comparison_certificate"],
        "comparison.hap_choice_s": _outer_time(spans, "comparison.ComparisonScenario.hap_choice"),
        "comparison.trace_bounds_check_s": _outer_time(spans, "comparison.trace_bounds_check"),
        "comparison.density_report_s": _outer_time(spans, "comparison.density_report"),
        "runner.self_s": layer_self["runner"],
        "trace.spans": len(spans),
    })
    return metrics
