"""Span tracing of cyclecones' public functions, installed from outside.

Nothing in the library is instrumented.  ``Tracer.install`` replaces each
listed function on its module, and every alias bound elsewhere by
``from ... import`` (``zariski.vertex_enumeration``, ``cli.decompose``,
``cli.negdef_brute_force``, the package re-exports), with a wrapper that
records one span per call.  ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op)``; spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the time
covered by its direct child spans, computed on the fly.  Extra counts are
derived from call arguments and results only.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

PACKAGE = "cyclecones"

# (module, attribute path) of every traced public function
TARGETS = (
    ("polytope", "vertex_enumeration"),
    ("polytope", "recession_direction"),
    ("polytope", "maximize_linear"),
    ("cones", "double_description"),
    ("cones", "dd_convert"),
    ("cones", "contains"),
    ("simplex", "solve_standard"),
    ("zariski", "cone_geometry"),
    ("zariski", "decomposition_polytope"),
    ("zariski", "decompose"),
    ("zariski", "preceq_maximum"),
    ("zariski", "dominator_set_empty"),
    ("negdef", "decompose"),
    ("negdef", "brute_force"),
    ("projbundle", "zariski_decompose"),
    ("projbundle", "cones_at"),
    ("fixtures", "load"),
    ("fixtures", "verify_claims"),
    ("rings", "RingPresentation.multiply"),
    ("rings", "consistency_audit"),
    ("ringexpr", "evaluate"),
    ("cli", "run"),
)

# extra per-layer counts: metric suffix -> (unit, how several runs combine)
EXTRA_UNITS = {
    "polytope.vertex_enumeration.inequalities": "count",
    "polytope.vertex_enumeration.vertices": "count",
    "polytope.vertex_enumeration.subsets": "count",
    "cones.double_description.rows_in": "count",
    "cones.double_description.rays_out": "count",
    "cones.double_description.max_rays_out": "count",
    "simplex.solve_standard.tableau_cells": "count",
    "zariski.preceq_maximum.no_maximum": "count",
    "negdef.brute_force.subsets": "count",
}
MAX_COMBINED = {"cones.double_description.max_rays_out"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def _resolve(module: str, attr: str):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _record_extras(name: str, args, result, extras: dict) -> None:
    """Counts derived from arguments and results of one traced call."""
    if name == "polytope.vertex_enumeration":
        p = args[0]
        extras[name + ".inequalities"] += len(p.inequalities)
        extras[name + ".vertices"] += len(result.vertices)
        extras[name + ".subsets"] += comb(len(p.inequalities), p.dim)
    elif name == "cones.double_description":
        lineality, rays = result
        out = len(lineality) + len(rays)
        extras[name + ".rows_in"] += len(args[0])
        extras[name + ".rays_out"] += out
        key = name + ".max_rays_out"
        extras[key] = max(extras[key], out)
    elif name == "simplex.solve_standard":
        matrix = args[0]
        extras[name + ".tableau_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    elif name == "zariski.preceq_maximum":
        extras[name + ".no_maximum"] += result.status == "no-maximum"
    elif name == "negdef.brute_force":
        extras[name + ".subsets"] += 2 ** args[0].rank


class Tracer:
    """Owns the wrappers, the open-span stack and the recorded spans."""

    def __init__(self):
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.extras = dict.fromkeys(EXTRA_UNITS, 0)
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.op = -1  # identifier shared by the spans of one operation
        self._stack: list[list] = []  # [name index, start, child time, span id]
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}

    def _wrap(self, index: int, name: str, fn):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        extras = self.extras
        enumeration = name == "polytope.vertex_enumeration"
        materialize = name == "cones.double_description"

        def wrapper(*args, **kwargs):
            if enumeration and args[0].vertices is not None:
                return fn(*args, **kwargs)  # pass-through: no enumeration runs
            if materialize:
                args = (list(args[0]),) + args[1:]
            frame = [index, perf_counter(), 0.0, len(spans)]
            spans.append(None)  # reserve the id so children can point at it
            parent = stack[-1][3] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                calls[name] += 1
                self_s[name] += duration - frame[2]
                spans[frame[3]] = (index, frame[1], end, parent, self.op)
            _record_extras(name, args, result, extras)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _modules():
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Patch every listed function and every alias of it."""
        import importlib

        for module, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module}")
        replacements = {}
        for index, ((module, attr), name) in enumerate(zip(TARGETS, self.names)):
            owner, leaf = _resolve(module, attr)
            if name not in self._wrappers:
                self._originals[name] = getattr(owner, leaf)
                self._wrappers[name] = self._wrap(index, name, self._originals[name])
            original, wrapper = self._originals[name], self._wrappers[name]
            setattr(owner, leaf, wrapper)
            replacements[id(original)] = wrapper
        self._rebind(replacements)

    def uninstall(self) -> None:
        """Restore the originals everywhere the wrappers were bound."""
        restore = {id(w): self._originals[name] for name, w in self._wrappers.items()}
        for (module, attr), name in zip(TARGETS, self.names):
            owner, leaf = _resolve(module, attr)
            setattr(owner, leaf, self._originals[name])
        self._rebind(restore)

    def _rebind(self, mapping: dict) -> None:
        for module in self._modules():
            for key, value in list(vars(module).items()):
                target = mapping.get(id(value))
                if target is not None:
                    setattr(module, key, target)

    def summary(self) -> dict:
        """Aggregated per-layer counts, keyed by metric name."""
        out = {}
        for name in self.names:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.extras)
        return out

    def span_rows(self) -> list:
        return [s for s in self.spans if s is not None]


def combine(summaries: list[dict]) -> dict:
    """Merge summaries of several traced processes."""
    total: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key in MAX_COMBINED:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics with units, including the computed subset yield."""
    metrics = {}
    for key, value in summary.items():
        if key.endswith(".calls"):
            unit = "count"
        elif key.endswith(".self_s"):
            unit = "s"
        else:
            unit = EXTRA_UNITS[key]
        metrics[key] = {"value": value, "unit": unit}
    subsets = summary["polytope.vertex_enumeration.subsets"]
    vertices = summary["polytope.vertex_enumeration.vertices"]
    metrics["polytope.vertex_enumeration.subset_yield"] = {
        "value": vertices / subsets if subsets else 0.0,
        "unit": "ratio",
    }
    return metrics
