"""Span tracing of riemgrid's public functions, installed from outside the library.

A Tracer rebinds each wrapped public name in every loaded ``riemgrid.*``
namespace that holds it, so a public call made from inside the library (say,
``slice_decompose`` calling ``pullback``) becomes a child span of its caller.
Spans stay in memory as (name, start, end, parent, failed, extra); when the
traced round ends they are turned into per-layer metrics and written out.  Private helpers
(``_lie_stack``, ``_divergence_stack``, ``_curved_div_solver``, ...) are not
wrapped: their time lands in the self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .stats import median

LAYERS = ("cli", "fileio", "sampling", "geodesics", "calculus", "diffeos", "slicing")

CLI_SUBCOMMANDS = ("gen-examples", "project", "exp", "log", "decompose", "lift", "isometries")

# span name -> stats reported for it; every wrapped function except cli.main
# (whose self time is part of cli.self_s) and the cli subcommands (reported as
# cli.<subcommand>.wall_s) appears here
FUNCTION_STATS = {
    "fileio.read_field": ("calls", "self_s"),
    "fileio.write_field": ("calls", "self_s"),
    "sampling.random_sym_tensor": ("calls", "self_s"),
    "sampling.random_vector_field": ("calls", "self_s"),
    "sampling.divergence_free_tensor": ("calls", "self_s"),
    "geodesics.ebin_exp": ("calls", "self_s", "steps"),
    "geodesics.ebin_log": ("calls", "self_s", "fail"),
    "calculus.lie_derivative_metric": ("calls", "self_s"),
    "calculus.divergence": ("calls", "self_s"),
    "diffeos.flow_exp": ("calls", "self_s"),
    "diffeos.invert": ("calls", "self_s"),
    "diffeos.compose": ("calls", "self_s"),
    "diffeos.pullback": ("calls", "self_s"),
    "slicing.berger_ebin_project": ("calls", "self_s", "fail", "cg_iterations"),
    "slicing.slice_decompose": ("calls", "self_s", "fail", "iterations"),
    "slicing.horizontal_lift": ("calls", "self_s"),
    "slicing.slice_membership": ("calls", "self_s", "member", "orbit_component", "outside_chart"),
    "slicing.isometry_candidates": ("calls", "self_s", "checked", "passing"),
    "slicing.lattice_transport": ("calls", "self_s"),
}

SPLIT_KINDS = ("first", "repeat", "flat")

PER_LAYER_METRICS = (
    tuple(f"{fn}.{stat}" for fn, stats in FUNCTION_STATS.items() for stat in stats)
    + ("fileio.bytes_written",)
    + tuple(f"slicing.split_{kind}_ms" for kind in SPLIT_KINDS)
    + tuple(f"cli.{sub}.wall_s" for sub in CLI_SUBCOMMANDS)
    + tuple(f"{layer}.self_s" for layer in LAYERS)
    + ("driver.self_s", "trace.wall_s", "trace.overhead_s", "trace.spans")
    + ("check.fail_frac", "check.tol_margin_digits")
)


def layer_unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_s"):
        return "s"
    return {"bytes_written": "bytes", "fail_frac": "ratio", "tol_margin_digits": "digits"}.get(stat, "count")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    failed: bool
    extra: dict | None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def _steps(args, kwargs, out):
    return {"steps": out.steps} if out is not None else None


def _iterations(args, kwargs, out):
    return {"iterations": out.iterations} if out is not None else None


_MEMBERSHIP_OUTCOME = {
    "divergence-free log": "member",
    "log has an orbit component": "orbit_component",
    "outside chart": "outside_chart",
}


def _membership(args, kwargs, out):
    return {_MEMBERSHIP_OUTCOME[out.reason]: 1} if out is not None else None


def _scan(args, kwargs, out):
    if out is None:
        return None
    g = args[0] if args else kwargs["g"]
    return {"checked": 4 * g.spec.n ** 2, "passing": len(out)}


def _bytes_written(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes_written": os.path.getsize(path)} if os.path.exists(path) else None


def _is_constant(g) -> bool:
    return all(np.ptp(a) == 0.0 for a in g.as_stack())


class Tracer:
    """Context manager that wraps riemgrid's public functions and records spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self._seen_bases = weakref.WeakSet()
        self._targets = [
            ("cli", "main", "cli.main", None),
            *(("cli", "cmd_" + sub.replace("-", "_"), "cli." + sub, None) for sub in CLI_SUBCOMMANDS),
        ]
        extractors = {
            "fileio.write_field": _bytes_written,
            "geodesics.ebin_exp": _steps,
            "slicing.berger_ebin_project": self._split,
            "slicing.slice_decompose": _iterations,
            "slicing.slice_membership": _membership,
            "slicing.isometry_candidates": _scan,
        }
        for name in FUNCTION_STATS:
            module, function = name.split(".")
            self._targets.append((module, function, name, extractors.get(name)))

    def _split(self, args, kwargs, out):
        """Classify a projection: flat base, first solve on a curved base, or a repeat."""
        g = args[0] if args else kwargs["g"]
        if _is_constant(g):
            kind = "flat"
        elif g in self._seen_bases:
            kind = "repeat"
        else:
            self._seen_bases.add(g)
            kind = "first"
        extra = {"kind": kind}
        if out is not None:
            extra["cg_iterations"] = out.iterations
        return extra

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out, failed = None, True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = extract(args, kwargs, out) if extract is not None else None
                spans[index] = Span(name, start, end, parent, failed, extra)

        return traced

    def __enter__(self):
        namespaces = [m for key, m in sys.modules.items() if key == "riemgrid" or key.startswith("riemgrid.")]
        for module_name, function, span_name, extract in self._targets:
            original = getattr(importlib.import_module(f"riemgrid.{module_name}"), function)
            wrapper = self._wrap(span_name, original, extract)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._restore.append((namespace, key, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()
        return False

    def write(self, path, t0: float) -> None:
        """Write the spans as JSON lines, times in seconds from t0."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                record = {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent, "failed": s.failed}
                if s.extra:
                    record["extra"] = s.extra
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, t0: float, t1: float) -> dict:
        """Per-layer metrics of the spans recorded in the window [t0, t1]."""
        spans = self.spans
        selfs = self_times(spans)
        out = dict.fromkeys(
            [m for m in PER_LAYER_METRICS if not m.startswith(("trace.", "check."))], 0.0
        )
        split_ms = defaultdict(list)
        for s, self_s in zip(spans, selfs):
            layer = s.name.split(".")[0]
            out[f"{layer}.self_s"] += self_s
            if s.name in FUNCTION_STATS:
                out[f"{s.name}.calls"] += 1
                out[f"{s.name}.self_s"] += self_s
                if s.failed and f"{s.name}.fail" in out:
                    out[f"{s.name}.fail"] += 1
            elif s.name != "cli.main":
                out[f"{s.name}.wall_s"] += s.end - s.start
            for key, value in (s.extra or {}).items():
                if key == "kind":
                    split_ms[value].append(1e3 * (s.end - s.start))
                elif key == "bytes_written":
                    out["fileio.bytes_written"] += value
                else:
                    out[f"{s.name}.{key}"] += value
        for kind in SPLIT_KINDS:
            if split_ms[kind]:
                out[f"slicing.split_{kind}_ms"] = median(split_ms[kind])
        roots = [(s.start, s.end) for s in spans if s.parent < 0]
        out["driver.self_s"] = (t1 - t0) - covered(roots, t0, t1)
        out["trace.spans"] = len(spans)
        return out
