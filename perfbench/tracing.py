"""Per-layer spans recorded from outside the program.

``Tracer.install()`` wraps sbtlab's public functions and methods, listed in
``LAYERS``, in every sbtlab namespace that holds them (module globals and
class dicts, so ``from .x import f`` aliases are caught too).  While the
tracer is active each wrapped call records a span (id, layer, parent,
start, end, thread) in memory; ``summary()`` turns the spans into the
per-layer metrics and ``save()`` writes them out.

Self time is a span's duration minus the union of its children's intervals.
A call whose parent span is in the same layer is part of that layer's
entry, so it adds no call and no inclusive time.  Work that
``parallel.ordered_map`` hands to pool threads is parented to the
``ordered_map`` span.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from functools import wraps
from time import perf_counter

# layer name -> "module:attribute" targets inside the sbtlab package
LAYERS = {
    "polyalg.mul": ("polyalg:RealPoly.__mul__", "polyalg:CxPoly.__mul__"),
    "polyalg.add": ("polyalg:RealPoly.__add__", "polyalg:CxPoly.__add__"),
    "polyalg.mod_square": ("polyalg:CxPoly.mod_square",),
    "polyalg.holomorphic_extend": ("polyalg:holomorphic_extend",),
    "diffops.apply": ("diffops:OperatorSpec.apply",),
    "diffops.to_matrix": ("diffops:to_matrix", "diffops:operator_matrix"),
    "semigroup.exp_graded": ("semigroup:exp_graded",),
    "semigroup.expm_graded": ("semigroup:expm_graded",),
    "semigroup.exp_nilpotent": ("semigroup:exp_nilpotent",),
    "measures.quadric_moment": ("measures:quadric_moment",),
    "measures.sphere_moment": ("measures:sphere_moment",),
    "measures.gaussian_moment": ("measures:gaussian_moment",),
    "measures.xi_moment": ("measures:xi_moment",),
    "measures.gamma_moment": ("measures:gamma_moment",),
    "transforms.unitarity_report": ("transforms:unitarity_report",),
    "transforms.sphere_sbt": ("transforms:sphere_sbt",),
    "transforms.limit_sbt": ("transforms:limit_sbt",),
    "transforms.euclidean_sbt": ("transforms:euclidean_sbt",),
    "limits.sweep": ("limits:laplacian_limit", "limits:measure_limit",
                     "limits:transform_limit", "limits:diagram_convergence"),
    "parallel.ordered_map": ("parallel:ordered_map",),
    "oracle.mc_sphere_moment": ("oracle:mc_sphere_moment",),
    "oracle.isserlis_moment": ("oracle:isserlis_moment",),
    "oracle.quad_gauss_moment": ("oracle:quad_gauss_moment",),
    "cli.main": ("cli:main",),
}

# the per-layer metrics the benchmark reports (BENCHMARK.json "per_layer")
REPORTED = (
    "setup.import_s",
    "polyalg.mul.calls", "polyalg.mul.self_s",
    "polyalg.add.self_s",
    "polyalg.mod_square.self_s", "polyalg.holomorphic_extend.self_s",
    "diffops.apply.calls", "diffops.apply.self_s",
    "diffops.to_matrix.self_s",
    "semigroup.exp_graded.calls", "semigroup.exp_graded.self_s",
    "semigroup.expm_graded.self_s", "semigroup.exp_graded.repeat_share",
    "semigroup.exp_nilpotent.calls", "semigroup.exp_nilpotent.self_s",
    "measures.quadric_moment.calls", "measures.quadric_moment.self_s",
    "measures.sphere_moment.self_s",
    "measures.gaussian_moment.self_s", "measures.xi_moment.self_s",
    "measures.gamma_moment.self_s",
    "transforms.unitarity_report.calls", "transforms.sphere_sbt.self_s",
    "transforms.limit_sbt.self_s", "transforms.euclidean_sbt.self_s",
    "limits.sweep.calls", "limits.sweep.self_s",
    "parallel.ordered_map.calls", "parallel.ordered_map.s",
    "oracle.mc_sphere_moment.self_s", "oracle.isserlis_moment.self_s",
    "oracle.quad_gauss_moment.self_s",
    "cli.main.self_s",
    "trace.unattributed_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("repeat_share"):
        return "share"
    return "s"


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(f"sbtlab.{module_name}")
    for part in path.split("."):
        obj = vars(obj).get(part)
        if obj is None:
            return None
    return obj


def _namespaces():
    """Module globals and class dicts of every loaded sbtlab module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sbtlab" or name.startswith("sbtlab.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.spans = []            # (id, layer index, parent id, start, end, thread)
        self.active = False
        self.missing = []
        self.graded_keys = []      # (operator, k, l, t) of each exp_graded call
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: int, fn):
        tracer = self
        name = self.layers[layer]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            if name == "semigroup.exp_graded":
                tracer._note_graded(args, kwargs)
            elif name == "parallel.ordered_map" and args:
                args = (tracer._adopt(sid, args[0]),) + args[1:]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, layer, parent, start, end, threading.get_ident()))

        return wrapper

    def _note_graded(self, args, kwargs):
        # the key exp_graded's own realization is computed from
        names = ("op", "t", "q", "k", "l")
        bound = dict(zip(names, args), **kwargs)
        q = bound["q"]
        k = max(bound.get("k") or 0, q.width())
        l = bound.get("l")
        l = q.degree() if l is None else l
        self.graded_keys.append((bound["op"], k, l, float(bound["t"])))

    def _adopt(self, sid, fn):
        """ordered_map's function, run with the ordered_map span as parent."""

        def adopted(item):
            stack = self._stack()
            stack.append(sid)
            try:
                return fn(item)
            finally:
                stack.pop()

        return adopted

    def install(self) -> None:
        for layer, name in enumerate(self.layers):
            for target in LAYERS[name]:
                original = _resolve(target)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(layer, original)
                for space in _namespaces():
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapper)

    def summary(self, phase_wall: float) -> dict:
        """Per-layer calls, self time and inclusive time, plus derived metrics."""
        by_id = {s[0]: s for s in self.spans}
        children: dict = {}
        for span in self.spans:
            children.setdefault(span[2], []).append(span)
        main = threading.main_thread().ident
        out: dict = {}
        for name in self.layers:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.s"] = 0.0
        rooted = 0.0
        for sid, layer, parent, start, end, thread in self.spans:
            name = self.layers[layer]
            out[f"{name}.self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[1] != layer:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += end - start
            if parent == -1 and thread == main:
                rooted += end - start
        keys = self.graded_keys
        out["semigroup.exp_graded.repeat_share"] = (
            (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        )
        out["trace.unattributed_s"] = max(phase_wall - rooted, 0.0)
        return out

    def save(self, path) -> None:
        import numpy as np

        spans = self.spans
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            id=np.array([s[0] for s in spans], dtype=np.int64),
            layer=np.array([s[1] for s in spans], dtype=np.int16),
            parent=np.array([s[2] for s in spans], dtype=np.int64),
            start=np.array([s[3] for s in spans]),
            end=np.array([s[4] for s in spans]),
            thread=np.array([s[5] for s in spans], dtype=np.uint64),
        )


def _covered(start: float, end: float, spans) -> float:
    """Length of the union of the spans' intervals inside [start, end]."""
    total = 0.0
    reach = start
    for _, _, _, s, e, _ in sorted(spans, key=lambda span: span[3]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total
