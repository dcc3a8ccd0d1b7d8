"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, the public functions and
methods of every ``chnoids`` module (plus the arithmetic dunders of the
exact scalar and polynomial types), and every place a module rebinds one
of them with ``from .x import y``.  It records a span only where control
crosses from one layer (module) into another, so a layer's self time is
the time spent in its own code.  Named calls are also counted and timed
(outermost call only, so recursion is not counted twice).

Spans live in memory as parallel arrays of (layer, start, end, parent,
op id) and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "exactnum", "linalg", "sphere", "nnoid", "stability", "ch2", "cusp")

# Dunders that do arithmetic or formatting work; other dunders (equality,
# hashing, construction, iteration) stay unwrapped and their time counts
# towards the calling layer.
WORK_DUNDERS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__floordiv__",
        "__mod__", "__call__", "__str__",
    }
)

# metric key -> definitions ("module:qualname"); every call is counted
COUNTED = {
    "exactnum.poly_mul": ("exactnum:UniPoly.__mul__",),
    "exactnum.poly_divmod": ("exactnum:UniPoly.divmod",),
    "exactnum.poly_gcd": ("exactnum:poly_gcd",),
    "exactnum.resultant": ("exactnum:resultant",),
    "exactnum.residue_at": (
        "exactnum:RationalFunction.residue_at",
        "exactnum:RationalOneForm.residue_at",
    ),
    "exactnum.gq_mul": ("exactnum:GaussianRational.__mul__",),
    "exactnum.gq_add": ("exactnum:GaussianRational.__add__",),
    "linalg.mat_mul": ("linalg:mat_mul",),
    "linalg.inverse": ("linalg:inverse",),
    "linalg.det": ("linalg:det",),
    "linalg.charpoly": ("linalg:charpoly",),
    "linalg.minpoly": ("linalg:minimal_polynomial",),
    "stability.check": ("stability:check_mixed_stability",),
    "ch2.distance": ("ch2:distance",),
}

# metric key -> definitions whose outermost calls are timed (a call nested
# in another call of the same key is not counted twice)
TIMED = {
    "exactnum.poly_mul": COUNTED["exactnum.poly_mul"],
    "exactnum.poly_divmod": COUNTED["exactnum.poly_divmod"],
    "exactnum.poly_gcd": COUNTED["exactnum.poly_gcd"],
    "exactnum.resultant": COUNTED["exactnum.resultant"],
    "exactnum.residue_at": COUNTED["exactnum.residue_at"],
    "linalg.elim": ("linalg:_echelon", "linalg:det"),
    "nnoid.build_higgs": ("nnoid:build_higgs",),
    "nnoid.trace_phi2": ("nnoid:trace_phi_squared",),
    "nnoid.residue_pf": ("nnoid:residue_matrix",),
    "nnoid.residue_closed": ("nnoid:residue_matrix_closed_form",),
    "nnoid.jordan": ("nnoid:nilpotency_profile", "nnoid:jordan_type", "nnoid:end_type"),
    "stability.region": ("stability:stability_region",),
    "ch2.preserves_form": ("ch2:preserves_form",),
    "cusp.lipschitz": ("cusp:check_distance_lipschitz",),
    "cusp.convexity": ("cusp:check_mean_convexity",),
    "cusp.sup": ("cusp:check_sup_bound",),
}

# classify_isometry is timed under one of two keys, chosen by its backing
CLASSIFY_TARGET = "ch2:classify_isometry"

# Private definitions wrapped because a named metric needs them.
PRIVATE_WRAPPED = frozenset({"linalg:_echelon"})

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("cli.bytes_out", "bytes"),
    ("exactnum.self_ms", "ms"),
    ("exactnum.poly_mul.calls", "count"),
    ("exactnum.poly_mul_ms", "ms"),
    ("exactnum.poly_divmod.calls", "count"),
    ("exactnum.poly_divmod_ms", "ms"),
    ("exactnum.poly_gcd.calls", "count"),
    ("exactnum.poly_gcd_ms", "ms"),
    ("exactnum.resultant.calls", "count"),
    ("exactnum.resultant_ms", "ms"),
    ("exactnum.residue_at.calls", "count"),
    ("exactnum.residue_at_ms", "ms"),
    ("exactnum.gq_mul.calls", "count"),
    ("exactnum.gq_add.calls", "count"),
    ("linalg.self_ms", "ms"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.inverse.calls", "count"),
    ("linalg.det.calls", "count"),
    ("linalg.charpoly.calls", "count"),
    ("linalg.minpoly.calls", "count"),
    ("linalg.elim_ms", "ms"),
    ("sphere.self_ms", "ms"),
    ("sphere.calls", "count"),
    ("nnoid.self_ms", "ms"),
    ("nnoid.build_higgs_ms", "ms"),
    ("nnoid.trace_phi2_ms", "ms"),
    ("nnoid.residue_pf_ms", "ms"),
    ("nnoid.residue_closed_ms", "ms"),
    ("nnoid.jordan_ms", "ms"),
    ("stability.self_ms", "ms"),
    ("stability.region_ms", "ms"),
    ("stability.check.calls", "count"),
    ("stability.stable_ratio", "ratio"),
    ("ch2.self_ms", "ms"),
    ("ch2.classify_exact_ms", "ms"),
    ("ch2.classify_float_ms", "ms"),
    ("ch2.preserves_form_ms", "ms"),
    ("ch2.exact_minpoly_ratio", "ratio"),
    ("ch2.distance.calls", "count"),
    ("cusp.self_ms", "ms"),
    ("cusp.lipschitz_ms", "ms"),
    ("cusp.convexity_ms", "ms"),
    ("cusp.sup_ms", "ms"),
    ("cusp.grid_points", "count"),
    ("cusp.distance_calls_per_point", "calls/point"),
    ("trace.op_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_ops_s", "ops/s"),
    ("trace.traced_ops_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
)

# Span wiring self-check: layers each workload exists to exercise must be
# entered, and layers it is predicted to bypass must never be entered.
REQUIRED = {
    "nnoid-certify": ("cli", "exactnum", "sphere", "nnoid"),
    "isometry-classify": ("cli", "exactnum", "linalg", "ch2"),
    "region-strip": ("cli", "stability", "ch2", "cusp"),
}
BYPASSED = {
    "nnoid-certify": ("ch2", "cusp"),
    "isometry-classify": ("nnoid", "sphere", "stability", "cusp"),
    "region-strip": ("exactnum", "linalg", "nnoid", "sphere"),
}


def _by_target(table: dict) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for key, targets in table.items():
        for target in targets:
            out[target] = out.get(target, ()) + (key,)
    return out


COUNTED_BY_TARGET = _by_target(COUNTED)
TIMED_BY_TARGET = _by_target(TIMED)
NAMED_TARGETS = frozenset(COUNTED_BY_TARGET) | frozenset(TIMED_BY_TARGET) | {CLASSIFY_TARGET}


class Tracer:
    """Wraps the program's layers; one instance per traced phase."""

    def __init__(self) -> None:
        self.layer_of = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op_ids = array("q")
        self.stack: list[tuple[int, int]] = []  # (span index, layer index)
        self.op_id = -1
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.depth: Counter = Counter()
        self.extra: Counter = Counter()  # hook counts and byte totals
        self.wired: set[str] = set()
        self.minpoly_seen = False
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of ``package`` (the imported ``chnoids``)."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, layer, target):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrapper(fn, LAYERS.index(layer), target)
                self.wired.add(target)
            return wrappers[id(fn)]

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(obj, layer, wrapper_for)
                    continue
                target = f"{layer}:{attr}"
                if attr.startswith("_") and target not in PRIVATE_WRAPPED:
                    continue
                if not inspect.isgeneratorfunction(obj):
                    self._set(mod, attr, wrapper_for(obj, layer, target))
        # names rebound by ``from .x import y`` (nnoid.resultant, ch2.poly_gcd,
        # cusp.distance, exactnum.GQ, the package namespace) still point at
        # the original objects; swap in the same wrappers there
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

    def _install_class(self, cls, layer, wrapper_for) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WORK_DUNDERS:
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            # an alias such as __rmul__ = __mul__ shares the target of its original
            w = wrapper_for(fn, layer, f"{layer}:{cls.__name__}.{fn.__name__}")
            if isinstance(raw, (staticmethod, classmethod)):
                w = type(raw)(w)
            self._set(cls, attr, w)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def unwired(self) -> list[str]:
        """Named targets that do not exist in this version of the program."""
        return sorted(NAMED_TARGETS - self.wired)

    # -- recording --------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1

    @property
    def n_ops(self) -> int:
        return self.op_id + 1

    def _wrapper(self, fn, layer: int, target: str):
        stack = self.stack
        perf = time.perf_counter
        starts, ends, parents, layer_of, op_ids = (
            self.starts, self.ends, self.parents, self.layer_of, self.op_ids
        )
        calls, seconds, depth = self.calls, self.seconds, self.depth
        tracer = self
        counted = COUNTED_BY_TARGET.get(target, ())
        timed = TIMED_BY_TARGET.get(target, ())
        hook = _HOOKS.get(target)

        def enter(args, kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            layer_of.append(layer)
            op_ids.append(tracer.op_id)
            ends.append(0.0)
            stack.append((idx, layer))
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        if not (timed or hook):

            def wrapper(*args, **kwargs):
                for k in counted:
                    calls[k] += 1
                return enter(args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                for k in counted:
                    calls[k] += 1
                keys = timed
                if target == CLASSIFY_TARGET:
                    keys = ("ch2.classify_exact" if args[0].is_exact else "ch2.classify_float",)
                outer = [k for k in keys if not depth[k]]
                for k in keys:
                    depth[k] += 1
                t0 = perf()
                try:
                    if hook:
                        return hook(tracer, args, lambda: enter(args, kwargs))
                    return enter(args, kwargs)
                finally:
                    dt = perf() - t0
                    for k in keys:
                        depth[k] -= 1
                    for k in outer:
                        seconds[k] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results ----------------------------------------------------------

    def _spans(self):
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        layer = np.frombuffer(self.layer_of, dtype=np.int8)
        return start, end, parent, layer

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; counts and times are means per traced operation."""
        ops = max(self.n_ops, 1)
        start, end, parent, layer = self._spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_ms"] = float(self_time[layer == i].sum()) * 1e3 / ops
        out["sphere.calls"] = int((layer == LAYERS.index("sphere")).sum()) / ops
        out["trace.op_ms"] = float(dur[~has_parent].sum()) * 1e3 / ops
        out["trace.ops"] = self.n_ops
        out["trace.spans"] = len(dur)
        for key in COUNTED:
            out[f"{key}.calls"] = self.calls[key] / ops
        for key in (*TIMED, "ch2.classify_exact", "ch2.classify_float"):
            out[f"{key}_ms"] = self.seconds[key] * 1e3 / ops
        out["cli.bytes_out"] = self.extra["cli.bytes_out"] / ops
        out["stability.stable_ratio"] = _ratio(
            self.extra["stability.stable"], self.calls["stability.check"]
        )
        out["ch2.exact_minpoly_ratio"] = _ratio(
            self.extra["ch2.exact_minpoly"], self.extra["ch2.exact_classify"]
        )
        out["cusp.grid_points"] = self.extra["cusp.grid_points"] / ops
        out["cusp.distance_calls_per_point"] = _ratio(
            self.extra["cusp.lipschitz_distance"], self.extra["cusp.lipschitz_points"]
        )
        return out

    def layer_entries(self) -> dict[str, int]:
        """How often each layer was entered from another layer."""
        layer = self._spans()[3]
        return {name: int((layer == i).sum()) for i, name in enumerate(LAYERS)}

    def wiring_errors(self, workload: str) -> list[str]:
        entries = self.layer_entries()
        errors = [f"layer {name} never entered" for name in REQUIRED[workload] if not entries[name]]
        errors += [
            f"layer {name} entered {entries[name]} times, predicted bypassed"
            for name in BYPASSED[workload]
            if entries[name]
        ]
        errors += [
            f"{key} counted {n} calls, predicted bypassed"
            for key, n in self.calls.items()
            if n and key.split(".")[0] in BYPASSED[workload]
        ]
        return errors

    def save(self, path: Path) -> None:
        """Write the spans out, one array per field, once the run is over."""
        start, end, parent, layer = self._spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=layer,
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op_ids, dtype=np.int64),
        )


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


# -- hooks on single definitions ------------------------------------------


def _classify_hook(tracer, args, call):
    if not args[0].is_exact:
        return call()
    tracer.extra["ch2.exact_classify"] += 1
    tracer.minpoly_seen = False
    result = call()
    if tracer.minpoly_seen:
        tracer.extra["ch2.exact_minpoly"] += 1
    return result


def _minpoly_hook(tracer, args, call):
    if tracer.depth["ch2.classify_exact"]:
        tracer.minpoly_seen = True
    return call()


def _stability_hook(tracer, args, call):
    result = call()
    if result.verdict == "stable":
        tracer.extra["stability.stable"] += 1
    return result


def _convexity_hook(tracer, args, call):
    grid = args[0].grid
    tracer.extra["cusp.grid_points"] += grid.nx * grid.ny
    return call()


def _lipschitz_hook(tracer, args, call):
    grid = args[0].grid
    tracer.extra["cusp.grid_points"] += grid.nx * grid.ny
    tracer.extra["cusp.lipschitz_points"] += grid.nx * grid.ny
    return call()


def _distance_hook(tracer, args, call):
    if tracer.depth["cusp.lipschitz"]:
        tracer.extra["cusp.lipschitz_distance"] += 1
    return call()


_HOOKS = {
    CLASSIFY_TARGET: _classify_hook,
    "linalg:minimal_polynomial": _minpoly_hook,
    "stability:check_mixed_stability": _stability_hook,
    "cusp:check_mean_convexity": _convexity_hook,
    "cusp:check_distance_lipschitz": _lipschitz_hook,
    "ch2:distance": _distance_hook,
}
