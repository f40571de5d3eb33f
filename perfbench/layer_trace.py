"""Per-layer tracing from outside coxkit.

`Tracer.install()` wraps every public function of the traced coxkit
modules, plus `Cone.membership` and `Certificate.verify`, and rebinds the
wrapper in every coxkit module that holds the original, so calls from
one layer into another are seen.  A wrapper records a span (name, start,
end, parent span, operation id); hot leaf functions only count calls.
Spans stay in memory; `snapshot()` sums them per function and layer, where
a span's self time is its duration minus the time its child spans cover,
and `per_layer_metrics()` picks the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "polyhedra", "fans", "divisors", "chambers", "blowup", "cli")

# Called hundreds of thousands of times per pass: a span each would cost
# more than the work, so these only count calls.
COUNT_ONLY = {
    "linalg.dot",
    "linalg.vec_gcd",
    "linalg.primitive",
    "blowup.falling_factorial",
    "blowup.vanishing_entry",
    "cli.encode",
}
METHODS = (("polyhedra", "Cone", "membership"), ("blowup", "Certificate", "verify"))
CACHES = (("fans", "fan_predicates"), ("chambers", "_subset_cone"))
CACHE_NAMES = {"_subset_cone": "subset_cone"}


def _modules():
    return {name: importlib.import_module(f"coxkit.{name}") for name in LAYERS}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = Counter()
        self.points = 0
        self.stack = []
        self.op = None
        self.caches = {}

    # ---------------------------------------------------------- wrapping

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        if hasattr(fn, "cache_clear"):  # keep an lru_cache's controls reachable
            wrapper.cache_clear, wrapper.cache_info = fn.cache_clear, fn.cache_info
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lattice_points(self, fn):
        inner = self._span("polyhedra.lattice_points", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.points += len(out)
            return out

        return wrapper

    def install(self):
        """Wrap the traced layers in place; call once per process."""
        mods = _modules()
        replaced = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn):
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapped = self._counted(name, fn)
                elif name == "polyhedra.lattice_points":
                    wrapped = self._lattice_points(fn)
                else:
                    wrapped = self._span(name, fn)
                replaced[id(fn)] = (fn, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        for layer, attr in CACHES:
            self.caches[f"{layer}.{CACHE_NAMES.get(attr, attr)}"] = getattr(mods[layer], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coxkit" or mod_name.startswith("coxkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -------------------------------------------------------- aggregation

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.points = 0
        for cache in self.caches.values():
            cache.cache_clear()

    def snapshot(self):
        """Per-function calls and self time, per-layer self time, cache
        statistics and lattice point count since the last reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter(self.counts)
        self_s = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            own = end - start - inner
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
        caches = {}
        for name, cache in self.caches.items():
            info = cache.cache_info()
            caches[f"{name}.hits"] = info.hits
            caches[f"{name}.misses"] = info.misses
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "caches": caches,
            "points": self.points,
        }

    def dump_spans(self, fh):
        for span in self.spans:
            fh.write("%s\t%.9f\t%.9f\t%s\t%s\n" % tuple(span))


def merge(snapshots):
    """Combine the snapshots of one flagship pass (one per process): counts
    and times add up, `cli.import_s` is the mean over the processes."""
    out = {"calls": Counter(), "self_s": defaultdict(float), "caches": Counter(), "points": 0}
    for snap in snapshots:
        out["calls"].update(snap["calls"])
        for k, v in snap["self_s"].items():
            out["self_s"][k] += v
        out["caches"].update(snap["caches"])
        out["points"] += snap["points"]
    imports = [s["extra_s"]["cli.import_s"] for s in snapshots if "extra_s" in s]
    if imports:
        out["extra_s"] = {"cli.import_s": statistics.mean(imports)}
    return out


def per_layer_metrics(names, passes):
    """Metric values for the named per-layer metrics.

    Counts come from the first pass (every pass repeats the same calls on
    cleared caches); times are the median over passes.
    """
    first = passes[0]
    out = {}
    for metric in names:
        key, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = first["calls"].get(key, 0)
        elif kind in ("hits", "misses"):
            out[metric] = first["caches"].get(metric, 0)
        elif kind == "points":
            out[metric] = first["points"]
        elif metric in first.get("extra_s", {}):
            out[metric] = statistics.median(p["extra_s"][metric] for p in passes)
        else:
            out[metric] = statistics.median(p["self_s"].get(key, 0.0) for p in passes)
    return out
