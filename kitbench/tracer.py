"""Layer tracing for one benchmark sample, installed from outside the library.

`install()` replaces the public functions of each hochschild_kit layer with
wrappers that record spans (name, start, end, parent) in memory, and wraps
per-object hot calls as plain counters.  Nothing in the library is edited:
every module namespace that holds a wrapped function gets the wrapper, so
calls through `from .x import f` bindings are seen too.

A span's self time is its duration minus the time its child spans cover.
Every span nests inside the `cli.main` span of its suite call, so the self
times of all spans plus the time outside any `cli.main` span add up to the
traced wall time; `summary()` checks that.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, attribute path) of every function timed under it
SPANS = {
    "verify.suite": [
        ("verify", "run_suite"),
        ("verify", "lattice_suite"),
        ("verify", "morphism_suite"),
        ("verify", "fan_suite"),
        ("verify", "cubic_suite"),
        ("verify", "tables_suite"),
    ],
    "posets.rotation_build": [("posets", "build_rotation_poset")],
    "posets.refinement_build": [("posets", "build_refinement_poset")],
    "posets.leq": [("posets", "FinitePoset.leq"), ("posets", "FinitePoset.from_leq")],
    "posets.bound_table": [("posets", "FinitePoset._bound_table")],
    "posets.semidistributive": [("posets", "FinitePoset.semidistributive_counterexample")],
    "posets.morphism_check": [("posets", "check_meet_morphism")],
    "posets.congruence": [("posets", "check_congruence_projection")],
    "painted.enum": [("painted", "enum_painted_trees"), ("painted", "binary_painted_trees")],
    "shades.enum": [("shades", "enum_lighted_shades"), ("shades", "unary_lighted_shades")],
    "shadow.fibers": [("shadow", "shadow_fibers")],
    "geometry.certify": [("geometry", "certify_polytope")],
    "geometry.minkowski": [("geometry", "minkowski_data")],
    "geometry.skeleton": [("geometry", "oriented_skeleton")],
    "geometry.shared_facet": [("geometry", "shared_facet_report")],
    "cubic.realization": [("cubic", "verify_cubic_realization")],
    "cubic.words": [("cubic", "enum_words")],
    "series.gf": [("series", "gf_face_count")],
    "series.closed": [
        ("series", "count_binary_painted_trees"),
        ("series", "count_unary_lighted_shades"),
        ("series", "count_facet_objects"),
        ("series", "count_singletons"),
    ],
    "tables.reproduce": [("tables", "reproduce_tables")],
}

# counter name -> per-object hot call, counted without a span
COUNTED = {"preposets.contains_calls": ("preposets", "Preposet.contains")}

# per-layer self-time metrics: metric name -> span name
SELF_TIME_METRICS = {
    "posets.bound_table_s": "posets.bound_table",
    "posets.semidistributive_s": "posets.semidistributive",
    "posets.rotation_build_s": "posets.rotation_build",
    "posets.refinement_build_s": "posets.refinement_build",
    "posets.leq_s": "posets.leq",
    "posets.morphism_check_s": "posets.morphism_check",
    "posets.congruence_s": "posets.congruence",
    "painted.enum_s": "painted.enum",
    "shades.enum_s": "shades.enum",
    "shadow.fibers_s": "shadow.fibers",
    "geometry.certify_s": "geometry.certify",
    "geometry.minkowski_s": "geometry.minkowski",
    "geometry.skeleton_s": "geometry.skeleton",
    "geometry.shared_facet_s": "geometry.shared_facet",
    "cubic.realization_s": "cubic.realization",
    "cubic.words_s": "cubic.words",
    "series.gf_s": "series.gf",
    "series.closed_s": "series.closed",
    "tables.reproduce_s": "tables.reproduce",
    "verify.self_s": "verify.suite",
    "cli.self_s": "cli.main",
}

# counts kept by the hooks and the counted calls
COUNT_METRICS = (
    "posets.rotation_elements", "posets.refinement_elements",
    "painted.enum_calls", "painted.objects", "shades.enum_calls", "shades.objects",
    "shadow.fibers_calls", "shadow.trees", "preposets.contains_calls",
    "geometry.certify_calls", "geometry.vertices", "geometry.facets",
    "cubic.realization_calls", "tables.cells",
)

# modules whose span self times are summed into one layer self time
LAYERS = ("cli", "verify", "tables", "series", "geometry", "cubic", "posets",
          "shadow", "painted", "shades")


def _resolve(module, path):
    owner = importlib.import_module(f"hochschild_kit.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counts of one process, kept in memory until `write()`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self._lru = {}  # wrapped attribute name -> lru_cache wrapper
        self._misses = {}  # wrapped attribute name -> misses seen so far
        self.layer_s = {}

    def call(self, name, fn, args=(), kwargs=None, on_return=None):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()
        if on_return is not None:
            on_return(result, parent)
        return result

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every function in SPANS and COUNTED, in every kit module."""
        hooks = self._hooks()
        for name, targets in SPANS.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                hook = hooks.get(path.rsplit(".", 1)[-1])
                _replace(owner, attr, raw, self._wrap(name, raw, hook))
                if hasattr(raw, "cache_info"):
                    self._lru[attr] = raw
        for key, (module, path) in COUNTED.items():
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr]

            def counted(*args, _fn=raw, _key=key, **kwargs):
                self.counts[_key] = self.counts.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            setattr(owner, attr, functools.wraps(raw)(counted))
        return self

    def _wrap(self, name, raw, hook):
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self._wrap(name, raw.func, hook))
            prop.attrname = raw.attrname
            return prop
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__, hook))

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            return self.call(name, raw, args, kwargs, hook)

        return wrapper

    def _computed(self, lru_name):
        """Whether the call that just returned missed its lru_cache."""
        misses = self._lru[lru_name].cache_info().misses
        seen, self._misses[lru_name] = self._misses.get(lru_name, 0), misses
        return misses != seen

    def _outermost(self, name, parent):
        return parent < 0 or self.spans[parent][0] != name

    def _hooks(self):
        """Counts taken from return values, keyed by wrapped attribute name."""

        def enum_counter(layer):
            def hook(objs, parent):
                if self._outermost(f"{layer}.enum", parent):
                    self.count(f"{layer}.enum_calls")
                    self.count(f"{layer}.objects", len(objs))
            return hook

        def built(counter, lru_name):
            def hook(poset, parent):
                if self._computed(lru_name):
                    self.count(counter, poset.n)
            return hook

        def certified(report, parent):
            self.count("geometry.certify_calls")
            if self._computed("certify_polytope"):
                self.count("geometry.vertices", report.num_vertices)
                self.count("geometry.facets", report.num_facets)

        def fibers(result, parent):
            self.count("shadow.fibers_calls")
            self.count("shadow.trees", sum(len(pts) for pts in result.values()))

        painted, shades = enum_counter("painted"), enum_counter("shades")
        return {
            "enum_painted_trees": painted,
            "binary_painted_trees": painted,
            "enum_lighted_shades": shades,
            "unary_lighted_shades": shades,
            "build_rotation_poset": built("posets.rotation_elements", "build_rotation_poset"),
            "build_refinement_poset": built("posets.refinement_elements", "build_refinement_poset"),
            "certify_polytope": certified,
            "shadow_fibers": fibers,
            "verify_cubic_realization": lambda r, p: self.count("cubic.realization_calls"),
            "reproduce_tables": lambda r, p: self.count("tables.cells", len(r.cells)),
        }

    # -- accounting ------------------------------------------------------------------

    def self_times(self):
        """Self time of every span; raises if a child leaves its parent."""
        out = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent < 0:
                continue
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {name} is not inside its parent")
            out[parent] -= end - start
        return out

    def summary(self, wall_s, checks, output_bytes):
        """Per-layer metrics of this sample and the self-time accounting."""
        self_s = self.self_times()
        by_span = {}
        for (name, *_), value in zip(self.spans, self_s):
            by_span[name] = by_span.get(name, 0.0) + value
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        unwrapped = wall_s - top
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, value in by_span.items():
            self.layer_s[name.split(".")[0]] += value
        accounted = sum(self.layer_s.values()) + unwrapped
        if unwrapped < 0 or abs(accounted - wall_s) > 1e-6 * max(1.0, wall_s):
            raise ValueError(
                f"self times {accounted:.6f} s do not add up to wall {wall_s:.6f} s"
            )
        metrics = {key: by_span.get(span, 0.0) for key, span in SELF_TIME_METRICS.items()}
        metrics.update((key, self.counts.get(key, 0)) for key in COUNT_METRICS)
        for layer in ("painted", "shades"):
            objs = metrics[f"{layer}.objects"]
            metrics[f"{layer}.us_per_object"] = (
                1e6 * metrics[f"{layer}.enum_s"] / objs if objs else 0.0
            )
        rotation = self._lru["build_rotation_poset"].cache_info()
        metrics["posets.rotation_cache_hits"] = rotation.hits
        metrics["posets.rotation_cache_misses"] = rotation.misses
        series = sys.modules["hochschild_kit.series"]
        metrics["series.row_cache_hits"] = sum(
            getattr(series, f).cache_info().hits
            for f in ("painted_face_row", "shade_face_row")
        )
        metrics["verify.checks"] = checks
        metrics["cli.output_bytes"] = output_bytes
        metrics["trace.wall_s"] = wall_s
        metrics["trace.unwrapped_s"] = unwrapped
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def write(self, path, metrics):
        caches = {}
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith("hochschild_kit."):
                continue
            for attr, value in sorted(vars(module).items()):
                raw = getattr(value, "__wrapped__", value)
                if hasattr(raw, "cache_info") and getattr(raw, "__module__", None) == mod_name:
                    info = raw.cache_info()
                    caches[f"{mod_name}.{attr}"] = {
                        "hits": info.hits, "misses": info.misses, "currsize": info.currsize
                    }
        doc = {
            "spans": {"fields": ["name", "start_s", "end_s", "parent"], "rows": self.spans},
            "self_s": self.self_times(),
            "layer_self_s": self.layer_s,
            "counts": self.counts,
            "cache_info": caches,
            "metrics": metrics,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _replace(owner, attr, raw, wrapper):
    """Rebind `raw` to `wrapper` on its owner and in every kit module."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("hochschild_kit") and module is not None:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapper)
