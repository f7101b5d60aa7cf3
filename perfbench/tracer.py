"""Benchmark-side layer tracing for tentplane.

``Tracer`` wraps public functions of the tentplane modules and installs
the wrappers on every module attribute that refers to them, so calls
made through ``from .x import f`` bindings are caught too.  No program
file changes; ``remove`` puts the original objects back.

Span wrappers record ``(name, start, end, parent)`` in memory.  Count
wrappers only bump a counter, for functions called so often that timing
each call would swamp the measurement.  Return values of selected
functions are kept until ``take_results`` so that counts derived from
them (cylinders, joins, samples) are computed outside every span.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer metric stem); the stem's time is self time
SPANS = [
    ("kneading", "kneading_from_slope", "kneading.from_slope"),
    ("kneading", "is_admissible_tail", "kneading.admissible_tail"),
    ("kneading", "enumerate_cylinders", "kneading.enumerate_cylinders"),
    ("cantor", "block_midpoint", "cantor.block_midpoint"),
    ("cantor", "cantor_coordinate", "cantor.coordinate"),
    ("cantor", "compare_tails", "cantor.compare_tails"),
    ("arcs", "window_projection", "arcs.window_projection"),
    ("arcs", "arc_projection", "arcs.arc_projection"),
    ("arcs", "boundary_pairs", "arcs.boundary_pairs"),
    ("arcs", "resolve_x", "arcs.resolve_x"),
    ("scene", "build_scene", "scene.build"),
    ("scene", "verify_noncrossing", "scene.noncrossing"),
    ("scene", "betweenness_check", "scene.betweenness"),
    ("scene", "scene_to_json", "scene.to_json"),
    ("scene", "scene_from_json", "scene.from_json"),
    ("glue", "build_glue_stack", "glue.stack"),
    ("glue", "support_certificate", "glue.support"),
    ("glue", "displacement_certificate", "glue.displacement"),
    ("glue", "cauchy_certificate", "glue.cauchy"),
    ("glue", "collapse_certificate", "glue.collapse"),
    ("glue", "ceiling_certificate", "glue.ceiling"),
    ("glue", "accessibility_probe", "glue.probe"),
    ("svg", "render_scene", "svg.render"),
    ("cli", "main", "cli.main"),
]

COUNTS = [
    ("sequences", "plex_compare", "sequences.plex_compare_calls"),
    ("sequences", "compare_right", "sequences.compare_right_calls"),
]

# spans whose return value feeds a derived count
KEEP_RESULTS = {
    "kneading.enumerate_cylinders",
    "scene.build",
    "scene.noncrossing",
    "scene.betweenness",
    "glue.stack",
    "glue.support",
    "glue.displacement",
    "glue.cauchy",
    "glue.ceiling",
    "glue.probe",
    "svg.render",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.results = []  # (name, return value) until take_results
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapper)
        self._plan()

    def _plan(self):
        mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("tentplane.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for modname, fn, name in table:
                orig = getattr(sys.modules[f"tentplane.{modname}"], fn)
                wrapper = make(name, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig, wrapper))

    def _span(self, name, fn):
        spans, stack, keep = self.spans, self._stack, name in KEEP_RESULTS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                self.results.append((name, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def remove(self):
        for m, attr, orig, _ in self._patches:
            setattr(m, attr, orig)

    def take_results(self):
        out, self.results = self.results, []
        return out

    def self_times(self):
        """Self and inclusive time per span name."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own = defaultdict(float)
        inclusive = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            own[name] += (t1 - t0) - child.get(i, 0.0)
            inclusive[name] += t1 - t0
        return own, inclusive

    def write(self, path, meta: dict):
        """One JSON header line, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, fields=["name", "start", "end", "parent"])) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
