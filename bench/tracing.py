"""Spans and counters recorded around the public functions of each layer.

The package imports functions by name (``from .router import route`` in
``dfd``, ``adoption`` and ``trip_heuristics``), so timing only
``odmts.router.route`` would miss most calls. ``Tracer.installed``
therefore replaces every module-level alias of each wrapped function in
every loaded ``odmts`` module, and puts the originals back on exit.

A span is ``(name, start, end, parent)``: ``parent`` is the index of
the enclosing span, or -1. Spans nest properly because the benchmark
runs on one thread, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

# (module, function) pairs wrapped in a traced repetition; the module is
# the layer and prefixes the span name.
WRAPPED = (
    ("instance", "load_instance"),
    ("router", "route"),
    ("adoption", "eval_design"),
    ("adoption", "design_objective"),
    ("dfd", "solve_dfd"),
    ("dfd", "solve_master"),
    ("dfd", "make_cut"),
    ("trip_heuristics", "eta_grre"),
    ("trip_heuristics", "rho_gagr"),
    ("arc_heuristics", "arc_s2"),
    ("arc_heuristics", "find_cycles"),
    ("arc_heuristics", "expand"),
)

HEURISTICS = {"trip_heuristics.eta_grre", "trip_heuristics.rho_gagr", "arc_heuristics.arc_s2"}


class Tracer:
    """In-memory span log and counters for one repetition at a time."""

    def __init__(self):
        self.reps = []  # (spans, cold, counts) per traced repetition
        self.spans = []
        self.cold = set()  # span indices of cold route calls
        self.counts = {}
        self._stack = []
        self._routed = {}

    def begin_rep(self):
        self.spans = []
        self.cold = set()
        self.counts = {"dfd.rounds": 0, "trip_heuristics.iterations": 0,
                       "arc_heuristics.iterations": 0, "arc_heuristics.cycles_found": 0}
        self._stack = []
        self._routed = {}

    def end_rep(self):
        self.reps.append((self.spans, self.cold, self.counts))

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, for work that has no
        function of its own to wrap (such as a property access)."""
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1] if self._stack else -1)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            if name == "router.route":
                trip, design = args
                # Held by identity, which keeps the design alive for the
                # repetition so that its id cannot be reused.
                seen = self._routed.setdefault(id(design), (design, set()))[1]
                if trip.id not in seen:
                    seen.add(trip.id)
                    self.cold.add(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0)
            self._count(name, result)
            return result

        return wrapper

    def _count(self, name, result):
        c = self.counts
        if name == "dfd.solve_dfd":
            c["dfd.rounds"] += result.iterations
        elif name == "arc_heuristics.find_cycles":
            c["arc_heuristics.cycles_found"] += len(result)
        elif name in HEURISTICS:
            layer = name.split(".")[0]
            c[f"{layer}.iterations"] += len(result[-1].records)

    @contextlib.contextmanager
    def installed(self):
        """Replace every alias of each wrapped function in the loaded
        ``odmts`` modules; restore the originals on exit."""
        replaced = []
        for layer, fname in WRAPPED:
            original = getattr(sys.modules[f"odmts.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "odmts" or mod_name.startswith("odmts.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in replaced:
                setattr(mod, attr, original)

    def write(self, path):
        """Write every traced repetition's spans as one JSON document."""
        doc = [
            {"spans": [list(s) for s in spans], "cold": sorted(cold), "counts": counts}
            for spans, cold, counts in self.reps
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def rep_metrics(spans, cold, counts, work=lambda t0, t1: t1 - t0, factor=1.0) -> dict:
    """Per-layer counts and times of one traced repetition. ``work``
    gives the seconds of the program's work between two times, and
    ``factor`` converts them to the seconds reported."""
    dur = [factor * work(t0, t1) for _, t0, t1, _ in spans]
    child_s = [0.0] * len(spans)
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
    n = {}
    total = {}
    self_s = {}
    cold_s = 0.0
    scored = 0
    for i, (name, t0, t1, parent) in enumerate(spans):
        n[name] = n.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child_s[i]
        if i in cold:
            cold_s += dur[i]
        if (name == "adoption.design_objective" and parent >= 0
                and spans[parent][0].startswith("arc_heuristics.")):
            scored += 1

    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    calls = n.get("router.route", 0)
    return {
        "instance.load_s": total.get("instance.load_instance", 0.0),
        "instance.triangle_s": total.get("instance.metric_consistent", 0.0),
        "router.calls": calls,
        "router.cold": len(cold),
        "router.hit_ratio": (calls - len(cold)) / calls if calls else 0.0,
        "router.busy_s": total.get("router.route", 0.0),
        "router.cold_s": cold_s,
        "router.us_per_cold": 1e6 * cold_s / len(cold) if cold else 0.0,
        "adoption.evals": n.get("adoption.eval_design", 0) + n.get("adoption.design_objective", 0),
        "adoption.self_s": layer_self("adoption"),
        "dfd.solves": n.get("dfd.solve_dfd", 0),
        "dfd.rounds": counts["dfd.rounds"],
        "dfd.master_calls": n.get("dfd.solve_master", 0),
        "dfd.master_s": total.get("dfd.solve_master", 0.0),
        "dfd.cuts": n.get("dfd.make_cut", 0),
        "dfd.cut_s": total.get("dfd.make_cut", 0.0),
        "dfd.self_s": self_s.get("dfd.solve_dfd", 0.0),
        "trip_heuristics.iterations": counts["trip_heuristics.iterations"],
        "trip_heuristics.self_s": layer_self("trip_heuristics"),
        "arc_heuristics.iterations": counts["arc_heuristics.iterations"],
        "arc_heuristics.cycles_found": counts["arc_heuristics.cycles_found"],
        "arc_heuristics.cycles_scored": scored,
        "arc_heuristics.find_cycles_s": total.get("arc_heuristics.find_cycles", 0.0),
        "arc_heuristics.self_s": layer_self("arc_heuristics"),
    }


COUNT_METRICS = (
    "router.calls", "router.cold", "adoption.evals", "dfd.solves", "dfd.rounds",
    "dfd.master_calls", "dfd.cuts", "trip_heuristics.iterations",
    "arc_heuristics.iterations", "arc_heuristics.cycles_found",
    "arc_heuristics.cycles_scored",
)


def layer_metrics(per_rep: list) -> dict:
    """Counts from the first repetition (they must repeat exactly) and
    the median of every other metric over the repetitions."""
    out = {}
    for key, value in per_rep[0].items():
        if key in COUNT_METRICS:
            out[key] = value
        else:
            out[key] = statistics.median(m[key] for m in per_rep)
    return out
