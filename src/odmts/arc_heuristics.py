"""Arc-based iterative algorithms.

Instead of growing trip sets, these fix bus arcs permanently: each
iteration solves the fixed-demand problem, decomposes the newly opened
arcs into elementary directed cycles (a cycle is itself a weakly
connected design increment), evaluates adding each cycle to the fixed
design, and keeps the best one if it improves the incumbent. The
evaluation sequence is therefore strictly decreasing and the fixed
design grows monotonically, which is what makes expansion rule (d)
safe: a trip whose travel-time upper bound under the current design
already beats its tolerance keeps adopting every later design.

Expansion rules, applied to the latent trips after each fixing step:
    a  every adopter of the current design
    b  adopters whose route is profitable (shuttle cost <= ticket)
    c  adopters not served by a single direct shuttle leg
    d  adopters whose worst-case future time UB stays adoptable
"""

from __future__ import annotations

import numpy as np

from .adoption import _scored, design_objective
from .dfd import CapExceeded, FlowModel, solve_dfd
from .instance import Instance, Trip
from .router import Design, Route, _min_access_egress_km, _trip_row, route, trip_arrays
from .trace import HeuristicTrace

RULES = ("a", "b", "c", "d")
# find_cycles raises CapExceeded past this many cycles.
CYCLE_CAP = 100_000


def check_rules(rules) -> None:
    """Raises ``ValueError`` unless ``rules``, one run's rules in stage order,
    are all in ``RULES`` and a two-stage run's first is not (a)."""
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        raise ValueError(f"unknown expansion rule {unknown[0]!r}")
    if len(rules) == 2 and rules[0] == "a":
        raise ValueError("stage-1 rule must be one of b, c, d")


def find_cycles(arcs) -> list:
    """All elementary directed cycles of an arc set, each once, as the
    tuple of its hubs (h1, ..., hn), which opens the arcs (h1, h2), ...,
    (hn, h1); ordered by (length, hub sequence). A cycle starts at its
    smallest hub, from which it is found: a depth-first walk from every
    start hub visits only larger hubs and closes cycles back at it."""
    succ = {}
    for h, l in set(arcs):
        succ.setdefault(h, []).append(l)
    out = []
    for start in succ:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            for v in succ.get(path[-1], ()):
                if v == start:
                    out.append(path)
                    if len(out) > CYCLE_CAP:
                        raise CapExceeded(
                            f"more than {CYCLE_CAP} elementary cycles; use a smaller expansion step"
                        )
                elif v > start and v not in path:
                    stack.append(path + (v,))
    out.sort(key=lambda c: (len(c), c))
    return out


def adoption_ub(trip: Trip, r: Route, inst: Instance) -> float:
    """Upper bound on the trip's travel time under any design containing
    the one that produced ``r``. Undefined at theta = 0. A trip outside
    ``inst.trips`` is checked first (``router._trip_row``)."""
    theta = inst.params.theta
    if theta == 0.0:
        raise ValueError("travel-time bound undefined at theta = 0")
    _trip_row(trip, inst)
    scale = (1.0 - theta) / theta * inst.params.omega
    sidx = inst.stop_index
    o, d = sidx[trip.origin], sidx[trip.destination]
    minsum = float(_min_access_egress_km(inst, o, d))
    span = r.bus_span
    if span is not None:
        m, n = span
        detour = float(inst.dist[o, sidx[m]] + inst.dist[sidx[n], d]) - minsum
        return r.f + scale * detour
    return max(r.f, r.f + scale * (float(inst.dist[o, d]) - minsum))


def expand(rule: str, design: Design) -> set:
    """Ids of the latent trips the given rule admits under ``design``.
    Adoption and rule b read the design's ``trip_arrays``; rules c and d
    route the adopters, whose legs they read."""
    check_rules([rule])
    inst = design.instance
    adopt = _scored(design).adopt
    if rule == "b":
        adopt = adopt & (trip_arrays(design)[2] <= inst.params.ticket)
    trips = [inst.trips[i] for i in np.flatnonzero(adopt).tolist()]
    if rule == "c":
        return {t.id for t in trips if not route(t, design).is_direct_shuttle}
    if rule == "d":
        return {t.id for t in trips if adoption_ub(t, route(t, design), inst) <= t.alpha * t.t_cur}
    return {t.id for t in trips}


def _arc_stage(inst, rule, z, tbar, bound, trace, stage, model, expanded=False):
    """One greedy fixing phase from the fixed design ``z`` and trip set
    ``tbar`` on the run's DFD ``model``; returns the final (z, tbar,
    bound).

    Each step scores every new cycle and fixes the best one only if it
    beats ``bound``, the objective of the last fixed design. It expands
    the trip set by ``rule`` when it fixes a cycle, or when it stops
    with ``expanded`` still false: stopping before any cycle was ever
    fixed, the expansion is applied on the way out so that the reported
    trip set still covers the returned design (the basis of the correct
    rejection guarantee). A stop with cycles that do not beat ``bound``
    never meets ``expanded`` false: stage 1 starts at an infinite bound,
    so its first step with cycles fixes one, and stage 2 starts
    expanded. Every step evaluates and records once.
    """
    while True:
        sol = solve_dfd(inst, tbar, fixed=z.open_arcs, _model=model)
        # pre-sorted, and min keeps the first of equals: the shorter, lex-smaller cycle
        cycles = find_cycles(sol.design.open_arcs - z.open_arcs)
        grown = (z.with_arcs(zip(c, c[1:] + c[:1])) for c in cycles)
        scored = ((design_objective(inst, g), g) for g in grown)
        best = min(scored, key=lambda b: b[0], default=None)
        fixed = best is not None and best[0] < bound
        if fixed:
            bound, z = best
        if fixed or not expanded:
            tbar = tbar | expand(rule, z)
            expanded = True
        trace.add(stage, z, tbar)
        if not fixed:
            return z, tbar, bound


def arc_s1(inst: Instance, rule: str = "a"):
    """Single-stage arc-based greedy. Returns (design, trace)."""
    check_rules([rule])
    trace = HeuristicTrace()
    _arc_stage(inst, rule, Design.minimal(inst), inst.core_ids, float("inf"), trace, 1,
               FlowModel(inst))
    return trace.finish()


def arc_s2(inst: Instance, rule_stage1: str = "d", rule_stage2: str = "a"):
    """Two-stage extension: a conservative expansion rule to convergence,
    then a faster one continuing from the resulting fixed design and
    trip set. Stage one must not be rule (a), which subsumes the rest."""
    check_rules([rule_stage1, rule_stage2])
    trace = HeuristicTrace()
    model = FlowModel(inst)
    z, tbar, bound = _arc_stage(inst, rule_stage1, Design.minimal(inst), inst.core_ids,
                                float("inf"), trace, 1, model)
    # hand the stage-2 rule a first look at the converged design so the
    # second phase starts from an expanded trip set rather than re-solving
    # the exact fixed point stage 1 stopped at
    tbar = tbar | expand(rule_stage2, z)
    _arc_stage(inst, rule_stage2, z, tbar, bound, trace, 2, model, expanded=True)
    return trace.finish()
