"""Fixed-demand network design, solved exactly as one linear program.

The model is the disaggregated arc-flow formulation of uncapacitated
network design (Magnanti & Wong, 1984): a variable z in [0, 1] per
candidate arc, with hub balance (weak connectivity) and the fixed arcs
held at 1; per trip a unit flow from origin to destination over the
edges of its routing graph with every candidate arc open, each bus
edge's flow capped by its arc's z; and as objective the investment plus
riders times each trip's flow cost. At integral z a trip's flow costs
its routed g, so the model's value is the routed objective. The LP
relaxation is tight but not always integral; a fractional z is settled
by depth-first branching on the first fractional arc in candidate
order, and ties go to the smallest sorted arc tuple (see
``solve_master``). Trips that ride a direct shuttle under every design
(``is_direct_trip``, on metric instances only) are constants and get no
flow. The LPs run on HiGHS's compiled core, which ships inside scipy
(see ``highs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import highs
from .highs import SolveError
from .instance import Instance, Trip, ValidationError
from .adoption import arcs_cost
from .router import BUS, Design, _build_graph, is_direct_trip, route, trip_arrays

# Relative margin within which two designs' values count as tied.
_TIE = 1e-9
# Absolute slack on a tie probe's reduced-cost bound, for the root
# solve's dual feasibility tolerance (1e-7 per reduced cost).
_RC_SLACK = 1e-6


class CapExceeded(RuntimeError):
    """An exhaustive routine was asked to run beyond its hard size cap."""


def _direct_flags(inst: Instance) -> dict:
    if "direct" not in inst._caches:
        inst._caches["direct"] = {t.id: is_direct_trip(t, inst) for t in inst.trips}
    return inst._caches["direct"]


@dataclass(frozen=True, eq=False)
class TripBlock:
    """One trip's unit flow: the edges of its routing graph with every
    candidate arc open. Node 0 is the origin, node ``nodes - 1`` the
    destination; ``arc`` holds each bus edge's candidate-arc index and
    -1 for shuttle legs and bridges."""

    trip: Trip
    tail: np.ndarray
    head: np.ndarray
    g: np.ndarray
    arc: np.ndarray
    nodes: int


def make_cut(trip: Trip, inst: Instance) -> TripBlock:
    """The trip's flow block, cached per instance.

    For fixed z the cheapest unit flow whose bus edges carry at most
    their arc's z is, at integral z, the trip's routed g. By LP duality
    each dual solution of that flow LP (node potentials pi, bus-edge
    prices mu >= 0) is a Benders optimality cut
    g >= pi_o - pi_d - sum_e mu_e z_arc(e), and the block's projection
    onto (z, g) is the intersection of all of them: one block states
    every cut of the trip at once.
    """
    blocks = inst._caches.setdefault("blocks", {})
    if trip not in blocks:
        o, d = trip.origin, trip.destination
        adj = _build_graph(inst, frozenset(inst.candidate_arcs), o, d)
        pos = {u: i for i, u in enumerate([o] + [u for u in adj if u not in (o, d)] + [d])}
        arc_pos = {a: i for i, a in enumerate(inst.candidate_arcs)}
        edges = [(pos[u], pos[v], g, arc_pos[(u, v)] if modes == (BUS,) else -1)
                 for u, out in adj.items() for v, g, _, _, _, modes in out]
        tail, head, g, arc = (np.array(col) for col in zip(*edges))
        blocks[trip] = TripBlock(trip, tail, head, g.astype(float), arc, len(pos))
    return blocks[trip]


def _model(inst: Instance, blocks, hubs):
    """A HiGHS solver over ``blocks`` with every z in [0, 1]; ``hubs``
    holds the (tail, head) hub index of each candidate arc. Columns: z,
    then each block's edges. Rows: hub balance, each block's flow
    conservation (destination row dropped), then x_e - z_arc(e) <= 0 per
    bus edge."""
    cand = inst.candidate_arcs
    na, nh = len(cand), len(inst.hubs)
    z = np.arange(na)
    rows, cols, vals = [hubs[:, 0], hubs[:, 1]], [z, z], [np.ones(na), -np.ones(na)]
    cost = [np.array([arcs_cost(inst, [a]) for a in cand], dtype=float)]
    rhs = [np.zeros(nh)]
    bus_col, bus_arc = [z[:0]], [z[:0]]
    row0, col0 = nh, na
    for b in blocks:
        col = col0 + np.arange(len(b.g))
        inner = b.head < b.nodes - 1
        rows += [row0 + b.tail, row0 + b.head[inner]]
        cols += [col, col[inner]]
        vals += [np.ones(len(col)), -np.ones(int(inner.sum()))]
        bus_col.append(col[b.arc >= 0])
        bus_arc.append(b.arc[b.arc >= 0])
        cost.append(b.trip.riders * b.g)
        rhs.append(np.eye(1, b.nodes - 1).ravel())
        row0, col0 = row0 + b.nodes - 1, col0 + len(col)
    bus_col, bus_arc = np.concatenate(bus_col), np.concatenate(bus_arc)
    nbus = len(bus_col)
    solver = highs.model(
        np.concatenate(cost),
        np.concatenate([np.ones(na), np.full(col0 - na, np.inf)]),
        np.concatenate(rhs + [np.full(nbus, -np.inf)]),
        np.concatenate(rhs + [np.zeros(nbus)]),
        np.concatenate(rows + [row0 + np.arange(nbus)] * 2),
        np.concatenate(cols + [bus_col, bus_arc]),
        np.concatenate(vals + [np.ones(nbus), -np.ones(nbus)]),
    )
    return solver


def solve_master(inst: Instance, blocks, fixed=()):
    """Optimal design of the flow model over ``blocks``, with ``fixed``
    arcs open on top of the backbone.

    Returns (design, value, root, solves): the model's optimal value v*,
    its root LP value and the number of LP solves. The design is the
    smallest sorted arc tuple among the designs within a relative 1e-9
    of v*, the tie rule of ``enumerate_dfd``. It is decided arc by arc
    in candidate (sorted) order, keeping an integral incumbent within
    that cap which agrees with the arcs decided so far:

    1. when no fixed arc is left ahead and the arcs decided open form a
       balanced design within the cap, that design is the answer: every
       other candidate extends it;
    2. fixed arcs and arcs the incumbent opens stay open;
    3. otherwise the arc is probed forced open, depth first, taking the
       first integral solution within the cap, and closed when there is
       none. The probe is skipped when the root LP value plus the arc's
       root reduced cost exceeds the cap: the root duals stay feasible
       under any bound change, so that sum bounds the probe.
    """
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    cand = inst.candidate_arcs
    na, nh = len(cand), len(inst.hubs)
    hubs = np.array([[inst.hub_index[h] for h in a] for a in cand], dtype=int).reshape(na, 2)
    solver = _model(inst, blocks, hubs)
    is_fixed = np.array([a in fixed for a in cand], dtype=bool)
    lo, up = is_fixed.astype(float), np.ones(na)
    log = []
    found = highs.branch(solver, lo, up, np.inf, False, log)
    if found is None:
        raise ValidationError("master infeasible: fixed arcs cannot be balanced")
    best, inc = found
    root, _, rc = log[0]
    cap = best + _TIE * abs(best)
    for i in range(na):
        if not inc[i:].any():
            break
        if not is_fixed[i:].any():
            degree = np.bincount(hubs[:i, 0], lo[:i], nh) - np.bincount(hubs[:i, 1], lo[:i], nh)
            if not degree.any():
                alone = highs.solve(solver, lo, np.where(np.arange(na) < i, up, 0.0), log)
                if alone is not None and alone[0] <= cap:
                    inc = lo > 0.5
                    break
        if not (is_fixed[i] or inc[i]):
            probe = None
            if root + rc[i] <= cap + _RC_SLACK:
                forced = lo.copy()
                forced[i] = 1.0
                probe = highs.branch(solver, forced, up, cap, True, log)
            if probe is None:
                up[i] = 0.0
                continue
            inc = probe[1]
        lo[i] = 1.0
    # arcs_cost sums in set order, so how this set is built fixes the
    # objective's last bits; this order reproduces bench/references.json
    opened = frozenset(a for a, on in zip(cand, inc) if on and a not in fixed)
    return Design(inst, fixed | opened), best, root, len(log)


@dataclass(frozen=True)
class DfdSolution:
    """Optimal fixed-demand design with its trip set and solve record."""

    design: Design
    objective: float
    tset: frozenset  # trip ids
    bounds: tuple  # ((1, root LP value, objective, open arcs, trip blocks),)
    iterations: int  # LP solves


def solve_dfd(inst: Instance, tset, fixed=()) -> DfdSolution:
    """Optimal design for the trip ids ``tset`` with ``fixed`` arcs open:
    one flow model over the trips that do not ride a direct shuttle
    under every design, the others being constants. The objective adds
    each trip's routed g from the design's ``trip_arrays``."""
    trips = sorted((inst.trip_by_id(t) for t in tset), key=lambda t: t.id)
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    if not fixed <= set(inst.candidate_arcs):
        raise ValidationError("fixed arcs outside the candidate set")

    direct = _direct_flags(inst)
    flow_trips = [t for t in trips if not direct[t.id]]
    design, _, root, solves = solve_master(
        inst, [make_cut(t, inst) for t in flow_trips], fixed=fixed
    )
    g = trip_arrays(design)[0].tolist()
    row = inst.trip_index
    objective = arcs_cost(inst, design.open_arcs)
    for t in flow_trips:
        objective += t.riders * g[row[t.id]]
    # a direct trip rides the same shuttle under every design
    const = 0.0
    for t in trips:
        if direct[t.id]:
            const += t.riders * g[row[t.id]]
    objective += const
    record = (1, root + const, objective, len(design.open_arcs), len(flow_trips))
    return DfdSolution(
        design=design, objective=objective, tset=frozenset(t.id for t in trips),
        bounds=(record,), iterations=solves,
    )


# -- exhaustive oracle -------------------------------------------------


def balanced_designs(inst: Instance, fixed=(), cap: int = 16):
    """Yield every weakly connected design containing ``fixed``, in
    deterministic (bitmask) order. Hard-capped by candidate arc count."""
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    cand = list(inst.candidate_arcs)
    if len(cand) > cap:
        raise CapExceeded(f"{len(cand)} candidate arcs exceed the cap {cap}")
    free = [a for a in cand if a not in fixed]
    nh = len(inst.hubs)
    base = inst.hub_degree(fixed)
    deltas = [inst.hub_degree([a]) for a in free]
    for mask in range(1 << len(free)):
        deg = list(base)
        m = mask
        i = 0
        while m:
            if m & 1:
                d = deltas[i]
                for j in range(nh):
                    deg[j] += d[j]
            m >>= 1
            i += 1
        if any(deg):
            continue
        arcs = frozenset(fixed) | frozenset(
            free[i] for i in range(len(free)) if mask >> i & 1
        )
        yield Design(inst, arcs)


def enumerate_dfd(inst: Instance, tset, fixed=(), cap: int = 16) -> DfdSolution:
    """Brute-force optimum of the fixed-demand problem; ties resolved to
    the lexicographically smallest open-arc set."""
    trips = [inst.trip_by_id(t) if not isinstance(t, Trip) else t for t in tset]
    trips.sort(key=lambda t: t.id)
    best = None
    best_obj = None
    for design in balanced_designs(inst, fixed=fixed, cap=cap):
        obj = arcs_cost(inst, design.open_arcs)
        for t in trips:
            obj += t.riders * route(t, design).g
        if best is None or obj < best_obj or (obj == best_obj and design.key() < best.key()):
            best, best_obj = design, obj
    return DfdSolution(
        design=best,
        objective=best_obj,
        tset=frozenset(t.id for t in trips),
        bounds=((1, best_obj, best_obj, len(best.open_arcs), 0),),
        iterations=1,
    )
