"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's search code: routes
are checked against exhaustive simple-path enumeration over the full
stop graph, and cycle listings against a depth-first enumeration of
elementary circuits.
"""

import functools
import sys
from unittest import mock

import numpy as np
import pytest

from odmts import (
    CostParams,
    Design,
    GeneratorConfig,
    Instance,
    Trip,
    TripClass,
    generate_synthetic,
    route,
)
from odmts import router
from odmts.adoption import arcs_cost
from odmts.router import BUS, SHUTTLE, weights_of


# -- the worked 4-stop example ------------------------------------------


def example_matrices():
    t = np.zeros((4, 4))
    d = np.zeros((4, 4))

    def sym(m, i, j, v):
        m[i, j] = v
        m[j, i] = v

    sym(t, 0, 1, 5); sym(t, 1, 2, 10); sym(t, 2, 3, 4)
    sym(t, 0, 3, 25); sym(t, 0, 2, 30); sym(t, 1, 3, 30)
    sym(d, 0, 1, 2); sym(d, 1, 2, 8); sym(d, 2, 3, 1.5)
    sym(d, 0, 3, 12); sym(d, 0, 2, 15); sym(d, 1, 3, 15)
    return t, d


def make_example_instance(beta_per_arc=2.0, trips=None, ticket=2.5):
    """Four stops on a corridor, hubs {1, 2}, theta = 0.5, omega = 1.
    bus_rate is scaled so each hub arc costs ``beta_per_arc`` dollars."""
    t, d = example_matrices()
    # beta = (1-theta) * rate * n * d_12 = 0.5 * rate * 2 * 8
    rate = beta_per_arc / (0.5 * 2.0 * 8.0)
    params = CostParams(
        theta=0.5, omega=1.0, bus_rate=rate, buses_per_leg=2.0,
        wait=5.0, ticket=ticket, shuttle_between_hubs=False,
    )
    if trips is None:
        trips = (Trip(id=0, origin=0, destination=3, riders=1),)
    return Instance(stops=(0, 1, 2, 3), hubs=(1, 2), time=t, dist=d,
                    trips=tuple(trips), params=params)


@pytest.fixture
def example_instance():
    return make_example_instance()


class RouteCalls(list):
    """Ids of the trips handed to ``route``, in call order; ``designs``
    holds each call's design."""

    def __init__(self):
        super().__init__()
        self.designs = []


@pytest.fixture
def routed(monkeypatch):
    """Every trip the package's own code hands to ``route``: ``trip_arrays``
    for the trips its table cannot decide, and each module that imports
    ``route`` by name. Calls from the tests themselves are not seen."""
    seen = RouteCalls()
    real = router.route

    def counted(trip, design):
        seen.append(trip.id)
        seen.designs.append(design)
        return real(trip, design)

    for name, module in list(sys.modules.items()):
        if name.startswith("odmts.") and getattr(module, "route", None) is real:
            monkeypatch.setattr(module, "route", counted)
    return seen


# -- random Euclidean instances ------------------------------------------


def tiny_config(n_stops=9, n_hubs=3, core=4, mid=4, high=3, max_riders=4):
    """Cost regime calibrated so small instances open arcs: cheap buses,
    modest rider counts."""
    return GeneratorConfig(
        stops=n_stops,
        hubs=n_hubs,
        classes=(
            TripClass(core, None, max_riders),
            TripClass(mid, 2.0, max_riders),
            TripClass(high, 1.5, max_riders),
        ),
        square_km=10.0,
        speed_kmh=30.0,
        theta=0.001,
        omega=1.0,
        bus_rate=0.9,
        buses_per_leg=4.0,
        wait=5.0,
        ticket=2.5,
    )


def tiny_instance(seed, **kw):
    return generate_synthetic(tiny_config(**kw), seed=seed)


@functools.cache
def tiny_suite():
    """50 instances, 3-4 hubs, <= 10 stops, <= 12 candidate arcs."""
    out = [tiny_instance(seed, n_stops=8 + seed % 3, n_hubs=3 + seed % 2, core=4, mid=4, high=3)
           for seed in range(50)]
    assert all(len(inst.candidate_arcs) <= 12 for inst in out)
    return out


def random_design(inst, rng, base=()):
    """A random weakly connected design: a union of arc-disjoint cycles
    on top of ``base`` (itself assumed balanced)."""
    hubs = list(inst.hubs)
    cand = set(inst.candidate_arcs)
    arcs = set(inst.fixed_arcs) | set(base)
    for _ in range(rng.integers(0, 3)):
        k = int(rng.integers(2, min(4, len(hubs)) + 1))
        cyc = list(rng.choice(hubs, size=k, replace=False))
        new = {(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
        if new <= cand and not (new & arcs):
            arcs |= new
    return Design(inst, frozenset(arcs))


# -- independent route oracle ---------------------------------------------


def enumerate_routes(trip, design):
    """Every simple multimodal path from origin to destination, as
    (g, f, legs, stop_seq, mode_seq) tuples. Modes are enumerated
    explicitly, so a hub pair served by both an open bus arc and a legal
    shuttle leg appears twice."""
    inst = design.instance
    w = weights_of(inst)
    sidx = inst.stop_index
    hidx = inst.hub_index
    hubs = set(inst.hubs)
    allowed_shuttle_between_hubs = inst.params.shuttle_between_hubs
    o, d = trip.origin, trip.destination
    out = []

    def extend(u, visited, g, f, legs, seq, modes):
        if u == d:
            out.append((g, f, legs, seq, modes))
            return
        ui = sidx[u]
        for v in inst.stops:
            if v in visited:
                continue
            vi = sidx[v]
            both = u in hubs and v in hubs
            shuttle_ok = (not both) or allowed_shuttle_between_hubs or (u == o and v == d)
            if shuttle_ok:
                extend(
                    v, visited | {v},
                    g + float(w.gamma[ui, vi]), f + float(inst.time[ui, vi]),
                    legs + 1, seq + (v,), modes + (SHUTTLE,),
                )
            if both and (u, v) in design.open_arcs:
                extend(
                    v, visited | {v},
                    g + float(w.tau[hidx[u], hidx[v]]),
                    f + float(inst.time[ui, vi] + inst.wait_matrix[hidx[u], hidx[v]]),
                    legs + 1, seq + (v,), modes + (BUS,),
                )

    extend(o, {o}, 0.0, 0.0, 0, (o,), ())
    return out


MODE_ORDER = {BUS: 0, SHUTTLE: 1}


def oracle_route(trip, design):
    """Lexicographically best enumerated route as (g, f, legs sequence)."""
    best = min(
        enumerate_routes(trip, design),
        key=lambda r: (r[0], r[1], r[2], r[3], tuple(MODE_ORDER[m] for m in r[4])),
    )
    g, f, legs, seq, modes = best
    leg_list = tuple((modes[i], seq[i], seq[i + 1]) for i in range(legs))
    return g, f, leg_list


# -- dense reference for the hub-path table's picks --------------------------


def dense_costs(inst):
    """access (trips x hubs), egress (trips x hubs) and direct-shuttle
    (trips) costs of the instance trips, every hub pair a candidate. A hub
    endpoint's only access or egress hub is itself, at cost 0; the direct
    shuttle is inf where the table holds it already: as the own-hub pair
    of a trip with one hub endpoint, and as a hop between hub endpoints
    while hub-to-hub shuttles run."""
    w = weights_of(inst)
    sidx, hidx = inst.stop_index, inst.hub_index
    hub_pos = inst.hub_positions
    o = np.array([sidx[t.origin] for t in inst.trips], dtype=int)
    d = np.array([sidx[t.destination] for t in inst.trips], dtype=int)
    access = w.gamma[o[:, None], hub_pos[None, :]]
    egress = w.gamma[hub_pos[None, :], d[:, None]]
    direct = w.gamma[o, d]
    o_hub = np.array([hidx.get(t.origin, -1) for t in inst.trips], dtype=int)
    d_hub = np.array([hidx.get(t.destination, -1) for t in inst.trips], dtype=int)
    for cost, own in ((access, o_hub), (egress, d_hub)):
        rows = np.flatnonzero(own >= 0)
        cost[rows] = np.inf
        cost[rows, own[rows]] = 0.0
    one_hub = (o_hub >= 0) != (d_hub >= 0)
    two_hubs = (o_hub >= 0) & (d_hub >= 0)
    direct[one_hub | (two_hubs & inst.params.shuttle_between_hubs)] = np.inf
    return access, egress, direct


def dense_pick(paths, access, egress, direct):
    """Each trip's cheapest of all H * H hub pairs and the direct shuttle,
    as h * H + l or H * H, and whether it beats every other by more than
    the tie margin; ``router._pick`` reads a pruned candidate set instead."""
    n = len(direct)
    cost = access[:, :, None] + paths.cost
    cost += egress[:, None, :]
    cost = cost.reshape(n, paths.cost.size)
    best = cost.argmin(axis=1)
    rows = np.arange(n)
    low = cost[rows, best]
    cost[rows, best] = np.inf
    # the runner-up: the next hub candidate, or the direct shuttle
    second = np.minimum(cost.min(axis=1), np.maximum(low, direct))
    best[direct < low] = cost.shape[1]
    low = np.minimum(low, direct)
    return best, second - low > router._TIE * low


def dense_table(design):
    """``router._table`` of a fresh copy of the design, its picks taken by
    ``dense_pick`` over every hub pair."""
    inst = design.instance
    costs = dense_costs(inst)
    with mock.patch.object(router, "_pick", lambda paths, cand: dense_pick(paths, *costs)):
        return router._table(Design(inst, design.open_arcs))


# -- per-pair reference for the search graph and the flow blocks ------------


def bridge_table(inst):
    """``router._relays`` as stop ids, (h, l) -> relays, per ordered hub pair."""
    relays = router._relays(inst)
    return {(h, l): tuple(inst.stops[x] for x in relays[i, j] if x >= 0)
            for i, h in enumerate(inst.hubs) for j, l in enumerate(inst.hubs) if l != h}


def reference_graph(inst, open_arcs, o, d):
    """The trip's search graph built one node pair at a time, as the
    router built it before its edges became arrays: u -> [(v, g, f, legs,
    seq_ext, modes_ext)] over the endpoints and the hubs (every stop
    when the instance is not metric), a bus leg on each open arc, a
    shuttle leg unless both ends are hubs (hub-to-hub shuttles allowed,
    or the pair being o -> d), and a bridge through each hub pair's first
    relay other than o and d while hub-to-hub shuttles are banned."""
    w = weights_of(inst)
    sidx, hidx = inst.stop_index, inst.hub_index
    hubset = set(inst.hubs)
    between = inst.params.shuttle_between_hubs
    if inst.metric_consistent:
        nodes = {o, d} | hubset
        bridges = {} if between else bridge_table(inst)
    else:
        nodes, bridges = inst.stops, {}
    adj = {u: [] for u in nodes}
    for u in nodes:
        if u == d:
            continue
        ui = sidx[u]
        for v in nodes:
            if v == u or v == o:
                continue
            vi = sidx[v]
            both_hubs = u in hubset and v in hubset
            if both_hubs and (u, v) in open_arcs:
                hu, hv = hidx[u], hidx[v]
                adj[u].append((v, float(w.tau[hu, hv]),
                               float(inst.time[ui, vi] + inst.wait_matrix[hu, hv]),
                               1, (v,), (BUS,)))
            if not both_hubs or between or (u == o and v == d):
                adj[u].append((v, float(w.gamma[ui, vi]), float(inst.time[ui, vi]),
                               1, (v,), (SHUTTLE,)))
            for x in bridges.get((u, v), ()):
                if x == o or x == d:
                    continue
                xi = sidx[x]
                adj[u].append((v, float(w.gamma[ui, xi] + w.gamma[xi, vi]),
                               float(inst.time[ui, xi] + inst.time[xi, vi]),
                               2, (x, v), (SHUTTLE, SHUTTLE)))
                break
    return adj


def reference_edges(trip, inst):
    """The trip's edges in ``reference_graph`` with every candidate arc
    open, numbered as ``make_cut`` numbers them (origin first, destination
    last): (tail, head, g, arc, nodes), ``arc`` being -1 off the bus."""
    o, d = trip.origin, trip.destination
    adj = reference_graph(inst, frozenset(inst.candidate_arcs), o, d)
    pos = {u: i for i, u in enumerate([o] + [u for u in adj if u not in (o, d)] + [d])}
    arc_pos = {a: i for i, a in enumerate(inst.candidate_arcs)}
    edges = [(pos[u], pos[v], g, arc_pos[(u, v)] if modes == (BUS,) else -1)
             for u, out in adj.items() for v, g, _, _, _, modes in out]
    tail, head, g, arc = (np.array(col) for col in zip(*edges))
    return tail, head, g.astype(float), arc, len(pos)


def reference_block(trip, inst):
    """The trip's flow block from ``reference_edges``, pruned as
    ``make_cut`` does for each trip of a batch, one trip at a time:
    (tail, head, g, arc, nodes). An edge goes when every path through it
    costs more than the direct shuttle, and a bus edge u -> v also when
    an ungated edge o -> v costs no more than the cheapest way to v
    through it, or an ungated edge u -> d no more than the cheapest way
    on from u through it."""
    from odmts.dfd import _distances

    tail, head, g, arc, n = reference_edges(trip, inst)
    so, sd = _distances(tail, head, g, n, 0), _distances(head, tail, g, n, n - 1)
    through = so[tail] + g + sd[head]
    access, egress = {}, {}  # the cheapest ungated edge o -> v, and u -> d
    for t, h, c, a in zip(tail, head, g, arc):
        if a < 0 and t == 0:
            access[h] = min(access.get(h, np.inf), c)
        if a < 0 and h == n - 1:
            egress[t] = min(egress.get(t, np.inf), c)
    keep = through <= access.get(n - 1, np.inf)
    for i, (t, h, c, a) in enumerate(zip(tail, head, g, arc)):
        if a >= 0 and (access.get(h, np.inf) <= so[t] + c or egress.get(t, np.inf) <= c + sd[h]):
            keep[i] = False
    used = np.zeros(n, dtype=bool)
    used[[0, n - 1]] = True
    used[tail[keep]] = used[head[keep]] = True
    number = np.cumsum(used) - 1
    return number[tail[keep]], number[head[keep]], g[keep], arc[keep], int(used.sum())


# -- independent price of a flow block ----------------------------------------


def block_price(inst, block, open_arcs):
    """Cheapest origin-destination path cost of a DFD flow block whose bus
    edges are limited to ``open_arcs``, by Bellman-Ford over its edge
    arrays."""
    cand = inst.candidate_arcs
    keep = np.array([a < 0 or cand[a] in open_arcs for a in block.arc], dtype=bool)
    tail, head, g = block.tail[keep], block.head[keep], block.g[keep]
    dist = np.full(block.nodes, np.inf)
    dist[0] = 0.0
    for _ in range(block.nodes):
        np.minimum.at(dist, head, dist[tail] + g)
    return float(dist[-1])


# -- routed objective of a DFD answer -----------------------------------------


def routed_objective(sol):
    """A DFD answer's objective summed from ``route``: the design's
    investment in sorted arc order, then riders times each trip's routed
    g in trip id order, the sum ``enumerate_dfd`` minimizes."""
    design = sol.design
    inst = design.instance
    total = arcs_cost(inst, design.key())
    for i in sorted(sol.tset):
        trip = inst.trip_by_id(i)
        total += trip.riders * route(trip, design).g
    return total


# -- independent cycle oracle ----------------------------------------------


def brute_cycles(arcs):
    """Elementary directed cycles by DFS from each minimal node."""
    arcs = set(arcs)
    nodes = sorted({u for u, _ in arcs} | {v for _, v in arcs})
    found = set()

    def walk(start, u, path):
        for (a, b) in arcs:
            if a != u:
                continue
            if b == start and len(path) >= 1:
                found.add(tuple(path))
            elif b not in path and b > start:
                walk(start, b, path + [b])

    for s in nodes:
        walk(s, s, [s])
    return sorted(found, key=lambda c: (len(c), c))
