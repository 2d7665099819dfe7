"""Follower problem: lexicographically optimal multimodal routes.

For a trip and a network design, the router finds the route minimizing
the pair (g, f) lexicographically, where g is the weighted cost of the
legs (tau for bus legs, gamma for shuttle legs) and f the travel time
in minutes including bus waits. Ties beyond (g, f) are broken by
fewest legs, then lexicographically smallest stop sequence, then bus
before shuttle, which makes routes canonical and runs reproducible.

The search is a label-setting shortest path over labels ordered
lexicographically; all arc increments are non-negative so the first
label settled at a node is optimal. When both matrices satisfy the
triangle inequality the graph is restricted to the trip endpoints and
the hubs: consecutive shuttle legs collapse, except that banning
hub-to-hub shuttles makes a two-leg shuttle relay through one non-hub
stop potentially useful, so those "bridge" arcs are precomputed per
hub pair. Instances without the triangle property fall back to the
full stop graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, Trip, ValidationError, WeightTable, derive_weights

BUS = "bus"
SHUTTLE = "shuttle"


def weights_of(inst: Instance) -> WeightTable:
    """Per-instance cached weight table."""
    if "weights" not in inst._caches:
        inst._caches["weights"] = derive_weights(inst)
    return inst._caches["weights"]


def _bridge_table(inst: Instance) -> dict:
    """For each ordered hub pair, the best three one-stop shuttle relays
    (h -> x -> l with x a non-hub), ranked by (g, f, x). Only relevant
    when hub-to-hub shuttles are banned."""
    if "bridges" not in inst._caches:
        w = weights_of(inst)
        sidx = inst.stop_index
        hubset = set(inst.hubs)
        nonhub = np.array([sidx[s] for s in inst.stops if s not in hubset], dtype=int)
        table = {}
        for h in inst.hubs:
            hi = sidx[h]
            for l in inst.hubs:
                if l == h:
                    continue
                li = sidx[l]
                if nonhub.size == 0:
                    table[(h, l)] = ()
                    continue
                gsum = w.gamma[hi, nonhub] + w.gamma[nonhub, li]
                fsum = inst.time[hi, nonhub] + inst.time[nonhub, li]
                order = np.lexsort((nonhub, fsum, gsum))[:3]
                table[(h, l)] = tuple(int(inst.stops[nonhub[i]]) for i in order)
        inst._caches["bridges"] = table
    return inst._caches["bridges"]


@dataclass(frozen=True, eq=False)
class Design:
    """A weakly connected set of open bus arcs over the candidate set.

    Open arcs always include the instance's fixed backbone. Designs are
    immutable; routing results are memoized on the design.
    """

    instance: Instance
    open_arcs: frozenset
    _caches: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        inst = self.instance
        object.__setattr__(self, "open_arcs", frozenset(tuple(a) for a in self.open_arcs))
        cand = set(inst.candidate_arcs)
        for h, l in self.open_arcs:
            if h == l:
                raise ValidationError(f"self arc ({h},{l}) not allowed")
            if (h, l) not in cand:
                raise ValidationError(f"arc ({h},{l}) outside the candidate set")
        if not inst.fixed_arcs <= self.open_arcs:
            raise ValidationError("design must contain all fixed arcs")
        if any(inst.hub_degree(self.open_arcs)):
            raise ValidationError("design violates weak connectivity")

    @classmethod
    def minimal(cls, inst: Instance) -> "Design":
        """The smallest feasible design: the fixed backbone only."""
        return cls(inst, frozenset(inst.fixed_arcs))

    def key(self) -> tuple:
        return tuple(sorted(self.open_arcs))

    def fingerprint(self) -> str:
        return ";".join(f"{h}>{l}" for h, l in self.key()) or "-"

    def with_arcs(self, extra) -> "Design":
        return Design(self.instance, self.open_arcs | frozenset(tuple(a) for a in extra))

    def __eq__(self, other):
        return (
            isinstance(other, Design)
            and self.instance is other.instance
            and self.open_arcs == other.open_arcs
        )

    def __hash__(self):
        return hash((id(self.instance), self.open_arcs))

    def __le__(self, other: "Design") -> bool:
        return self.open_arcs <= other.open_arcs


@dataclass(frozen=True)
class Route:
    """An ordered multimodal leg sequence with its cost components.

    g = theta * f + (1 - theta) * money holds by construction; money is
    the shuttle operating cost omega * shuttle_km in dollars.
    """

    legs: tuple
    g: float
    f: float
    money: float
    shuttle_km: float

    @property
    def stop_sequence(self) -> tuple:
        return (self.legs[0][1],) + tuple(leg[2] for leg in self.legs)

    @property
    def is_direct_shuttle(self) -> bool:
        return len(self.legs) == 1 and self.legs[0][0] == SHUTTLE

    @property
    def bus_span(self):
        """(first hub entered, last hub left) over bus legs, or None."""
        bus = [leg for leg in self.legs if leg[0] == BUS]
        if not bus:
            return None
        return bus[0][1], bus[-1][2]


_MODE_RANK = {BUS: 0, SHUTTLE: 1}


def _build_graph(inst: Instance, open_arcs, o: int, d: int):
    """The trip's search graph, u -> [(v, g, f, legs, seq_ext, modes_ext)].

    When both matrices are metric the nodes are the endpoints and the
    hubs, with a bridge per hub pair while hub-to-hub shuttles are
    banned; otherwise every stop, with no bridges. The heap key orders
    labels completely, so the adjacency order never changes a route.
    """
    w = weights_of(inst)
    sidx, hidx = inst.stop_index, inst.hub_index
    wait = inst.wait_matrix
    hubset = set(inst.hubs)
    between = inst.params.shuttle_between_hubs
    if inst.metric_consistent:
        nodes = {o, d} | hubset
        bridges = {} if between else _bridge_table(inst)
    else:
        nodes, bridges = inst.stops, {}
    adj = {u: [] for u in nodes}
    for u in nodes:
        if u == d:
            continue
        ui = sidx[u]
        out = adj[u]
        for v in nodes:
            if v == u or v == o:
                continue
            vi = sidx[v]
            both_hubs = u in hubset and v in hubset
            if both_hubs and (u, v) in open_arcs:
                hu, hv = hidx[u], hidx[v]
                out.append((v, float(w.tau[hu, hv]), float(inst.time[ui, vi] + wait[hu, hv]),
                            1, (v,), (BUS,)))
            if not both_hubs or between or (u == o and v == d):
                out.append((v, float(w.gamma[ui, vi]), float(inst.time[ui, vi]), 1, (v,), (SHUTTLE,)))
            for x in bridges.get((u, v), ()):
                if x == o or x == d:
                    continue
                xi = sidx[x]
                out.append((v, float(w.gamma[ui, xi] + w.gamma[xi, vi]),
                            float(inst.time[ui, xi] + inst.time[xi, vi]),
                            2, (x, v), (SHUTTLE, SHUTTLE)))
                break
    return adj


def _settle_all(adj, source):
    """Dijkstra on the g component only; returns node -> min g."""
    dist = {}
    heap = [(0.0, source)]
    while heap:
        g, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = g
        for v, dg, *_ in adj[u]:
            if v not in dist:
                heapq.heappush(heap, (g + dg, v))
    return dist


def _arc_potentials(inst: Instance, trip: Trip, open_arcs):
    """Min weighted cost origin->hub and hub->destination over routes
    whose bus legs stay within ``open_arcs``."""
    o, d = trip.origin, trip.destination
    adj = _build_graph(inst, open_arcs, o, d)
    fwd = _settle_all(adj, o)
    radj = {u: [] for u in adj}
    for u, arcs in adj.items():
        for v, g, *_ in arcs:
            radj[v].append((u, g))
    bwd = _settle_all(radj, d)
    a = {h: fwd.get(h, float("inf")) for h in inst.hubs}
    b = {h: bwd.get(h, float("inf")) for h in inst.hubs}
    return a, b


def _lex_search(adj, o: int, d: int):
    """Label-setting search; returns the canonical optimal label at d."""
    heap = [(0.0, 0.0, 0, (o,), (), o)]
    settled = set()
    while heap:
        g, f, legs, seq, modes, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == d:
            return g, f, seq, modes
        for v, dg, df, dl, seq_ext, modes_ext in adj[u]:
            if v in settled:
                continue
            heapq.heappush(
                heap,
                (
                    g + dg,
                    f + df,
                    legs + dl,
                    seq + seq_ext,
                    modes + tuple(_MODE_RANK[m] for m in modes_ext),
                    v,
                ),
            )
    return None


def route(trip: Trip, design: Design) -> Route:
    """Lexicographic minimizer of (g, f) for one trip under a design."""
    inst = design.instance
    cache = design._caches.setdefault("routes", {})
    if trip.id in cache:
        cached_trip, cached_route = cache[trip.id]
        if cached_trip == trip:
            return cached_route
    o, d = trip.origin, trip.destination
    hit = _lex_search(_build_graph(inst, design.open_arcs, o, d), o, d)
    if hit is None:
        raise RuntimeError(
            f"trip {trip.id}: destination unreachable despite full shuttle coverage"
        )
    g, f, seq, moderanks = hit
    w = weights_of(inst)
    sidx = inst.stop_index
    legs = []
    money = 0.0
    shuttle_km = 0.0
    for i, mrank in enumerate(moderanks):
        u, v = seq[i], seq[i + 1]
        mode = BUS if mrank == 0 else SHUTTLE
        legs.append((mode, u, v))
        if mode == SHUTTLE:
            dkm = float(inst.dist[sidx[u], sidx[v]])
            shuttle_km += dkm
            money += inst.params.omega * dkm
    result = Route(legs=tuple(legs), g=float(g), f=float(f), money=money, shuttle_km=shuttle_km)
    cache[trip.id] = (trip, result)
    return result


def route_batch(trips, design: Design):
    """Element-wise ``route``, order preserving."""
    return [route(t, design) for t in trips]


def is_direct_trip(trip: Trip, inst: Instance) -> bool:
    """True when no hub pair offers a shorter access-egress distance than
    the direct shuttle, in which case the trip rides a single shuttle leg
    under every design."""
    sidx = inst.stop_index
    hub_pos = np.array([sidx[h] for h in inst.hubs], dtype=int)
    o, d = sidx[trip.origin], sidx[trip.destination]
    best = float(inst.dist[o, hub_pos].min() + inst.dist[hub_pos, d].min())
    return best >= float(inst.dist[o, d])
