"""Follower problem: lexicographically optimal multimodal routes.

For a trip and a network design, the router finds the route minimizing
the pair (g, f) lexicographically, where g is the weighted cost of the
legs (tau for bus legs, gamma for shuttle legs) and f the travel time
in minutes including bus waits. Ties beyond (g, f) are broken by
fewest legs, then lexicographically smallest stop sequence, then bus
before shuttle, which makes routes canonical and runs reproducible.

When both matrices satisfy the triangle inequality, consecutive shuttle
legs collapse, so every route is the direct shuttle or an access
shuttle, a path between hubs and an egress shuttle. The hub path
depends only on the design. While hub-to-hub shuttles are banned, a
two-leg shuttle relay through one non-hub stop may still join two hubs;
the best relays of each hub pair are precomputed per instance as
"bridges". Each design therefore gets one table, built on its first
route: the g-cheapest path between every ordered hub pair over its bus
arcs, hub-to-hub shuttles when allowed and otherwise each pair's first
bridge, with the count of near-tied last hops into every pair. One
segmented numpy minimum over each trip's candidates, access[o, h] +
path[h, l] + egress[l, d] and the direct shuttle, then picks every
instance trip's route at once. A trip's candidates are fixed per
instance: the hub pairs whose access + egress stays within a relative
1e-6 of the direct shuttle's cost. Hub paths cost at least 0, so no
other pair can win or come within the tie margin below, and the picks
equal those over every pair. A hub origin's only access hub is itself,
as is a hub destination's only egress hub; table paths are simple, so
no endpoint sits inside one.
The winners' g, f, money and shuttle_km are summed for all instance
trips at once, column by column in the order the search below adds
legs, so they are bit-identical to it. ``trip_arrays`` yields these
sums as arrays; ``route`` takes a trip's four numbers from them and
decodes only its legs from the table.

The router's one search, ``_search``, is label-setting over labels
ordered lexicographically. It decides a trip instead whenever the table
cannot: when its best candidate is within a relative 1e-9 of another,
or when some hop of its hub path has a near-tied alternative. It also
routes every trip outside the instance's trips, once ``route`` has
checked that the trip joins two distinct stops of the instance. All arc
increments are non-negative, so the first label settled at a node is
optimal. The search runs on the trip's ``_edges``, a graph of the trip
endpoints and the hubs, with bridges while hub-to-hub shuttles are
banned; instances without the triangle property always use it, on the
full stop graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .instance import Instance, Trip, ValidationError, WeightTable, derive_weights, hub_pairs, memo

BUS = "bus"
SHUTTLE = "shuttle"


@memo
def weights_of(inst: Instance) -> WeightTable:
    """The instance's weight table, derived once."""
    return derive_weights(inst)


def arcs_cost(inst: Instance, arcs) -> float:
    """Investment cost of a set of open arcs; fixed backbone arcs are
    free when the instance says so."""
    w = weights_of(inst)
    hidx = inst.hub_index
    fixed = inst.fixed_arcs
    costed = inst.params.fixed_arc_costed
    total = 0.0
    for h, l in arcs:
        if not costed and (h, l) in fixed:
            continue
        total += float(w.beta[hidx[h], hidx[l]])
    return total


@memo
def _relays(inst: Instance) -> np.ndarray:
    """For each ordered pair of hub indices, the stop indices of the best
    three one-stop shuttle relays (h -> x -> l with x a non-hub), ranked
    by (g, f, x), then a -1 column that stands for no relay. Only
    relevant when hub-to-hub shuttles are banned."""
    w = weights_of(inst)
    sidx = inst.stop_index
    hubset = set(inst.hubs)
    nonhub = np.array([sidx[s] for s in inst.stops if s not in hubset], dtype=int)
    hub_pos = inst.hub_positions
    # [h, l, x] sums over every hub pair at once
    gsum = w.gamma[np.ix_(hub_pos, nonhub)][:, None, :] + w.gamma[np.ix_(nonhub, hub_pos)].T
    fsum = inst.time[np.ix_(hub_pos, nonhub)][:, None, :] + inst.time[np.ix_(nonhub, hub_pos)].T
    order = np.lexsort((np.broadcast_to(nonhub, gsum.shape), fsum, gsum))[..., :3]
    none = np.full(order.shape[:2] + (1,), -1)
    return np.concatenate([nonhub[order], none], axis=2)


@dataclass(frozen=True, eq=False)
class Design:
    """A weakly connected set of open bus arcs over the candidate set.

    Open arcs always include the instance's fixed backbone; each arc is
    read by ``instance.hub_pairs`` and kept as an ``(int, int)`` pair.
    Designs are immutable; each keeps its hub-path table and its
    ``trip_arrays`` (see ``memo``), built on first use.
    """

    instance: Instance
    open_arcs: frozenset

    def __post_init__(self):
        inst = self.instance
        # built in the input's order, which fixes the set's iteration order
        object.__setattr__(self, "open_arcs", frozenset(hub_pairs(self.open_arcs, "arc", inst)))
        if not inst.fixed_arcs <= self.open_arcs:
            raise ValidationError("design must contain all fixed arcs")
        if any(inst.hub_degree(self.open_arcs)):
            raise ValidationError("design violates weak connectivity")

    @classmethod
    def minimal(cls, inst: Instance) -> "Design":
        """The smallest feasible design: the fixed backbone only."""
        return cls(inst, frozenset(inst.fixed_arcs))

    @memo
    def key(self) -> tuple:
        return tuple(sorted(self.open_arcs))

    @memo
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
    def is_direct_shuttle(self) -> bool:
        return len(self.legs) == 1 and self.legs[0][0] == SHUTTLE

    @property
    def bus_span(self):
        """(first hub entered, last hub left) over bus legs, or None."""
        bus = [leg for leg in self.legs if leg[0] == BUS]
        if not bus:
            return None
        return bus[0][1], bus[-1][2]


# Kinds of a search-graph edge and of a hub-path hop, in the order
# ``_edges`` lists a node pair's edges and ``_hop_table`` its hops; a
# leg's mode ranks as its kind, bus before shuttle.
_BUS_KIND, _SHUTTLE_KIND, _BRIDGE_KIND = range(3)


def _arc_labels(inst: Instance, arcs) -> np.ndarray:
    """(hub, hub) array holding each arc's position in ``arcs``, -1 elsewhere."""
    hidx = inst.hub_index
    nh = len(inst.hubs)
    labels = np.full((nh, nh), -1)
    for k, (h, l) in enumerate(arcs):
        labels[hidx[h], hidx[l]] = k
    return labels


def _edges(inst: Instance, labels, pairs):
    """The edges of the search graph of each (o, d) trip in ``pairs``, with
    the arcs ``labels`` marks (see ``_arc_labels``) open, as (nodes, trip,
    tail, head, g, f, arc, relay), built for the whole batch at once.

    When both matrices are metric a trip's nodes are its endpoints and
    the hubs, in the order of ``list({o, d} | set(hubs))``, with a bridge
    per hub pair while hub-to-hub shuttles are banned; otherwise every
    stop, with no bridges. No edge leaves d or enters o. From u to v there
    is a bus leg when both are hubs and the arc is open, a shuttle leg
    unless both are hubs (hub-to-hub shuttles allowed, or u -> v being
    o -> d), and a bridge u -> x -> v through the pair's first relay x
    other than o and d. ``nodes`` lists each trip's nodes, ``trip`` holds
    each edge's position in ``pairs``, and ``tail`` and ``head`` index
    that trip's nodes. The edges run trip by trip, each trip's over its
    (tail, head, kind) grid in order, kinds ordered bus, shuttle, bridge.
    ``arc`` holds a bus edge's label, ``relay`` a bridge's relay stop
    index, both -1 elsewhere. Every trip's grid is padded to H + 2 nodes
    (every stop without the triangle property); no edge touches a pad.
    ``_search`` reads a batch of one, so the route search and the flow
    blocks of ``dfd.make_cut`` share one edge rule."""
    w = weights_of(inst)
    sidx, hidx = inst.stop_index, inst.hub_index
    between = inst.params.shuttle_between_hubs
    hubs = set(inst.hubs)
    nodes = [list({o, d} | hubs) if inst.metric_consistent else list(inst.stops) for o, d in pairs]
    size = np.array([len(u) for u in nodes], dtype=int)
    k, n = len(pairs), len(hubs) + 2 if inst.metric_consistent else len(inst.stops)
    real = np.arange(n) < size[:, None]
    s, h = np.full((k, n), -1), np.full((k, n), -1)
    s[real] = [sidx[u] for row in nodes for u in row]
    h[real] = [hidx.get(u, -1) for row in nodes for u in row]
    so = np.array([sidx[o] for o, _ in pairs], dtype=int)[:, None]
    sd = np.array([sidx[d] for _, d in pairs], dtype=int)[:, None]
    hu, hv = h[:, :, None], h[:, None, :]
    both = (hu >= 0) & (hv >= 0)
    arc = np.where(both, labels[hu, hv], -1)
    x = np.full((k, n, n), -1)
    if inst.metric_consistent and not between:
        relays = _relays(inst)[hu, hv]
        ok = (relays != so[..., None, None]) & (relays != sd[..., None, None])
        ok[..., -1] = True
        x = np.where(both, np.take_along_axis(relays, ok.argmax(axis=3)[..., None], 3)[..., 0], -1)
    mask = np.stack([arc >= 0, ~both | between, x >= 0], axis=3)
    mask &= (real[:, :, None] & real[:, None, :])[..., None]
    # o -> d always has its shuttle; nothing leaves d, enters o or loops
    rows, io, id_ = np.arange(k), (s == so).argmax(axis=1), (s == sd).argmax(axis=1)
    mask[rows, io, id_, _SHUTTLE_KIND] = True
    mask[rows, id_] = False
    mask[rows, :, io] = False
    mask[:, np.arange(n), np.arange(n)] = False
    cell, kind = np.divmod(np.flatnonzero(mask), 3)
    trip, pair = np.divmod(cell, n * n)
    tail, head = np.divmod(pair, n)
    su, sv, x = s[trip, tail], s[trip, head], x.ravel()[cell]
    hu, hv = h[trip, tail], h[trip, head]
    t = inst.time
    bus, bridge = kind == _BUS_KIND, kind == _BRIDGE_KIND
    g = np.where(bus, w.tau[hu, hv], w.gamma[su, sv])
    f = np.where(bus, t[su, sv] + inst.wait_matrix[hu, hv], t[su, sv])
    g[bridge] = w.gamma[su, x][bridge] + w.gamma[x, sv][bridge]
    f[bridge] = t[su, x][bridge] + t[x, sv][bridge]
    return (nodes, trip, tail, head, g, f, np.where(bus, arc.ravel()[cell], -1),
            np.where(bridge, x, -1))


def _search(inst: Instance, open_arcs, o: int, d: int) -> Route:
    """The label-setting search from stop o to stop d with ``open_arcs``
    open, over the trip's ``_edges`` (a batch of one). A label is (g, f,
    leg count, stop sequence, leg modes ranked by kind, node); the heap
    orders labels by that key, so the first label settled at d is the
    canonical optimum and the edge order never changes a route. money
    and shuttle_km add the shuttle legs in route order."""
    nodes, _, tail, head, g, f, arc, relay = _edges(inst, _arc_labels(inst, open_arcs), [(o, d)])
    nodes = nodes[0]
    # _edges lists the edges tail by tail, so each node's out-edges are one slice
    first = np.searchsorted(tail, np.arange(len(nodes) + 1)).tolist()
    edges = [
        (v, dg, df, (inst.stops[x], nodes[v]), (_SHUTTLE_KIND,) * 2) if x >= 0
        else (v, dg, df, (nodes[v],), (_BUS_KIND if a >= 0 else _SHUTTLE_KIND,))
        for v, dg, df, a, x in zip(head.tolist(), g.tolist(), f.tolist(), arc.tolist(),
                                   relay.tolist())
    ]
    goal = nodes.index(d)
    heap = [(0.0, 0.0, 0, (o,), (), nodes.index(o))]
    settled = set()
    while heap:
        g, f, legs, seq, modes, u = heapq.heappop(heap)
        if u == goal:
            break
        if u in settled:
            continue
        settled.add(u)
        for v, dg, df, seq_ext, modes_ext in edges[first[u]:first[u + 1]]:
            if v not in settled:
                heapq.heappush(heap, (g + dg, f + df, legs + len(modes_ext), seq + seq_ext,
                                      modes + modes_ext, v))
    else:
        raise RuntimeError(f"stop {d} unreachable from stop {o} despite full shuttle coverage")
    sidx = inst.stop_index
    steps = list(zip(seq, seq[1:], modes))
    money = shuttle_km = 0.0
    for u, v, mode in steps:
        if mode == _SHUTTLE_KIND:
            km = float(inst.dist[sidx[u], sidx[v]])
            shuttle_km += km
            money += inst.params.omega * km
    return Route(tuple((BUS if mode == _BUS_KIND else SHUTTLE, u, v) for u, v, mode in steps),
                 g, f, money, shuttle_km)


# Relative margin within which two candidate costs count as tied.
_TIE = 1e-9


@dataclass(frozen=True)
class _HubPaths:
    """One design's g-cheapest paths between ordered hub pairs, by hub index.

    ``cost[h, l]`` is the path's g (0 on the diagonal, inf when no path
    exists). ``steps[h, l]`` lists its hops in order after leading -1
    pads, each as the flat hop index ``kind * H * H + u * H + v`` of
    ``_hop_table``. ``unique[h, l]`` says that no hop of the path has a
    near-tied alternative into its head.
    """

    cost: np.ndarray
    steps: np.ndarray
    unique: np.ndarray


@memo
def _hop_table(inst: Instance):
    """(terms, usable) over every hop kind and ordered hub pair (u, v).

    ``terms[:, kind, u, v]`` holds the hop's g and f increments and the km
    of its first and second shuttle leg (0 where it has none), the values
    ``_edges`` gives. ``usable[kind, u, v]`` says whether the instance has
    the hop: hub-to-hub shuttles when they run and otherwise each pair's
    first bridge; bus hops need their arc open in the design, so none is
    usable here. A third value is the absolute tie margin of the hub-path
    table: ``_TIE`` times the largest shuttle cost, as a route's g never
    exceeds it, the direct shuttle being always available."""
    w = weights_of(inst)
    nh = len(inst.hubs)
    pos = inst.hub_positions
    u, v = pos[:, None], pos[None, :]
    terms = np.zeros((4, 3, nh, nh))
    usable = np.zeros((3, nh, nh), dtype=bool)
    terms[:2, _BUS_KIND] = w.tau, inst.time[u, v] + inst.wait_matrix
    terms[:3, _SHUTTLE_KIND] = w.gamma[u, v], inst.time[u, v], inst.dist[u, v]
    if inst.params.shuttle_between_hubs:
        usable[_SHUTTLE_KIND] = ~np.eye(nh, dtype=bool)
    else:
        x = _relays(inst)[..., 0]
        usable[_BRIDGE_KIND] = (x >= 0) & ~np.eye(nh, dtype=bool)
        terms[:, _BRIDGE_KIND] = (w.gamma[u, x] + w.gamma[x, v], inst.time[u, x] + inst.time[x, v],
                                 inst.dist[u, x], inst.dist[x, v])
    terms.setflags(write=False)
    return terms, usable, _TIE * float(w.gamma.max())


@memo
def _hub_paths(design: Design) -> _HubPaths:
    """The design's hub-path table. A hop is a bus leg on an open arc, a
    shuttle leg when hub-to-hub shuttles run and otherwise the pair's
    first bridge; costs come from Floyd-Warshall over the cheapest hop of
    each pair."""
    inst = design.instance
    hidx = inst.hub_index
    nh = len(inst.hubs)
    terms, usable, margin = _hop_table(inst)
    usable = usable.copy()
    for a, b in design.open_arcs:
        usable[_BUS_KIND, hidx[a], hidx[b]] = True
    hop = np.where(usable, terms[0], np.inf)
    cost = hop.min(0)
    np.fill_diagonal(cost, 0.0)
    for k in range(nh):
        np.minimum(cost, cost[:, k, None] + cost[None, k, :], out=cost)
    # via[h, kind, u, l]: g from h to l with last hop (kind, u)
    via = cost[:, None, :, None] + hop[None]
    ties = (via <= cost[:, None, None, :] + margin).sum(axis=(1, 2))
    # Walk every pair's path back from its head at once, by flat index
    # h * H + v; at v == h a walk stays put and adds hop -1. A simple
    # path has at most H - 1 hops; a longer walk is left not unique.
    last = via.reshape(nh, 3 * nh, nh).argmin(axis=1)
    head = np.arange(nh)
    row = head[:, None] * nh
    hop_at = (last * nh + head).ravel()
    prev_at = (row + last % nh).ravel()
    ok_at = (ties == 1).ravel()
    home = head * (nh + 1)
    hop_at[home], prev_at[home], ok_at[home] = -1, home, True
    goal = home.repeat(nh)
    at = (row + head).ravel()
    unique = np.ones(nh * nh, dtype=bool)
    steps = []
    for _ in range(nh - 1):
        if (at == goal).all():
            break
        unique &= ok_at[at]
        steps.append(hop_at[at])
        at = prev_at[at]
    unique &= at == goal
    return _HubPaths(
        cost,
        np.stack(steps[::-1], axis=1).reshape(nh, nh, -1) if steps else np.full((nh, nh, 0), -1),
        unique.reshape(nh, nh),
    )


# Relative slack above the direct shuttle's g within which a hub pair's
# access + egress keeps it a table candidate; far above _TIE.
_SLACK = 1e-6


class _Candidates(NamedTuple):
    """The instance trips' table candidates, ordered by trip, then by
    ``pick``: each trip's entries start at ``start[trip]``."""

    start: np.ndarray
    trip: np.ndarray  # each entry's trip
    pick: np.ndarray  # the hub pair h * H + l, or H * H for the direct shuttle
    access: np.ndarray  # g before the hub path: the access shuttle, or the direct one
    egress: np.ndarray  # g after it: the egress shuttle, 0 for the direct one


@memo
def _trip_costs(inst: Instance):
    """The instance trips' origin and destination stop indices, then
    their table candidates (``_Candidates``), computed on first use (a
    route or a ``dfd.FlowModel``), not at load.

    A hub endpoint's only access or egress hub is itself, at cost 0; the
    direct shuttle is no candidate where the table holds it already: as
    the own-hub pair of a trip with one hub endpoint, and as a hop between
    hub endpoints while hub-to-hub shuttles run. Some candidate thus costs
    at most gamma[o, d]: the direct shuttle, or else the own-hub pair
    (whose hub path, for two hub endpoints, is at most their shuttle).
    Hub paths cost at least 0, since tau and gamma do, so pair (h, l)
    costs at least access[h] + egress[l]. A pair whose sum exceeds
    gamma[o, d] by more than the relative ``_SLACK`` therefore costs more
    than the winner by more than the tie margin ``_TIE``: it can neither
    win nor make the winner's lead a tie, and is left out. The picks and
    ties over the rest are those over every pair."""
    w = weights_of(inst)
    sidx, hidx = inst.stop_index, inst.hub_index
    trips = inst.trips
    n, nh = len(trips), len(inst.hubs)
    hub_pos = inst.hub_positions
    o = np.array([sidx[t.origin] for t in trips], dtype=int)
    d = np.array([sidx[t.destination] for t in trips], dtype=int)
    access = w.gamma[o[:, None], hub_pos[None, :]]
    egress = w.gamma[hub_pos[None, :], d[:, None]]
    direct = w.gamma[o, d]
    bound = direct * (1.0 + _SLACK)
    o_hub = np.array([hidx.get(t.origin, -1) for t in trips], dtype=int)
    d_hub = np.array([hidx.get(t.destination, -1) for t in trips], dtype=int)
    for cost, own in ((access, o_hub), (egress, d_hub)):
        rows = np.flatnonzero(own >= 0)
        cost[rows] = np.inf
        cost[rows, own[rows]] = 0.0
    one_hub = (o_hub >= 0) != (d_hub >= 0)
    two_hubs = (o_hub >= 0) & (d_hub >= 0)
    direct[one_hub | (two_hubs & inst.params.shuttle_between_hubs)] = np.inf
    # [trip, h * H + l], then the direct shuttle; an inf is never kept
    before = np.concatenate([np.repeat(access, nh, axis=1), direct[:, None]], axis=1)
    after = np.concatenate([np.tile(egress, nh), np.zeros((n, 1))], axis=1)
    keep = before + after <= bound[:, None]
    trip, pick = np.divmod(np.flatnonzero(keep), nh * nh + 1)
    cand = _Candidates(np.searchsorted(trip, np.arange(n)), trip, pick, before[keep], after[keep])
    return o, d, cand


def _pick(paths: _HubPaths, cand: _Candidates):
    """Each trip's cheapest candidate, as h * H + l or H * H for the
    direct shuttle, and whether it beats every other candidate by more
    than the tie margin. Only the trip's candidates of ``_trip_costs`` are
    read; a hub pair left out there costs more than the winner by more
    than the tie margin, so leaving it out changes neither answer. Costs
    add access + path + egress in that order; a tie goes to the first
    candidate, so a hub pair beats the direct shuttle at equal cost.
    Every trip has a candidate."""
    path = np.append(paths.cost.ravel(), 0.0)  # the direct shuttle has no hub path
    cost = cand.access + path[cand.pick]
    cost += cand.egress
    low = np.minimum.reduceat(cost, cand.start)
    first = np.minimum.reduceat(
        np.where(cost == low[cand.trip], np.arange(len(cost)), len(cost)), cand.start)
    cost[first] = np.inf
    second = np.minimum.reduceat(cost, cand.start)
    return cand.pick[first], second - low > _TIE * low


@memo
def _table(design: Design):
    """(best, decided, sums): the hub-path table's reading of the
    instance trips.

    ``best`` is each trip's ``_pick``. ``decided`` marks the trips whose
    pick beats the other candidates and whose hub path has no near-tied
    hop; ``route`` searches the others. ``sums`` holds the rows g, f,
    money and shuttle_km of each pick, read-only. g and f add, column by
    column over all trips at once and in ``_search``'s order, the
    access leg, the hops of the hub path, then the egress leg (the
    direct shuttle is an access leg with no hops); absent legs and hops
    add an exact 0.0. money and shuttle_km add one shuttle leg at a
    time, a bridge being two.

    No decided trip has a bridge relaying through its own origin or
    destination, which the search graph forbids. A candidate whose
    bridge u -> o -> v relays through the origin costs at least the
    candidate that starts at v, whose access shuttle o -> v is the
    bridge's second leg; one whose bridge u -> d -> v relays through the
    destination costs at least the candidate that leaves the hubs at u,
    whose egress shuttle u -> d is the bridge's first leg. Either way
    another candidate lies within the tie margin."""
    inst = design.instance
    w = weights_of(inst)
    nh = len(inst.hubs)
    paths = _hub_paths(design)
    o, d, cand = _trip_costs(inst)
    best, clear = _pick(paths, cand)
    is_direct = best == nh * nh
    h, l = np.divmod(np.where(is_direct, 0, best), nh)
    pos = inst.hub_positions
    a = np.where(is_direct, d, pos[h])  # the access leg's head
    b = np.where(is_direct, d, pos[l])  # the egress leg's tail
    steps = paths.steps[h, l].T
    # a -1 pad indexes the zero column appended last
    terms = np.concatenate([_hop_table(inst)[0].reshape(4, -1), np.zeros((4, 1))], axis=1)
    sums = np.zeros((4, len(o)))
    g, f, money, km = sums
    for total, m, hop in ((g, w.gamma, terms[0]), (f, inst.time, terms[1])):
        total += np.where(o != a, m[o, a], 0.0)
        for s in steps:
            total += hop[s]
        total += np.where(b != d, m[b, d], 0.0)
    legs = [np.where(o != a, inst.dist[o, a], 0.0)]
    for s in steps:
        legs += [terms[2][s], terms[3][s]]
    legs.append(np.where(b != d, inst.dist[b, d], 0.0))
    for leg in legs:
        km += leg
        money += inst.params.omega * leg
    sums.setflags(write=False)
    return best, clear & paths.unique[h, l], sums


def _table_legs(inst: Instance, paths: _HubPaths, o: int, d: int, pick: int):
    """The legs of the table route ``pick`` (a ``_pick`` index) from o to
    d: the access shuttle, the hops of the hub path, each a bus or
    shuttle leg or a bridge's two shuttle legs through its first relay,
    then the egress shuttle."""
    hubs = inst.hubs
    nh = len(hubs)
    if pick == nh * nh:
        return ((SHUTTLE, o, d),)
    h, l = divmod(pick, nh)
    legs = [] if o == hubs[h] else [(SHUTTLE, o, hubs[h])]
    for code in paths.steps[h, l].tolist():
        if code < 0:
            continue
        kind, rest = divmod(code, nh * nh)
        i, j = divmod(rest, nh)
        u, v = hubs[i], hubs[j]
        if kind == _BRIDGE_KIND:
            x = inst.stops[_relays(inst)[i, j, 0]]
            legs += [(SHUTTLE, u, x), (SHUTTLE, x, v)]
        else:
            legs.append((BUS if kind == _BUS_KIND else SHUTTLE, u, v))
    if d != hubs[l]:
        legs.append((SHUTTLE, hubs[l], d))
    return tuple(legs)


def _trip_row(trip: Trip, inst: Instance):
    """The row of ``trip`` in ``inst.trips``; None for a trip outside
    them, once it is checked to join two distinct stops of the instance
    (``ValidationError`` otherwise)."""
    i = inst.trip_index.get(trip.id)
    if i is not None and inst.trips[i] == trip:
        return i
    for stop in (trip.origin, trip.destination):
        if stop not in inst.stop_index:
            raise ValidationError(f"trip {trip.id}: unknown stop {stop}")
    if trip.origin == trip.destination:
        raise ValidationError(f"trip {trip.id}: origin equals destination")
    return None


def route(trip: Trip, design: Design) -> Route:
    """Lexicographic minimizer of (g, f) for one trip under a design. An
    instance trip the hub-path table decides is read from it; any other
    trip is searched (``_search``), one outside ``inst.trips`` once
    ``_trip_row`` has checked it."""
    inst = design.instance
    o, d = trip.origin, trip.destination
    i = _trip_row(trip, inst)
    if i is not None and inst.metric_consistent:
        best, decided, sums = _table(design)
        if decided[i]:
            legs = _table_legs(inst, _hub_paths(design), o, d, int(best[i]))
            return Route(legs, *sums[:, i].tolist())
    return _search(inst, design.open_arcs, o, d)


@memo
def trip_arrays(design: Design):
    """g, f, money and shuttle_km of every instance trip's route under the
    design, as four read-only float64 arrays in trip order, equal bit for
    bit to the fields of ``route``. The trips the table decides take
    their ``_table`` sums; the others are routed one by one: near-tied
    ones and every trip of an instance without the triangle property.
    (No instance trip starts where it ends.)"""
    inst = design.instance
    if inst.metric_consistent:
        _, decided, sums = _table(design)
        out = sums.copy()
    else:
        decided = np.zeros(len(inst.trips), dtype=bool)
        out = np.zeros((4, len(inst.trips)))
    for i in np.flatnonzero(~decided).tolist():
        r = route(inst.trips[i], design)
        out[:, i] = r.g, r.f, r.money, r.shuttle_km
    out.setflags(write=False)
    return tuple(out)


def is_direct_trip(trip: Trip, inst: Instance) -> bool:
    """True when the trip rides a single shuttle leg under every design
    (see ``_direct``); a trip outside ``inst.trips`` is checked first
    (``_trip_row``)."""
    _trip_row(trip, inst)
    sidx = inst.stop_index
    return bool(_direct(inst, sidx[trip.origin], sidx[trip.destination]))


def _direct(inst: Instance, o, d):
    """Whether the instance is metric and no hub pair offers a shorter
    access-egress distance than the direct shuttle from stop index ``o``
    to stop index ``d``; ``o`` and ``d`` may be equal-length arrays of
    stop indices, paired element by element. The claim needs both
    matrices metric: without the triangle property a path through the
    hubs can beat the direct shuttle whatever the distances say, so no
    trip of a non-metric instance counts as direct."""
    return inst.metric_consistent & (_min_access_egress_km(inst, o, d) >= inst.dist[o, d])


def _min_access_egress_km(inst: Instance, o, d):
    """The shortest shuttle distance from stop index ``o`` to a hub plus
    the shortest from a hub to stop index ``d``; ``o`` and ``d`` may be
    equal-length arrays of stop indices, paired element by element."""
    hub_pos = inst.hub_positions
    o, d = np.asarray(o)[..., None], np.asarray(d)[..., None]
    return inst.dist[o, hub_pos].min(axis=-1) + inst.dist[hub_pos, d].min(axis=-1)
