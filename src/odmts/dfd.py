"""Fixed-demand network design, solved exactly as one linear program.

The model is the disaggregated arc-flow formulation of uncapacitated
network design (Magnanti & Wong, 1984): a variable z in [0, 1] per
candidate arc, with hub balance (weak connectivity) and the fixed arcs
held at 1; per trip a unit flow from origin to destination over the
edges of its routing graph with every candidate arc open, less the
edges whose flow an ungated edge takes at no higher cost (every path
through them dearer than the direct shuttle, or a bus edge beaten by a
shuttle from the origin or to the destination, see ``make_cut``), each
bus edge's flow capped by its arc's z; and as objective the investment
plus riders times each trip's flow cost. At integral z a trip's flow
costs its routed g, so the model's value is the routed objective. The
LP relaxation is tight but not always integral; a fractional z is
settled by depth-first branching on the first fractional arc in
candidate order, and ties go to the smallest sorted arc tuple (see
``solve_master``). Trips that ride a direct shuttle under every design
(``is_direct_trip``, on metric instances only) cost the same under
every design and get no flow.

The LPs run on HiGHS's compiled core, which ships inside scipy (see
``highs``). An instance keeps one ``FlowModel`` (``flow_model``), which
holds the answers of every solve on it: the direct trips, found for all
trips at once; the block of every other trip, built at once; one memo
of answers, keyed by a solve's flow trips and fixed arcs, from which
``solve_dfd`` answers without an LP every request that an earlier
answer implies (a repeat, the same flow trips with more of the answer's
arcs fixed, or fewer flow trips with all of them fixed, see
``_implied``); and the live ``Design`` per open-arc tuple, so that the
answers with that tuple share the design's memos (its route tables,
arrays and evaluation). The model's one ``FlowLP`` alone holds the
solver and runs the exact search (``FlowLP.search``): a block joins it
the first time a solve uses its trip, blocks outside a solve are
switched off, and every solve starts warm from the previous basis. The
model builds its blocks in one ``make_cut`` call, on the disjoint union
of their graphs, from the router's edge arrays (``router._edges``), the
rule the per-trip route search reads as well. An answer computes its
objective when it is first read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import highs
from .highs import SolveError
from .instance import Instance, Trip, ValidationError, hub_pairs, memo
from .router import Design, _arc_labels, _direct, _edges, _trip_costs, arcs_cost, route, trip_arrays

# Most candidate arcs the exhaustive oracle enumerates designs over.
ENUMERATION_CAP = 16


class CapExceeded(RuntimeError):
    """A routine was asked to run beyond its hard size cap: the oracle's
    ``ENUMERATION_CAP`` or ``arc_heuristics.CYCLE_CAP``."""


def _fixed_arcs(inst: Instance, fixed) -> frozenset:
    """The arcs ``fixed``, read by ``hub_pairs``, plus the instance backbone."""
    return frozenset(hub_pairs(fixed, "fixed arc", inst)) | inst.fixed_arcs


@dataclass(frozen=True, eq=False)
class TripBlock:
    """One trip's unit flow: the edges of its routing graph with every
    candidate arc open, less those that cannot carry flow at the optimum
    (see ``make_cut``). Node 0 is the origin, node ``nodes - 1`` the
    destination; ``arc`` holds each bus edge's candidate-arc index and
    -1 for shuttle legs and bridges."""

    trip: Trip
    tail: np.ndarray
    head: np.ndarray
    g: np.ndarray
    arc: np.ndarray
    nodes: int


def _distances(tail, head, g, n, source):
    """Shortest distances from the node or nodes ``source`` over the edges
    tail -> head of non-negative cost g (Bellman-Ford, one numpy pass per
    round). On a disjoint union of graphs with one source each, every
    graph's distances are those of a run on it alone: a graph that has
    settled stays put while the others go on."""
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    while True:
        step = dist.copy()
        np.minimum.at(step, head, dist[tail] + g)
        if (step == dist).all():
            return dist
        dist = step


def make_cut(trips, inst: Instance) -> list:
    """The flow blocks of ``trips``, in order, built anew on every call
    (a ``FlowModel`` builds one per flow trip when it is made).

    For fixed z the cheapest unit flow whose bus edges carry at most
    their arc's z is, at integral z, the trip's routed g. By LP duality
    each dual solution of that flow LP (node potentials pi, bus-edge
    prices mu >= 0) is a Benders optimality cut
    g >= pi_o - pi_d - sum_e mu_e z_arc(e), and the block's projection
    onto (z, g) is the intersection of all of them: one block states
    every cut of the trip at once.

    A trip's edges are those of ``router._edges`` for the trip with every
    candidate arc open, renumbered with the origin first, the destination
    last and the other nodes in their graph order.
    With so and sd the distances from the origin and to the destination,
    an edge u -> v of cost g is dropped in three cases:
    - every origin-destination path through it costs more than the
      direct edge, the cheapest origin-destination edge that no arc
      gates (a shuttle or a bridge, open under every z);
    - access: it is a bus edge, and an ungated edge origin -> v costs
      at most so[u] + g;
    - egress: it is a bus edge, and an ungated edge u -> destination
      costs at most g + sd[v].
    A flow path through a dropped edge can move to the direct edge, or
    swap its part up to v (or from u) for that ungated edge, at no
    higher cost and taking no capacity; the first case spares that edge
    wherever the path it replaces could beat the direct edge. So the
    block's value is unchanged at every z in [0, 1]^A, fractional
    included. A bus edge between two hub endpoints is not ungated, since
    its arc may close.

    The trips are built together, as one disjoint union of their graphs
    (trip i's nodes take the ids i * width to i * width + nodes - 1),
    each block equal array for array to the one a batch of one gives.
    Without the triangle property every stop is a node, so there each
    trip is built alone to keep the (trip, node, node) grids small.
    """
    trips = list(trips)
    labels = _arc_labels(inst, inst.candidate_arcs)
    out = []
    for batch in [trips] if inst.metric_consistent else [[t] for t in trips]:
        nodes, trip, tail, head, g, _, arc, _ = _edges(
            inst, labels, [(t.origin, t.destination) for t in batch])
        size = np.array([len(u) for u in nodes], dtype=int)
        k, width = len(batch), size.max(initial=0)
        origin = np.arange(k) * width
        dest = origin + size - 1
        o_at, d_at = origin[trip], dest[trip]  # the endpoints of each edge's trip
        first = np.array([u.index(t.origin) for u, t in zip(nodes, batch)], dtype=int)[trip]
        last = np.array([u.index(t.destination) for u, t in zip(nodes, batch)], dtype=int)[trip]

        def number(u):  # origin first, destination last, the others in graph order
            inner = o_at + 1 + u - (first < u) - (last < u)
            return np.where(u == first, o_at, np.where(u == last, d_at, inner))

        tail, head = number(tail), number(head)
        so = _distances(tail, head, g, k * width, origin)
        sd = _distances(head, tail, g, k * width, dest)
        through = so[tail] + g + sd[head]  # cheapest origin-destination path over each edge
        free = arc < 0
        access, egress = np.full(k * width, np.inf), np.full(k * width, np.inf)
        at = free & (tail == o_at)
        np.minimum.at(access, head[at], g[at])  # the cheapest ungated edge origin -> node
        at = free & (head == d_at)
        np.minimum.at(egress, tail[at], g[at])  # the cheapest ungated edge node -> destination
        beaten = (access[head] <= so[tail] + g) | (egress[tail] <= g + sd[head])
        keep = (through <= access[d_at]) & (free | ~beaten)
        used = np.zeros(k * width, dtype=bool)
        used[origin] = used[dest] = True
        used[tail[keep]] = used[head[keep]] = True
        used = used.reshape(k, width)
        renumber = (np.cumsum(used, axis=1) - 1).ravel()
        tail, head, g, arc = renumber[tail[keep]], renumber[head[keep]], g[keep], arc[keep]
        cut = np.searchsorted(trip[keep], np.arange(k + 1))
        out += [TripBlock(t, tail[a:b], head[a:b], g[a:b], arc[a:b], int(n))
                for t, a, b, n in zip(batch, cut[:-1], cut[1:], used.sum(axis=1))]
    return out


class FlowLP:
    """The arc-flow LP of one instance on one HiGHS solver, and the exact
    search on it (``search``). A block joins the first time a solve uses
    it; ``on`` holds the blocks of the current solve. The solver keeps its
    basis, so every solve starts warm from the previous one.

    Columns: z, then the blocks' edges in the order the blocks joined.
    Rows: hub balance, the no-good row (free unless ``exclude`` set it),
    then per batch of joining blocks their flow conservation rows
    (destination row dropped) and x_e - z_arc(e) <= 0 per bus edge. A
    block outside the current solve is switched off: its edges are held
    at 0 and its origin row asks for no flow."""

    def __init__(self, inst: Instance):
        cand = inst.candidate_arcs
        na, nh = len(cand), len(inst.hubs)
        self.hubs = np.array([[inst.hub_index[h] for h in a] for a in cand], int).reshape(-1, 2)
        z = np.arange(na)
        self.solver = highs.model(
            np.array([arcs_cost(inst, [a]) for a in cand], dtype=float), np.ones(na),
            np.append(np.zeros(nh), -np.inf), np.append(np.zeros(nh), np.inf),
            np.concatenate([self.hubs[:, 0], self.hubs[:, 1], np.full(na, nh)]),
            np.concatenate([z, z, z]), np.concatenate([np.ones(na), -np.ones(na), np.ones(na)]),
        )
        self.nh, self.no_good_coef = nh, np.ones(na)  # the no-good row follows the hub rows
        self.at = {}  # block -> (first column, origin row)
        self.on = set()

    def use(self, blocks):
        """Append the blocks not in the LP yet and switch on exactly
        ``blocks``, touching only the blocks whose state changes."""
        new = [b for b in dict.fromkeys(blocks) if b not in self.at]
        if new:
            self._append(new)
            self.on.update(new)
        want = set(blocks)
        flip = [b for b in self.at if (b in want) != (b in self.on)]
        if flip:
            cols = np.concatenate([self.at[b][0] + np.arange(len(b.g)) for b in flip])
            up = np.concatenate([np.full(len(b.g), np.inf if b in want else 0.0) for b in flip])
            self.solver.changeColsBounds(len(cols), cols.astype(np.int32), np.zeros(len(cols)), up)
            for b in flip:
                flow = float(b in want)
                self.solver.changeRowBounds(self.at[b][1], flow, flow)
        self.on = want

    def _append(self, blocks):
        rows, cols, vals, cost, rhs = [], [], [], [], []
        bus_col, bus_arc = [], []
        ncol, nrow = self.solver.getNumCol(), self.solver.getNumRow()
        row0, col0 = 0, ncol
        for b in blocks:
            self.at[b] = (col0, nrow + row0)
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
        highs.grow(
            self.solver, np.concatenate(cost), np.full(col0 - ncol, np.inf),
            np.concatenate(rhs + [np.full(nbus, -np.inf)]),
            np.concatenate(rhs + [np.zeros(nbus)]),
            np.concatenate(rows + [row0 + np.arange(nbus)] * 2),
            np.concatenate(cols + [bus_col, bus_arc]),
            np.concatenate(vals + [np.ones(nbus), -np.ones(nbus)]),
        )

    def exclude(self, inc):
        """Set the no-good row to sum_{i not in inc} z_i - sum_{i in inc} z_i
        >= 1 - |inc|, which every integral z but ``inc`` (a mask over the
        candidate arcs) satisfies; None frees the row again."""
        if inc is None:
            self.solver.changeRowBounds(self.nh, -np.inf, np.inf)
            return
        coef = np.where(inc, -1.0, 1.0)
        for i in np.flatnonzero(coef != self.no_good_coef).tolist():
            self.solver.changeCoeff(self.nh, i, coef[i])
        self.no_good_coef = coef
        self.solver.changeRowBounds(self.nh, 1.0 - inc.sum(), np.inf)

    def search(self, is_fixed):
        """The optimal design of the blocks switched on, with the arcs of
        the mask ``is_fixed`` held open. Returns (mask of its open arcs,
        the optimal value v*, the root LP value, the number of LP solves).

        Its arcs are the smallest sorted arc tuple among the designs
        within a relative ``highs.TIE`` of v* (the cap), the tie rule of
        ``enumerate_dfd``. The search for v* prunes only above the
        incumbent's cap, so every integral design lies in the incumbent's
        leaf, in another integral leaf or above the cap.
        The incumbent is the answer when it opens no arc, or when no other
        leaf lies within the cap and a search of its leaf under the no-good
        row that excludes it finds no design within the cap.
        Otherwise the design is decided arc by arc in candidate (sorted)
        order, keeping an integral incumbent within the cap which agrees
        with the arcs decided so far:

        1. when no fixed arc is left ahead and the arcs decided open form a
           balanced design within the cap, that design is the answer: every
           other candidate extends it;
        2. fixed arcs and arcs the incumbent opens stay open;
        3. otherwise the arc is probed forced open, depth first, taking the
           least integral solution within the cap, and closed when there is
           none.

        Every LP is solved under the cap of its search (see ``highs.solve``).
        """
        solver, hubs, nh, na = self.solver, self.hubs, self.nh, len(is_fixed)
        lo, up = is_fixed.astype(float), np.ones(na)
        log = []
        found = highs.branch(solver, lo, up, np.inf, log)
        if found is None:
            raise ValidationError("master infeasible: fixed arcs cannot be balanced")
        best, inc, leaf_lo, leaf_up, other = found
        cap = best + highs.TIE * abs(best)
        tied = other <= cap
        if inc.any() and not tied:
            self.exclude(inc)
            tied = highs.branch(solver, leaf_lo, leaf_up, cap, log) is not None
            self.exclude(None)
        if not (inc.any() and tied):
            return inc, best, log[0][0], len(log)
        for i in range(na):
            if not inc[i:].any():
                break
            if not is_fixed[i:].any():
                degree = np.bincount(hubs[:i, 0], lo[:i], nh) - np.bincount(hubs[:i, 1], lo[:i], nh)
                if not degree.any():
                    alone = highs.solve(solver, lo, np.where(np.arange(na) < i, up, 0.0), cap, log)
                    if alone is not None and alone[0] <= cap:
                        inc = lo > 0.5
                        break
            if not (is_fixed[i] or inc[i]):
                forced = lo.copy()
                forced[i] = 1.0
                probe = highs.branch(solver, forced, up, cap, log)
                if probe is None:
                    up[i] = 0.0
                    continue
                inc = probe[1]
            lo[i] = 1.0
        return inc, best, log[0][0], len(log)


class FlowModel:
    """The DFD answers of one instance (see ``flow_model``); ``lp``, its
    one ``FlowLP``, alone holds the solver. ``blocks`` holds the block
    of every trip that is not direct, built by one ``make_cut`` call in
    trip order when the model is made, the same object for the model's
    life, as the LP keys on it. ``designs`` holds each live answer's
    design weakly (a design holds the instance that holds the model),
    keyed by the tuple, not the set: ``arcs_cost`` sums in iteration
    order, so equal sets that iterate differently stay apart."""

    def __init__(self, inst: Instance):
        o, d = _trip_costs(inst)[:2]
        direct = _direct(inst, o, d)  # is_direct_trip of every trip at once
        self.direct = frozenset(t.id for t, on in zip(inst.trips, direct.tolist()) if on)
        flow = [t for t in inst.trips if t.id not in self.direct]
        self.blocks = {b.trip.id: b for b in make_cut(flow, inst)}  # trip id -> block
        self.solved = {}  # (flow-trip ids, fixed arcs) -> the answer's open arcs
        self.designs = weakref.WeakValueDictionary()  # tuple(open arcs) -> design
        self.lp = FlowLP(inst)


@memo
def flow_model(inst: Instance) -> FlowModel:
    """The instance's ``FlowModel``, built on first use."""
    return FlowModel(inst)


def solve_master(inst: Instance, blocks, fixed=()):
    """Optimal design of the flow model over ``blocks``, with ``fixed``
    arcs open on top of the backbone, by one ``FlowLP.search`` on the LP
    of the instance's ``flow_model``. Returns (design, v*, root LP value,
    LP solves). The design is the model's live one for its open-arc
    tuple (``FlowModel.designs``), if there is one."""
    held = _fixed_arcs(inst, fixed)
    lp = flow_model(inst).lp
    lp.use(blocks)
    inc, best, root, solves = lp.search(
        np.array([a in held for a in inst.candidate_arcs], dtype=bool))
    return _design(inst, fixed, inc), best, root, solves


def _design(inst: Instance, fixed, is_open) -> Design:
    """The design that opens the arcs ``fixed``, read by ``_fixed_arcs``,
    and the candidate arcs whose entry of ``is_open`` is true: the live
    one in the instance's ``FlowModel.designs``, or a new one that joins it."""
    # arcs_cost sums in set order, so how this set is built fixes the
    # objective's last bits; this order reproduces bench/references.json
    fixed = _fixed_arcs(inst, fixed)
    opened = frozenset(a for a, on in zip(inst.candidate_arcs, is_open) if on and a not in fixed)
    design = Design(inst, fixed | opened)
    return flow_model(inst).designs.setdefault(tuple(design.open_arcs), design)


def _implied(inst: Instance, flow: frozenset, fixed: frozenset):
    """The design for the flow trips ``flow`` with the arcs ``fixed``
    open, built by ``_design`` as a search would build it, when a stored
    answer of the instance's ``FlowModel`` implies it; None otherwise. An
    answer D for flow trips T and fixed arcs F, with F <= ``fixed`` <= D,
    is one in two cases:
    - ``flow`` is T: D stays feasible, and the designs within the tie cap
      that contain ``fixed`` are among those that contain F, so D is
      still the smallest sorted tuple among them;
    - ``fixed`` is D and ``flow`` <= T: opening arcs never raises a
      trip's routed g, so a design beyond D that beat or tied D on
      ``flow`` would beat or tie it on T as well."""
    for (known, held), arcs in flow_model(inst).solved.items():
        if held <= fixed <= arcs and (flow == known or (fixed == arcs and flow <= known)):
            return _design(inst, fixed, [a in arcs for a in inst.candidate_arcs])
    return None


@dataclass(frozen=True)
class DfdSolution:
    """Optimal fixed-demand design with its trip set and LP count.
    ``design`` and ``tset`` depend on the solve's inputs alone;
    ``iterations`` counts the call's LP solves, 0 for an answer that the
    instance's ``FlowModel`` implied and for the exhaustive oracle
    (``enumerate_dfd``). ``objective`` is computed on its first read:
    the design's investment, summed in sorted arc order, plus riders
    times each trip's routed g from the design's ``trip_arrays``, summed
    in trip id order; the sum ``enumerate_dfd`` minimizes, whatever
    order the design's arc set was built in."""

    design: Design
    tset: frozenset  # trip ids
    iterations: int  # LP solves

    @cached_property
    def objective(self) -> float:
        inst = self.design.instance
        return _riders_g(self.design, self.tset, arcs_cost(inst, self.design.key()))


def _riders_g(design: Design, ids, total: float) -> float:
    """``total`` plus riders times g under ``design`` over ``ids``, in id order."""
    inst = design.instance
    g, row = trip_arrays(design)[0].tolist(), inst.trip_index
    for i in sorted(ids):
        total += inst.trips[row[i]].riders * g[row[i]]
    return total


def solve_dfd(inst: Instance, tset, fixed=()) -> DfdSolution:
    """Optimal design for the trip ids ``tset`` with ``fixed`` arcs open:
    one flow model over the trips that do not ride a direct shuttle
    under every design. The answer's objective is computed when first
    read (see ``DfdSolution``).

    After the checks of ``tset`` and ``fixed``, the instance's
    ``flow_model`` answers a repeat of the flow trips (``tset`` less the
    model's direct trips) and fixed arcs with the live design of its
    stored arcs; otherwise a stored answer that implies the request
    (``_implied``, a repeat whose design has died included) gives the
    design, built as a search builds it; failing that, ``solve_master``
    runs on the model's blocks of the flow trips, in trip id order. The
    answer joins the memo; only ``solve_master`` counts in ``iterations``."""
    ids, fixed = inst.trip_ids(tset), _fixed_arcs(inst, fixed)
    model = flow_model(inst)
    flow, solves = ids - model.direct, 0
    arcs = model.solved.get((flow, fixed))
    design = None if arcs is None else model.designs.get(tuple(arcs))
    if design is None:
        design = _implied(inst, flow, fixed)
        if design is None:
            blocks = [model.blocks[i] for i in sorted(flow)]
            design, _, _, solves = solve_master(inst, blocks, fixed=fixed)
        model.solved[flow, fixed] = design.open_arcs
    return DfdSolution(design=design, tset=ids, iterations=solves)


# -- exhaustive oracle -------------------------------------------------


def balanced_designs(inst: Instance, fixed=()):
    """Yield every weakly connected design containing ``fixed``, in
    deterministic (bitmask) order. Hard-capped at ``ENUMERATION_CAP``
    candidate arcs."""
    fixed = _fixed_arcs(inst, fixed)
    cand = list(inst.candidate_arcs)
    if len(cand) > ENUMERATION_CAP:
        raise CapExceeded(f"{len(cand)} candidate arcs exceed the cap {ENUMERATION_CAP}")
    free = [a for a in cand if a not in fixed]
    for mask in range(1 << len(free)):
        # arcs_cost sums in set order, so this build order fixes its last bits
        arcs = frozenset(fixed) | frozenset(
            free[i] for i in range(len(free)) if mask >> i & 1
        )
        if not any(inst.hub_degree(arcs)):
            yield Design(inst, arcs)


def enumerate_dfd(inst: Instance, tset, fixed=()) -> DfdSolution:
    """Brute-force optimum of the fixed-demand problem for the trip ids
    ``tset``; ties resolved to the lexicographically smallest open-arc
    set. The objective minimized sums the investment in sorted arc
    order, then riders times each trip's routed g in trip id order. No
    LP runs, so ``iterations`` is 0."""
    trips = sorted(map(inst.trip_by_id, inst.trip_ids(tset)), key=lambda t: t.id)

    def objective(design):
        obj = arcs_cost(inst, design.key())
        for t in trips:
            obj += t.riders * route(t, design).g
        return obj

    best = min(balanced_designs(inst, fixed=fixed), key=lambda d: (objective(d), d.key()))
    return DfdSolution(design=best, tset=frozenset(t.id for t in trips), iterations=0)
