"""Fixed-demand network design, solved exactly by Benders cut generation.

Each round the master picks a weakly connected design minimizing
investment plus the cut-pool estimate of the riders' weighted cost;
routing the trips under that design gives the true objective and one
new cut per trip. Bounds close in finitely many rounds because cuts
are valid everywhere and exact at their generating design.

Cut form. For trip r generated at design z0 with weighted cost base:

    g_r(z) >= base - sum_hl coeff_hl * z_hl
    coeff_hl = max(0, base - (a(h) + tau_hl + b(l)))   for closed (h,l)

where a(h) / b(l) are the minimal weighted costs origin->h / l->dest
under the *all-candidate-open* design. Any route beating base must
cross some arc (h,l) closed at z0, and its cost is then at least
a(h) + tau_hl + b(l) since the potentials lower-bound every prefix and
suffix under every design; taking the single worst opened arc yields
the bound. Potentials taken under z0 itself would over-tighten coeffs
and break validity on routes crossing two or more closed arcs.

The master is a deterministic branch and bound over the arc variables.
It prices each cut by the access + tau + egress of the cheapest support
arc still open, which dominates the affine form (see ``solve_master``).
Undecided arcs count as open inside every cut (optimistic completion)
and as closed in the investment term, which is a valid node bound.
Branching picks the undecided arc heading the most rider-weighted cut
minima, closed child first; when no undecided arc can move the trip
term any more the whole subtree reduces to a cheapest balanced
completion, found by a memoized subset search, so arcs no cut cares
about are never branched on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, Trip, ValidationError
from .adoption import arcs_cost
from .router import Design, _build_graph, is_direct_trip, route, route_batch, weights_of


class SolveError(RuntimeError):
    """Round cap exceeded; carries the best incumbent and remaining gap."""

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


class CapExceeded(RuntimeError):
    """An exhaustive routine was asked to run beyond its hard size cap."""


@dataclass(frozen=True)
class BendersCut:
    """Affine lower bound on one trip's weighted cost over arc variables.

    ``access``/``egress`` carry per-support-arc potentials computed with
    every candidate arc except the support open; the master prices the
    cut from them alone (see ``solve_master``), so every cut with a
    non-empty ``coeff`` must carry both. They do not affect the cut's own
    contract or fingerprint.
    """

    trip_id: int
    base: float
    coeff: tuple  # sorted ((h, l), value) pairs, value > 0, arcs closed at z0
    access: tuple = field(default=(), compare=False)  # ((h, l), a) per support arc
    egress: tuple = field(default=(), compare=False)  # ((h, l), b) per support arc

    def rhs(self, open_arcs) -> float:
        return self.base - sum(c for arc, c in self.coeff if arc in open_arcs)

    def fingerprint(self) -> tuple:
        return (self.trip_id, round(self.base, 12), tuple(
            (arc, round(c, 12)) for arc, c in self.coeff
        ))


def _direct_flags(inst: Instance) -> dict:
    if "direct" not in inst._caches:
        inst._caches["direct"] = {t.id: is_direct_trip(t, inst) for t in inst.trips}
    return inst._caches["direct"]


def _full_design(inst: Instance) -> Design:
    if "full_design" not in inst._caches:
        inst._caches["full_design"] = Design(inst, frozenset(inst.candidate_arcs))
    return inst._caches["full_design"]


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


def _potentials(inst: Instance, trip: Trip):
    """Potentials under the all-candidate-open design, cached per trip."""
    pot = inst._caches.setdefault("potentials", {})
    if trip.id not in pot:
        pot[trip.id] = _arc_potentials(inst, trip, frozenset(inst.candidate_arcs))
    return pot[trip.id]


def _settle_all(adj, source):
    """Dijkstra on the g component only; returns node -> min g."""
    import heapq

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


def make_cut(trip: Trip, design: Design) -> BendersCut:
    """One valid cut for the trip, exact at the generating design.

    Affine coefficients live on the support: arcs closed at the design
    whose best-case through cost (all candidate arcs open) still beats
    the design's cost. The attached access/egress potentials are taken
    with everything but the support open: any route cheaper than base
    must cross the support, paying at least the access of its first
    support arc plus the egress of its last.
    """
    inst = design.instance
    base = route(trip, design).g
    a, b = _potentials(inst, trip)
    w = weights_of(inst)
    hidx = inst.hub_index
    coeff = []
    for h, l in inst.candidate_arcs:
        if (h, l) in design.open_arcs:
            continue
        through = a[h] + float(w.tau[hidx[h], hidx[l]]) + b[l]
        c = base - through
        if c > 0.0:
            coeff.append(((h, l), c))
    coeff.sort()
    support = frozenset(arc for arc, _ in coeff)
    access = ()
    egress = ()
    if support:
        rest = frozenset(a for a in inst.candidate_arcs if a not in support)
        a_res, b_res = _arc_potentials(inst, trip, rest)
        access = tuple((arc, a_res[arc[0]]) for arc in sorted(support))
        egress = tuple((arc, b_res[arc[1]]) for arc in sorted(support))
    return BendersCut(
        trip_id=trip.id, base=base, coeff=tuple(coeff), access=access, egress=egress
    )


# -- master problem ----------------------------------------------------


def _completion_search(arcs, betas, hubs, memo, idx, deficit):
    """Cheapest subset of arcs[idx:] whose degree vector cancels
    ``deficit``; returns (cost, arc index tuple) or None."""
    if all(v == 0 for v in deficit):
        return (0.0, ())
    key = (idx, deficit)
    if key in memo:
        return memo[key]
    need = sum(abs(v) for v in deficit)
    if need > 2 * (len(arcs) - idx):
        memo[key] = None
        return None
    best = None
    skip = _completion_search(arcs, betas, hubs, memo, idx + 1, deficit)
    if skip is not None:
        best = skip
    h, l = arcs[idx]
    nd = list(deficit)
    nd[hubs[h]] += 1
    nd[hubs[l]] -= 1
    take = _completion_search(arcs, betas, hubs, memo, idx + 1, tuple(nd))
    if take is not None:
        cost = take[0] + betas[idx]
        if best is None or cost < best[0]:
            best = (cost, (idx,) + take[1])
    memo[key] = best
    return best


def solve_master(inst: Instance, cuts, fixed=(), warm=()):
    """Exact minimizer of the cut-pool relaxation over feasible designs.

    Returns (design, bound). ``fixed`` arcs are forced open on top of the
    instance backbone; ``warm`` designs seed the incumbent.

    Every cut row is priced from its access/egress potentials: a route
    beating the base crosses at least one open support arc (h, l), so the
    row is min(base, min access + min tau + min egress) over the open
    support, and just base when no support arc is open (always so for a
    cut with empty ``coeff``). That dominates the affine sum over all
    opened arcs (the cuts themselves remain valid in that weaker form),
    stays exact at each generating design, and closes the tail of bound
    improvements the affine relaxation never finishes on dense candidate
    sets. A cut with a non-empty ``coeff`` but no potentials raises
    ``ValueError``.
    """
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    cand = list(inst.candidate_arcs)
    arc_pos = {a: i for i, a in enumerate(cand)}
    na = len(cand)
    hubs = inst.hub_index
    w = weights_of(inst)
    beta = np.zeros(na)
    for i, (h, l) in enumerate(cand):
        if not inst.params.fixed_arc_costed and (h, l) in inst.fixed_arcs:
            continue
        beta[i] = float(w.beta[hubs[h], hubs[l]])

    cuts = sorted(cuts, key=lambda c: (c.trip_id, c.fingerprint()))
    for cut in cuts:
        if cut.coeff and not (cut.access and cut.egress):
            raise ValueError(
                f"cut for trip {cut.trip_id} has coefficients but no access/egress potentials"
            )
    nc = len(cuts)
    bases = np.array([c.base for c in cuts], dtype=float)
    # per row, (value, arc index) entries sorted ascending; empty for a
    # constant row
    tau_of = {
        (h, l): float(w.tau[hubs[h], hubs[l]]) for h, l in cand
    }
    alists = [sorted((v, arc_pos[arc]) for arc, v in cut.access) for cut in cuts]
    blists = [sorted((v, arc_pos[arc]) for arc, v in cut.egress) for cut in cuts]
    tlists = [sorted((tau_of[arc], arc_pos[arc]) for arc, _ in cut.access) for cut in cuts]
    if nc:
        trip_ids = [c.trip_id for c in cuts]
        starts = np.array(
            [0] + [i for i in range(1, nc) if trip_ids[i] != trip_ids[i - 1]], dtype=int
        )
        pvec = np.array(
            [inst.trip_by_id(trip_ids[s]).riders for s in starts], dtype=float
        )
    else:
        starts = np.zeros(0, dtype=int)
        pvec = np.zeros(0)

    def trip_term(rhs):
        if rhs.size == 0:
            return 0.0
        per_trip = np.maximum.reduceat(rhs, starts)
        return float(np.maximum(per_trip, 0.0) @ pvec)

    def master_value(open_set):
        open_idx = {arc_pos[a] for a in open_set}
        rhs = bases.copy()
        for row in range(nc):
            amin = min((v for v, ai in alists[row] if ai in open_idx), default=None)
            bmin = min((v for v, ai in blists[row] if ai in open_idx), default=None)
            tmin = min((v for v, ai in tlists[row] if ai in open_idx), default=None)
            if amin is not None and bmin is not None:
                rhs[row] = min(bases[row], amin + tmin + bmin)
        return sum(float(beta[i]) for i in open_idx) + trip_term(rhs)

    agg = np.zeros(na)
    for cut in cuts:
        p = float(inst.trip_by_id(cut.trip_id).riders)
        for arc, c in cut.coeff:
            agg[arc_pos[arc]] += p * c
    active = [i for i in range(na) if agg[i] > 0 and cand[i] not in fixed]
    inactive = [i for i in range(na) if agg[i] <= 0 and cand[i] not in fixed]
    inactive.sort(key=lambda i: (beta[i], cand[i]))
    inactive_arcs = [cand[i] for i in inactive]
    inactive_beta = [float(beta[i]) for i in inactive]
    row_p = (
        np.repeat(pvec, np.diff(np.append(starts, nc))) if nc else np.zeros(0)
    )

    nh = len(inst.hubs)
    base_deficit = [0] * nh
    beta_fixed = 0.0
    for h, l in fixed:
        base_deficit[hubs[h]] += 1
        base_deficit[hubs[l]] -= 1
        beta_fixed += float(beta[arc_pos[(h, l)]])

    # search state: every arc starts open-or-undecided. Each row keeps
    # pointers at its smallest not-closed access/egress/tau entries. All
    # mutations are undone on backtrack.
    closed = np.zeros(na, dtype=bool)
    pa = [0] * nc
    pb = [0] * nc
    pt = [0] * nc
    ptrs3 = (pa, pb, pt)
    lists3 = (alists, blists, tlists)
    rhs = bases.copy()
    # front index: for each arc, the rows whose current access,
    # egress, or tau minimum sits on that arc; closing an arc then only
    # touches the rows it actually fronts. score[i] accumulates the
    # rider weight of everything arc i currently fronts, which drives the
    # branching choice.
    front_a = [set() for _ in range(na)]
    front_b = [set() for _ in range(na)]
    front_t = [set() for _ in range(na)]
    fronts3 = (front_a, front_b, front_t)
    score = np.zeros(na)
    for row in range(nc):
        al, bl, tl = alists[row], blists[row], tlists[row]
        if al:
            rhs[row] = min(bases[row], al[0][0] + tl[0][0] + bl[0][0])
            p = row_p[row]
            front_a[al[0][1]].add(row)
            score[al[0][1]] += p
            front_b[bl[0][1]].add(row)
            score[bl[0][1]] += p
            front_t[tl[0][1]].add(row)
            score[tl[0][1]] += p

    def _row_rhs(row):
        al = alists[row]
        if pa[row] < len(al):
            return min(
                bases[row],
                al[pa[row]][0] + tlists[row][pt[row]][0] + blists[row][pb[row]][0],
            )
        return bases[row]

    def close_arc(i, undo):
        closed[i] = True
        for which in (0, 1, 2):
            front = fronts3[which]
            entries_all = lists3[which]
            ptrs = ptrs3[which]
            rows = front[i]
            if not rows:
                continue
            for row in sorted(rows):
                entries = entries_all[row]
                old = ptrs[row]
                q = old + 1
                while q < len(entries) and closed[entries[q][1]]:
                    q += 1
                undo.append((which, row, old, rhs[row]))
                p = row_p[row]
                score[i] -= p
                if q < len(entries):
                    nxt = entries[q][1]
                    front[nxt].add(row)
                    score[nxt] += p
                ptrs[row] = q
                rhs[row] = _row_rhs(row)
            rows.clear()

    def undo_close(i, undo):
        closed[i] = False
        for which, row, old, old_rhs in reversed(undo):
            front = fronts3[which]
            entries = lists3[which][row]
            ptrs = ptrs3[which]
            cur = ptrs[row]
            p = row_p[row]
            if cur < len(entries):
                front[entries[cur][1]].discard(row)
                score[entries[cur][1]] -= p
            front[entries[old][1]].add(row)
            score[entries[old][1]] += p
            ptrs[row] = old
            rhs[row] = old_rhs

    # undecided in/out arc counts per hub for feasibility pruning,
    # maintained as arcs get decided
    remain_in = [0] * nh
    remain_out = [0] * nh
    for i in active + inactive:
        h, l = cand[i]
        remain_out[hubs[h]] += 1
        remain_in[hubs[l]] += 1

    best = {"value": float("inf"), "open": None}
    for wd in warm:
        if not fixed <= wd.open_arcs:
            continue
        v = master_value(wd.open_arcs)
        if v < best["value"]:
            best["value"] = v
            best["open"] = frozenset(wd.open_arcs)

    tol = 1e-12
    undecided = set(active)

    def collapse(open_active, beta_open, deficit):
        """No undecided arc can change the trip term any more: the whole
        subtree reduces to the cheapest balanced completion by beta."""
        merged = sorted(undecided, key=lambda i: (beta[i], cand[i]))
        arcs = [cand[i] for i in merged] + inactive_arcs
        costs = [float(beta[i]) for i in merged] + inactive_beta
        comp = _completion_search(arcs, costs, hubs, {}, 0, tuple(deficit))
        if comp is None:
            return
        cost, chosen = comp
        value = beta_open + cost + trip_term(rhs)
        if value < best["value"] - tol:
            out = fixed | frozenset(cand[i] for i in open_active)
            out |= frozenset(arcs[i] for i in chosen)
            best["value"] = value
            best["open"] = out

    def feasible(deficit):
        for j in range(nh):
            if deficit[j] > remain_in[j] or -deficit[j] > remain_out[j]:
                return False
        return True

    def pick_arc():
        """Undecided arc currently heading the most rider-weighted cut
        minima; None when no undecided arc can move the trip term.
        Scores are integer-valued, so exact zero is reliable."""
        best_arc = None
        best_key = None
        for i in undecided:
            s = float(score[i])
            if s <= 0:
                continue
            key = (-s, cand[i])
            if best_key is None or key < best_key:
                best_key = key
                best_arc = i
        return best_arc

    def node(open_active, beta_open, deficit):
        if not feasible(deficit):
            return
        need = sum(abs(v) for v in deficit)
        if need:
            mb = min(
                (float(beta[i]) for i in undecided),
                default=min(inactive_beta, default=float("inf")),
            )
            if inactive_beta:
                mb = min(mb, inactive_beta[0])
            extra = (need / 2.0) * (0.0 if mb == float("inf") else mb)
        else:
            extra = 0.0
        bound = beta_open + trip_term(rhs) + extra
        if bound >= best["value"] - tol:
            return
        i = pick_arc()
        if i is None:
            collapse(open_active, beta_open, deficit)
            return
        h, l = cand[i]
        undecided.discard(i)
        remain_out[hubs[h]] -= 1
        remain_in[hubs[l]] -= 1
        # closed child first: keeps early incumbents sparse
        undo = []
        close_arc(i, undo)
        node(open_active, beta_open, deficit)
        undo_close(i, undo)
        nd = list(deficit)
        nd[hubs[h]] += 1
        nd[hubs[l]] -= 1
        node(open_active + [i], beta_open + float(beta[i]), nd)
        undecided.add(i)
        remain_out[hubs[h]] += 1
        remain_in[hubs[l]] += 1

    node([], beta_fixed, list(base_deficit))
    if best["open"] is None:
        raise ValidationError("master infeasible: fixed arcs cannot be balanced")
    return Design(inst, best["open"]), best["value"]


# -- full solve --------------------------------------------------------


class CutPool:
    """Deduplicated cut store. Cuts are valid for every design of their
    instance regardless of the trip set they were generated for, so one
    pool can warm-start consecutive solves within a heuristic run."""

    def __init__(self):
        self.cuts = []
        self._seen = set()

    def add(self, cut: BendersCut) -> bool:
        fp = cut.fingerprint()
        if fp in self._seen:
            return False
        self._seen.add(fp)
        self.cuts.append(cut)
        return True

    def for_trips(self, trip_ids) -> list:
        return [c for c in self.cuts if c.trip_id in trip_ids]

    def __len__(self):
        return len(self.cuts)


@dataclass(frozen=True)
class DfdSolution:
    """Optimal fixed-demand design with its certificate trail."""

    design: Design
    objective: float
    routes: dict
    bounds: tuple  # (round, lower, upper, open_count, cuts_added)
    iterations: int
    cuts: tuple

    @property
    def tset(self) -> frozenset:
        return frozenset(self.routes)


def _dfd_objective(inst, design, trips):
    routes = route_batch(trips, design)
    total = arcs_cost(inst, design.open_arcs)
    for t, r in zip(trips, routes):
        total += t.riders * r.g
    return total, routes


def solve_dfd(
    inst: Instance,
    tset,
    fixed=(),
    eps_gap: float = 1e-9,
    max_rounds: int = 200,
    trace_path=None,
    cut_pool: CutPool | None = None,
) -> DfdSolution:
    """Optimal design for the given trip set with ``fixed`` arcs open.

    Iterates master solves and cut generation until the relative gap
    falls below ``eps_gap`` (absolute near zero). Trips that ride a
    direct shuttle under every design are constants, not cut sources.
    Passing a shared ``cut_pool`` reuses cuts from earlier solves on the
    same instance.
    """
    trips = [inst.trip_by_id(t) if not isinstance(t, Trip) else t for t in tset]
    trips.sort(key=lambda t: t.id)
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    cand = set(inst.candidate_arcs)
    if not fixed <= cand:
        raise ValidationError("fixed arcs outside the candidate set")

    direct = _direct_flags(inst)
    cut_trips = [t for t in trips if not direct[t.id]]
    const_trips = [t for t in trips if direct[t.id]]
    base_design = Design(inst, fixed)
    const = 0.0
    const_routes = {}
    for t in const_trips:
        r = route(t, base_design)
        const += t.riders * r.g
        const_routes[t.id] = r

    def finish(design, objective, bounds, rounds, pool):
        _, routes = _dfd_objective(inst, design, cut_trips)
        all_routes = dict(const_routes)
        for t, r in zip(cut_trips, routes):
            all_routes[t.id] = r
        return DfdSolution(
            design=design,
            objective=objective,
            routes=all_routes,
            bounds=tuple(bounds),
            iterations=rounds,
            cuts=tuple(pool),
        )

    if not cut_trips:
        obj = arcs_cost(inst, fixed) + const
        return finish(base_design, obj, [(1, obj, obj, len(fixed), 0)], 1, [])

    pool = cut_pool if cut_pool is not None else CutPool()
    cut_trip_ids = {t.id for t in cut_trips}
    generated = []
    bounds = []
    incumbent = None
    incumbent_obj = float("inf")
    warm = [base_design]
    trace_records = []
    for rnd in range(1, max_rounds + 1):
        z, master_val = solve_master(
            inst, pool.for_trips(cut_trip_ids), fixed=fixed, warm=warm
        )
        lower = master_val + const
        true_obj, _ = _dfd_objective(inst, z, cut_trips)
        true_obj += const
        if true_obj < incumbent_obj - 1e-15:
            incumbent, incumbent_obj = z, true_obj
        added = 0
        for t in cut_trips:
            cut = make_cut(t, z)
            if pool.add(cut):
                generated.append(cut)
                added += 1
        bounds.append((rnd, lower, incumbent_obj, len(z.open_arcs), added))
        trace_records.append(
            {
                "round": rnd,
                "lower": lower,
                "upper": incumbent_obj,
                "open_arcs": sorted(z.open_arcs),
                "cuts_added": added,
            }
        )
        warm = [z, incumbent]
        gap = incumbent_obj - lower
        if gap <= eps_gap * max(1.0, abs(incumbent_obj)):
            if trace_path:
                _write_trace(trace_path, trace_records)
            return finish(incumbent, incumbent_obj, bounds, rnd, generated)
    if trace_path:
        _write_trace(trace_path, trace_records)
    gap = incumbent_obj - bounds[-1][1]
    best = finish(incumbent, incumbent_obj, bounds, max_rounds, generated) if incumbent else None
    raise SolveError(
        f"no convergence in {max_rounds} master rounds (gap {gap:.3g})",
        best=best,
        gap=gap,
    )


def _write_trace(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# -- exhaustive oracle -------------------------------------------------


def balanced_designs(inst: Instance, fixed=(), cap: int = 16):
    """Yield every weakly connected design containing ``fixed``, in
    deterministic (bitmask) order. Hard-capped by candidate arc count."""
    fixed = frozenset(tuple(a) for a in fixed) | inst.fixed_arcs
    cand = list(inst.candidate_arcs)
    if len(cand) > cap:
        raise CapExceeded(f"{len(cand)} candidate arcs exceed the cap {cap}")
    free = [a for a in cand if a not in fixed]
    hubs = inst.hub_index
    nh = len(inst.hubs)
    base = [0] * nh
    for h, l in fixed:
        base[hubs[h]] += 1
        base[hubs[l]] -= 1
    deltas = []
    for h, l in free:
        d = [0] * nh
        d[hubs[h]] += 1
        d[hubs[l]] -= 1
        deltas.append(d)
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
    best_routes = None
    for design in balanced_designs(inst, fixed=fixed, cap=cap):
        obj, routes = _dfd_objective(inst, design, trips)
        if best is None or obj < best_obj or (obj == best_obj and design.key() < best.key()):
            best, best_obj, best_routes = design, obj, routes
    route_map = {t.id: r for t, r in zip(trips, best_routes)}
    return DfdSolution(
        design=best,
        objective=best_obj,
        routes=route_map,
        bounds=((1, best_obj, best_obj, len(best.open_arcs), 0),),
        iterations=1,
        cuts=(),
    )
