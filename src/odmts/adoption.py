"""Rider choice model, full-design evaluation, and the tiny exact solver.

A latent rider adopts a proposed route when its travel time stays
within alpha times their direct car time (non-strict). Evaluating a
design routes the *full* trip set: core trips always contribute their
weighted cost, latent trips contribute (g - varphi) only when they
adopt. The false rejection / false adoption rates measure how far a
design is from the equilibrium in which exactly the trips used to
produce it adopt it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, Trip, ValidationError
from .router import Design, Route, route, route_batch, weights_of


def choice(r: Route, trip: Trip) -> int:
    """1 if the rider of a latent trip adopts the proposed route."""
    if not trip.is_latent:
        raise ValueError(f"trip {trip.id} is a core trip and has no mode choice")
    return 1 if r.f <= trip.alpha * trip.t_cur else 0


def net_cost(r: Route, inst: Instance) -> float:
    """Dollar cost of serving the route minus the flat ticket price."""
    return r.money - inst.params.ticket


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


@dataclass(frozen=True)
class DesignEvaluation:
    """eval(z) over the full trip set plus adoption-quality metrics."""

    objective: float
    adopters: frozenset
    r_false: float
    a_false: float
    kpis: dict

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "adopters": sorted(self.adopters),
            "r_false": self.r_false,
            "a_false": self.a_false,
            "kpis": dict(self.kpis),
        }


def design_objective(inst: Instance, design: Design) -> float:
    """eval(z) alone, for hot loops that do not need metrics."""
    w = weights_of(inst)
    routes = route_batch(inst.trips, design)
    total = arcs_cost(inst, design.open_arcs)
    for trip, r in zip(inst.trips, routes):
        if trip.is_latent:
            if choice(r, trip):
                total += trip.riders * (r.g - w.varphi)
        else:
            total += trip.riders * r.g
    return total


def eval_design(inst: Instance, design: Design, tset) -> DesignEvaluation:
    """Evaluate a design against the full trip set.

    ``tset`` is the trip-id set that produced the design; it anchors the
    false rejection rate (latent trips outside it that adopt) and false
    adoption rate (latent trips inside it that reject). Rates are
    percentages of the latent trip count.
    """
    tset = frozenset(tset)
    known = {t.id for t in inst.trips}
    if not tset <= known:
        raise ValidationError("tset references unknown trip ids")
    w = weights_of(inst)
    p = inst.params
    routes = route_batch(inst.trips, design)

    bus_investment = arcs_cost(inst, design.open_arcs)
    objective = bus_investment
    adopters = set()
    shuttle_km = 0.0
    convenience = 0.0
    fare_riders = 0
    n_latent = 0
    for trip, r in zip(inst.trips, routes):
        served = True
        if trip.is_latent:
            n_latent += 1
            if choice(r, trip):
                adopters.add(trip.id)
                objective += trip.riders * (r.g - w.varphi)
            else:
                served = False
        else:
            objective += trip.riders * r.g
        if served:
            shuttle_km += trip.riders * r.shuttle_km
            convenience += trip.riders * r.f
            fare_riders += trip.riders

    sidx = inst.stop_index
    bus_cost_dollars = 0.0
    for h, l in design.open_arcs:
        if p.bus_cost_mode == "per_distance":
            bus_cost_dollars += p.bus_rate * p.buses_per_leg * float(inst.dist[sidx[h], sidx[l]])
        else:
            bus_cost_dollars += p.bus_rate * p.buses_per_leg * float(inst.time[sidx[h], sidx[l]]) / 60.0

    if n_latent:
        false_rej = sum(1 for tid in adopters if tid not in tset)
        false_adp = sum(
            1
            for t in inst.trips
            if t.is_latent and t.id in tset and t.id not in adopters
        )
        r_false = 100.0 * false_rej / n_latent
        a_false = 100.0 * false_adp / n_latent
    else:
        r_false = 0.0
        a_false = 0.0

    kpis = {
        "shuttle_km": shuttle_km,
        "bus_investment": bus_investment,
        "bus_cost_dollars": bus_cost_dollars,
        "total_convenience_minutes": convenience,
        "agency_net_cost": bus_cost_dollars + p.omega * shuttle_km - p.ticket * fare_riders,
    }
    return DesignEvaluation(
        objective=objective,
        adopters=frozenset(adopters),
        r_false=r_false,
        a_false=a_false,
        kpis=kpis,
    )


@dataclass(frozen=True)
class ExactTinyResult:
    """Exhaustive optimum of the adoption-aware design problem, plus the
    induced trip set and the fixed-demand re-solve consistency check."""

    design: Design
    evaluation: DesignEvaluation
    tset: frozenset
    resolve_design: Design
    resolve_r_false: float
    resolve_a_false: float
    resolve_matches: bool


def exact_tiny(inst: Instance) -> ExactTinyResult:
    """Enumerate every weakly connected design and return the eval-minimal
    one (ties: lexicographically smallest arc set). Also re-solves the
    fixed-demand problem on core + adopters and reports whether that
    reproduces the optimum with zero false rates."""
    from .dfd import balanced_designs, solve_dfd

    best = None
    best_obj = None
    for design in balanced_designs(inst):
        obj = design_objective(inst, design)
        if best is None or obj < best_obj or (obj == best_obj and design.key() < best.key()):
            best, best_obj = design, obj
    core_ids = {t.id for t in inst.trips if not t.is_latent}
    evaluation = eval_design(inst, best, core_ids | _adopter_ids(inst, best))
    tset = frozenset(core_ids | set(evaluation.adopters))
    redo = solve_dfd(inst, tset)
    redo_eval = eval_design(inst, redo.design, tset)
    return ExactTinyResult(
        design=best,
        evaluation=evaluation,
        tset=tset,
        resolve_design=redo.design,
        resolve_r_false=redo_eval.r_false,
        resolve_a_false=redo_eval.a_false,
        resolve_matches=redo.design == best,
    )


def _adopter_ids(inst: Instance, design: Design) -> set:
    out = set()
    for t in inst.trips:
        if t.is_latent and choice(route(t, design), t):
            out.add(t.id)
    return out
