"""Rider choice model, full-design evaluation, and the tiny exact solver.

A latent rider adopts a proposed route when its travel time stays
within alpha times their direct car time (non-strict). Evaluating a
design scores the *full* trip set from the router's per-trip arrays
(``trip_arrays``): core trips always contribute their weighted cost,
latent trips contribute (g - varphi) only when they adopt. The false
rejection / false adoption rates measure how far a design is from the
equilibrium in which exactly the trips used to produce it adopt it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dfd import balanced_designs, solve_dfd
from .instance import Instance, Trip, ValidationError, memo
from .router import Design, Route, arcs_cost, trip_arrays, weights_of


def choice(r: Route, trip: Trip) -> int:
    """1 if the rider of a latent trip adopts the proposed route; ``_scored``
    applies the same rule to every trip's ``trip_arrays`` time at once."""
    if not trip.is_latent:
        raise ValueError(f"trip {trip.id} is a core trip and has no mode choice")
    return 1 if r.f <= trip.alpha * trip.t_cur else 0


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


@memo
def _trip_terms(inst: Instance):
    """Trip ids, latent mask, riders and adoption limits alpha * t_cur of
    the instance trips, in trip order."""
    trips = inst.trips
    return (
        np.array([t.id for t in trips], dtype=int),
        np.array([t.is_latent for t in trips], dtype=bool),
        np.array([t.riders for t in trips], dtype=float),
        np.array([t.alpha * t.t_cur if t.is_latent else np.inf for t in trips], dtype=float),
    )


def _running_sum(start: float, values) -> float:
    """start + values[0] + values[1] + ..., added in order, as an
    accumulation does by definition; np.sum adds in pairs, which changes
    the last bits."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


class _Score(NamedTuple):
    adopt: np.ndarray  # read-only adoption mask in trip order
    objective: float
    adopters: frozenset
    kpis: dict


@memo
def _scored(design: Design) -> _Score:
    """The design's score whatever the trip set, kept on the design: the
    choice rule applied to its ``trip_arrays`` (routed on the design's
    own instance), and eval(z): core trips add riders * g, adopting
    latent trips riders * (g - varphi). The objective and the KPIs are
    sums in trip order (arc order for the bus costs)."""
    inst = design.instance
    ids, latent, riders, limit = _trip_terms(inst)
    p, w, hidx = inst.params, weights_of(inst), inst.hub_index
    g, f, _, km = trip_arrays(design)
    adopt = latent & (f <= limit)
    served = adopt | ~latent
    terms = riders * np.where(latent, g - w.varphi, g)

    bus_investment = arcs_cost(inst, design.open_arcs)
    objective = _running_sum(bus_investment, terms[served])
    shuttle_km = _running_sum(0.0, (riders * km)[served])
    convenience = _running_sum(0.0, (riders * f)[served])
    fare_riders = int(riders[served].sum())
    bus_cost_dollars = 0.0
    for h, l in design.open_arcs:
        bus_cost_dollars += float(w.bus_dollars[hidx[h], hidx[l]])

    kpis = {
        "shuttle_km": shuttle_km,
        "bus_investment": bus_investment,
        "bus_cost_dollars": bus_cost_dollars,
        "total_convenience_minutes": convenience,
        "agency_net_cost": bus_cost_dollars + p.omega * shuttle_km - p.ticket * fare_riders,
    }
    adopt.setflags(write=False)
    return _Score(adopt, objective, frozenset(ids[adopt].tolist()), kpis)


def design_objective(inst: Instance, design: Design) -> float:
    """eval(z) alone: the objective of the design's score (``_scored``)."""
    if design.instance is not inst:
        raise ValidationError("design belongs to another instance")
    return _scored(design).objective


def eval_design(inst: Instance, design: Design, tset) -> DesignEvaluation:
    """Evaluate a design against the full trip set.

    ``tset`` is the trip-id set that produced the design; it anchors the
    false rejection rate (latent trips outside it that adopt) and false
    adoption rate (latent trips inside it that reject). Rates are
    percentages of the latent trip count.

    Everything else (the objective, the adopters and the KPIs) is the
    design's score (``_scored``), so a repeat costs the ``tset`` check
    and two set differences. Each evaluation gets its own ``kpis`` dict.
    """
    tset = inst.trip_ids(tset)
    if design.instance is not inst:
        raise ValidationError("design belongs to another instance")
    _, objective, adopters, kpis = _scored(design)
    latent = inst.latent_ids
    n = len(latent)
    return DesignEvaluation(
        objective=objective,
        adopters=adopters,
        r_false=100.0 * len(adopters - tset) / n if n else 0.0,
        a_false=100.0 * len((latent & tset) - adopters) / n if n else 0.0,
        kpis=dict(kpis),
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
    best = min(balanced_designs(inst), key=lambda d: (design_objective(inst, d), d.key()))
    tset = inst.core_ids | _scored(best).adopters
    evaluation = eval_design(inst, best, tset)
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

