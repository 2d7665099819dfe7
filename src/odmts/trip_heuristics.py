"""Trip-based iterative algorithms.

All three run the fixed-demand solver on a growing or re-selected trip
set and use the choice model to decide which latent trips to consider
next, ranking candidates by net cost (serving cost minus ticket, ties
by trip id). The serving cost is the ``money`` of the design's
``trip_arrays``, so ranking builds no route.

* greedy adoption (rho-GRAD): permanently absorbs the rho cheapest
  adopters each round; stops when nothing outside the absorbed set
  adopts, so the final design rejects every excluded trip. Each round
  that does not stop absorbs a new latent trip, so it stops within
  len(latent) + 1 rounds; so does rho-GAGR's adoption loop.
* greedy rejection (eta-GRRE): tracks a growing rejection set and a
  quota m (+eta per round) of adopters to keep; returns the best design
  seen because the trip set does not grow monotonically and designs
  can oscillate.
* combined (rho-GAGR): the adoption loop with each inner design
  produced by a full greedy-rejection run seeded at the absorbed set,
  trading time for a much wider design search.
"""

from __future__ import annotations

import time

from .adoption import _scored
from .dfd import FlowModel, solve_dfd
from .instance import Instance, _finite, _integral, memo
from .router import trip_arrays
from .trace import HeuristicTrace

# eta_grre stops, truncated, after this iteration.
MAX_ITER = 100


def default_step(inst: Instance) -> int:
    """Step size scaling with latent demand: one twentieth, at least 1."""
    return max(1, len(inst.latent_trips) // 20)


def _step(inst: Instance, name: str, value) -> int:
    """The step size ``value``, ``default_step`` when None; raises unless an integer >= 1."""
    if value is None:
        return default_step(inst)
    if not _integral(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(value)


@memo
def _net_cost_order(design) -> list:
    """Every latent trip id of the design's instance, ordered by (net
    cost, trip id), kept on the design. Two distinct money values may
    give one net cost once the ticket is subtracted; the trip id then
    decides."""
    inst = design.instance
    money = trip_arrays(design)[2].tolist()
    row, ticket = inst.trip_index, inst.params.ticket
    return sorted((t.id for t in inst.latent_trips), key=lambda i: (money[row[i]] - ticket, i))


def _ranked_adopters(design, excluded):
    """The ids of the design's adopters outside ``excluded``, ordered by
    (net cost, trip id): ``_net_cost_order`` filtered. The keys are
    unique, so this is the order a sort of the remaining ids alone gives."""
    keep = _scored(design).adopters - excluded
    return [i for i in _net_cost_order(design) if i in keep]


def rho_grad(inst: Instance, rho: int | None = None):
    """Greedy adoption. Returns (design, trace); trace.tset is the trip
    set that generated the design."""
    rho = _step(inst, "rho", rho)
    model = FlowModel(inst)
    trace = HeuristicTrace()
    absorbed = set()
    k = 0
    while True:
        t0 = time.perf_counter()
        tset = inst.core_ids | absorbed
        sol = solve_dfd(inst, tset, _model=model)
        score = _scored(sol.design)
        trace.add(k, 1, len(tset), sol.design, score.objective, len(score.adopters),
                  time.perf_counter() - t0)
        ranked = _ranked_adopters(sol.design, absorbed)
        if not ranked:
            return sol.design, trace.finish(sol.design, tset)
        absorbed.update(ranked[:rho])
        k += 1


def eta_grre(inst: Instance, eta: int | None = None, start_tset=None,
             _model: FlowModel | None = None):
    """Greedy rejection. Returns (design, trace); trace.tset is the trip
    set that generated the returned (minimum-objective) design. Stops
    when the design repeats with the quota past the ranked adopters, or
    truncated after iteration ``MAX_ITER``. ``_model`` is the DFD model
    of an enclosing ``rho_gagr`` run, a new one by default; ``solve_dfd``
    answers the repeats of every run that shares it."""
    eta = _step(inst, "eta", eta)
    model = FlowModel(inst) if _model is None else _model
    trace = HeuristicTrace()
    rejected = set()
    m = 0
    k = 0
    tbar = frozenset(start_tset) if start_tset is not None else inst.core_ids
    best = (float("inf"), None, None)  # (objective, design, tset); the first minimum wins
    prev_arcs = None
    while True:
        t0 = time.perf_counter()
        sol = solve_dfd(inst, tbar, _model=model)
        score = _scored(sol.design)
        trace.add(k, 1, len(tbar), sol.design, score.objective, len(score.adopters),
                  time.perf_counter() - t0)
        if score.objective < best[0]:
            best = (score.objective, sol.design, tbar)
        rejected |= inst.latent_ids - score.adopters
        m += eta
        ranked = _ranked_adopters(sol.design, rejected)
        arcs = sol.design.open_arcs
        stable = k >= 2 and prev_arcs == arcs and (m - eta) >= len(ranked)
        if stable or k >= MAX_ITER:
            _, design, tset = best
            return design, trace.finish(design, tset, truncated=not stable)
        tbar = inst.core_ids | set(ranked[:m])
        prev_arcs = arcs
        k += 1


def rho_gagr(inst: Instance, rho: int | None = None, eta: int | None = None,
             time_limit: float | None = None):
    """Combined greedy adoption with greedy-rejection subproblems.
    Returns (design, trace) for the minimum-objective inner result."""
    rho, eta = _step(inst, "rho", rho), _step(inst, "eta", eta)
    if time_limit is not None and not (_finite(time_limit) or time_limit == float("inf")):
        raise ValueError(f"time_limit must be a finite number, inf or None, got {time_limit!r}")
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time_limit must be >= 0, got {time_limit}")
    model = FlowModel(inst)
    trace = HeuristicTrace()
    started = time.perf_counter()
    absorbed = set()
    best = (float("inf"), None, None)  # (objective, design, tset); the first minimum wins
    k = 0
    while True:
        t0 = time.perf_counter()
        tbar = inst.core_ids | absorbed
        design, inner = eta_grre(inst, eta=eta, start_tset=tbar, _model=model)
        score = _scored(design)
        trace.add(k, 1, len(inner.tset), design, score.objective, len(score.adopters),
                  time.perf_counter() - t0)
        if score.objective < best[0]:
            best = (score.objective, design, inner.tset)
        ranked = _ranked_adopters(design, absorbed)
        timed_out = time_limit is not None and time.perf_counter() - started >= time_limit
        if not ranked or timed_out:
            break
        absorbed.update(ranked[:rho])
        k += 1
    _, design, tset = best
    return design, trace.finish(design, tset)
