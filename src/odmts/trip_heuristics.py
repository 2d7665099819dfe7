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
  quota m (+eta per round) of adopters to keep; returns the first design
  of least objective seen because the trip set does not grow
  monotonically and designs can oscillate.
* combined (rho-GAGR): the adoption loop of rho-GRAD (``_adopt``, one
  loop for both) with each inner design produced by a full
  greedy-rejection run seeded at the absorbed set, trading time for a
  much wider design search; returns the first inner result of least
  objective.
"""

from __future__ import annotations

import itertools
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


def _adopt(inst: Instance, rho: int, inner, time_limit: float | None = None) -> HeuristicTrace:
    """The adoption loop of rho-GRAD and rho-GAGR. Each round runs
    ``inner(tbar)`` on the core trips plus the absorbed ones, which gives
    a design and the trip set that produced it, then absorbs the ``rho``
    cheapest adopters outside the absorbed set. It stops when none is
    left, or once ``time_limit`` seconds have passed. Returns the trace
    of the rounds."""
    trace, absorbed = HeuristicTrace(), set()
    started = time.perf_counter()
    while True:
        design, tset = inner(inst.core_ids | absorbed)
        trace.add(1, design, tset)
        ranked = _ranked_adopters(design, absorbed)
        if not ranked or (time_limit is not None and time.perf_counter() - started >= time_limit):
            return trace
        absorbed.update(ranked[:rho])


def rho_grad(inst: Instance, rho: int | None = None):
    """Greedy adoption: ``_adopt`` with one ``solve_dfd`` per round.
    Returns (design, trace) for the last round; trace.tset is the trip
    set that generated the design."""
    rho = _step(inst, "rho", rho)
    model = FlowModel(inst)
    trace = _adopt(inst, rho, lambda tbar: (solve_dfd(inst, tbar, _model=model).design, tbar))
    return trace.finish()


def eta_grre(inst: Instance, eta: int | None = None, start_tset=None,
             _model: FlowModel | None = None):
    """Greedy rejection. Returns (design, trace) for the first step of
    least objective; trace.tset is the trip set that generated it. Stops
    when the design repeats with the quota past the ranked adopters, or
    truncated after iteration ``MAX_ITER``. ``_model`` is the DFD model
    of an enclosing ``rho_gagr`` run, a new one by default; ``solve_dfd``
    answers the repeats of every run that shares it."""
    eta = _step(inst, "eta", eta)
    model = FlowModel(inst) if _model is None else _model
    trace, rejected = HeuristicTrace(), set()
    tbar = frozenset(start_tset) if start_tset is not None else inst.core_ids
    for k in itertools.count():  # step k keeps a quota of eta * (k + 1) ranked adopters
        design = solve_dfd(inst, tbar, _model=model).design
        trace.add(1, design, tbar)
        rejected |= inst.latent_ids - _scored(design).adopters
        ranked = _ranked_adopters(design, rejected)
        stable = (k >= 2 and trace.steps[-2][0].open_arcs == design.open_arcs
                  and eta * k >= len(ranked))
        if stable or k >= MAX_ITER:
            return trace.finish(least=True, truncated=not stable)
        tbar = inst.core_ids | set(ranked[:eta * (k + 1)])


def rho_gagr(inst: Instance, rho: int | None = None, eta: int | None = None,
             time_limit: float | None = None):
    """Combined greedy adoption: ``_adopt`` with a greedy-rejection run
    seeded at each round's trip set. Returns (design, trace) for the
    first round of least objective."""
    rho, eta = _step(inst, "rho", rho), _step(inst, "eta", eta)
    if time_limit is not None and not (_finite(time_limit) or time_limit == float("inf")):
        raise ValueError(f"time_limit must be a finite number, inf or None, got {time_limit!r}")
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time_limit must be >= 0, got {time_limit}")
    model = FlowModel(inst)

    def inner(tbar):
        design, run = eta_grre(inst, eta=eta, start_tset=tbar, _model=model)
        return design, run.tset

    return _adopt(inst, rho, inner, time_limit).finish(least=True)
