"""Workload inputs, operations and correctness checks.

Every operation goes through the public ``odmts`` API, looked up on the
package at call time so that a traced repetition sees the wrapped
functions. The program receives only the instance file the benchmark
wrote; the what-if designs are built by the benchmark from the seed.

Why these workloads (layer shares and predictions are in WORKLOADS.md):

* ``trip-gagr`` runs grad's adoption loop with grre as its inner loop:
  many small fixed-demand solves sharing one cut pool, most route calls
  memo hits, and the master is about 90% of the time.
* ``arc-s2-desk`` is criterion 9's desk-scale instance under the
  two-stage arc heuristic: fewer, larger fixed-demand solves, cycle
  search and scoring.
* ``eval-sweep`` evaluates seeded random designs on a larger instance
  (200 stops, 12 hubs, every hub pair a candidate): all routing, all
  cold, and the fixed-demand solver is never called.

Every workload pins its generator seed and the benchmark seed draws the
what-if designs. Across generator seeds the ``trip-gagr`` shape runs 17
to 43 s and per-design evaluation moves by a third, far more than any
regression bound, while the design draw moves neither by much.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import odmts
from odmts import GeneratorConfig, TripClass

# What-if designs drawn per seed. Sweeps cycle through them a few at a
# time, so that each sweep is short and a run samples its latency at
# many points in time. An untraced run ends on a whole pass over them,
# so that every design weighs the same in its medians.
WHATIF_DESIGNS = 100


def _gagr(inst):
    return odmts.rho_gagr(inst)


def _arc_s2(inst):
    return odmts.arc_s2(inst, "d", "a")


def _best_record(ev, trace) -> bool:
    return ev.objective == min(trace.objectives)


def _last_record(ev, trace) -> bool:
    return ev.objective == trace.records[-1].objective


@dataclass(frozen=True)
class Workload:
    config: GeneratorConfig
    instance_seed: int
    sweep_size: int  # designs per what-if sweep
    passes: int  # whole passes over the designs in an untraced run, at least
    solve: Callable | None = None  # None: the operation is the what-if sweep
    matches_trace: Callable | None = None  # the result's objective equals its trace record


# Criterion 9's desk-scale shape: 100 stops, 8 hubs, nearest-4 candidates.
DESK = dict(stops=100, hubs=8, buses_per_leg=4.0, candidate=4)

WORKLOADS = {
    "trip-gagr": Workload(
        GeneratorConfig(
            classes=(TripClass(30, None), TripClass(50, 2.0), TripClass(20, 1.5)), **DESK
        ),
        instance_seed=12,
        sweep_size=100,
        passes=2,
        solve=_gagr,
        matches_trace=_best_record,
    ),
    "arc-s2-desk": Workload(
        GeneratorConfig(
            classes=(TripClass(60, None), TripClass(100, 2.0), TripClass(40, 1.5)), **DESK
        ),
        instance_seed=11,
        sweep_size=100,
        passes=2,
        solve=_arc_s2,
        matches_trace=_last_record,
    ),
    "eval-sweep": Workload(
        GeneratorConfig(
            stops=200,
            hubs=12,
            classes=(TripClass(90, None), TripClass(150, 2.0), TripClass(60, 1.5)),
            buses_per_leg=4.0,
            candidate="all",
        ),
        instance_seed=11,
        sweep_size=20,
        passes=1,
    ),
}


def write_instance(workload: Workload, path) -> odmts.Instance:
    """Generate the workload's instance and write it where the program
    will read it from."""
    inst = odmts.generate_synthetic(workload.config, workload.instance_seed)
    odmts.save_instance(inst, path)
    return inst


def random_designs(inst, seed: int) -> list:
    """Distinct balanced designs, each the fixed backbone plus a union of
    one to four arc-disjoint cycles over the candidate arcs."""
    rng = np.random.default_rng([seed, 1])
    succ = {h: sorted(l for g, l in inst.candidate_arcs if g == h) for h in inst.hubs}
    designs = []
    seen = set()
    while len(designs) < WHATIF_DESIGNS:
        arcs = set(inst.fixed_arcs)
        want = int(rng.integers(1, 5))
        for _ in range(20 * want):
            if not want:
                break
            cycle = _random_cycle(rng, succ, arcs)
            if cycle:
                arcs |= cycle
                want -= 1
        key = tuple(sorted(arcs))
        if key not in seen:
            seen.add(key)
            designs.append(key)
    return designs


def _random_cycle(rng, succ, used):
    """A random walk over unused candidate arcs until it closes a cycle;
    None when the walk gets stuck."""
    hubs = sorted(succ)
    path = [hubs[int(rng.integers(len(hubs)))]]
    while True:
        u = path[-1]
        options = [v for v in succ[u] if (u, v) not in used]
        if not options:
            return None
        v = options[int(rng.integers(len(options)))]
        if v in path:
            loop = path[path.index(v):] + [v]
            return {(loop[i], loop[i + 1]) for i in range(len(loop) - 1)}
        path.append(v)


def sweep(inst, designs, timer) -> tuple:
    """Evaluate each design once against the full trip set, as
    ``odmts evaluate`` does. Returns (digest, per-design (start, end)
    times, evaluations)."""
    all_ids = [t.id for t in inst.trips]
    times = []
    evals = []
    for arcs in designs:
        t0 = timer()
        ev = odmts.eval_design(inst, odmts.Design(inst, frozenset(arcs)), all_ids)
        times.append((t0, timer()))
        evals.append(ev)
    h = hashlib.sha256()
    for ev in evals:
        h.update(f"{ev.objective!r} {','.join(map(str, sorted(ev.adopters)))}\n".encode())
    return h.hexdigest(), times, evals


def sweeps(workload: Workload, inst, seed: int) -> list:
    """The seed's what-if designs, cut into the workload's sweeps."""
    designs = random_designs(inst, seed)
    k = workload.sweep_size
    return [designs[i:i + k] for i in range(0, len(designs), k)]


def sweep_errors(inst, designs, evals, fresh) -> list:
    """Invariants every sweep must satisfy, whatever the seed: finite
    objectives, adopters among the latent trips, rates in [0, 100], and
    the first objective reproduced by ``design_objective`` on a freshly
    loaded instance."""
    latent = {t.id for t in inst.latent_trips}
    errors = []
    for arcs, ev in zip(designs, evals):
        if not math.isfinite(ev.objective):
            errors.append(f"design {arcs}: objective {ev.objective!r}")
        if not ev.adopters <= latent:
            errors.append(f"design {arcs}: adopters outside the latent trips")
        if not (0.0 <= ev.r_false <= 100.0 and 0.0 <= ev.a_false <= 100.0):
            errors.append(f"design {arcs}: rates out of range")
    check = odmts.design_objective(fresh, odmts.Design(fresh, frozenset(designs[0])))
    if check != evals[0].objective:
        errors.append(f"design_objective {check!r} != eval_design {evals[0].objective!r}")
    return errors


def solve(workload: Workload, inst) -> tuple:
    """Run the heuristic and evaluate its design, as ``odmts solve``
    does. Returns (result record, design, evaluation, trace)."""
    design, trace = workload.solve(inst)
    ev = odmts.eval_design(inst, design, trace.tset)
    record = {
        "open_arcs": [list(a) for a in design.key()],
        "objective": repr(ev.objective),
        "tset": sorted(trace.tset),
        "r_false": repr(ev.r_false),
        "a_false": repr(ev.a_false),
    }
    return record, design, ev, trace


def solve_errors(workload: Workload, inst, design, ev, trace) -> list:
    """Invariants of every heuristic result: the design is balanced and
    contains the backbone, and its objective is finite and equals the
    trace record it came from."""
    errors = []
    degree = {h: 0 for h in inst.hubs}
    for h, l in design.open_arcs:
        degree[h] += 1
        degree[l] -= 1
    if any(degree.values()):
        errors.append("design is not balanced")
    if not inst.fixed_arcs <= design.open_arcs:
        errors.append("design lacks the fixed backbone")
    if not math.isfinite(ev.objective):
        errors.append(f"objective {ev.objective!r}")
    elif not workload.matches_trace(ev, trace):
        errors.append(f"objective {ev.objective!r} does not match its trace record")
    return errors
