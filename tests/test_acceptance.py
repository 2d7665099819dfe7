"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured statistic. Tolerances are pinned here and
nowhere else. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from odmts import (
    Design,
    GeneratorConfig,
    TripClass,
    adoption_ub,
    arc_s1,
    arc_s2,
    balanced_designs,
    enumerate_dfd,
    eta_grre,
    eval_design,
    exact_tiny,
    expand,
    generate_synthetic,
    is_direct_trip,
    make_cut,
    rho_gagr,
    rho_grad,
    route,
    solve_dfd,
)
from odmts import highs
from conftest import block_price, oracle_route, random_design, routed_objective, tiny_config, tiny_suite

def report(criterion, message):
    print(f"\ncriterion {criterion}: PASS - {message}")


# -- shared suites -------------------------------------------------------


def router_suite():
    """200 small instances with a random design each."""
    cases = []
    for seed in range(200):
        n_stops = 5 + seed % 4          # 5..8
        n_hubs = 2 + seed % 2           # 2..3
        inst = generate_synthetic(
            tiny_config(n_stops=n_stops, n_hubs=n_hubs, core=2, mid=2, high=1),
            seed=seed,
        )
        rng = np.random.default_rng(1000 + seed)
        cases.append((inst, random_design(inst, rng)))
    return cases


_dfd_results = None


def dfd_results():
    """solve_dfd and enumerate_dfd on the full trip set of each tiny
    instance, shared by criteria 2, 3, 4 and 8."""
    global _dfd_results
    if _dfd_results is None:
        out = []
        for inst in tiny_suite():
            tset = [t.id for t in inst.trips]
            fast = solve_dfd(inst, tset)
            slow = enumerate_dfd(inst, tset)
            out.append((inst, fast, slow))
        _dfd_results = out
    return _dfd_results


def test_criterion_1_router_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for inst, design in router_suite():
        for trip in inst.trips:
            got = route(trip, design)
            g, f, legs = oracle_route(trip, design)
            assert got.g == pytest.approx(g, abs=1e-12), (inst, trip)
            assert got.f == pytest.approx(f, abs=1e-12)
            assert got.legs == legs
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(1, f"{checked} routes on 200 instances match enumeration exactly "
              f"in {elapsed:.1f}s")


def test_criterion_2_dfd_oracle_equivalence():
    t0 = time.perf_counter()
    for inst, fast, slow in dfd_results():
        assert fast.objective == slow.objective == routed_objective(slow)
        assert fast.design.open_arcs == slow.design.open_arcs
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(2, f"50 instances solved to oracle equality in {elapsed:.1f}s")


def test_criterion_3_cut_validity():
    checked = 0
    for inst, _, _ in dfd_results():
        designs = list(balanced_designs(inst))
        for block in make_cut([t for t in inst.trips if not is_direct_trip(t, inst)], inst):
            trip = block.trip
            for z in designs:
                checked += 1
                assert block_price(inst, block, z.open_arcs) == pytest.approx(
                    route(trip, z).g, rel=1e-12
                ), (inst, trip, z.key())
    report(3, f"{checked} flow-block prices across all enumerable designs "
              f"equal the routed cost")


def test_criterion_4_direct_trip_proposition():
    violations = 0
    checked = 0
    for inst, _, _ in dfd_results():
        directs = [t for t in inst.trips if is_direct_trip(t, inst)]
        if not directs:
            continue
        for z in balanced_designs(inst):
            for trip in directs:
                checked += 1
                if not route(trip, z).is_direct_shuttle:
                    violations += 1
    assert violations == 0
    report(4, f"{checked} direct-trip routings stayed single shuttle legs")


def test_criterion_5_monotonicity():
    pairs = 0
    for idx, inst in enumerate(tiny_suite()):
        rng = np.random.default_rng(5000 + idx)
        for _ in range(10):
            z1 = random_design(inst, rng)
            z2 = random_design(inst, rng, base=z1.open_arcs)
            pairs += 1
            for trip in inst.trips:
                assert route(trip, z2).g <= route(trip, z1).g + 1e-9
    assert pairs >= 500

    aggregate_checked = 0
    for inst, fast, _ in dfd_results():
        ids = sorted(t.id for t in inst.trips)
        t1 = ids[: len(ids) // 2]
        z1 = solve_dfd(inst, t1).design
        z2 = fast.design
        total = sum(
            inst.trip_by_id(tid).riders
            * (route(inst.trip_by_id(tid), z2).g - route(inst.trip_by_id(tid), z1).g)
            for tid in ids[len(ids) // 2:]
        )
        assert total <= 1e-9
        aggregate_checked += 1
    report(5, f"{pairs} design pairs monotone; aggregate inequality held on "
              f"{aggregate_checked} oracle-solved trip-set pairs")


def test_criterion_6_ub_soundness():
    samples = 0
    for idx, inst in enumerate(tiny_suite()):
        rng = np.random.default_rng(6000 + idx)
        while samples < 20 * (idx + 1):
            z1 = random_design(inst, rng)
            z2 = random_design(inst, rng, base=z1.open_arcs)
            for trip in inst.latent_trips:
                r1 = route(trip, z1)
                ub = adoption_ub(trip, r1, inst)
                assert route(trip, z2).f <= ub + 1e-9
                samples += 1
                if samples >= 20 * (idx + 1):
                    break
    assert samples >= 1000

    # rule-d admissions persist along arc-based traces
    persist_checked = 0
    for inst in tiny_suite()[:20]:
        for runner in (lambda: arc_s1(inst, "d"), lambda: arc_s2(inst, "d", "a")):
            design, trace = runner()
            fps = [r.fingerprint for r in trace.records]
            designs = [
                Design(inst, frozenset(
                    tuple(map(int, arc.split(">"))) for arc in fp.split(";")
                ) if fp != "-" else frozenset())
                for fp in fps
            ]
            latent = inst.latent_trips
            for k, zk in enumerate(designs):
                admitted = expand("d", zk)
                for later in designs[k:]:
                    for t in latent:
                        if t.id in admitted:
                            assert route(t, later).f <= t.alpha * t.t_cur + 1e-9
                            persist_checked += 1
    report(6, f"{samples} UB samples sound; {persist_checked} rule-d "
              f"persistence checks held")


def test_criterion_7_structural_guarantees():
    grad_checked = arc_checked = prefix_checked = 0
    for inst in tiny_suite():
        design, trace = rho_grad(inst, rho=1)
        assert eval_design(inst, design, trace.tset).r_false == 0.0
        grad_checked += 1

        design_a, trace_a = arc_s1(inst, "a")
        assert eval_design(inst, design_a, trace_a.tset).r_false == 0.0
        arc_checked += 1
        objs = [r.objective for r in trace_a.records[:-1]]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        arcs_seen = set()
        for rec in trace_a.records:
            arcs = set() if rec.fingerprint == "-" else set(rec.fingerprint.split(";"))
            assert arcs_seen <= arcs
            arcs_seen = arcs

        # rule-d prefixes satisfy correct adoption: replay the trip set
        design_d, trace_d = arc_s1(inst, "d")
        core = {t.id for t in inst.trips if not t.is_latent}
        tbar = set(core)
        for rec in trace_d.records:
            zk = Design(inst, frozenset(
                tuple(map(int, a.split(">"))) for a in rec.fingerprint.split(";")
            ) if rec.fingerprint != "-" else frozenset())
            ev = eval_design(inst, zk, tbar)
            assert ev.a_false == 0.0
            prefix_checked += 1
            tbar |= expand("d", zk)
    report(7, f"r_false=0 on {grad_checked} greedy-adoption and {arc_checked} "
              f"arc runs; a_false=0 on {prefix_checked} rule-d prefixes")


def test_criterion_8_exact_dominance():
    gaps = {"grad": [], "grre": [], "gagr": [], "arc-s1": [], "arc-s2": []}
    best_hits = 0
    n = len(tiny_suite())
    for inst in tiny_suite():
        res = exact_tiny(inst)
        opt = res.evaluation.objective
        objs = {}
        d, tr = rho_grad(inst, rho=1)
        objs["grad"] = eval_design(inst, d, tr.tset).objective
        d, tr = eta_grre(inst, eta=1)
        objs["grre"] = eval_design(inst, d, tr.tset).objective
        d, tr = rho_gagr(inst, rho=1, eta=1)
        objs["gagr"] = eval_design(inst, d, tr.tset).objective
        d, tr = arc_s1(inst, "a")
        objs["arc-s1"] = eval_design(inst, d, tr.tset).objective
        d, tr = arc_s2(inst, "d", "a")
        objs["arc-s2"] = eval_design(inst, d, tr.tset).objective
        for name, obj in objs.items():
            assert opt <= obj + 1e-9 * max(1.0, abs(obj)), name
            gaps[name].append((obj - opt) / max(1.0, abs(opt)))
        if min(objs.values()) <= opt + 1e-9 * max(1.0, abs(opt)):
            best_hits += 1
    summary = ", ".join(
        f"{k}: mean {100 * np.mean(v):.2f}% max {100 * np.max(v):.2f}%"
        for k, v in gaps.items()
    )
    report(8, f"exact dominated every heuristic on {n} instances; "
              f"best-of-five optimal on {best_hits}/{n}; gaps {summary}")


BENCHMARK_CONFIG = GeneratorConfig(
    stops=100,
    hubs=8,
    classes=(TripClass(60, None, 8), TripClass(100, 2.0, 8), TripClass(40, 1.5, 8)),
    square_km=12.0,
    speed_kmh=36.0,
    theta=0.001,
    omega=1.0,
    bus_rate=3.87,
    buses_per_leg=4.0,
    wait=7.5,
    ticket=2.5,
    candidate=4,
)


@pytest.mark.slow
def test_criterion_9_desk_scale_benchmark():
    inst = generate_synthetic(BENCHMARK_CONFIG, seed=11)
    assert len(inst.trips) == 200 and len(inst.hubs) == 8
    runs = {
        "grad": lambda: rho_grad(inst),
        "grre": lambda: eta_grre(inst),
        "gagr": lambda: rho_gagr(inst),
        "arc-s1": lambda: arc_s1(inst, "a"),
        "arc-s2": lambda: arc_s2(inst, "d", "a"),
    }
    times = {}
    for name, fn in runs.items():
        t0 = time.perf_counter()
        design, trace = fn()
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"{name} took {elapsed:.0f}s"
        assert len(trace.records) >= 1
        ev = eval_design(inst, design, trace.tset)
        assert np.isfinite(ev.objective)
        times[name] = elapsed
    report(9, "benchmark (100 stops / 8 hubs / 200 trips) "
              + ", ".join(f"{k} {v:.1f}s" for k, v in times.items()))


CRITERION_9_RUNS = {
    "grad": rho_grad,
    "grre": eta_grre,
    "gagr": rho_gagr,
    "arc-s1": lambda inst: arc_s1(inst, "a"),
    "arc-s2": lambda inst: arc_s2(inst, "d", "a"),
}


def criterion_9_instance():
    return generate_synthetic(BENCHMARK_CONFIG, seed=11)


def criterion_9_runs(monkeypatch, instance):
    """Each of criterion 9's runs on ``instance()``, in order:
    name -> (LP solves, design key, trace objectives)."""
    solve, solves = highs.solve, []

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(highs, "solve", counted)
    out = {}
    for name, run in CRITERION_9_RUNS.items():
        solves.clear()
        design, trace = run(instance())
        out[name] = (len(solves), design.key(), trace.objectives)
    monkeypatch.undo()
    return out


def test_criterion_9_lp_solves(monkeypatch):
    # the LP solves of each run on its own copy of criterion 9's instance,
    # a work counter that timing noise cannot hide (arc-s1 and arc-s2
    # answer their last solves from earlier answers, without an LP)
    runs = criterion_9_runs(monkeypatch, criterion_9_instance)
    counts = {name: run[0] for name, run in runs.items()}
    assert counts == {"grad": 16, "grre": 16, "gagr": 38, "arc-s1": 4, "arc-s2": 6}
    report(9, "LP solves " + ", ".join(f"{k} {v}" for k, v in counts.items()))


def test_criterion_9_lp_solves_on_one_instance(monkeypatch):
    # the five runs in sequence on one instance, as ``odmts compare`` runs
    # them, share its DFD model: a later run takes the answers an earlier
    # one stored, and each run returns what it returns on its own copy
    inst = criterion_9_instance()
    shared = criterion_9_runs(monkeypatch, lambda: inst)
    alone = criterion_9_runs(monkeypatch, criterion_9_instance)
    counts = {name: run[0] for name, run in shared.items()}
    assert counts == {"grad": 16, "grre": 12, "gagr": 22, "arc-s1": 2, "arc-s2": 0}
    assert sum(counts.values()) == 52 and sum(run[0] for run in alone.values()) == 80
    assert {k: v[1:] for k, v in shared.items()} == {k: v[1:] for k, v in alone.items()}
    report(9, "LP solves on one instance " + ", ".join(f"{k} {v}" for k, v in counts.items()))


def test_criterion_10_determinism():
    inst = generate_synthetic(tiny_config(), seed=17)
    tset = [t.id for t in inst.trips]

    def snapshot():
        outs = []
        sol = solve_dfd(inst, tset)
        outs.append(("dfd", sol.design.key(), round(sol.objective, 12)))
        res = exact_tiny(inst)
        outs.append(("exact", res.design.key(), round(res.evaluation.objective, 12)))
        d, tr = rho_grad(inst, rho=1)
        outs.append(("grad", d.key(), tuple(r.fingerprint for r in tr.records), tuple(sorted(tr.tset))))
        d, tr = eta_grre(inst, eta=1)
        outs.append(("grre", d.key(), tuple(r.fingerprint for r in tr.records)))
        d, tr = rho_gagr(inst, rho=1, eta=1)
        outs.append(("gagr", d.key(), tuple(r.fingerprint for r in tr.records)))
        d, tr = arc_s1(inst, "a")
        outs.append(("arc-s1", d.key(), tuple(r.fingerprint for r in tr.records)))
        d, tr = arc_s2(inst, "d", "a")
        outs.append(("arc-s2", d.key(), tuple(r.fingerprint for r in tr.records)))
        ev = eval_design(inst, Design.minimal(inst), set())
        outs.append(("eval", round(ev.objective, 12), ev.r_false, ev.a_false))
        return outs

    one = snapshot()
    again = snapshot()
    assert one == again
    report(10, f"{len(one)} algorithm outputs identical across re-runs")
