import numpy as np
import pytest

from odmts import dfd, router, trip_heuristics
from odmts.instance import memo
from odmts.router import trip_arrays
from odmts.trip_heuristics import _ranked_adopters
from odmts import (
    Design,
    HeuristicTrace,
    Trip,
    eta_grre,
    eval_design,
    exact_tiny,
    rho_gagr,
    rho_grad,
    route,
    solve_dfd,
)
from conftest import make_example_instance, random_design, tiny_instance


def no_latent_instance():
    return make_example_instance(trips=(Trip(id=0, origin=0, destination=3, riders=1),))


def never_adopt_instance():
    # t_cur far below any reachable travel time: the car wins outright
    return make_example_instance(trips=(
        Trip(id=0, origin=0, destination=3, riders=1),
        Trip(id=1, origin=0, destination=3, riders=1, kind="latent", alpha=1.0, t_cur=2.0),
        Trip(id=2, origin=3, destination=0, riders=1, kind="latent", alpha=1.0, t_cur=2.0),
    ))


class TestRhoGrad:
    def test_no_latent_single_solve(self):
        inst = no_latent_instance()
        design, trace = rho_grad(inst, rho=1)
        assert trace.tset == {0}
        assert len(trace.records) == 1
        assert design.open_arcs == solve_dfd(inst, [0]).design.open_arcs

    def test_no_adopters_terminates_immediately(self):
        inst = never_adopt_instance()
        design, trace = rho_grad(inst, rho=1)
        assert trace.tset == {0}
        assert len(trace.records) == 1
        assert eval_design(inst, design, trace.tset).r_false == 0.0

    def test_correct_rejection_and_dominance(self):
        for seed in range(4):
            inst = tiny_instance(seed)
            design, trace = rho_grad(inst, rho=1)
            ev = eval_design(inst, design, trace.tset)
            assert ev.r_false == 0.0
            assert exact_tiny(inst).evaluation.objective <= ev.objective + 1e-9

    def test_absorption_is_monotone(self):
        inst = tiny_instance(1)
        _, trace = rho_grad(inst, rho=1)
        sizes = [r.tset_size for r in trace.records]
        assert sizes == sorted(sizes)
        diffs = [b - a for a, b in zip(sizes, sizes[1:])]
        assert all(d == 1 for d in diffs)  # rho=1 absorbs exactly one adopter

    def test_singleton_step_cost_property(self):
        inst = tiny_instance(2)
        core = frozenset(t.id for t in inst.core_trips)
        _, trace = rho_grad(inst, rho=1)
        # replay: trip absorbed at iteration k costs no more under z^{k+1}
        absorbed = []
        designs = []
        prev = core
        for rec in trace.records:
            designs.append(rec.fingerprint)
        # reconstruct via a fresh run tracking sets
        tset = set(core)
        prev_design = None
        while True:
            sol = solve_dfd(inst, frozenset(tset))
            if prev_design is not None and absorbed:
                tid = absorbed[-1]
                t = inst.trip_by_id(tid)
                assert route(t, sol.design).g <= route(t, prev_design).g + 1e-9
            ev = eval_design(inst, sol.design, tset)
            cands = sorted(
                (t for t in inst.latent_trips if t.id not in tset and t.id in ev.adopters),
                key=lambda t: (route(t, sol.design).money - inst.params.ticket, t.id),
            )
            if not cands:
                break
            absorbed.append(cands[0].id)
            tset.add(cands[0].id)
            prev_design = sol.design

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rho_grad(tiny_instance(0), rho=0)


@pytest.mark.parametrize("run, match", [
    (lambda inst: eta_grre(inst, eta=0), "^eta must be >= 1$"),
    (lambda inst: rho_gagr(inst, rho=0), "^rho must be >= 1$"),
    (lambda inst: rho_gagr(inst, eta=0), "^eta must be >= 1$"),
], ids=["grre_eta", "gagr_rho", "gagr_eta"])
def test_step_below_one_rejected(run, match):
    with pytest.raises(ValueError, match=match):
        run(tiny_instance(0))


@pytest.mark.parametrize("run, match", [
    (lambda inst: rho_grad(inst, rho=2.7), "^rho must be an integer, got 2.7$"),
    (lambda inst: rho_grad(inst, rho=True), "^rho must be an integer, got True$"),
    (lambda inst: rho_grad(inst, rho="2"), "^rho must be an integer, got '2'$"),
    (lambda inst: eta_grre(inst, eta=1.0), "^eta must be an integer, got 1.0$"),
    (lambda inst: rho_gagr(inst, rho=2.0), "^rho must be an integer, got 2.0$"),
    (lambda inst: rho_gagr(inst, eta=False), "^eta must be an integer, got False$"),
], ids=["grad_fraction", "grad_bool", "grad_str", "grre_float", "gagr_rho_float",
        "gagr_eta_bool"])
def test_step_not_an_integer_rejected(run, match):
    with pytest.raises(ValueError, match=match):
        run(tiny_instance(0))


class TestEtaGrre:
    def test_no_latent_three_identical_solves(self):
        inst = no_latent_instance()
        design, trace = eta_grre(inst, eta=1)
        assert len(trace.records) == 3  # stability check needs k >= 2
        assert len({r.fingerprint for r in trace.records}) == 1
        assert design.open_arcs == solve_dfd(inst, [0]).design.open_arcs

    def test_start_tset_controls_first_solve(self):
        inst = tiny_instance(0)
        core = frozenset(t.id for t in inst.core_trips)
        seeded = core | {inst.latent_trips[0].id}
        _, trace = eta_grre(inst, eta=1, start_tset=seeded)
        assert trace.records[0].tset_size == len(seeded)

    def test_returns_minimum_over_trace(self):
        for seed in range(4):
            inst = tiny_instance(seed)
            design, trace = eta_grre(inst, eta=1)
            returned = eval_design(inst, design, trace.tset).objective
            assert returned == min(trace.objectives)

    def test_truncation_flag(self, monkeypatch):
        monkeypatch.setattr(trip_heuristics, "MAX_ITER", 1)
        inst = tiny_instance(3)
        design, trace = eta_grre(inst, eta=1)
        assert trace.truncated
        assert design is not None

    def test_max_iter_zero_is_one_truncated_solve(self, monkeypatch):
        monkeypatch.setattr(trip_heuristics, "MAX_ITER", 0)
        design, trace = eta_grre(tiny_instance(3), eta=1)
        assert len(trace.records) == 1 and trace.truncated
        assert design.fingerprint() == trace.records[0].fingerprint

    def test_quota_grows_by_eta(self):
        inst = tiny_instance(5)
        _, trace = eta_grre(inst, eta=2)
        # quota is internal; its footprint is that tset sizes never exceed
        # core + eta * (k + 1)
        core = len(inst.core_trips)
        for rec in trace.records:
            assert rec.tset_size <= core + 2 * (rec.k + 1)


class TestRhoGagr:
    def test_no_latent_equals_grre(self):
        inst = no_latent_instance()
        d_gagr, tr = rho_gagr(inst, rho=1, eta=1)
        d_grre, _ = eta_grre(inst, eta=1)
        assert d_gagr.open_arcs == d_grre.open_arcs

    def test_large_rho_two_outer_iterations(self):
        inst = tiny_instance(0)
        design, trace = rho_gagr(inst, rho=len(inst.latent_trips), eta=1)
        assert len(trace.records) <= 2

    def test_returned_is_min_over_inner_results(self):
        inst = tiny_instance(1)
        design, trace = rho_gagr(inst, rho=1, eta=1)
        returned = eval_design(inst, design, trace.tset).objective
        assert returned == min(trace.objectives)

    def test_explores_at_least_as_much_as_grad(self, monkeypatch):
        inst = tiny_instance(2)
        solved = []

        def counting(inst, tset, fixed=()):
            solved.append((frozenset(tset), frozenset(fixed)))
            return solve_dfd(inst, tset, fixed=fixed)

        monkeypatch.setattr(trip_heuristics, "solve_dfd", counting)
        rho_grad(inst, rho=1)
        by_grad = set(solved)
        solved.clear()
        rho_gagr(inst, rho=1, eta=1)
        # each distinct (tset, fixed) input is one design subproblem examined
        assert len(set(solved)) >= len(by_grad)

    def test_time_limit_respected(self):
        inst = tiny_instance(4)
        import time
        t0 = time.perf_counter()
        design, trace = rho_gagr(inst, rho=1, eta=1, time_limit=0.0)
        # finishes the current inner run then stops
        assert len(trace.records) == 1
        assert design is not None

    @pytest.mark.parametrize("limit", [-1.0, float("nan"), True, "5"])
    def test_time_limit_validation(self, limit):
        with pytest.raises(ValueError, match="time_limit"):
            rho_gagr(tiny_instance(4), time_limit=limit)


class TestFirstMinimum:
    """A design's objective does not depend on the trip set, so with every
    solve answered by the core trips' design all steps tie, their trip sets
    grow, and the first step's trip set is the one returned."""

    @pytest.fixture
    def core_design_only(self, monkeypatch):
        def core_only(inst, tset, fixed=()):
            return solve_dfd(inst, inst.core_ids, fixed=fixed)

        monkeypatch.setattr(trip_heuristics, "solve_dfd", core_only)

    @pytest.mark.parametrize("run", [lambda inst: eta_grre(inst, eta=1),
                                     lambda inst: rho_gagr(inst, rho=1, eta=1)],
                             ids=["grre", "gagr"])
    def test_first_of_equal_objectives_returned(self, core_design_only, run):
        inst = tiny_instance(0)
        design, trace = run(inst)
        assert len({(r.fingerprint, r.objective) for r in trace.records}) == 1
        sizes = [r.tset_size for r in trace.records]
        assert sizes[0] == len(inst.core_ids) < sizes[1]
        assert trace.tset == inst.core_ids


class TestOneDesignPerArcTuple:
    def test_table_built_once_per_arc_tuple(self, monkeypatch):
        # a rho_gagr run solves more masters than it finds designs; every
        # master with one arc tuple returns one object, whose hub-path
        # table is built once however often the design comes back
        inst = tiny_instance(0)
        solved, built = [], []
        master, table = dfd.solve_master, router._table

        def counted_master(*args, **kwargs):
            out = master(*args, **kwargs)
            solved.append(out[0])
            return out

        def counted_table(design):
            built.append(tuple(design.open_arcs))
            return table.__wrapped__(design)

        monkeypatch.setattr(dfd, "solve_master", counted_master)
        monkeypatch.setattr(router, "_table", memo(counted_table))
        rho_gagr(inst)
        tuples = {tuple(d.open_arcs) for d in solved}
        assert len(solved) > len(tuples) > 1
        assert len({id(d) for d in solved}) == len(tuples)
        assert sorted(built) == sorted(tuples)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_gagr_builds_each_table_once(self, monkeypatch, seed):
        # the instance's DFD model holds designs weakly; the run keeps its
        # inner runs, so a later inner run that repeats a request gets
        # the same design, and no hub-path table is built twice
        built, table = [], router._table

        def counted_table(design):
            built.append(tuple(design.open_arcs))
            return table.__wrapped__(design)

        monkeypatch.setattr(router, "_table", memo(counted_table))
        rho_gagr(tiny_instance(seed))
        assert len(built) > 1 and len(built) == len(set(built))

    def test_ranked_adopters_is_the_sorted_order(self):
        # the per-design order of all latent ids, filtered, is the sort
        # of the design's remaining adopters by (net cost, id)
        rng = np.random.default_rng(0)
        for seed in range(4):
            inst = tiny_instance(seed, n_stops=12, n_hubs=4)
            latent = sorted(t.id for t in inst.latent_trips)
            row, ticket = inst.trip_index, inst.params.ticket
            for _ in range(3):
                design = random_design(inst, rng)
                money = trip_arrays(design)[2].tolist()
                adopters = eval_design(inst, design, ()).adopters
                for _ in range(10):
                    excluded = {i for i in latent if rng.random() < 0.3}
                    old = sorted(adopters - excluded, key=lambda i: (money[row[i]] - ticket, i))
                    assert _ranked_adopters(design, excluded) == old

    def test_equal_net_costs_rank_by_id(self):
        # three latent trips on one origin-destination pair cost the same
        latent = dict(kind="latent", alpha=100.0, t_cur=100.0)
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=1),
            Trip(id=5, origin=0, destination=3, riders=1, **latent),
            Trip(id=2, origin=0, destination=3, riders=2, **latent),
            Trip(id=4, origin=0, destination=3, riders=1, **latent),
        ))
        design = Design.minimal(inst)
        assert eval_design(inst, design, ()).adopters == {2, 4, 5}
        assert _ranked_adopters(design, set()) == [2, 4, 5]
        assert _ranked_adopters(design, {4}) == [2, 5]


class TestDeterminism:
    def test_identical_reruns(self):
        inst = tiny_instance(6)
        a = rho_grad(inst, rho=1)
        b = rho_grad(inst, rho=1)
        assert a[0].open_arcs == b[0].open_arcs
        assert a[1].tset == b[1].tset
        assert [r.fingerprint for r in a[1].records] == [r.fingerprint for r in b[1].records]


class TestHeuristicTrace:
    def test_finish_picks_a_step_and_its_trip_set(self, example_instance):
        z0 = Design.minimal(example_instance)  # objective 18.5
        z1 = Design(example_instance, frozenset({(1, 2), (2, 1)}))  # objective 17.75
        trace = HeuristicTrace()
        for design, tset in [(z0, [0]), (z1, {0}), (z1, ()), (z0, ())]:
            trace.add(1, design, tset)
        assert [r.k for r in trace.records] == [0, 1, 2, 3]
        assert trace.objectives == [18.5, 17.75, 17.75, 18.5]
        assert [r.tset_size for r in trace.records] == [1, 1, 0, 0]
        assert all(r.wall_time >= 0.0 for r in trace.records)

        design, same = trace.finish()
        assert same is trace and design is z0
        assert trace.tset == frozenset() and not trace.truncated

        # of the equal least objectives the first step wins, with its trip set
        design, _ = trace.finish(least=True, truncated=True)
        assert design is z1 and trace.tset == frozenset({0}) and trace.truncated
