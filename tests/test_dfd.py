import pytest

from odmts import (
    BendersCut,
    CapExceeded,
    Design,
    SolveError,
    balanced_designs,
    enumerate_dfd,
    make_cut,
    route,
    solve_dfd,
    solve_master,
)
from conftest import make_example_instance, tiny_instance


class TestMakeCut:
    def test_example_coefficient(self, example_instance):
        trip = example_instance.trips[0]
        cut = make_cut(trip, Design.minimal(example_instance))
        assert cut.base == pytest.approx(18.5)
        coeff = dict(cut.coeff)
        assert coeff[(1, 2)] == pytest.approx(4.75)
        assert (2, 1) not in coeff  # through cost exceeds base, clamped away

    def test_open_arcs_carry_no_coefficient(self, example_instance):
        trip = example_instance.trips[0]
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        cut = make_cut(trip, z)
        assert all(arc not in z.open_arcs for arc, _ in cut.coeff)
        # base equals the through cost of the best arc, already open
        assert cut.base == pytest.approx(13.75)

    def test_validity_over_all_designs(self, example_instance):
        trip = example_instance.trips[0]
        for gen in balanced_designs(example_instance):
            cut = make_cut(trip, gen)
            for z in balanced_designs(example_instance):
                assert route(trip, z).g >= cut.rhs(z.open_arcs) - 1e-9

    def test_exact_at_generating_design(self, example_instance):
        trip = example_instance.trips[0]
        for gen in balanced_designs(example_instance):
            cut = make_cut(trip, gen)
            assert cut.rhs(gen.open_arcs) == pytest.approx(route(trip, gen).g)


class TestSolveMaster:
    def test_two_design_enumeration(self, example_instance):
        cut = make_cut(example_instance.trips[0], Design.minimal(example_instance))
        assert cut.base == pytest.approx(18.5)
        assert cut.coeff == (((1, 2), pytest.approx(4.75)),)
        design, bound = solve_master(example_instance, [cut])
        assert sorted(design.open_arcs) == [(1, 2), (2, 1)]
        assert bound == pytest.approx(17.75)

    def test_empty_pool(self, example_instance):
        design, bound = solve_master(example_instance, [])
        assert design.open_arcs == frozenset()
        assert bound == 0.0

    def test_connectivity_couples_arcs(self, example_instance):
        # a cut that would love (1,2) alone still pays for the return arc
        cut = BendersCut(
            trip_id=0, base=18.5, coeff=(((1, 2), 10.0),),
            access=(((1, 2), 0.5),), egress=(((1, 2), 0.5),),
        )
        design, bound = solve_master(example_instance, [cut])
        assert design.open_arcs == frozenset({(1, 2), (2, 1)})
        assert bound == pytest.approx(2 + 2 + 8.5)

    def test_cut_without_potentials_rejected(self, example_instance):
        cut = BendersCut(trip_id=0, base=18.5, coeff=(((1, 2), 4.75),))
        with pytest.raises(ValueError, match="access/egress"):
            solve_master(example_instance, [cut])

    def test_cut_without_coeff_is_constant(self, example_instance):
        cut = BendersCut(trip_id=0, base=3.0, coeff=())
        design, bound = solve_master(example_instance, [cut])
        assert design.open_arcs == frozenset()
        assert bound == pytest.approx(3.0)


class TestSolveDfd:
    def test_empty_tset(self, example_instance):
        sol = solve_dfd(example_instance, [])
        assert sol.design.open_arcs == frozenset()
        assert sol.objective == 0.0

    def test_opens_cycle_when_worth_it(self, example_instance):
        sol = solve_dfd(example_instance, [0])
        assert sorted(sol.design.open_arcs) == [(1, 2), (2, 1)]
        assert sol.objective == pytest.approx(17.75)

    def test_stays_closed_when_too_expensive(self):
        inst = make_example_instance(beta_per_arc=3.0)
        sol = solve_dfd(inst, [0])
        assert sol.design.open_arcs == frozenset()
        assert sol.objective == pytest.approx(18.5)

    def test_objective_matches_reroute(self, example_instance):
        sol = solve_dfd(example_instance, [0])
        total = sum(
            example_instance.trip_by_id(tid).riders * r.g
            for tid, r in sol.routes.items()
        )
        from odmts.adoption import arcs_cost
        total += arcs_cost(example_instance, sol.design.open_arcs)
        assert sol.objective == pytest.approx(total, rel=1e-9)

    def test_bounds_monotone(self):
        inst = tiny_instance(4)
        sol = solve_dfd(inst, [t.id for t in inst.trips])
        lowers = [b[1] for b in sol.bounds]
        uppers = [b[2] for b in sol.bounds]
        for a, b in zip(lowers, lowers[1:]):
            assert b >= a - 1e-9
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-9
        assert uppers[-1] - lowers[-1] <= 1e-9 * max(1.0, abs(uppers[-1]))

    def test_round_cap_raises_with_incumbent(self, example_instance):
        with pytest.raises(SolveError) as err:
            solve_dfd(example_instance, [0], max_rounds=1)
        assert err.value.best is not None
        assert err.value.gap > 0

    def test_trace_file(self, tmp_path, example_instance):
        path = tmp_path / "trace.jsonl"
        solve_dfd(example_instance, [0], trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= 1
        import json
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "lower", "upper", "open_arcs", "cuts_added"}


class TestEnumerateDfd:
    def test_matches_solver_on_random_instances(self):
        for seed in range(6):
            inst = tiny_instance(seed)
            tset = [t.id for t in inst.trips]
            fast = solve_dfd(inst, tset)
            slow = enumerate_dfd(inst, tset)
            assert fast.objective == pytest.approx(slow.objective, rel=1e-9)
            assert fast.design.open_arcs == slow.design.open_arcs

    def test_fixed_equals_candidate_set(self, example_instance):
        sol = enumerate_dfd(example_instance, [0], fixed=[(1, 2), (2, 1)])
        assert sol.design.open_arcs == frozenset({(1, 2), (2, 1)})

    def test_no_candidates(self):
        inst = tiny_instance(0)
        count = sum(1 for _ in balanced_designs(inst))
        assert count >= 1  # at least the all-closed design

    def test_cap(self):
        inst = tiny_instance(1, n_stops=12, n_hubs=5)
        with pytest.raises(CapExceeded):
            list(balanced_designs(inst, cap=10))


class TestTripSetMonotonicity:
    def test_aggregate_inequality(self):
        # sum over T2 \ T1 of p (g(z2) - g(z1)) <= 0 for exact optima
        for seed in range(4):
            inst = tiny_instance(seed)
            ids = sorted(t.id for t in inst.trips)
            t1 = ids[: len(ids) // 2]
            t2 = ids
            z1 = solve_dfd(inst, t1).design
            z2 = solve_dfd(inst, t2).design
            total = 0.0
            for tid in set(t2) - set(t1):
                trip = inst.trip_by_id(tid)
                total += trip.riders * (route(trip, z2).g - route(trip, z1).g)
            assert total <= 1e-9

    def test_singleton_corollary(self):
        inst = tiny_instance(2)
        ids = sorted(t.id for t in inst.trips)
        t1 = ids[:-1]
        z1 = solve_dfd(inst, t1).design
        z2 = solve_dfd(inst, ids).design
        trip = inst.trip_by_id(ids[-1])
        assert route(trip, z2).g <= route(trip, z1).g + 1e-9
