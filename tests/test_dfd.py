import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_array

from odmts import (
    CapExceeded,
    CostParams,
    Design,
    Instance,
    Trip,
    balanced_designs,
    enumerate_dfd,
    is_direct_trip,
    ValidationError,
    arc_s2,
    eval_design,
    design_objective,
    make_cut,
    rho_gagr,
    rho_grad,
    route,
    solve_dfd,
    solve_master,
)
from odmts import dfd, highs
from odmts.adoption import arcs_cost
from odmts.dfd import FlowLP, TripBlock, flow_model
from conftest import (block_price, make_example_instance, reference_block, reference_edges,
                      random_design, routed_objective, tiny_instance)
from test_router import EDGE_CASES, grid_instance, non_metric, with_hub_trips


def hub_origin_instance(seed):
    """Four hubs and one non-hub stop, no hub-to-hub shuttles: a trip
    leaving a hub reaches the other hubs only by bus or by a bridge
    through the one non-hub stop."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(5, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    trips = []
    for k in range(6):
        o = int(rng.integers(0, 4))
        d = 4 if k % 2 else int(rng.integers(0, 5))
        trips.append(Trip(id=k, origin=o, destination=4 if d == o else d,
                          riders=int(rng.integers(1, 5))))
    params = CostParams(theta=0.001, omega=1.0, bus_rate=0.9, buses_per_leg=4.0,
                        wait=5.0, ticket=2.5, shuttle_between_hubs=False)
    return Instance(stops=tuple(range(5)), hubs=(0, 1, 2, 3), time=2.0 * dist,
                    dist=dist, trips=tuple(trips), params=params)


def flow_blocks(inst):
    """The blocks ``solve_dfd`` builds for the full trip set."""
    return make_cut([t for t in inst.trips if not is_direct_trip(t, inst)], inst)


def assert_block(block, tail, head, g, arc, nodes):
    """``block`` holds exactly these arrays, dtype included, and node count."""
    assert block.nodes == nodes
    for got, want in zip((block.tail, block.head, block.g, block.arc), (tail, head, g, arc)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def unit_flow_values(blocks, z):
    """Each (tail, head, g, arc, nodes) block's cheapest unit flow from node
    0 to node ``nodes - 1``, every bus edge capped by its arc's entry of
    ``z``, read from one LP over all the blocks (they share no variable,
    so each block's part of an optimum is optimal for that block)."""
    rows, cols, vals, rhs, cost, upper, cut = [], [], [], [], [], [], [0]
    for tail, head, g, arc, nodes in blocks:
        col = cut[-1] + np.arange(len(g))
        rows += [len(rhs) + tail, len(rhs) + head]
        cols += [col, col]
        vals += [np.ones(len(g)), -np.ones(len(g))]
        rhs += [1.0] + [0.0] * (nodes - 2) + [-1.0]
        cost.append(g)
        upper.append(np.where(arc >= 0, z[arc], np.inf))
        cut.append(cut[-1] + len(g))
    cost, upper = np.concatenate(cost), np.concatenate(upper)
    eq = coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(len(rhs), len(cost)))
    res = linprog(cost, A_eq=eq, b_eq=rhs, bounds=np.column_stack([np.zeros(len(cost)), upper]),
                  method="highs")
    assert res.status == 0, res.message
    return [float(cost[a:b] @ res.x[a:b]) for a, b in zip(cut[:-1], cut[1:])]


# Trips from a hub, to a hub, between two hubs and between two other stops,
# whose metric search graphs have H + 1, H + 1, H and H + 2 nodes.
MIXED = {
    "hub_shuttles": lambda: with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4),
                                           shuttle_between_hubs=True),
    "non_metric": lambda: non_metric(with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4))),
}


class TestMakeCut:
    def test_example_coefficient(self, example_instance):
        # the backbone cut's coefficient on an arc is the block's price
        # drop when that arc opens: 4.75 on (1, 2), none on (2, 1)
        [block] = make_cut(example_instance.trips[:1], example_instance)
        base = block_price(example_instance, block, frozenset())
        assert base == pytest.approx(18.5)
        assert base - block_price(example_instance, block, {(1, 2)}) == pytest.approx(4.75)
        assert block_price(example_instance, block, {(2, 1)}) == base

    def test_open_arcs_carry_no_coefficient(self, example_instance):
        # once (1, 2) is open, the price is the through cost of that arc
        # and (2, 1) lowers it no further
        [block] = make_cut(example_instance.trips[:1], example_instance)
        both = block_price(example_instance, block, {(1, 2), (2, 1)})
        assert both == pytest.approx(13.75)
        assert both == block_price(example_instance, block, {(1, 2)})

    def test_validity_over_all_designs(self):
        inst = tiny_instance(4)
        designs = list(balanced_designs(inst))
        for block in flow_blocks(inst):
            for z in designs:
                assert block_price(inst, block, z.open_arcs) >= route(block.trip, z).g - 1e-9

    def test_exact_at_generating_design(self, example_instance):
        trip = example_instance.trips[0]
        [block] = make_cut([trip], example_instance)
        for z in balanced_designs(example_instance):
            assert block_price(example_instance, block, z.open_arcs) == pytest.approx(
                route(trip, z).g, rel=1e-12
            )

    def test_shape_and_no_cache(self, example_instance):
        trip = example_instance.trips[0]
        [block] = make_cut([trip], example_instance)
        [again] = make_cut([trip], example_instance)  # built anew, equal array for array
        assert again is not block and again.nodes == block.nodes
        for name in ("tail", "head", "g", "arc"):
            assert np.array_equal(getattr(again, name), getattr(block, name))
        assert block.trip == trip and block.nodes == 4  # origin, hubs 1 and 2, destination
        assert (block.tail != block.nodes - 1).all()  # nothing leaves the destination
        assert (block.head != 0).all()  # nothing enters the origin
        cand = example_instance.candidate_arcs
        # (2, 1) runs against the trip: every path through it costs more
        # than the direct shuttle 0 -> 3, so the bus edge is pruned
        assert sorted(cand[a] for a in block.arc[block.arc >= 0]) == [(1, 2)]

    @pytest.mark.parametrize(
        "inst",
        [tiny_instance(seed) for seed in range(6)] + [hub_origin_instance(33)],
        ids=[f"tiny{seed}" for seed in range(6)] + ["hub_origin33"],
    )
    def test_pruned_block_prices_every_design(self, inst):
        # pruning keeps every path that can beat the ungated direct edge,
        # so each block still prices every design at its routed g; a bus
        # edge between hub endpoints must not serve as that direct edge
        designs = list(balanced_designs(inst))
        for trip, block in zip(inst.trips, make_cut(inst.trips, inst)):
            for z in designs:
                assert block_price(inst, block, z.open_arcs) == pytest.approx(
                    route(trip, z).g, rel=1e-12
                )

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_matches_per_pair_reference(self, case):
        # each block of a batch of all the instance's trips is the per-pair
        # loop's, array for array
        for inst in EDGE_CASES[case]():
            for trip, block in zip(inst.trips, make_cut(inst.trips, inst), strict=True):
                assert_block(block, *reference_block(trip, inst))

    @pytest.mark.parametrize("build", MIXED.values(), ids=MIXED.keys())
    def test_mixed_batch_matches_reference(self, build):
        # one batch over graphs of every node count, hub endpoints included
        inst = build()
        hubs = set(inst.hubs)
        assert len({(t.origin in hubs, t.destination in hubs) for t in inst.trips}) == 4
        for trip, block in zip(inst.trips, make_cut(inst.trips, inst), strict=True):
            assert block.trip is trip
            assert_block(block, *reference_block(trip, inst))

    @pytest.mark.parametrize("case", ["trip-gagr", "arc-s2-desk", "hub_trips", "non_metric"])
    def test_value_holds_at_fractional_z(self, case):
        # a pruned edge's flow moves to an ungated edge at no extra cost,
        # so every block's min-cost unit flow equals the unpruned graph's
        # at any z in [0, 1]^A, fractional included
        for inst in EDGE_CASES[case]():
            blocks = make_cut(inst.trips, inst)
            assert all(((b.tail == 0) & (b.head == b.nodes - 1) & (b.arc < 0)).any()
                       for b in blocks)  # the direct edge stays
            full = [reference_edges(t, inst) for t in inst.trips]
            rng = np.random.default_rng(len(inst.trips))
            for _ in range(3):
                z = rng.uniform(size=len(inst.candidate_arcs))
                got = unit_flow_values([(b.tail, b.head, b.g, b.arc, b.nodes) for b in blocks], z)
                assert got == pytest.approx(unit_flow_values(full, z), rel=1e-9, abs=1e-9)

    def test_bus_edge_back_toward_the_origin_hub_dropped(self):
        # origin 0, hub 1 one km on, hub 2 further, destination 3: the bus
        # 2 -> 1 lies on a path cheaper than the direct shuttle, but the
        # shuttle 0 -> 1 beats every way to 1 through it
        inst = grid_instance([(0, 0), (1, 0), (4, 0), (12, 0)], hubs=(1, 2), trips=[(0, 3)],
                             theta=0.2)
        [block] = make_cut(inst.trips, inst)
        cand = inst.candidate_arcs
        assert sorted(cand[a] for a in block.arc[block.arc >= 0]) == [(1, 2)]
        assert ((block.tail == 0) & (block.head == 3) & (block.arc < 0)).sum() == 1
        assert_block(block, *reference_block(inst.trips[0], inst))
        for z in balanced_designs(inst):
            assert block_price(inst, block, z.open_arcs) == route(inst.trips[0], z).g

    @pytest.mark.parametrize("build", MIXED.values(), ids=MIXED.keys())
    def test_batch_independence(self, build):
        # a trip's block does not depend on the other trips of its batch
        inst = build()
        trips = inst.trips[::-1]
        for block, trip in zip(make_cut(trips, inst), trips, strict=True):
            [alone] = make_cut([trip], inst)
            assert block.trip is trip
            assert_block(block, alone.tail, alone.head, alone.g, alone.arc, alone.nodes)

    @pytest.mark.parametrize("build", MIXED.values(), ids=MIXED.keys())
    def test_empty_batch(self, build):
        assert make_cut([], build()) == []


class TestSolveMaster:
    def test_two_design_enumeration(self, example_instance):
        blocks = make_cut(example_instance.trips[:1], example_instance)
        design, value, root, solves = solve_master(example_instance, blocks)
        assert sorted(design.open_arcs) == [(1, 2), (2, 1)]
        assert value == pytest.approx(17.75)
        assert root <= value + 1e-9 and solves >= 1

    def test_empty_pool(self, example_instance):
        design, value, root, solves = solve_master(example_instance, [])
        assert design.open_arcs == frozenset()
        assert value == root == 0.0

    def test_connectivity_couples_arcs(self, example_instance):
        # a block that would love (1,2) alone still pays for the return arc
        trip = example_instance.trips[0]
        bus = example_instance.candidate_arcs.index((1, 2))
        block = TripBlock(
            trip=trip, tail=np.array([0, 0, 1, 2]), head=np.array([3, 1, 2, 3]),
            g=np.array([18.5, 0.5, 7.5, 0.5]), arc=np.array([-1, -1, bus, -1]), nodes=4,
        )
        design, value, _, _ = solve_master(example_instance, [block])
        assert design.open_arcs == frozenset({(1, 2), (2, 1)})
        assert value == pytest.approx(2 + 2 + 8.5)

    def test_cut_without_coeff_is_constant(self, example_instance):
        # a block no bus edge can shorten adds its cost and opens nothing
        trip = example_instance.trips[0]
        block = TripBlock(trip=trip, tail=np.array([0]), head=np.array([1]),
                          g=np.array([3.0]), arc=np.array([-1]), nodes=2)
        design, value, _, _ = solve_master(example_instance, [block])
        assert design.open_arcs == frozenset()
        assert value == pytest.approx(3.0)

    def test_tie_two_arcs_from_the_incumbent(self, example_instance):
        # the direct edge costs what the bus path costs with both arcs paid
        # for, so the backbone and the cycle (1, 2), (2, 1) tie exactly.
        # The LP picks the cycle; the backbone, two arcs away and the
        # smaller arc tuple, must still be found within the tie cap
        inst = example_instance
        bus = inst.candidate_arcs.index((1, 2))
        block = TripBlock(
            trip=inst.trips[0], tail=np.array([0, 0, 1, 2]), head=np.array([3, 1, 2, 3]),
            g=np.array([12.5, 0.5, 7.5, 0.5]), arc=np.array([-1, -1, bus, -1]), nodes=4,
        )
        lp = FlowLP(inst)
        lp.use([block])
        value, inc, *_ = highs.branch(lp.solver, np.zeros(2), np.ones(2), np.inf, [])
        assert value == 12.5 and inc.all()
        prices = {z.key(): arcs_cost(inst, z.open_arcs) + block_price(inst, block, z.open_arcs)
                  for z in balanced_designs(inst)}
        assert prices == {(): 12.5, ((1, 2), (2, 1)): 12.5}
        design, value, _, _ = solve_master(inst, [block])
        assert design.key() == () and value == 12.5

    def test_fractional_no_good_lp_within_the_cap(self):
        # the incumbent is the only integral design within the tie cap, but
        # the LP under the no-good row is fractional and within the cap
        # too; the search under the row proves the incumbent unique, where
        # the arc-by-arc tie pass took 19 LPs in all
        inst = tiny_instance(24, n_stops=12, n_hubs=4, core=6, mid=6, high=4)
        tset = [0, 1, 2, 3, 5, 7, 8, 11, 12, 13, 15]
        trips = map(inst.trip_by_id, tset)
        blocks = make_cut([t for t in trips if not is_direct_trip(t, inst)], inst)
        lp = FlowLP(inst)
        lp.use(blocks)
        na = len(inst.candidate_arcs)
        best, inc, *_ = highs.branch(lp.solver, np.zeros(na), np.ones(na), np.inf, [])
        lp.exclude(inc)
        other = highs.solve(lp.solver, np.zeros(na), np.ones(na), np.inf, [])
        assert other[0] <= best * (1 + 1e-9)  # so every optimum of it is fractional
        design, value, _, solves = solve_master(inst, blocks)
        slow = enumerate_dfd(inst, [b.trip.id for b in blocks])
        assert design.key() == slow.design.key() and design.open_arcs
        assert value == pytest.approx(slow.objective, rel=1e-12)
        assert solves < 19

    def test_tie_between_leaves_goes_to_the_tie_pass(self, monkeypatch):
        # one trip rides arc (1, 2) for 3 or arc (3, 0) for 4, against 9
        # direct; three returns close (1, 2) at equal cost, so three
        # designs tie at 7. The root LP (6.5) is fractional, and the
        # search meets a second integral leaf within the tie cap, so the
        # tie pass runs without a search under the no-good row
        inst = grid_instance([(0, 0), (0, 2), (2, 0), (2, 2), (4, 4)], hubs=(0, 1, 2, 3),
                             trips=[(4, 0)], bus_rate=0.5, buses_per_leg=2.0)
        cand = inst.candidate_arcs
        block = TripBlock(
            trip=inst.trips[0], tail=np.array([0, 0, 4, 1, 0, 2, 3]),
            head=np.array([5, 4, 1, 5, 2, 3, 5]), g=np.array([9.0, 2, 2, 0, 2, 0, 1]),
            arc=np.array([-1, -1, cand.index((3, 0)), -1, -1, cand.index((1, 2)), -1]), nodes=6,
        )
        prices = sorted((arcs_cost(inst, z.open_arcs) + block_price(inst, block, z.open_arcs),
                         z.key()) for z in balanced_designs(inst))
        assert [p for p in prices if p[0] == 7.0] == [
            (7.0, ((0, 1), (1, 2), (2, 0))), (7.0, ((1, 2), (2, 1))),
            (7.0, ((1, 2), (2, 3), (3, 1)))]

        def searched(*args):
            raise AssertionError("searched under the no-good row")

        monkeypatch.setattr(FlowLP, "exclude", searched)
        design, value, root, _ = solve_master(inst, [block])
        assert root == 6.5 and value == 7.0
        assert design.key() == ((0, 1), (1, 2), (2, 0))

    @pytest.mark.parametrize(
        "inst",
        [tiny_instance(seed) for seed in range(6)] + [hub_origin_instance(33)],
        ids=[f"tiny{seed}" for seed in range(6)] + ["hub_origin33"],
    )
    def test_matches_brute_force(self, inst):
        blocks = flow_blocks(inst)
        assert blocks
        design, value, root, _ = solve_master(inst, blocks)
        slow = enumerate_dfd(inst, [b.trip.id for b in blocks])
        assert design.open_arcs == slow.design.open_arcs
        assert value == pytest.approx(slow.objective, rel=1e-12)
        assert root <= value * (1 + 1e-12)


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
        trips = [example_instance.trip_by_id(tid) for tid in sol.tset]
        total = sum(t.riders * route(t, sol.design).g for t in trips)
        from odmts.adoption import arcs_cost
        total += arcs_cost(example_instance, sol.design.open_arcs)
        assert sol.objective == pytest.approx(total, rel=1e-9)

    def test_leaves_no_cyclic_garbage(self):
        # a HiGHS model caught in a reference cycle would stay alive until
        # the cyclic collector ran, raising peak memory; a heuristic run
        # holds its model for the whole run
        solve_dfd(tiny_instance(4), [0])  # loads the solver
        inst = tiny_instance(3)
        gc.collect()
        gc.disable()
        try:
            solve_dfd(inst, [t.id for t in inst.trips])
            assert gc.collect() == 0
            rho_gagr(tiny_instance(2))
            assert gc.collect() == 0
            # two runs on one instance share its model, which dies with it
            inst = tiny_instance(5)
            rho_grad(inst)
            arc_s2(inst, "d", "a")
            model = weakref.ref(flow_model(inst))
            del inst
            assert model() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("tset", [[999], [0, 999], [True], ["1"]])
    def test_unknown_trip_ids(self, tset):
        with pytest.raises(ValidationError, match="unknown trip ids"):
            solve_dfd(tiny_instance(0), tset)

    def test_unique_integral_root_takes_two_lps(self):
        # the root LP is integral, and the LP under the no-good row that
        # excludes it proves no other design within the tie cap; deciding
        # the three open arcs one by one took five LPs
        inst = tiny_instance(4)
        sol = solve_dfd(inst, [t.id for t in inst.trips])
        assert len(sol.design.open_arcs) == 3
        assert sol.iterations == 2

    def test_fractional_root_settled_in_one_search(self):
        # the root LP is fractional; 7 LPs find the optimum, and one LP
        # under the no-good row inside the optimum's leaf proves it the
        # only design within the tie cap
        inst = tiny_instance(24, n_stops=12, n_hubs=4, core=6, mid=6, high=4)
        tset = [0, 2, 4, 5, 6, 8, 9, 12, 14]
        sol = solve_dfd(inst, tset)
        assert sol.iterations == 8
        slow = enumerate_dfd(inst, tset)
        assert sol.design.key() == slow.design.key() == ((8, 10), (10, 8))
        assert sol.objective == slow.objective == routed_objective(slow)
        trips = [t for t in map(inst.trip_by_id, tset) if not is_direct_trip(t, inst)]
        _, value, root, _ = solve_master(inst, make_cut(trips, inst))
        assert root < value * (1 - 1e-9)

    def test_repeated_flow_trips_run_no_lp(self):
        # trip sets that differ only in trips riding a direct shuttle under
        # every design have the same flow blocks: the second solve takes
        # the first one's design without an LP; fixing that design's own
        # arcs is implied by the stored answer, and gives the model's one
        # design for the same arc tuple without an LP as well
        inst = tiny_instance(0)
        model = flow_model(inst)
        flow = [t.id for t in inst.trips if t.id not in model.direct]
        tset = flow + [t.id for t in inst.trips if t.id in model.direct]
        first = solve_dfd(inst, flow)
        again = solve_dfd(inst, tset)
        assert first.iterations >= 1 and again.iterations == 0
        assert again.design is first.design and first.design.open_arcs
        fresh = solve_dfd(dataclasses.replace(inst), tset)  # a copy has a model of its own
        assert fresh.iterations >= 1
        assert again.objective == fresh.objective and again.tset == fresh.tset
        fixed = solve_dfd(inst, tset, fixed=first.design.open_arcs)
        assert fixed.iterations == 0 and fixed.design is first.design
        assert fixed.design.key() == first.design.key()

    def test_exact_repeat_builds_and_solves_nothing(self, monkeypatch):
        # a repeat of trip ids and fixed arcs on the same instance is the
        # stored answer: no block is looked up and no master runs
        inst = tiny_instance(0)
        ids = [t.id for t in inst.trips]
        first = solve_dfd(inst, ids)

        def called(*args, **kwargs):
            raise AssertionError("called on a repeat")

        monkeypatch.setattr(dfd, "make_cut", called)
        monkeypatch.setattr(dfd, "solve_master", called)
        again = solve_dfd(inst, reversed(ids))
        assert first.iterations >= 1 and again.iterations == 0
        assert again.design is first.design
        assert (again.objective, again.tset) == (first.objective, first.tset)

    def test_one_memo_entry_per_flow_set(self, monkeypatch):
        # all trips, then the same flow trips with fewer direct trips, then
        # all trips again: one memo entry answers the second and third
        # solves, and each answer is the one a fresh model gives
        inst = tiny_instance(0)
        every = [t.id for t in inst.trips]
        direct = [t.id for t in inst.trips if is_direct_trip(t, inst)]
        fewer = sorted(set(every) - set(direct)) + direct[:1]
        first = solve_dfd(inst, every)

        def called(*args, **kwargs):
            raise AssertionError("called on a repeat")

        monkeypatch.setattr(dfd, "make_cut", called)
        monkeypatch.setattr(dfd, "solve_master", called)
        answers = [first] + [solve_dfd(inst, tset) for tset in (fewer, every)]
        assert len(flow_model(inst).solved) == 1
        assert [sol.iterations for sol in answers[1:]] == [0, 0]
        monkeypatch.undo()
        for sol, tset in zip(answers, [every, fewer, every]):
            fresh = solve_dfd(dataclasses.replace(inst), tset)
            assert fresh.iterations >= 1
            assert (sol.objective, sol.tset) == (fresh.objective, fresh.tset)

    def test_model_builds_every_block_once(self, monkeypatch):
        # the model builds the block of every flow trip in one make_cut
        # call, in trip order; solves build nothing and reuse those block
        # objects, and only the blocks some solve used join the LP
        inst = tiny_instance(2)
        built = []  # the trip ids of each make_cut call

        def counted(trips, inst):
            built.append([t.id for t in trips])
            return make_cut(trips, inst)

        monkeypatch.setattr(dfd, "make_cut", counted)
        model = flow_model(inst)
        flow = [t.id for t in inst.trips if t.id not in model.direct]
        assert built == [flow] and list(model.blocks) == flow and len(flow) > 4
        blocks = dict(model.blocks)
        for tset in (flow[:2], flow[1:4] + sorted(model.direct), flow[:3]):
            assert solve_dfd(inst, tset).iterations >= 1
        assert built == [flow]
        assert model.blocks.keys() == blocks.keys()
        assert all(model.blocks[i] is b for i, b in blocks.items())
        assert set(model.lp.at) == {blocks[i] for i in flow[:4]}

    def test_objective_is_computed_when_read(self, monkeypatch):
        # a solve leaves the objective alone; its first read computes it
        # once, and later reads return that value
        inst = tiny_instance(0)
        ids = [t.id for t in inst.trips]
        riders_g, calls = dfd._riders_g, []

        def called(*args):
            raise AssertionError("objective computed by a solve")

        monkeypatch.setattr(dfd, "_riders_g", called)
        sol = solve_dfd(inst, ids)
        assert sol.design.open_arcs and sol.tset == frozenset(ids)

        def counted(*args):
            calls.append(args)
            return riders_g(*args)

        monkeypatch.setattr(dfd, "_riders_g", counted)
        assert sol.objective == sol.objective == routed_objective(sol)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "inst", [tiny_instance(seed) for seed in range(3)] + [non_metric(tiny_instance(0))],
        ids=[f"tiny{seed}" for seed in range(3)] + ["non_metric"],
    )
    def test_model_direct_flags(self, inst):
        # the model's direct trips are those for which is_direct_trip holds
        assert flow_model(inst).direct == {t.id for t in inst.trips if is_direct_trip(t, inst)}

    def test_copy_derives_its_own_model(self):
        # the model is kept on the instance: every call returns it, and a
        # dataclasses.replace copy builds one of its own
        inst = tiny_instance(0)
        assert flow_model(inst) is flow_model(inst)
        assert flow_model(dataclasses.replace(inst)) is not flow_model(inst)

    def test_evaluation_builds_no_model(self, monkeypatch):
        # evaluating designs, as eval-sweep does, does no DFD work
        def called(*args, **kwargs):
            raise AssertionError("a flow block was built")

        monkeypatch.setattr(dfd, "make_cut", called)
        inst = tiny_instance(1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            design = random_design(inst, rng)
            design_objective(inst, design)
            eval_design(inst, design, inst.core_ids)

    @pytest.mark.parametrize("tset", [[0, 1.0], [0, True]], ids=["float_id", "bool_id"])
    def test_repeat_checks_its_ids(self, tset):
        # {0, 1.0} and {0, True} equal {0, 1} as sets; the model that
        # answered {0, 1} must not answer them
        inst = tiny_instance(0)
        solve_dfd(inst, [0, 1])
        with pytest.raises(ValidationError, match="unknown trip ids"):
            solve_dfd(inst, tset)

    def test_fixed_pairs_as_lists_on_a_shared_model(self, example_instance):
        # fixed arcs given as lists are read as pairs, first and on a repeat
        first = solve_dfd(example_instance, [0], fixed=[[1, 2]])
        again = solve_dfd(example_instance, [0], fixed=[[1, 2]])
        pairs = solve_dfd(example_instance, [0], fixed=[(1, 2)])
        assert first.design.key() == ((1, 2), (2, 1)) and first.iterations >= 1
        assert again.design is pairs.design is first.design
        assert again.iterations == pairs.iterations == 0
        assert again.objective == first.objective == pytest.approx(17.75)

    @pytest.mark.parametrize(
        "inst",
        [tiny_instance(seed) for seed in range(6)] + [hub_origin_instance(33)],
        ids=[f"tiny{seed}" for seed in range(6)] + ["hub_origin33"],
    )
    def test_shared_model_matches_brute_force(self, inst):
        # the instance's one model through a seeded run of trip sets and
        # fixed arcs, as its heuristic runs use it: blocks join, switch off
        # and back on
        rng = np.random.default_rng(inst.trips[0].origin + len(inst.trips))
        designs = list(balanced_designs(inst))
        ids = [t.id for t in inst.trips]
        for _ in range(50):
            tset = [i for i in ids if rng.random() < 0.6]
            fixed = designs[rng.integers(len(designs))].open_arcs if rng.random() < 0.3 else ()
            fast = solve_dfd(inst, tset, fixed)
            slow = enumerate_dfd(inst, tset, fixed=fixed)
            assert fast.design.key() == slow.design.key()
            assert fast.objective == slow.objective == routed_objective(slow)

    def test_exact_tie_takes_smallest_arc_tuple(self):
        # two mirror-image corridors o -> 1 -> 3 -> d and o -> 2 -> 4 -> d
        # tie exactly; enumeration keeps the smaller sorted arc tuple
        inst = grid_instance(
            [(0, 0), (1, 1), (1, -1), (9, 1), (9, -1), (10, 0)],
            hubs=(1, 2, 3, 4), trips=[(0, 5), (5, 0)], bus_rate=0.05, buses_per_leg=1.0,
        )
        slow = enumerate_dfd(inst, [0, 1])
        assert slow.design.key() == ((1, 3), (3, 1))
        assert slow.iterations == 0  # the oracle runs no LP
        fast = solve_dfd(inst, [0, 1])
        assert fast.design.key() == slow.design.key()
        assert fast.objective == pytest.approx(16.4, rel=1e-12)

    def test_unbalanced_fixed_set_is_completed(self, example_instance):
        slow = enumerate_dfd(example_instance, [0], fixed=[(1, 2)])
        fast = solve_dfd(example_instance, [0], fixed=[(1, 2)])
        assert fast.design.key() == slow.design.key() == ((1, 2), (2, 1))
        assert fast.objective == slow.objective == routed_objective(slow) == pytest.approx(17.75)

    @pytest.mark.parametrize("entry, fixed, match", [
        pytest.param(entry, fixed, match, id=name + suffix)
        for name, entry in [
            ("balanced_designs", lambda inst, fixed: list(balanced_designs(inst, fixed=fixed))),
            ("enumerate_dfd", lambda inst, fixed: enumerate_dfd(inst, [0], fixed=fixed)),
            ("solve_dfd", lambda inst, fixed: solve_dfd(inst, [0], fixed=fixed)),
            ("solve_master", lambda inst, fixed: solve_master(
                inst, make_cut(inst.trips[:1], inst), fixed=fixed)),
        ]
        for suffix, fixed, match in [
            ("", [(99, 1), (1, 2)], r"^fixed arc \(99, 1\) outside the candidate set$"),
            # 1.0 and True equal hub 1, so the candidate set alone would take them
            ("-float", [(1.0, 2.0), (2, 1)],
             r"^fixed arc \(1\.0, 2\.0\) is not a pair of integer hub ids$"),
            ("-bool", [(2, 1), (True, 2)], r"^fixed arc \(True, 2\) is not a pair of integer hub ids$"),
        ]
    ])
    def test_fixed_arc_outside_candidates_rejected(self, example_instance, entry, fixed, match,
                                                   monkeypatch):
        def solved(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(highs, "branch", solved)
        with pytest.raises(ValidationError, match=match):
            entry(example_instance, fixed)

    def test_non_metric_trip_is_not_a_constant(self):
        # distances are metric but the direct shuttle 0 -> 3 takes 100
        # minutes against 3 through the hubs, so the trip that looks
        # direct by distance rides the bus once (1, 2) and (2, 1) open
        dist = np.array([[0, 1, 10, 1], [1, 0, 1, 10], [10, 1, 0, 1], [1, 10, 1, 0]], dtype=float)
        time = dist.copy()
        time[0, 3] = time[3, 0] = 100.0
        inst = Instance(
            stops=(0, 1, 2, 3), hubs=(1, 2), time=time, dist=dist,
            trips=(Trip(id=0, origin=0, destination=3, riders=5),),
            params=CostParams(theta=0.5, omega=1.0, bus_rate=0.1, buses_per_leg=1.0, wait=0.0),
        )
        assert not inst.metric_consistent
        slow = enumerate_dfd(inst, [0])
        fast = solve_dfd(inst, [0])
        assert slow.design.key() == ((1, 2), (2, 1))
        assert fast.design.key() == slow.design.key()
        assert fast.objective == slow.objective == routed_objective(slow) == pytest.approx(12.6)


class TestImpliedAnswers:
    """A request that a stored answer (trips T, fixed arcs F) -> D implies:
    flow trips S <= T and fixed arcs F' with F <= F' <= D, where S is T
    or F' is D. Its answer is the one a fresh model gives, without an LP."""

    @staticmethod
    def no_lp(monkeypatch):
        def called(*args, **kwargs):
            raise AssertionError("a block was built or an LP solved")

        monkeypatch.setattr(highs, "branch", called)
        monkeypatch.setattr(highs, "solve", called)
        monkeypatch.setattr(dfd, "make_cut", called)

    @staticmethod
    def assert_fresh(sol, inst, tset, fixed):
        # the design is built as a search builds it: same arc order, so the
        # same objective to the last bit; a copy of the instance has a
        # fresh model of its own
        fresh = solve_dfd(dataclasses.replace(inst), tset, fixed)
        assert fresh.iterations >= 1
        assert tuple(sol.design.open_arcs) == tuple(fresh.design.open_arcs)
        assert (sol.objective, sol.tset) == (fresh.objective, fresh.tset)

    @staticmethod
    def start():
        """tiny_instance(0), its model, every trip id and the sorted flow
        trip ids."""
        inst = tiny_instance(0)
        model = flow_model(inst)
        every = [t.id for t in inst.trips]
        return inst, model, every, sorted(set(every) - model.direct)

    def test_restriction_keeps_the_answer(self, monkeypatch):
        # the same flow trips with one of the answer's three arcs fixed
        inst, model, every, _ = self.start()
        first = solve_dfd(inst, every)
        fixed = first.design.key()[:1]
        assert len(first.design.open_arcs) == 3 and not inst.fixed_arcs
        self.no_lp(monkeypatch)
        sol = solve_dfd(inst, every, fixed)
        again = solve_dfd(inst, every, fixed)
        monkeypatch.undo()
        assert sol.iterations == again.iterations == 0
        assert sol.design.key() == first.design.key() and again.design is sol.design
        assert len(model.solved) == 2
        self.assert_fresh(sol, inst, every, fixed)

    def test_bare_answer_holds_for_fewer_trips(self, monkeypatch):
        # fewer flow trips with all of the answer's arcs fixed, then fewer
        # still, which the first implied answer implies as well
        inst, model, every, flow = self.start()
        first = solve_dfd(inst, every)
        fixed = first.design.key()
        self.no_lp(monkeypatch)
        answers = [solve_dfd(inst, flow[:k], fixed) for k in (4, 2)]
        monkeypatch.undo()
        assert len(model.solved) == 3
        for sol, k in zip(answers, (4, 2)):
            assert sol.iterations == 0 and sol.design is first.design
            self.assert_fresh(sol, inst, flow[:k], fixed)

    def test_fewer_trips_with_part_of_the_answer_fixed_search(self):
        # S < T and F' < D: one trip with one of the three arcs fixed opens
        # two arcs, so the stored answer must not be taken
        inst, model, every, flow = self.start()
        first = solve_dfd(inst, every)
        fixed = first.design.key()[:1]
        sol = solve_dfd(inst, flow[:1], fixed)
        assert sol.iterations >= 1
        assert sol.design.key() == ((0, 1), (1, 0)) != first.design.key()
        self.assert_fresh(sol, inst, flow[:1], fixed)

    def test_more_trips_search(self):
        # S > T with F' = D: one trip opens no arc, all trips open three
        inst, model, every, flow = self.start()
        first = solve_dfd(inst, flow[:1])
        sol = solve_dfd(inst, every, first.design.key())
        assert first.design.key() == () and sol.iterations >= 1
        assert len(sol.design.open_arcs) == 3
        self.assert_fresh(sol, inst, every, first.design.key())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 30), st.data())
    def test_random_requests_match_a_fresh_solve(self, seed, data):
        # one shared model through requests whose trips are a new set or
        # part of an earlier request's, and whose fixed arcs are part of an
        # earlier answer; each answer equals a fresh model's and the oracle's
        inst = tiny_instance(seed, n_stops=8, n_hubs=4)
        asked = []

        def part(items):
            items = sorted(items)
            if data.draw(st.booleans()):
                return items
            keep = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
            return [x for x, on in zip(items, keep) if on]

        for _ in range(6):
            if asked and data.draw(st.booleans()):
                tset, arcs = data.draw(st.sampled_from(asked))
                tset, fixed = part(tset), part(arcs)
            else:
                tset, fixed = part(t.id for t in inst.trips), ()
            sol = solve_dfd(inst, tset, fixed)
            self.assert_fresh(sol, inst, tset, fixed)
            slow = enumerate_dfd(inst, tset, fixed=fixed)  # 4 hubs: at most 12 candidate arcs
            assert sol.design.key() == slow.design.key()
            assert sol.objective == slow.objective == routed_objective(slow)
            asked.append((sol.tset, sol.design.key()))


class TestEnumerateDfd:
    def test_matches_solver_on_random_instances(self):
        for seed in range(6):
            inst = tiny_instance(seed)
            tset = [t.id for t in inst.trips]
            fast = solve_dfd(inst, tset)
            slow = enumerate_dfd(inst, tset)
            assert fast.objective == slow.objective == routed_objective(slow)
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
            list(balanced_designs(inst))  # 20 candidate arcs


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
