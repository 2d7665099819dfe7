import dataclasses

import numpy as np
import pytest

from odmts import (
    CapExceeded,
    Design,
    Trip,
    adoption_ub,
    arc_s1,
    arc_s2,
    eval_design,
    expand,
    find_cycles,
    generate_synthetic,
    route,
    solve_dfd,
)
from odmts import arc_heuristics
from conftest import brute_cycles, make_example_instance, tiny_config, tiny_instance, tiny_suite


class TestFindCycles:
    def test_two_two_cycles(self):
        cycles = find_cycles({(1, 2), (2, 1), (2, 3), (3, 2)})
        assert cycles == [(1, 2), (2, 3)]

    def test_one_triangle(self):
        cycles = find_cycles({(1, 2), (2, 3), (3, 1)})
        assert cycles == [(1, 2, 3)]

    def test_complete_digraph_on_three(self):
        arcs = {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
        cycles = find_cycles(arcs)
        assert len(cycles) == 5
        assert cycles == brute_cycles(arcs)

    def test_matches_brute_force_on_random_digraphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            arcs = set()
            for _ in range(rng.integers(2, 9)):
                a, b = rng.integers(0, 5, size=2)
                if a != b:
                    arcs.add((int(a), int(b)))
            assert find_cycles(arcs) == brute_cycles(arcs)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(arc_heuristics, "CYCLE_CAP", 10)
        arcs = {(a, b) for a in range(8) for b in range(8) if a != b}
        with pytest.raises(CapExceeded, match="^more than 10 elementary cycles; "):
            find_cycles(arcs)


class TestAdoptionUb:
    def test_multimodal_example(self, example_instance):
        trip = example_instance.trips[0]
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        r = route(trip, z)
        assert r.bus_span == (1, 2)
        # d(0,1)+d(2,3) equals the best hub-pair sum, so no detour slack
        assert adoption_ub(trip, r, example_instance) == pytest.approx(24.0)

    def test_direct_shuttle_example(self, example_instance):
        trip = example_instance.trips[0]
        r = route(trip, Design.minimal(example_instance))
        assert r.is_direct_shuttle
        # max(25, 25 + 1 * (12 - 3.5))
        assert adoption_ub(trip, r, example_instance) == pytest.approx(33.5)

    def test_theta_one_collapses_to_travel_time(self):
        inst = make_example_instance()
        inst = dataclasses.replace(inst, params=dataclasses.replace(inst.params, theta=1.0))
        trip = inst.trips[0]
        r = route(trip, Design.minimal(inst))
        assert adoption_ub(trip, r, inst) == pytest.approx(r.f)

    def test_theta_zero_rejected(self):
        inst = make_example_instance()
        inst = dataclasses.replace(inst, params=dataclasses.replace(inst.params, theta=0.0))
        trip = inst.trips[0]
        r = route(trip, Design.minimal(inst))
        with pytest.raises(ValueError, match="theta"):
            adoption_ub(trip, r, inst)

    def test_bound_holds_under_larger_designs(self):
        from conftest import random_design
        inst = tiny_instance(3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            z1 = random_design(inst, rng)
            z2 = random_design(inst, rng, base=z1.open_arcs)
            for t in inst.latent_trips:
                r1 = route(t, z1)
                ub = adoption_ub(t, r1, inst)
                assert route(t, z2).f <= ub + 1e-9


def expansion_fixture():
    inst = make_example_instance(trips=(
        Trip(id=0, origin=0, destination=3, riders=1),
        # adopter via bus when open; money 3.5 > ticket 2.5
        Trip(id=1, origin=0, destination=3, riders=1, kind="latent", alpha=2.0, t_cur=25.0),
        # direct-shuttle adopter (origin next to destination)
        Trip(id=2, origin=2, destination=3, riders=1, kind="latent", alpha=2.0, t_cur=4.0),
        # never adopts
        Trip(id=3, origin=3, destination=0, riders=1, kind="latent", alpha=1.0, t_cur=2.0),
    ))
    z = Design(inst, frozenset({(1, 2), (2, 1)}))
    return inst, z, inst.latent_trips


class TestExpand:
    def test_rule_a_all_adopters(self):
        inst, z, latent = expansion_fixture()
        assert expand("a", z) == {1, 2}

    def test_rule_b_profitability(self):
        inst, z, latent = expansion_fixture()
        # trip 1 rides the bus with money 3.5 > 2.5; trip 2 money 1.5 <= 2.5
        assert expand("b", z) == {2}

    def test_rule_c_excludes_direct_shuttle(self):
        inst, z, latent = expansion_fixture()
        assert expand("c", z) == {1}

    def test_rule_d_ub_filter(self):
        inst, z, latent = expansion_fixture()
        # trip 1: UB = 24 <= 2 * 25; trip 2 direct: UB vs 2 * 4
        chosen = expand("d", z)
        assert 1 in chosen
        ub2 = adoption_ub(latent[1], route(latent[1], z), inst)
        assert (2 in chosen) == (ub2 <= latent[1].alpha * latent[1].t_cur)

    def test_rules_subsume_into_a(self):
        inst, z, latent = expansion_fixture()
        a = expand("a", z)
        for rule in "bcd":
            assert expand(rule, z) <= a

    def test_unknown_rule(self):
        inst, z, latent = expansion_fixture()
        with pytest.raises(ValueError, match="rule"):
            expand("z", z)


class TestArcS1:
    def test_immediate_termination_returns_fixed_init(self):
        # expensive arcs: the fixed-demand solve opens nothing, the run
        # stops at once, and the reported trip set still absorbs the
        # adopters of the returned (initial) design
        inst = make_example_instance(beta_per_arc=50.0, trips=(
            Trip(id=0, origin=0, destination=3, riders=1),
            Trip(id=1, origin=0, destination=3, riders=1, kind="latent", alpha=2.0, t_cur=25.0),
        ))
        design, trace = arc_s1(inst, "a")
        assert design.open_arcs == frozenset()
        assert len(trace.records) == 1
        assert trace.tset == {0, 1}  # trip 1 adopts the direct shuttle
        assert eval_design(inst, design, trace.tset).r_false == 0.0

    def test_single_improving_cycle(self):
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=1),
        ))
        design, trace = arc_s1(inst, "a")
        assert design.open_arcs == frozenset({(1, 2), (2, 1)})
        assert len(trace.records) == 2  # one fixing iteration, one stop check

    def test_objectives_strictly_decrease_and_design_grows(self):
        for seed in range(4):
            inst = tiny_instance(seed)
            design, trace = arc_s1(inst, "a")
            objs = [r.objective for r in trace.records[:-1]]
            assert all(b < a for a, b in zip(objs, objs[1:]))
            sizes = [len(r.fingerprint.split(";")) if r.fingerprint != "-" else 0
                     for r in trace.records]
            assert sizes == sorted(sizes)

    def test_rule_a_correct_rejection(self):
        opened = 0
        for seed in range(10):
            inst = tiny_instance(seed)
            design, trace = arc_s1(inst, "a")
            ev = eval_design(inst, design, trace.tset)
            assert ev.r_false == 0.0
            opened += bool(design.open_arcs)
        assert opened >= 1  # at least one seed exercises a non-trivial design

    def test_rule_d_correct_adoption_along_trace(self):
        for seed in range(6):
            inst = tiny_instance(seed)
            design, trace = arc_s1(inst, "d")
            ev = eval_design(inst, design, trace.tset)
            assert ev.a_false == 0.0


@pytest.mark.parametrize("run", [lambda inst: arc_s1(inst, "x"),
                                 lambda inst: arc_s2(inst, "d", "x")],
                         ids=["arc_s1", "arc_s2_stage2"])
def test_unknown_rule_rejected(run):
    with pytest.raises(ValueError, match="^unknown expansion rule 'x'$"):
        run(tiny_instance(0))


class TestArcS2:
    def test_stage_one_rule_a_rejected(self):
        with pytest.raises(ValueError):
            arc_s2(tiny_instance(0), "a", "a")

    def test_trace_shows_two_stages(self):
        inst = tiny_instance(0)
        design, trace = arc_s2(inst, "c", "a")
        stages = {r.stage for r in trace.records}
        assert stages == {1, 2}

    def test_stage_two_continues_from_stage_one(self):
        inst = tiny_instance(1)
        design, trace = arc_s2(inst, "c", "a")
        s1 = [r for r in trace.records if r.stage == 1]
        s2 = [r for r in trace.records if r.stage == 2]
        assert s2[0].k >= s1[-1].k
        # stage 2 designs contain stage 1's final fixed design
        fp1 = set(s1[-1].fingerprint.split(";")) - {"-"}
        fp2 = set(s2[-1].fingerprint.split(";")) - {"-"}
        assert fp1 <= fp2

    @pytest.mark.parametrize("rule", "bcd")
    def test_stage_one_is_arc_s1(self, rule):
        # one staged run: stage 1 of arc_s2 is arc_s1 under the same rule, row for row
        def rows(records):
            return [dataclasses.replace(r, wall_time=0.0) for r in records]

        for inst in tiny_suite():
            stage1 = [r for r in arc_s2(inst, rule, "a")[1].records if r.stage == 1]
            assert rows(stage1) == rows(arc_s1(inst, rule)[1].records)

    def test_da_properties(self):
        for seed in range(6):
            inst = tiny_instance(seed)
            design, trace = arc_s2(inst, "d", "a")
            ev = eval_design(inst, design, trace.tset)
            assert ev.r_false == 0.0

    def test_everything_expanded_in_stage_one_ends_quickly(self):
        # no latent trips at all: both stages terminate right away
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=1),
        ))
        design, trace = arc_s2(inst, "c", "a")
        assert design.open_arcs == solve_dfd(inst, [0]).design.open_arcs


class TestNoImprovingCycle:
    """A stage that stops on cycles none of which beats the bound, the
    stop most runs never reach (they run out of new cycles first)."""

    @pytest.fixture
    def found(self, monkeypatch):
        """The hub sequences of the cycles each ``find_cycles`` call returns."""
        seen = []

        def spy(arcs, *args, **kwargs):
            cycles = find_cycles(arcs, *args, **kwargs)
            seen.append(cycles)
            return cycles

        monkeypatch.setattr(arc_heuristics, "find_cycles", spy)
        return seen

    @staticmethod
    def instance():
        config = dataclasses.replace(tiny_config(n_stops=8, n_hubs=3, core=5, mid=4, high=4),
                                     bus_rate=0.3, ticket=6.0)
        return generate_synthetic(config, 195)

    def test_arc_s1(self, found):
        design, trace = arc_s1(self.instance(), "a")
        assert design.open_arcs == frozenset({(2, 6), (6, 2)})
        assert [(r.k, r.stage, r.tset_size) for r in trace.records] == [(0, 1, 13), (1, 1, 13)]
        assert found == [[(2, 6)], [(2, 3)]]  # the last step's cycle does not improve

    def test_arc_s2(self, found):
        design, trace = arc_s2(self.instance(), "d", "a")
        assert design.open_arcs == frozenset({(2, 6), (6, 2)})
        assert [(r.k, r.stage, r.tset_size) for r in trace.records] == [
            (0, 1, 10), (1, 1, 10), (2, 2, 13)]
        assert found == [[(2, 6)], [], [(2, 3)]]
        assert len({r.objective for r in trace.records}) == 1


class TestCycleDecomposition:
    def test_union_covers_unfixed(self):
        for seed in range(4):
            inst = tiny_instance(seed)
            sol = solve_dfd(inst, [t.id for t in inst.trips])
            unfixed = sol.design.open_arcs
            cycles = find_cycles(unfixed)
            covered = set()
            for c in cycles:
                arcs = set(zip(c, c[1:] + c[:1]))
                assert arcs <= set(unfixed)
                covered |= arcs
            assert covered == set(unfixed)
