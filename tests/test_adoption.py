import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odmts import (
    Design,
    GeneratorConfig,
    Instance,
    Trip,
    TripClass,
    ValidationError,
    arc_s1,
    choice,
    design_objective,
    enumerate_dfd,
    eta_grre,
    eval_design,
    exact_tiny,
    generate_synthetic,
    rho_gagr,
    route,
    solve_dfd,
)
from odmts import router
from odmts.adoption import arcs_cost
from odmts.router import Route, SHUTTLE, weights_of
from conftest import make_example_instance, random_design, tiny_instance
from test_router import backbone_instance


def mk_route(f=30.0, money=0.0):
    return Route(legs=((SHUTTLE, 0, 1),), g=0.0, f=f, money=money, shuttle_km=money)


def latent(id=1, alpha=2.0, t_cur=20.0):
    return Trip(id=id, origin=0, destination=3, riders=1, kind="latent",
                alpha=alpha, t_cur=t_cur)


class TestChoice:
    def test_adopts_within_tolerance(self):
        assert choice(mk_route(f=30), latent(alpha=2.0, t_cur=20)) == 1

    def test_rejects_beyond_tolerance(self):
        assert choice(mk_route(f=30), latent(alpha=1.5, t_cur=19)) == 0

    def test_boundary_is_non_strict(self):
        assert choice(mk_route(f=30), latent(alpha=1.5, t_cur=20)) == 1

    def test_core_trip_rejected(self):
        core = Trip(id=0, origin=0, destination=3, riders=1)
        with pytest.raises(ValueError, match="core"):
            choice(mk_route(), core)


class TestEvalDesign:
    def test_metric_formulas(self):
        # four latent trips a..d; tset holds {a, b}; a and c adopt
        t, d = __import__("conftest").example_matrices()
        from odmts import CostParams, Instance
        trips = [
            Trip(id=0, origin=0, destination=3, riders=1, kind="latent", alpha=2.0, t_cur=50.0),
            Trip(id=1, origin=0, destination=3, riders=1, kind="latent", alpha=1.0, t_cur=1.0),
            Trip(id=2, origin=3, destination=0, riders=1, kind="latent", alpha=2.0, t_cur=50.0),
            Trip(id=3, origin=3, destination=0, riders=1, kind="latent", alpha=1.0, t_cur=1.0),
        ]
        inst = Instance(
            stops=(0, 1, 2, 3), hubs=(1, 2), time=t, dist=d, trips=tuple(trips),
            params=CostParams(theta=0.5, omega=1.0, bus_rate=0.25, buses_per_leg=2.0,
                              wait=5.0, ticket=2.5),
        )
        ev = eval_design(inst, Design.minimal(inst), tset={0, 1})
        assert ev.adopters == {0, 2}
        assert ev.a_false == pytest.approx(25.0)   # trip 1 in tset rejects
        assert ev.r_false == pytest.approx(25.0)   # trip 2 outside tset adopts

    @pytest.mark.parametrize("mode, dollars", [("per_distance", 8.0), ("per_time", 1.0 / 6.0)])
    def test_bus_cost_dollars(self, example_instance, mode, dollars):
        # 0.25 $ per bus-km or per bus-hour, 2 buses on each of (1, 2) and
        # (2, 1), which are 8 km and 10 minutes long
        inst = dataclasses.replace(
            example_instance, params=dataclasses.replace(example_instance.params, bus_cost_mode=mode),
        )
        ev = eval_design(inst, Design(inst, frozenset({(1, 2), (2, 1)})), tset={0})
        assert ev.kpis["bus_cost_dollars"] == pytest.approx(dollars, rel=1e-12)

    @pytest.mark.parametrize("mode", ["per_distance", "per_time"])
    def test_bus_cost_dollars_bit_exact(self, mode):
        # rate * n * d per leg, or rate * n * t / 60, added in the design's
        # arc order: equal to the last bit on a design of several arcs,
        # where adding in sorted arc order gives other last bits
        base = tiny_instance(5, n_stops=12, n_hubs=5)
        inst = dataclasses.replace(base, params=dataclasses.replace(
            base.params, bus_cost_mode=mode, bus_rate=3.87, buses_per_leg=16.0))
        h = inst.hubs
        design = Design(inst, frozenset({(h[0], h[1]), (h[1], h[2]), (h[2], h[0]),
                                         (h[3], h[4]), (h[4], h[3])}))
        p, sidx = inst.params, inst.stop_index

        def dollars(arcs):
            total = 0.0
            for a, b in arcs:
                if mode == "per_distance":
                    total += p.bus_rate * p.buses_per_leg * float(inst.dist[sidx[a], sidx[b]])
                else:
                    total += p.bus_rate * p.buses_per_leg * float(inst.time[sidx[a], sidx[b]]) / 60.0
            return total

        assert dollars(design.open_arcs) != dollars(sorted(design.open_arcs))
        assert eval_design(inst, design, tset={0}).kpis["bus_cost_dollars"] == dollars(design.open_arcs)

    @pytest.mark.parametrize("costed", [True, False])
    def test_backbone_investment(self, costed):
        # an uncosted backbone adds nothing to arcs_cost; the other arcs
        # pay their beta either way
        base = backbone_instance()
        inst = dataclasses.replace(base, params=dataclasses.replace(base.params,
                                                                     fixed_arc_costed=costed))
        h = inst.hubs
        beta, hidx = weights_of(inst).beta, inst.hub_index
        extra = {(h[2], h[3]), (h[3], h[2])}
        arcs = inst.fixed_arcs | extra
        paid = arcs if costed else extra
        assert arcs_cost(inst, arcs) == pytest.approx(
            sum(float(beta[hidx[a], hidx[b]]) for a, b in paid), rel=1e-12)

    def test_no_arcs_no_adopters(self):
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=2),
            Trip(id=1, origin=0, destination=3, riders=1, kind="latent",
                 alpha=1.0, t_cur=1.0),  # direct takes 25 min, never adopts
        ))
        ev = eval_design(inst, Design.minimal(inst), tset={0})
        assert ev.adopters == frozenset()
        assert ev.objective == pytest.approx(2 * 18.5)

    def test_worked_objective(self):
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=2),
            Trip(id=1, origin=0, destination=3, riders=1, kind="latent",
                 alpha=2.0, t_cur=25.0),
        ))
        z = Design(inst, frozenset({(1, 2), (2, 1)}))
        ev = eval_design(inst, z, tset={0, 1})
        # beta 4 + core 2 * 13.75 + latent (13.75 - 1.25)
        assert ev.objective == pytest.approx(44.0)
        assert ev.r_false == 0.0 and ev.a_false == 0.0

    def test_objective_matches_fast_path(self):
        inst = tiny_instance(3)
        import numpy as np
        from conftest import random_design
        rng = np.random.default_rng(1)
        z = random_design(inst, rng)
        ev = eval_design(inst, z, tset={t.id for t in inst.core_trips})
        assert design_objective(inst, z) == ev.objective

    def test_unknown_tset_rejected(self, example_instance):
        with pytest.raises(Exception, match="unknown trip"):
            eval_design(example_instance, Design.minimal(example_instance), tset={99})

    @pytest.mark.parametrize("tset", [[True], [1.0], [999], [1, True]])
    def test_non_integer_or_unknown_ids_rejected(self, tset):
        # True and 1.0 equal trip id 1 as set members; they are refused,
        # as solve_dfd refuses them, not read as that trip
        inst = tiny_instance(0)
        with pytest.raises(ValidationError, match="unknown trip ids"):
            eval_design(inst, Design.minimal(inst), tset)

    @pytest.mark.parametrize("change", [
        lambda inst: dict(params=dataclasses.replace(inst.params, theta=0.5)),
        lambda inst: dict(trips=inst.trips[:-2]),
    ], ids=["other_theta", "fewer_trips"])
    def test_design_of_another_instance_rejected(self, change):
        # a design routes on its own instance; scored against a copy with
        # other costs it would mix the two, and with fewer trips the
        # per-trip arrays no longer line up
        inst = tiny_instance(0, n_stops=12)
        copy = dataclasses.replace(inst, **change(inst))
        design = solve_dfd(inst, [t.id for t in inst.trips]).design
        ids = [t.id for t in copy.trips]
        with pytest.raises(ValidationError, match="^design belongs to another instance$"):
            eval_design(copy, design, ids)
        with pytest.raises(ValidationError, match="^design belongs to another instance$"):
            design_objective(copy, design)
        assert eval_design(copy, Design(copy, design.open_arcs), ids).objective == \
            design_objective(copy, Design(copy, design.open_arcs))

    def test_rates_match_trip_by_trip_counts(self):
        # reference: each latent trip routed and put to the choice rule
        # one at a time, counted against random trip sets
        rng = np.random.default_rng(4)
        no_latent = make_example_instance(trips=(Trip(id=0, origin=0, destination=3, riders=1),))
        cases = [(tiny_instance(seed, n_stops=12, n_hubs=4), 3) for seed in range(6)]
        for inst, n_designs in cases + [(no_latent, 1)]:
            ids = [t.id for t in inst.trips]
            n = len(inst.latent_trips)
            for _ in range(n_designs):
                z = random_design(inst, rng)
                adopts = {t.id: choice(route(t, z), t) for t in inst.latent_trips}
                for _ in range(4):
                    tset = {i for i in ids if rng.random() < 0.5}
                    rej = sum(a for i, a in adopts.items() if i not in tset)
                    adp = sum(1 - a for i, a in adopts.items() if i in tset)
                    ev = eval_design(inst, z, tset)
                    assert ev.r_false == (100.0 * rej / n if n else 0.0)
                    assert ev.a_false == (100.0 * adp / n if n else 0.0)
                    assert ev.adopters == {i for i, a in adopts.items() if a}

    def test_adoption_consistency(self):
        inst = tiny_instance(6)
        import numpy as np
        from conftest import random_design
        z = random_design(inst, np.random.default_rng(2))
        ev = eval_design(inst, z, tset=set())
        for t in inst.latent_trips:
            assert (t.id in ev.adopters) == bool(choice(route(t, z), t))

    def test_unused_cycle_costs_its_beta(self):
        inst = tiny_instance(8)
        from odmts import derive_weights
        base = Design.minimal(inst)
        ev0 = eval_design(inst, base, tset=set())
        h, l = inst.hubs[0], inst.hubs[1]
        z = Design(inst, frozenset({(h, l), (l, h)}))
        ev1 = eval_design(inst, z, tset=set())
        w = derive_weights(inst)
        hidx = inst.hub_index
        beta_sum = float(w.beta[hidx[h], hidx[l]] + w.beta[hidx[l], hidx[h]])
        if all(r.legs == route(t, base).legs
               for t, r in zip(inst.trips, [route(t, z) for t in inst.trips])):
            assert ev1.objective - ev0.objective == pytest.approx(beta_sum, rel=1e-9)


class TestExactTiny:
    def test_no_latent_reduces_to_dfd(self):
        inst = make_example_instance(trips=(Trip(id=0, origin=0, destination=3, riders=1),))
        res = exact_tiny(inst)
        oracle = enumerate_dfd(inst, [0])
        assert res.design.open_arcs == oracle.design.open_arcs
        assert res.evaluation.objective == pytest.approx(oracle.objective)

    def test_dominates_heuristics(self):
        from odmts import arc_s1, eta_grre, rho_grad
        for seed in range(3):
            inst = tiny_instance(seed)
            res = exact_tiny(inst)
            d1, tr1 = rho_grad(inst, rho=1)
            d2, tr2 = eta_grre(inst, eta=1)
            d3, tr3 = arc_s1(inst, "a")
            for d, ts in ((d1, tr1.tset), (d2, tr2.tset), (d3, tr3.tset)):
                assert res.evaluation.objective <= eval_design(inst, d, ts).objective + 1e-9

    def test_resolve_properties(self):
        # The equilibrium construction (re-solving fixed demand on core plus
        # the optimum's adopters) reproduces the optimum on some instances
        # and then carries zero false rates by definition. On others the
        # fixed-demand problem strictly prefers a different design, since
        # its objective ignores adoption revenue; the result reports which
        # case occurred rather than asserting the construction universally.
        hits = 0
        for seed in range(6):
            inst = tiny_instance(seed)
            res = exact_tiny(inst)
            if res.resolve_matches:
                assert res.resolve_r_false == 0.0
                assert res.resolve_a_false == 0.0
                hits += 1
        assert hits >= 1


# -- evaluation from the per-trip arrays -------------------------------------


@st.composite
def evaluated_cases(draw):
    """A random small instance, metric or not, with or without hub-to-hub
    shuttles, and a random design on it."""
    n_stops = draw(st.integers(4, 9))
    base = tiny_instance(
        draw(st.integers(0, 2**16)), n_stops=n_stops, n_hubs=draw(st.integers(2, min(4, n_stops))),
    )
    time, dist = base.time, base.dist
    if draw(st.booleans()):
        # one symmetric random factor on both matrices breaks the triangle
        factor = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(0.5, 2.0, time.shape)
        factor = (factor + factor.T) / 2.0
        time, dist = time * factor, dist * factor
    inst = Instance(
        stops=base.stops, hubs=base.hubs, time=time, dist=dist, trips=base.trips,
        params=dataclasses.replace(base.params, shuttle_between_hubs=draw(st.booleans())),
    )
    return inst, random_design(inst, np.random.default_rng(draw(st.integers(0, 2**16))))


class TestArrayEvaluation:
    @settings(max_examples=30, deadline=None)
    @given(evaluated_cases(), st.data())
    def test_repeat_equals_a_fresh_design(self, case, data):
        # later evaluations of one design read what the first one kept on
        # it; each equals the evaluation of a fresh equal design
        inst, z = case
        ids = [t.id for t in inst.trips]
        kept = Design(inst, z.open_arcs)
        seen = []
        for _ in range(3):
            tset = data.draw(st.sets(st.sampled_from(ids)))
            ev = eval_design(inst, kept, tset)
            assert repr(ev) == repr(eval_design(inst, Design(inst, z.open_arcs), tset))
            assert all(ev.kpis is not other.kpis for other in seen)
            seen.append(ev)
        ev.kpis.clear()
        assert eval_design(inst, kept, ids).kpis == \
            eval_design(inst, Design(inst, z.open_arcs), ids).kpis != {}

    @settings(max_examples=60, deadline=None)
    @given(evaluated_cases())
    def test_objective_is_the_routed_sum(self, case):
        # arcs_cost, then each core trip's riders * g and each adopting
        # latent trip's riders * (g - varphi), added in trip order
        inst, z = case
        fresh = Design(inst, z.open_arcs)
        varphi = weights_of(inst).varphi
        total = arcs_cost(inst, z.open_arcs)
        for t in inst.trips:
            r = route(t, fresh)
            if not t.is_latent:
                total += t.riders * r.g
            elif choice(r, t):
                total += t.riders * (r.g - varphi)
        assert eval_design(inst, z, ()).objective == total
        assert design_objective(inst, z) == total

    @pytest.mark.parametrize("t_cur, adopts", [(24.0, True), (23.999, False)])
    def test_adoption_boundary_is_non_strict(self, t_cur, adopts):
        # the route 0 -> 1 -> 2 -> 3 takes 5 + (10 + 5) + 4 = 24 minutes
        inst = make_example_instance(trips=(
            Trip(id=0, origin=0, destination=3, riders=1, kind="latent", alpha=1.0, t_cur=t_cur),
        ))
        z = Design(inst, frozenset({(1, 2), (2, 1)}))
        assert route(inst.trips[0], z).f == 24.0
        assert eval_design(inst, z, ()).adopters == ({0} if adopts else set())

    def test_clear_trips_are_not_routed(self, routed):
        from test_router import city_instance
        inst = city_instance()
        rng = np.random.default_rng(5)
        for _ in range(3):
            z = random_design(inst, rng)
            eval_design(inst, z, [t.id for t in inst.trips])
            design_objective(inst, Design(inst, z.open_arcs))
            assert router._table(z)[1].all()  # the table decides every trip
        assert routed == []


def single_path_instance():
    config = GeneratorConfig(
        stops=30, hubs=5, buses_per_leg=4.0, candidate=3,
        classes=(TripClass(10, None), TripClass(15, 2.0), TripClass(8, 1.5)),
    )
    return generate_synthetic(config, seed=6)


class TestSinglePath:
    """The heuristics and DFD read per-trip numbers from ``trip_arrays``;
    ``route`` sees only the trips the hub-path table leaves undecided
    and, under expansion rules c and d, the adopters whose legs they
    read."""

    def test_heuristics_route_no_decided_trip(self, routed):
        inst = single_path_instance()
        assert inst.metric_consistent
        rho_gagr(inst)
        eta_grre(inst)
        solve_dfd(inst, [t.id for t in inst.trips])
        arc_s1(inst, "a")
        arc_s1(inst, "b")
        row = inst.trip_index
        for tid, z in zip(routed, routed.designs):
            assert not router._table(z)[1][row[tid]], (tid, z.fingerprint())

    @pytest.mark.parametrize("rule", ["c", "d"])
    def test_rules_c_and_d_route_only_adopters(self, routed, rule):
        inst = single_path_instance()
        arc_s1(inst, rule)
        assert routed
        row = inst.trip_index
        for tid, z in zip(routed, routed.designs):
            decided = router._table(z)[1][row[tid]]
            assert not decided or tid in eval_design(inst, z, ()).adopters, (tid, z.fingerprint())
