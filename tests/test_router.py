import dataclasses

import numpy as np
import pytest

from odmts import Design, Instance, Trip, ValidationError, is_direct_trip, route, route_batch
from odmts.router import BUS, SHUTTLE
from conftest import oracle_route, random_design, tiny_instance


class TestDesign:
    def test_weak_connectivity_enforced(self, example_instance):
        with pytest.raises(ValidationError, match="weak connectivity"):
            Design(example_instance, frozenset({(1, 2)}))

    def test_candidate_set_enforced(self, example_instance):
        with pytest.raises(ValidationError):
            Design(example_instance, frozenset({(0, 1), (1, 0)}))

    def test_minimal_and_comparison(self, example_instance):
        z0 = Design.minimal(example_instance)
        z1 = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        assert z0 <= z1
        assert z0.fingerprint() == "-"
        assert z1.fingerprint() == "1>2;2>1"


class TestRouteExamples:
    def test_multimodal_route(self, example_instance):
        trip = example_instance.trips[0]
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        r = route(trip, z)
        assert r.legs == ((SHUTTLE, 0, 1), (BUS, 1, 2), (SHUTTLE, 2, 3))
        assert r.g == pytest.approx(13.75)
        assert r.f == pytest.approx(24.0)
        assert r.money == pytest.approx(3.5)
        assert r.shuttle_km == pytest.approx(3.5)

    def test_direct_when_closed(self, example_instance):
        trip = example_instance.trips[0]
        r = route(trip, Design.minimal(example_instance))
        assert r.legs == ((SHUTTLE, 0, 3),)
        assert r.g == pytest.approx(18.5)
        assert r.f == pytest.approx(25.0)
        assert r.money == pytest.approx(12.0)

    def test_hub_to_hub_bus_dominates(self, example_instance):
        # origin and destination are hubs; tau(1,2)=7.5 < gamma(1,2)=9
        trip = Trip(id=9, origin=1, destination=2, riders=1)
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        r = route(trip, z)
        assert r.legs == ((BUS, 1, 2),)

    def test_gf_identity(self, example_instance):
        theta = example_instance.params.theta
        trip = example_instance.trips[0]
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        r = route(trip, z)
        assert r.g == pytest.approx(theta * r.f + (1 - theta) * r.money, rel=1e-12)


class TestDirectTrip:
    def test_inequality_true(self):
        inst = tiny_instance(0)
        # hand check via definition on a synthetic trip
        sidx = inst.stop_index
        hubs = [sidx[h] for h in inst.hubs]
        for t in inst.trips[:4]:
            o, d = sidx[t.origin], sidx[t.destination]
            best = min(inst.dist[o, h] for h in hubs) + min(inst.dist[h, d] for h in hubs)
            assert is_direct_trip(t, inst) == (best >= inst.dist[o, d])

    def test_example_false(self, example_instance):
        assert not is_direct_trip(example_instance.trips[0], example_instance)

    def test_zero_distance_hubs(self):
        t = np.array([[0.0, 1, 5], [1, 0, 4], [5, 4, 0]])
        d = np.array([[0.0, 1, 5], [1, 0, 4], [5, 4, 0]])
        from odmts import CostParams, Instance
        inst = Instance(
            stops=(0, 1, 2), hubs=(0, 2),
            time=t, dist=d,
            trips=(Trip(id=0, origin=0, destination=2, riders=1),),
            params=CostParams(theta=0.5, omega=1.0),
        )
        # hub at origin and destination: best sum = 0 < 5
        assert not is_direct_trip(inst.trips[0], inst)

    def test_direct_trips_stay_direct(self):
        inst = tiny_instance(5)
        rng = np.random.default_rng(0)
        directs = [t for t in inst.trips if is_direct_trip(t, inst)]
        for _ in range(5):
            z = random_design(inst, rng)
            for t in directs:
                assert route(t, z).is_direct_shuttle


def assert_matches_oracle(inst, z):
    for trip in inst.trips:
        got = route(trip, z)
        g, f, legs = oracle_route(trip, z)
        assert got.g == pytest.approx(g, abs=1e-12)
        assert got.f == pytest.approx(f, abs=1e-12)
        assert got.legs == legs


def with_hub_shuttles(seeds):
    """(seed, shuttle_between_hubs) cases; the banned-shuttle case keeps
    the bare seed as its id."""
    cases = [(s, False) for s in seeds] + [(s, True) for s in seeds]
    ids = [str(s) for s in seeds] + [f"{s}-hub_shuttles" for s in seeds]
    return pytest.mark.parametrize("seed, shuttles", cases, ids=ids)


class TestOracleAgreement:
    @with_hub_shuttles(range(12))
    def test_matches_enumeration(self, seed, shuttles):
        base = tiny_instance(seed, n_stops=7, n_hubs=3, core=2, mid=2, high=1)
        params = dataclasses.replace(base.params, shuttle_between_hubs=shuttles)
        inst = Instance(
            stops=base.stops, hubs=base.hubs, time=base.time, dist=base.dist,
            trips=base.trips, params=params,
        )
        assert inst.metric_consistent
        rng = np.random.default_rng(seed)
        assert_matches_oracle(inst, random_design(inst, rng))

    @with_hub_shuttles(range(6))
    def test_non_metric_matches_enumeration(self, seed, shuttles):
        # one symmetric random factor on both matrices breaks the triangle
        # inequality, so routing runs on the full stop graph
        base = tiny_instance(seed, n_stops=7, n_hubs=3, core=2, mid=2, high=1)
        rng = np.random.default_rng(seed)
        factor = rng.uniform(0.5, 2.0, size=base.time.shape)
        factor = (factor + factor.T) / 2.0
        params = dataclasses.replace(base.params, shuttle_between_hubs=shuttles)
        inst = Instance(
            stops=base.stops, hubs=base.hubs, time=base.time * factor,
            dist=base.dist * factor, trips=base.trips, params=params,
        )
        assert not inst.metric_consistent
        assert_matches_oracle(inst, random_design(inst, rng))

    def test_full_graph_engine_agrees(self, monkeypatch):
        inst = tiny_instance(3)
        rng = np.random.default_rng(3)
        z = random_design(inst, rng)
        expected = [route(t, z) for t in inst.trips]
        z2 = Design(inst, z.open_arcs)  # fresh cache
        monkeypatch.setitem(inst._caches, "triangle", False)
        got = [route(t, z2) for t in inst.trips]
        for a, b in zip(expected, got):
            assert a.g == pytest.approx(b.g, abs=1e-12)
            assert a.f == pytest.approx(b.f, abs=1e-12)
            assert a.legs == b.legs


class TestMonotonicity:
    def test_more_arcs_never_worse(self):
        inst = tiny_instance(7)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z1 = random_design(inst, rng)
            z2 = random_design(inst, rng, base=z1.open_arcs)
            for t in inst.trips:
                assert route(t, z2).g <= route(t, z1).g + 1e-12

    def test_direct_under_larger_stays_direct_under_smaller(self):
        inst = tiny_instance(9)
        rng = np.random.default_rng(9)
        z1 = Design.minimal(inst)
        z2 = random_design(inst, rng)
        for t in inst.trips:
            if route(t, z2).is_direct_shuttle:
                assert route(t, z1).legs == route(t, z2).legs


class TestRouteBatch:
    def test_empty(self, example_instance):
        assert route_batch([], Design.minimal(example_instance)) == []

    def test_elementwise_and_order(self, example_instance):
        trips = [
            example_instance.trips[0],
            Trip(id=5, origin=3, destination=0, riders=1),
        ]
        z = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        out = route_batch(trips, z)
        assert out == [route(trips[0], z), route(trips[1], z)]
        rev = route_batch(trips[::-1], z)
        assert rev == out[::-1]
