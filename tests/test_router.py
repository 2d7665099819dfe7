import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odmts import (
    CostParams,
    Design,
    GeneratorConfig,
    Instance,
    Trip,
    TripClass,
    ValidationError,
    adoption_ub,
    generate_synthetic,
    is_direct_trip,
    route,
)
from odmts import cli, router
from odmts.dfd import balanced_designs
from odmts.router import BUS, SHUTTLE, _search, trip_arrays
from conftest import (
    bridge_table, dense_table, make_example_instance, oracle_route, random_design,
    reference_graph, tiny_instance,
)


class TestDesign:
    def test_weak_connectivity_enforced(self, example_instance):
        with pytest.raises(ValidationError, match="weak connectivity"):
            Design(example_instance, frozenset({(1, 2)}))

    @pytest.mark.parametrize("make, arcs, match", [
        (make_example_instance, {(0, 1), (1, 0)}, r"arc \([01], [01]\) outside the candidate set"),
        (make_example_instance, {(1, 1)}, r"^arc \(1, 1\) outside the candidate set$"),
        (lambda: backbone_instance(), set(), "design must contain all fixed arcs"),  # defined below
    ], ids=["non_hub_arcs", "self_arc", "backbone_missing"])
    def test_candidate_set_enforced(self, make, arcs, match):
        with pytest.raises(ValidationError, match=match):
            Design(make(), frozenset(arcs))

    @pytest.mark.parametrize("arcs", [{(1.0, 2.0), (2.0, 1.0)}, {(True, 2), (2, True)},
                                      {(0, 7, 0)}, {(0,)}, {5}],
                             ids=["float", "bool", "triple", "single", "int"])
    def test_hub_ids_must_be_integers(self, example_instance, arcs):
        # 1.0 and True equal hub 1 as set members, so the candidate check
        # alone would let them through
        with pytest.raises(ValidationError, match=r"^arc .* is not a pair of integer hub ids$"):
            Design(example_instance, frozenset(arcs))

    def test_integral_hub_ids_become_int(self, example_instance):
        # numpy ids fingerprint, hash and serialize as the ints they equal
        arcs = [(np.int64(1), np.int64(2)), (np.int32(2), 1)]
        z = Design(example_instance, frozenset(arcs))
        plain = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        assert {type(h) for a in z.open_arcs for h in a} == {int}
        assert z == plain and hash(z) == hash(plain) and z.fingerprint() == "1>2;2>1"
        doc = cli._design_doc(z, "dfd", [0], 1.0)
        assert json.loads(json.dumps(doc))["open_arcs"] == [[1, 2], [2, 1]]

    def test_minimal_and_comparison(self, example_instance):
        z0 = Design.minimal(example_instance)
        z1 = Design(example_instance, frozenset({(1, 2), (2, 1)}))
        assert z0.fingerprint() == "-"
        assert z1.fingerprint() == "1>2;2>1"

    def test_equal_designs_hash_alike(self, example_instance):
        # equal arc sets on one instance are one design, however built;
        # the same arcs on another instance are not
        arcs = frozenset({(1, 2), (2, 1)})
        z1 = Design(example_instance, arcs)
        z2 = Design(example_instance, frozenset({(2, 1)}) | {(1, 2)})
        other = Design(make_example_instance(), arcs)
        assert z1 is not z2 and hash(z1) == hash(z2)
        assert {z1, z2, other} == {z1, other} and len({z1, other}) == 2

    def test_replace_builds_its_own_tables(self, example_instance):
        z0 = Design.minimal(example_instance)
        trip_arrays(z0)  # builds z0's hub-path table and arrays
        arcs = frozenset({(1, 2), (2, 1)})
        z1 = dataclasses.replace(z0, open_arcs=arcs)
        fresh = Design(example_instance, arcs)
        assert router._hub_paths(z1).cost.tolist() == router._hub_paths(fresh).cost.tolist()
        assert [a.tolist() for a in trip_arrays(z1)] == [a.tolist() for a in trip_arrays(fresh)]


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


@pytest.fixture
def searches(monkeypatch):
    """The (origin, destination) of every per-trip search ``route`` runs."""
    seen = []

    def counted(inst, open_arcs, o, d):
        seen.append((o, d))
        return _search(inst, open_arcs, o, d)

    monkeypatch.setattr(router, "_search", counted)
    return seen


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
    def test_non_metric_matches_enumeration(self, seed, shuttles, searches):
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
        assert len(searches) == len(inst.trips)

    def test_full_graph_engine_agrees(self, monkeypatch):
        inst = tiny_instance(3)
        rng = np.random.default_rng(3)
        z = random_design(inst, rng)
        expected = [route(t, z) for t in inst.trips]
        z2 = Design(inst, z.open_arcs)  # fresh table and arrays
        # cached_property keeps its value in the instance's __dict__
        monkeypatch.setitem(inst.__dict__, "metric_consistent", False)
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


# -- the hub-path table against the per-trip search ---------------------


def searched(trip, design):
    """The per-trip search's route, bypassing the table (and the
    ``searches`` count), as (legs, g, f, money, shuttle_km)."""
    r = _search(design.instance, design.open_arcs, trip.origin, trip.destination)
    return r.legs, r.g, r.f, r.money, r.shuttle_km


def rebuilt(base, trips=None, **params):
    """``base`` with other trips and cost parameters."""
    return Instance(
        stops=base.stops, hubs=base.hubs, time=base.time, dist=base.dist,
        trips=base.trips if trips is None else tuple(trips),
        params=dataclasses.replace(base.params, **params),
    )


def with_hub_trips(base, **params):
    """``base`` plus trips from a hub, to a hub and between two hubs."""
    hubs = base.hubs
    other = [s for s in base.stops if s not in hubs]
    extra = [(hubs[0], other[0]), (other[1], hubs[1]), (hubs[1], hubs[2]), (hubs[2], hubs[0])]
    start = max(t.id for t in base.trips) + 1
    trips = list(base.trips) + [
        Trip(id=start + k, origin=o, destination=d, riders=1) for k, (o, d) in enumerate(extra)
    ]
    return rebuilt(base, trips, **params)


def backbone_instance():
    base = tiny_instance(4, n_stops=9, n_hubs=4)
    h = base.hubs
    return with_hub_trips(
        base, fixed_arcs=((h[0], h[1]), (h[1], h[0])), fixed_arc_costed=False,
    )


def city_instance():
    config = GeneratorConfig(
        stops=200, hubs=12,
        classes=(TripClass(30, None), TripClass(50, 2.0), TripClass(20, 1.5)),
    )
    return generate_synthetic(config, seed=11)


TABLE_CASES = {
    "hub_trips": lambda: with_hub_trips(tiny_instance(1, n_stops=9, n_hubs=3)),
    "hub_trips-hub_shuttles": lambda: with_hub_trips(
        tiny_instance(1, n_stops=9, n_hubs=3), shuttle_between_hubs=True,
    ),
    "hub_trips_4hubs": lambda: with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4)),
    "hub_trips_4hubs-hub_shuttles": lambda: with_hub_trips(
        tiny_instance(2, n_stops=8, n_hubs=4), shuttle_between_hubs=True,
    ),
    "backbone_uncosted": backbone_instance,
    "city_200_stops_12_hubs": city_instance,
}


def grid_instance(points, hubs, trips, **params):
    """Stops at integer points with Manhattan distances (a metric), one
    km per minute, theta 0.5 and no bus wait unless overridden."""
    pts = np.array(points, dtype=float)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return Instance(
        stops=tuple(range(len(points))), hubs=hubs, time=dist.copy(), dist=dist,
        trips=tuple(Trip(id=k, origin=o, destination=d, riders=1) for k, (o, d) in enumerate(trips)),
        params=CostParams(**{"theta": 0.5, "omega": 1.0, "wait": 0.0, **params}),
    )


def non_metric(base, shuttles=False):
    """``base`` with one symmetric random factor on both matrices, which
    breaks the triangle inequality."""
    rng = np.random.default_rng(len(base.stops))
    factor = rng.uniform(0.5, 2.0, size=base.time.shape)
    factor = (factor + factor.T) / 2.0
    inst = Instance(
        stops=base.stops, hubs=base.hubs, time=base.time * factor, dist=base.dist * factor,
        trips=base.trips, params=dataclasses.replace(base.params, shuttle_between_hubs=shuttles),
    )
    assert not inst.metric_consistent
    return inst


DESK = dict(stops=100, hubs=8, buses_per_leg=4.0, candidate=4)

# Instance lists whose search graphs and flow blocks are checked against
# the per-pair reference: the benchmark's three instances, the tiny
# suite, trips from and to hubs, hub-to-hub shuttles and non-metric ones.
EDGE_CASES = {
    "trip-gagr": lambda: [generate_synthetic(GeneratorConfig(
        classes=(TripClass(30, None), TripClass(50, 2.0), TripClass(20, 1.5)), **DESK), 12)],
    "arc-s2-desk": lambda: [generate_synthetic(GeneratorConfig(
        classes=(TripClass(60, None), TripClass(100, 2.0), TripClass(40, 1.5)), **DESK), 11)],
    "eval-sweep": lambda: [generate_synthetic(GeneratorConfig(
        stops=200, hubs=12, classes=(TripClass(90, None), TripClass(150, 2.0), TripClass(60, 1.5)),
        buses_per_leg=4.0, candidate="all"), 11)],
    "tiny_suite": lambda: [tiny_instance(seed) for seed in range(50)],
    **{case: (lambda build=build: [build()]) for case, build in TABLE_CASES.items()},
    "non_metric": lambda: [non_metric(tiny_instance(seed, n_stops=10, n_hubs=4), shuttles)
                           for seed in range(4) for shuttles in (False, True)],
}


def edge_graph(inst, open_arcs, o, d):
    """The trip's ``router._edges`` arrays, a batch of one, in
    ``reference_graph``'s form; each bus edge's label names its own arc."""
    arcs = sorted(open_arcs)
    nodes, trip, tail, head, g, f, arc, relay = router._edges(
        inst, router._arc_labels(inst, arcs), [(o, d)])
    nodes = nodes[0]
    assert not trip.any()
    adj = {u: [] for u in nodes}
    for u, v, dg, df, a, x in zip(tail.tolist(), head.tolist(), g.tolist(), f.tolist(),
                                  arc.tolist(), relay.tolist()):
        u, v = nodes[u], nodes[v]
        if a >= 0:
            assert arcs[a] == (u, v)
            adj[u].append((v, dg, df, 1, (v,), (BUS,)))
        elif x >= 0:
            adj[u].append((v, dg, df, 2, (inst.stops[x], v), (SHUTTLE, SHUTTLE)))
        else:
            adj[u].append((v, dg, df, 1, (v,), (SHUTTLE,)))
    return adj


class TestSearchGraph:
    @pytest.mark.parametrize("case", ["tiny_suite", *TABLE_CASES, "non_metric"])
    def test_matches_per_pair_reference(self, case):
        # same nodes, edges, order and values as the per-pair loop, under
        # the backbone and random designs
        for inst in EDGE_CASES[case]()[:12]:
            rng = np.random.default_rng(len(inst.trips))
            designs = [Design.minimal(inst)] + [random_design(inst, rng) for _ in range(3)]
            for z in designs:
                for t in inst.trips:
                    o, d = t.origin, t.destination
                    want = reference_graph(inst, z.open_arcs, o, d)
                    assert list(edge_graph(inst, z.open_arcs, o, d).items()) == list(want.items())

    def test_no_relay_left(self):
        # a single non-hub stop is the only relay of every hub pair, so a
        # trip that starts or ends there gets no bridge; with every stop a
        # hub there is no relay at all
        one = grid_instance([(0, 0), (5, 0), (0, 5), (3, 3)], hubs=(0, 1, 2),
                            trips=[(3, 0), (0, 3)])
        assert all(len(r) == 1 for r in bridge_table(one).values())
        none = grid_instance([(0, 0), (5, 0), (0, 5)], hubs=(0, 1, 2), trips=[(1, 2)])
        for inst in (one, none):
            for t in inst.trips:
                o, d = t.origin, t.destination
                got = edge_graph(inst, frozenset(), o, d)
                assert list(got.items()) == list(reference_graph(inst, frozenset(), o, d).items())
                assert all(len(e[4]) == 1 for out in got.values() for e in out)


class TestHubPathTable:
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_matches_per_trip_search(self, case, searches):
        inst = TABLE_CASES[case]()
        assert inst.metric_consistent
        rng = np.random.default_rng(5)
        routed = 0
        for _ in range(4):
            z = random_design(inst, rng)
            for t in inst.trips:
                r = route(t, z)
                assert (r.legs, r.g, r.f, r.money, r.shuttle_km) == searched(t, z)
                routed += 1
        # the table, not the per-trip search, served nearly every route
        assert len(searches) <= routed // 50

    def test_trip_outside_the_instance(self, searches):
        inst = with_hub_trips(tiny_instance(3, n_stops=9, n_hubs=3))
        z = random_design(inst, np.random.default_rng(3))
        hub, other = inst.hubs[0], [s for s in inst.stops if s not in inst.hubs][0]
        ends = [(other, hub), (hub, other), (inst.hubs[1], hub)]
        # id 0 belongs to an instance trip with other endpoints
        for tid, (o, d) in zip((999, 999, 0), ends):
            t = Trip(id=tid, origin=o, destination=d, riders=1)
            r = route(t, z)
            assert (r.legs, r.g, r.f, r.money, r.shuttle_km) == searched(t, z)
        # an ad hoc trip must join two distinct stops of the instance, for
        # every reader of a trip's stops
        for t, match in ((Trip(id=999, origin=1000, destination=2, riders=1), "unknown stop 1000"),
                         (Trip(id=998, origin=3, destination=3, riders=1), "origin equals destination")):
            for call in (route, lambda t, z: is_direct_trip(t, inst),
                         lambda t, z: adoption_ub(t, r, inst)):
                with pytest.raises(ValidationError, match=rf"^trip {t.id}: {match}$"):
                    call(t, z)
        # the hub-path table reads instance trips only; ad hoc ones are searched
        assert searches == ends

    def test_tie_between_access_hubs_falls_back(self, searches):
        # two mirror-image corridors: o -> 1 -> 3 -> d and o -> 2 -> 4 -> d
        # tie exactly in g and f; the smaller stop sequence wins
        inst = grid_instance(
            [(0, 0), (1, 1), (1, -1), (9, 1), (9, -1), (10, 0)],
            hubs=(1, 2, 3, 4), trips=[(0, 5)],
        )
        z = Design(inst, frozenset({(1, 3), (3, 1), (2, 4), (4, 2)}))
        trip = inst.trips[0]
        r = route(trip, z)
        g, f, legs = oracle_route(trip, z)
        assert (r.g, r.f, r.legs) == (g, f, legs)
        assert r.legs == ((SHUTTLE, 0, 1), (BUS, 1, 3), (SHUTTLE, 3, 5))
        assert searches == [(0, 5)]

    def test_tie_between_hub_paths_falls_back(self, searches):
        # collinear hubs 1, 2, 3 with no bus wait: the bus 1 -> 3 and the
        # buses 1 -> 2 -> 3 tie exactly in g and f; fewer legs wins
        inst = grid_instance(
            [(0, 0), (1, 0), (5, 0), (9, 0), (10, 0)], hubs=(1, 2, 3), trips=[(0, 4)],
        )
        z = Design(inst, frozenset({(1, 3), (3, 1), (1, 2), (2, 3), (3, 2), (2, 1)}))
        trip = inst.trips[0]
        r = route(trip, z)
        g, f, legs = oracle_route(trip, z)
        assert (r.g, r.f, r.legs) == (g, f, legs)
        assert r.legs == ((SHUTTLE, 0, 1), (BUS, 1, 3), (SHUTTLE, 3, 4))
        assert searches == [(0, 4)]

    def test_endpoint_is_first_bridge_relay(self, searches):
        # stop 3 is the best relay between hubs 1 and 2 in both directions,
        # so the table's bridge for that pair relays through an endpoint of
        # both trips, whose routes take the bus over the same pair
        inst = grid_instance(
            [(0, 0), (1, 0), (10, 0), (9, 0)], hubs=(1, 2), trips=[(0, 3), (3, 0)],
            theta=0.01, wait=5.0,
        )
        assert bridge_table(inst)[(1, 2)][0] == 3
        assert bridge_table(inst)[(2, 1)][0] == 3
        z = Design(inst, frozenset({(1, 2), (2, 1)}))
        for trip in inst.trips:
            r = route(trip, z)
            g, f, legs = oracle_route(trip, z)
            assert r.g == pytest.approx(g, abs=1e-12)
            assert r.f == pytest.approx(f, abs=1e-12)
            assert r.legs == legs
            assert (r.legs, r.g, r.f, r.money, r.shuttle_km) == searched(trip, z)
        assert route(inst.trips[0], z).legs == ((SHUTTLE, 0, 1), (BUS, 1, 2), (SHUTTLE, 2, 3))
        assert route(inst.trips[1], z).legs == ((SHUTTLE, 3, 2), (BUS, 2, 1), (SHUTTLE, 1, 0))
        assert searches == []


# -- per-trip arrays against route ----------------------------------------


def assert_arrays_match_routes(inst, design):
    """Every trip's g, f, money and shuttle_km in ``trip_arrays`` equal the
    fields of its route under a fresh copy of the design, by == and by
    repr. Returns the routes."""
    arrays = trip_arrays(design)
    fresh = Design(inst, design.open_arcs)
    routes = []
    for i, t in enumerate(inst.trips):
        r = route(t, fresh)
        got = tuple(float(a[i]) for a in arrays)
        want = (r.g, r.f, r.money, r.shuttle_km)
        assert got == want, t.id
        assert [repr(x) for x in got] == [repr(x) for x in want], t.id
        routes.append(r)
    return routes


def hub_hop(r, inst, pattern):
    """True when the route has consecutive legs whose modes and stop kinds
    (hub or not) match ``pattern``, a tuple of (mode, tail_is_hub,
    head_is_hub)."""
    kinds = [(m, u in inst.hubs, v in inst.hubs) for m, u, v in r.legs]
    k = len(pattern)
    return any(tuple(kinds[i:i + k]) == pattern for i in range(len(kinds) - k + 1))


class TestTripArrays:
    def test_every_balanced_design_of_the_tiny_suite(self):
        from test_acceptance import tiny_suite
        designs = 0
        for inst in tiny_suite():
            for z in balanced_designs(inst):
                assert_arrays_match_routes(inst, z)
                designs += 1
        assert designs > 1000

    def test_random_designs_at_60_stops(self, routed):
        config = GeneratorConfig(
            stops=60, hubs=6,
            classes=(TripClass(20, None), TripClass(30, 2.0), TripClass(10, 1.5)),
        )
        inst = with_hub_trips(generate_synthetic(config, seed=3))
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert_arrays_match_routes(inst, random_design(inst, rng))
        # the table decided at least 99% of the 50 * 64 trips
        assert len(routed) <= 50 * len(inst.trips) // 100

    def test_hub_to_hub_shuttles(self, routed):
        inst = with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4), shuttle_between_hubs=True)
        rng = np.random.default_rng(1)
        shuttle_hops = 0
        for _ in range(20):
            routes = assert_arrays_match_routes(inst, random_design(inst, rng))
            shuttle_hops += sum(hub_hop(r, inst, ((SHUTTLE, True, True),)) for r in routes)
        assert shuttle_hops > 0
        assert routed == []

    def test_hub_pairs_joined_by_bridges(self, routed):
        # two bus corridors 1 - 2 and 3 - 4, and between hubs 2 and 3 only
        # the relay through stop 5: trips along the line ride bus, bridge, bus
        inst = grid_instance(
            [(0, 0), (1, 0), (10, 0), (12, 0), (21, 0), (11, 0), (22, 0)],
            hubs=(1, 2, 3, 4), trips=[(0, 6), (6, 0), (5, 6), (1, 4), (4, 0)],
        )
        z = Design(inst, frozenset({(1, 2), (2, 1), (3, 4), (4, 3)}))
        routes = assert_arrays_match_routes(inst, z)
        assert routes[0].legs == (
            (SHUTTLE, 0, 1), (BUS, 1, 2), (SHUTTLE, 2, 5), (SHUTTLE, 5, 3),
            (BUS, 3, 4), (SHUTTLE, 4, 6),
        )
        bridge = ((SHUTTLE, True, False), (SHUTTLE, False, True))
        assert sum(hub_hop(r, inst, bridge) for r in routes) == 4
        assert routed == []

    def test_exact_tie_goes_through_route(self, routed):
        inst = grid_instance(
            [(0, 0), (1, 1), (1, -1), (9, 1), (9, -1), (10, 0)],
            hubs=(1, 2, 3, 4), trips=[(0, 5), (0, 1)],
        )
        z = Design(inst, frozenset({(1, 3), (3, 1), (2, 4), (4, 2)}))
        assert_arrays_match_routes(inst, z)
        assert routed == [0]
        # a clear winner whose hub path ties: the bus 1 -> 3 and the buses
        # 1 -> 2 -> 3
        inst = grid_instance(
            [(0, 0), (1, 0), (5, 0), (9, 0), (10, 0)], hubs=(1, 2, 3), trips=[(0, 4), (0, 2)],
        )
        z = Design(inst, frozenset({(1, 3), (3, 1), (1, 2), (2, 3), (3, 2), (2, 1)}))
        assert_arrays_match_routes(inst, z)
        assert routed == [0, 0]

    def test_non_metric_instance_goes_through_route(self, routed):
        base = tiny_instance(2, n_stops=7, n_hubs=3)
        rng = np.random.default_rng(2)
        factor = rng.uniform(0.5, 2.0, size=base.time.shape)
        factor = (factor + factor.T) / 2.0
        inst = Instance(
            stops=base.stops, hubs=base.hubs, time=base.time * factor,
            dist=base.dist * factor, trips=base.trips, params=base.params,
        )
        assert not inst.metric_consistent
        assert_arrays_match_routes(inst, random_design(inst, rng))
        assert routed == [t.id for t in inst.trips]

    def test_built_once_per_design(self):
        inst = TABLE_CASES["hub_trips"]()
        z = random_design(inst, np.random.default_rng(4))
        first = trip_arrays(z)
        assert trip_arrays(z) is first
        assert not first[0].flags.writeable


# -- properties on random small metric instances ----------------------------


@st.composite
def small_cases(draw):
    """A random small Euclidean instance with extra trips that may start
    or end at hubs, and a random design seed."""
    seed = draw(st.integers(0, 2**16))
    n_stops = draw(st.integers(3, 6))
    n_hubs = draw(st.integers(2, n_stops))
    base = tiny_instance(seed, n_stops=n_stops, n_hubs=n_hubs, core=1, mid=1, high=1)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(base.stops), st.sampled_from(base.stops))
        .filter(lambda p: p[0] != p[1]),
        max_size=4,
    ))
    start = max(t.id for t in base.trips) + 1
    trips = list(base.trips) + [
        Trip(id=start + k, origin=o, destination=d, riders=1) for k, (o, d) in enumerate(pairs)
    ]
    inst = rebuilt(base, trips, shuttle_between_hubs=draw(st.booleans()))
    return inst, draw(st.integers(0, 2**16))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_cases())
    def test_router_equals_enumeration(self, case):
        inst, seed = case
        assert inst.metric_consistent
        assert_matches_oracle(inst, random_design(inst, np.random.default_rng(seed)))

    @settings(max_examples=60, deadline=None)
    @given(small_cases())
    def test_more_open_arcs_never_raise_g(self, case):
        inst, seed = case
        rng = np.random.default_rng(seed)
        small = random_design(inst, rng)
        large = random_design(inst, rng, base=small.open_arcs)
        for t in inst.trips:
            assert route(t, large).g <= route(t, small).g


# -- the table's pruned candidates against every hub pair ------------------


def assert_table_matches_dense(design):
    """``_table`` picks and decides as ``dense_table`` does over every hub
    pair, trip by trip, and its sums are the same bits."""
    best, decided, sums = router._table(design)
    want_best, want_decided, want_sums = dense_table(design)
    assert best.tolist() == want_best.tolist()
    assert decided.tolist() == want_decided.tolist()
    assert sums.tobytes() == want_sums.tobytes()


def designs_of(inst, seed, k=4):
    rng = np.random.default_rng(seed)
    return [Design.minimal(inst)] + [random_design(inst, rng) for _ in range(k)]


# Grid instances whose candidates tie exactly, with the designs that tie them.
TIE_CASES = {
    "access_hubs": lambda: grid_instance(
        [(0, 0), (1, 1), (1, -1), (9, 1), (9, -1), (10, 0)],
        hubs=(1, 2, 3, 4), trips=[(0, 5), (0, 1)],
    ),
    "hub_paths": lambda: grid_instance(
        [(0, 0), (1, 0), (5, 0), (9, 0), (10, 0)], hubs=(1, 2, 3), trips=[(0, 4), (0, 2)],
    ),
    "endpoint_relay": lambda: grid_instance(
        [(0, 0), (1, 0), (10, 0), (9, 0)], hubs=(1, 2), trips=[(0, 3), (3, 0)],
        theta=0.01, wait=5.0,
    ),
}
TIE_ARCS = {
    "access_hubs": {(1, 3), (3, 1), (2, 4), (4, 2)},
    "hub_paths": {(1, 3), (3, 1), (1, 2), (2, 3), (3, 2), (2, 1)},
    "endpoint_relay": {(1, 2), (2, 1)},
}


@st.composite
def grid_cases(draw):
    """A random instance on distinct integer points (Manhattan distances,
    so exact ties abound) with trips that may start or end at hubs,
    hub-to-hub shuttles or not, maybe a fixed backbone, and a random
    design seed."""
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=3, max_size=8, unique=True))
    n = len(points)
    hubs = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))))
    trips = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    params = dict(shuttle_between_hubs=draw(st.booleans()), wait=draw(st.sampled_from([0.0, 2.0])))
    if draw(st.booleans()):
        params.update(fixed_arcs=((hubs[0], hubs[1]), (hubs[1], hubs[0])),
                      fixed_arc_costed=draw(st.booleans()))
    return grid_instance(points, hubs, trips, **params), draw(st.integers(0, 2**16))


class TestPrunedCandidates:
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_table_cases(self, case):
        inst = TABLE_CASES[case]()
        for z in designs_of(inst, 6):
            assert_table_matches_dense(z)

    @pytest.mark.parametrize("case", list(TIE_CASES))
    def test_exact_ties(self, case):
        inst = TIE_CASES[case]()
        assert_table_matches_dense(Design(inst, frozenset(TIE_ARCS[case])))
        assert_table_matches_dense(Design.minimal(inst))

    def test_most_pairs_are_left_out(self):
        # at 200 stops and 12 hubs few hub pairs can beat the direct shuttle
        inst = city_instance()
        cand = router._trip_costs(inst)[2]
        pairs = int((cand.pick < len(inst.hubs) ** 2).sum())
        assert pairs < 0.2 * len(inst.trips) * len(inst.hubs) ** 2
        # every trip keeps a candidate
        assert np.all(np.diff(np.append(cand.start, len(cand.pick))) >= 1)

    @settings(max_examples=100, deadline=None)
    @given(grid_cases())
    def test_grid_instances(self, case):
        inst, seed = case
        for z in designs_of(inst, seed, k=2):
            assert_table_matches_dense(z)

    @settings(max_examples=60, deadline=None)
    @given(small_cases(), st.booleans())
    def test_euclidean_instances(self, case, backbone):
        inst, seed = case
        if backbone:
            h = inst.hubs
            inst = rebuilt(inst, fixed_arcs=((h[0], h[1]), (h[1], h[0])), fixed_arc_costed=False)
        for z in designs_of(inst, seed, k=2):
            assert_table_matches_dense(z)
