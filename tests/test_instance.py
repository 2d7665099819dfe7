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
    InstanceParseError,
    Trip,
    TripClass,
    ValidationError,
    derive_weights,
    eval_design,
    generate_synthetic,
    load_instance,
    save_instance,
)
from odmts.instance import _finite, _integral, _satisfies_triangle
from odmts.router import trip_arrays, weights_of
from conftest import make_example_instance, random_design, tiny_config, tiny_instance


DELETE = object()  # marks a key the malformed-document cases remove


def small_doc():
    return {
        "schema": 1,
        "stops": [0, 1, 2, 3],
        "hubs": [1, 2],
        "time": [[0, 5, 9, 12], [5, 0, 6, 9], [9, 6, 0, 4], [12, 9, 4, 0]],
        "dist": [[0, 2, 4, 6], [2, 0, 3, 5], [4, 3, 0, 2], [6, 5, 2, 0]],
        "trips": [
            {"id": 0, "origin": 0, "destination": 3, "riders": 2, "kind": "core"},
            {"id": 1, "origin": 3, "destination": 0, "riders": 1, "kind": "latent",
             "alpha": 1.5, "t_cur": 12.0},
        ],
        "params": {"theta": 0.5, "omega": 1.0, "bus_rate": 1.0,
                   "buses_per_leg": 4.0, "wait": 5.0, "ticket": 2.5},
    }


def matrix_with(name, i, j, value):
    """``small_doc``'s ``name`` matrix with entry (i, j) set to ``value``."""
    m = small_doc()[name]
    m[i][j] = value
    return m


class TestLoadInstance:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(small_doc()))
        inst = load_instance(path)
        assert len(inst.stops) == 4
        assert len(inst.hubs) == 2
        save_instance(inst, tmp_path / "again.json")
        reloaded = load_instance(tmp_path / "again.json")
        assert reloaded.to_dict() == inst.to_dict()

    def test_unknown_stop_rejected(self, tmp_path):
        doc = small_doc()
        doc["trips"][0]["origin"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unknown stop"):
            load_instance(path)

    def test_theta_out_of_range(self, tmp_path):
        doc = small_doc()
        doc["params"]["theta"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="theta out of range"):
            load_instance(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(InstanceParseError, match=f"^malformed instance file {path}: "):
            load_instance(path)

    def test_undecodable_file(self, tmp_path):
        # a UTF-16 byte order mark is not UTF-8 text
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InstanceParseError, match=f"^malformed instance file {path}: .*utf-8"):
            load_instance(path)

    def test_schema_version_required(self, tmp_path):
        doc = small_doc()
        doc["schema"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceParseError, match="schema"):
            load_instance(path)

    def test_core_trip_with_alpha_rejected(self):
        doc = small_doc()
        doc["trips"][0]["alpha"] = 2.0
        with pytest.raises(ValidationError, match="core"):
            Instance.from_dict(doc)

    def test_fixed_arcs_must_balance(self):
        doc = small_doc()
        doc["params"]["fixed_arcs"] = [[1, 2]]
        with pytest.raises(ValidationError, match="weakly connected"):
            Instance.from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("trips", 1, "alpha"), float("nan"), "alpha"),
            (("trips", 1, "alpha"), float("inf"), "alpha"),
            (("trips", 1, "alpha"), "1.5", "alpha"),
            (("trips", 1, "t_cur"), float("nan"), "t_cur"),
            (("trips", 1, "t_cur"), float("inf"), "t_cur"),
            (("params", "wait"), float("nan"), "wait"),
            (("params", "wait"), float("inf"), "wait"),
            (("trips", 0, "riders"), 2.7, "riders"),
            (("trips", 0, "riders"), True, "riders"),
            (("params", "candidate"), True, "candidate"),
            (("trips", 0, "id"), DELETE, "'id'"),
            (("params", "theta"), DELETE, "'theta'"),
            (("trips",), 5, "trips"),
            (("trips",), {"0": {"id": 0}}, "trips"),
            # a bad value raises ValidationError, as it does when the
            # instance is built directly; the message names the key
            (("stops",), 5, "bad 'stops'"),
            (("hubs",), [None], "bad 'hubs'"),
            (("params", "fixed_arcs"), 5, "bad 'fixed_arcs'"),
            (("time",), "x", "bad 'time'"),
            (("params", "shuttle_between_hubs"), "no", "bad 'shuttle_between_hubs'"),
            (("params", "fixed_arc_costed"), "false", "bad 'fixed_arc_costed'"),
            (("trips", 0, "id"), 2.7, "bad 'id'"),
            (("trips", 0, "origin"), "3", "bad 'origin'"),
            (("params", "theta"), True, "bad 'theta'"),
            (("params", "omega"), "1.5", "bad 'omega'"),
            (("params", "ticket"), float("nan"), "bad 'ticket'"),
            ((), [small_doc()], "document must be a mapping"),
            (("hubs",), DELETE, "missing section 'hubs'"),
            # each duplicate is named, balanced or not
            (("hubs",), [1, 2, 1], "^duplicate hub ids$"),
            (("params", "fixed_arcs"), [[1, 2], [2, 1], [1, 2], [2, 1]],
             r"^duplicate fixed arc \(1, 2\)$"),
            (("params", "fixed_arcs"), [[1, 2], [2, 1], [1, 2]], r"^duplicate fixed arc \(1, 2\)$"),
            # a float array reads "0.5" and true as numbers and null as NaN;
            # the entry types are checked
            (("time",), matrix_with("time", 0, 1, "0.5"), "^instance: bad 'time': .* got '0.5'$"),
            (("time",), matrix_with("time", 1, 0, True), "^instance: bad 'time': .* got True$"),
            (("dist",), matrix_with("dist", 2, 3, "3"), "^instance: bad 'dist': .* got '3'$"),
            (("params", "wait"), [[0, "7.5"], [True, 0]], "^params: bad 'wait': .* got '7.5'$"),
            (("params", "wait"), [[0, 7.5], [True, 0]], "^params: bad 'wait': .* got True$"),
            (("time",), matrix_with("time", 3, 2, None), "^instance: bad 'time': .* got None$"),
            # so is an integer entry too large for a float
            (("time",), matrix_with("time", 0, 1, 10**400), "^instance: bad 'time': int too large"),
            # and a rate, a scalar wait, alpha and t_cur too large for a float
            (("params", "omega"), 10**400, "^params: bad 'omega': expected a finite number"),
            (("params", "wait"), 10**400, "^wait must be finite and non-negative$"),
            (("trips", 1, "alpha"), 10**400, "latent trip needs a finite alpha"),
            (("trips", 1, "t_cur"), 10**400, "latent trip needs a finite t_cur"),
            # a trip id or riders outside the int64 arrays that routing builds
            (("trips", 0, "id"), 2**63, "^trip entry 0: bad 'id': expected an integer within int64"),
            (("trips", 1, "id"), -2**63 - 1, "^trip entry 1: bad 'id': expected an integer within"),
            (("trips", 0, "riders"), 10**400,
             r"^trip entry 0: bad 'riders': expected an integer within \[1, 2\*\*53\], got 1000"),
            (("trips", 1, "riders"), 2**63, "^trip entry 1: bad 'riders': expected an integer within"),
            # and riders beyond 2**53, the floats of scoring and the flow LP
            (("trips", 0, "riders"), 2**53 + 1,
             r"^trip entry 0: bad 'riders': expected an integer within \[1, 2\*\*53\], got 9007"),
        ],
        ids=["alpha_nan", "alpha_inf", "alpha_str", "t_cur_nan", "t_cur_inf",
             "wait_nan", "wait_inf", "riders_fraction", "riders_bool",
             "candidate_bool", "trip_without_id", "params_without_theta",
             "trips_int", "trips_mapping", "stops_int", "hub_null",
             "fixed_arcs_int", "time_str", "shuttle_flag_str", "costed_flag_str",
             "id_fraction", "origin_str", "theta_bool", "omega_str", "ticket_nan",
             "document_list", "hubs_missing", "hub_twice", "fixed_arcs_twice",
             "fixed_arcs_twice_unbalanced", "time_entry_str", "time_entry_bool",
             "dist_entry_str", "wait_entries_str_and_bool", "wait_entry_bool",
             "time_entry_null", "time_entry_huge", "omega_huge", "wait_huge", "alpha_huge",
             "t_cur_huge", "id_beyond_int64", "id_below_int64", "riders_huge",
             "riders_beyond_int64", "riders_beyond_2_53"],
    )
    def test_malformed_document_rejected(self, tmp_path, path, value, match):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(changed_doc(path, value)))
        with pytest.raises((InstanceParseError, ValidationError), match=match):
            load_instance(f)

    @pytest.mark.parametrize("path, value, error", [
        (("trips", 0, "id"), DELETE, InstanceParseError),
        (("params",), [], InstanceParseError),
        (("trips",), {}, InstanceParseError),
        (("trips", 0), 5, InstanceParseError),
        (("hubs",), [None], ValidationError),
        (("params", "theta"), True, ValidationError),
        (("params", "wait"), [[0, "x"], [1, 0]], ValidationError),
        (("trips", 0, "origin"), "3", ValidationError),
    ], ids=["missing_key", "params_list", "trips_mapping", "trip_entry_int", "hub_null",
            "theta_bool", "wait_str", "origin_str"])
    def test_parse_error_only_for_document_structure(self, path, value, error):
        with pytest.raises(error):
            Instance.from_dict(changed_doc(path, value))

    def test_wait_matrix_and_fixed_arcs_round_trip(self, tmp_path):
        doc = small_doc()
        doc["params"]["wait"] = [[0, 5], [5, 0]]
        doc["params"]["fixed_arcs"] = [[1, 2], [2, 1]]
        inst = Instance.from_dict(doc)
        assert isinstance(inst.params.wait, np.ndarray) and inst.params.wait.dtype == float
        assert inst.params.fixed_arcs == ((1, 2), (2, 1))
        text = save_instance(inst, tmp_path / "a.json")
        wait = json.loads(text)["params"]["wait"]
        assert wait == [[0.0, 5.0], [5.0, 0.0]] and all(type(x) is float for x in wait[0] + wait[1])
        assert save_instance(load_instance(tmp_path / "a.json"), tmp_path / "b.json") == text


def changed_doc(path, value):
    """``small_doc`` with the value at ``path`` set to ``value``, or
    removed when ``value`` is ``DELETE``; an empty path replaces the
    whole document."""
    if not path:
        return value
    doc = small_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def small_parts():
    """``small_doc`` as the arguments of a direct ``Instance`` call."""
    doc = small_doc()
    return dict(stops=tuple(doc["stops"]), hubs=tuple(doc["hubs"]), time=doc["time"],
                dist=doc["dist"], trips=[Trip(**t) for t in doc["trips"]],
                params=CostParams(**doc["params"]))


class TestDirectConstruction:
    def test_same_as_document(self):
        assert Instance(**small_parts()).to_json() == Instance.from_dict(small_doc()).to_json()

    def test_values_normalized(self):
        parts = small_parts()
        parts["params"] = dataclasses.replace(parts["params"], wait=[[0, 5], [5, 0]],
                                              fixed_arcs=[[1, 2], [2, 1]], omega=1)
        p = Instance(**parts).params
        assert p.wait.dtype == float and p.wait.tolist() == [[0.0, 5.0], [5.0, 0.0]]
        assert p.fixed_arcs == ((1, 2), (2, 1))
        assert type(p.omega) is float

    @pytest.mark.parametrize("part, change, match", [
        ("params", dict(omega=float("nan")), "params: bad 'omega': expected a finite number, got nan"),
        ("params", dict(ticket=10**400), "params: bad 'ticket': expected a finite number"),
        ("params", dict(wait=-10**400), "wait must be finite and non-negative"),
        ("params", dict(bus_rate=float("inf")), "params: bad 'bus_rate'"),
        ("params", dict(theta=True), "params: bad 'theta'"),
        ("params", dict(shuttle_between_hubs="no"), "params: bad 'shuttle_between_hubs'"),
        ("params", dict(fixed_arcs=((1,),)), r"^fixed arc \(1,\) is not a pair of integer hub ids$"),
        ("trip", dict(id=1.5), "trip entry 0: bad 'id'"),
        ("trip", dict(id=True), "trip entry 0: bad 'id'"),
        ("trip", dict(origin=0.0), "trip entry 0: bad 'origin'"),
        ("instance", dict(stops=(0, 1.7)), "instance: bad 'stops'"),
        ("instance", dict(hubs=(None,)), "instance: bad 'hubs'"),
        ("instance", dict(time=[[0, 1], [1, 0]]), r"time must be 4x4, got \(2, 2\)"),
        ("instance", dict(time=matrix_with("time", 0, 1, float("nan"))), "time has non-finite"),
        ("instance", dict(dist=matrix_with("dist", 0, 1, -1.0)), "dist has negative entries"),
        ("instance", dict(dist=matrix_with("dist", 2, 2, 1.0)), "dist diagonal must be zero"),
        ("instance", dict(time=np.array(small_doc()["time"], dtype=bool)),
         r"^instance: bad 'time': expected a matrix of numbers, got dtype\('bool'\)$"),
        ("instance", dict(dist=np.array(small_doc()["dist"], dtype=object)), "bad 'dist'"),
        ("instance", dict(time=np.array(small_doc()["time"]).astype(str)), "bad 'time'"),
        ("instance", dict(stops=(0, 1, 2, 2)), "duplicate stop ids"),
        ("instance", dict(hubs=(1, 2, 1)), "duplicate hub ids"),
        ("instance", dict(hubs=(1, 9)), "hubs must be a subset of stops"),
        ("instance", dict(hubs=()), "at least one hub is required"),
        ("params", dict(bus_rate=-1.0), "monetary rates must be non-negative"),
        ("params", dict(bus_cost_mode="per_km"), "unknown bus_cost_mode 'per_km'"),
        ("params", dict(wait=[[0, 5, 5], [5, 0, 5]]), "wait must be 2x2"),
        ("params", dict(wait=[[0, -5], [5, 0]]), "wait entries must be finite and non-negative"),
        ("params", dict(fixed_arcs=((1, 2.0), (2, 1))), r"^fixed arc \(1, 2\.0\) is not a pair of"),
        ("params", dict(fixed_arcs=((1, 3), (3, 1))), r"fixed arc \(1, 3\) outside the candidate"),
        ("params", dict(fixed_arcs=((1, 2), (2, 1), (1, 2), (2, 1))),
         r"^duplicate fixed arc \(1, 2\)$"),
        ("trip", dict(id=1), "duplicate trip id 1"),
        ("trip", dict(destination=9), "trip 0: unknown stop 9"),
        ("trip", dict(destination=0), "trip 0: origin equals destination"),
        ("trip", dict(kind="walk"), "trip 0: unknown kind 'walk'"),
    ], ids=["omega_nan", "ticket_huge", "wait_huge_negative", "bus_rate_inf", "theta_bool", "shuttle_flag_str", "fixed_arc_short",
            "id_fraction", "id_bool", "origin_float", "stop_fraction", "hub_null",
            "time_shape", "time_nan", "dist_negative", "dist_diagonal", "time_bool_array",
            "dist_object_array", "time_str_array", "stop_twice",
            "hub_twice", "hub_not_a_stop", "no_hub", "bus_rate_negative", "cost_mode_unknown",
            "wait_shape", "wait_negative", "fixed_arc_fraction", "fixed_arc_not_candidate",
            "fixed_arc_twice", "trip_id_twice",
            "destination_unknown", "origin_is_destination", "kind_unknown"])
    def test_bad_value_rejected(self, part, change, match):
        parts = small_parts()
        if part == "params":
            parts["params"] = dataclasses.replace(parts["params"], **change)
        elif part == "trip":
            parts["trips"][0] = dataclasses.replace(parts["trips"][0], **change)
        else:
            parts.update(change)
        with pytest.raises(ValidationError, match=match):
            Instance(**parts)

    @pytest.mark.parametrize("part, key, value", [
        ("trip", "id", 0), ("trip", "origin", 0), ("trip", "destination", 3),
        ("trip", "riders", 2), ("params", "candidate", 1),
    ])
    def test_numpy_integer_stored_as_int(self, part, key, value):
        plain, parts = small_parts(), small_parts()
        for d, v in ((plain, value), (parts, np.int64(value))):
            if part == "params":
                d["params"] = dataclasses.replace(d["params"], **{key: v})
            else:
                d["trips"][0] = dataclasses.replace(d["trips"][0], **{key: v})
        inst = Instance(**parts)
        got = inst.params if part == "params" else inst.trips[0]
        assert type(getattr(got, key)) is int
        assert inst.to_json() == Instance(**plain).to_json()

    def test_numpy_fixed_arcs_stored_as_int_pairs(self, tmp_path):
        parts = small_parts()
        arcs = np.array([[1, 2], [2, 1]], dtype=np.int64)
        parts["params"] = dataclasses.replace(parts["params"], fixed_arcs=tuple(map(tuple, arcs)))
        inst = Instance(**parts)
        assert inst.params.fixed_arcs == ((1, 2), (2, 1))
        assert {type(h) for a in inst.params.fixed_arcs for h in a} == {int}
        save_instance(inst, tmp_path / "a.json")
        assert load_instance(tmp_path / "a.json").to_dict() == inst.to_dict()

    def test_wait_array_copied_read_only(self):
        parts = small_parts()
        wait = np.array([[0.0, 7.5], [6.0, 0.0]])
        parts["params"] = dataclasses.replace(parts["params"], wait=wait)
        inst = Instance(**parts)
        wait[0, 1] = 1000.0
        assert inst.params.wait[0, 1] == 7.5 and inst.wait_matrix[0, 1] == 7.5
        assert inst.wait_matrix is inst.params.wait and not inst.params.wait.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            inst.params.wait[0, 1] = 1000.0

    @pytest.mark.parametrize("part, key, value", [
        ("trip", "alpha", np.float32(1.5)), ("trip", "t_cur", np.float32(12.0)),
        ("params", "wait", np.float32(5.0)), ("params", "wait", np.int64(5)),
    ], ids=["alpha_float32", "t_cur_float32", "wait_float32", "wait_int64"])
    def test_numpy_scalar_stored_as_float(self, part, key, value):
        plain, parts = small_parts(), small_parts()
        for d, v in ((plain, float(value)), (parts, value)):
            if part == "params":
                d["params"] = dataclasses.replace(d["params"], **{key: v})
            else:
                d["trips"][1] = dataclasses.replace(d["trips"][1], **{key: v})
        inst = Instance(**parts)
        got = inst.params if part == "params" else inst.trips[1]
        assert type(getattr(got, key)) is float
        assert inst.to_json() == Instance(**plain).to_json()

    def test_integer_scalars_stay_integers(self):
        doc = small_doc()
        doc["params"]["wait"] = 5
        doc["trips"][1].update(alpha=2, t_cur=12)
        out = Instance.from_dict(doc).to_dict()
        assert [type(x) for x in (out["params"]["wait"], out["trips"][1]["alpha"],
                                  out["trips"][1]["t_cur"])] == [int, int, int]

    @pytest.mark.parametrize("convert", [
        lambda m: np.array(m, dtype=np.int64), lambda m: np.array(m, dtype=np.float32),
        lambda m: np.array(m, dtype=np.uint16), lambda m: [list(map(np.int64, r)) for r in m],
        lambda m: [np.array(r, dtype=float) for r in m],
    ], ids=["int64_array", "float32_array", "uint16_array", "int64_entries", "array_rows"])
    def test_numpy_numbers_accepted(self, convert):
        plain, parts = small_parts(), small_parts()
        plain["params"] = dataclasses.replace(plain["params"], wait=[[0, 5], [3, 0]])
        for key in ("time", "dist"):
            parts[key] = convert(parts[key])
        parts["params"] = dataclasses.replace(parts["params"], wait=convert([[0, 5], [3, 0]]))
        assert Instance(**parts).to_json() == Instance(**plain).to_json()


@pytest.mark.parametrize("x, integral, finite", [
    (3, True, True), (np.int64(3), True, True), (2.5, False, True), (np.float32(2.5), False, True),
    (True, False, False), (np.bool_(True), False, False), (float("inf"), False, False),
    (np.float32("nan"), False, False), ("1", False, False), (None, False, False),
], ids=["int", "int64", "float", "float32", "bool", "numpy_bool", "inf", "float32_nan",
        "str", "null"])
def test_number_checks(x, integral, finite):
    # plain ints and floats take a fast path; numpy scalars still pass, bools do not
    assert _integral(x) is integral and _finite(x) is finite


class TestTripIds:
    def test_frozenset_returned_as_is(self):
        inst = tiny_instance(0)
        ids = frozenset(t.id for t in inst.trips[:3])
        assert inst.trip_ids(ids) is ids
        assert inst.trip_ids(list(ids)) == ids

    @pytest.mark.parametrize("ids", [frozenset({True}), frozenset({1.0}), frozenset({0, 2.0}),
                                     frozenset({999})], ids=["bool", "float", "mixed", "unknown"])
    def test_frozenset_checked_as_any_iterable(self, ids):
        # a frozenset skips the copy, not the check
        inst = tiny_instance(0)
        with pytest.raises(ValidationError, match="unknown trip ids"):
            inst.trip_ids(ids)


    @pytest.mark.parametrize("ids, first", [
        ([[1]], "[1]"), ([0, 1.5], "1.5"), ([0, 99], "99"), ([0, 99, 2.0], "99"),
        ([0, {}, 99], "{}"), (frozenset({0, 99}), "99"),
    ], ids=["list_entry", "float", "unknown", "unknown_before_float", "dict_entry", "frozenset"])
    def test_first_bad_entry_named(self, ids, first):
        # entry types are checked before the set is built, so an unhashable
        # entry is a ValidationError, not a TypeError
        inst = tiny_instance(0)
        with pytest.raises(ValidationError) as info:
            inst.trip_ids(ids)
        assert str(info.value) == f"tset references unknown trip ids, first {first}"
        with pytest.raises(ValidationError, match="first"):
            eval_design(inst, Design.minimal(inst), ids)


class TestCaches:
    def test_replace_builds_its_own_trip_index(self):
        inst = tiny_instance(0, n_stops=12)
        assert len(inst.trip_index) == len(inst.trips)
        copy = dataclasses.replace(inst, trips=inst.trips[4:])
        assert copy.trip_index == {t.id: i for i, t in enumerate(copy.trips)}
        with pytest.raises(ValidationError, match="unknown trip ids"):
            eval_design(copy, Design.minimal(copy), [inst.trips[0].id])

    def test_replace_derives_its_own_weights_and_arrays(self):
        inst = tiny_instance(0, n_stops=12)
        arcs = random_design(inst, np.random.default_rng(0)).open_arcs
        w, g = weights_of(inst), trip_arrays(Design(inst, arcs))[0]
        copy = dataclasses.replace(inst, params=dataclasses.replace(inst.params, theta=0.5))
        fresh = Instance.from_dict(copy.to_dict())  # shares nothing with inst
        assert np.array_equal(weights_of(copy).gamma, weights_of(fresh).gamma)
        assert not np.array_equal(weights_of(copy).gamma, w.gamma)
        copy_g = trip_arrays(Design(copy, arcs))[0]
        assert np.array_equal(copy_g, trip_arrays(Design(fresh, arcs))[0])
        assert not np.array_equal(copy_g, g)
        assert weights_of(inst) is w
        assert np.array_equal(trip_arrays(Design(inst, arcs))[0], g)


class TestDeriveWeights:
    def test_beta_from_case_study_rates(self):
        # theta 0.001, $3.87/km, 16 buses, 2 km leg
        inst = Instance.from_dict({
            **small_doc(),
            "params": {"theta": 0.001, "omega": 1.0, "bus_rate": 3.87,
                       "buses_per_leg": 16.0, "wait": 7.5, "ticket": 2.5},
            "dist": [[0, 2, 4, 6], [2, 0, 2, 5], [4, 2, 0, 2], [6, 5, 2, 0]],
            "time": [[0, 5, 9, 12], [5, 0, 10, 9], [9, 10, 0, 4], [12, 9, 4, 0]],
        })
        w = derive_weights(inst)
        assert w.beta[0, 1] == pytest.approx(123.71616, abs=1e-12)
        assert w.tau[0, 1] == pytest.approx(0.0175, abs=1e-12)

    def test_gamma_at_symmetric_weight(self):
        inst = make_example_instance()
        w = derive_weights(inst)
        # theta=0.5, omega=1: gamma(2,3) = 0.5*1.5 + 0.5*4
        i, j = inst.stop_index[2], inst.stop_index[3]
        assert w.gamma[i, j] == pytest.approx(2.75)
        # d=3, t=5 case from a direct computation
        assert 0.5 * 1.0 * 3 + 0.5 * 5 == pytest.approx(4.0)

    def test_varphi(self):
        inst = make_example_instance(ticket=2.5)
        assert derive_weights(inst).varphi == pytest.approx(1.25)

    def test_monetary_homogeneity(self):
        doc = small_doc()
        a = derive_weights(Instance.from_dict(doc))
        doc2 = small_doc()
        doc2["params"]["bus_rate"] = 2.0
        b = derive_weights(Instance.from_dict(doc2))
        assert np.allclose(b.beta, 2.0 * a.beta)

    def test_theta_limits(self):
        doc = small_doc()
        doc["params"]["theta"] = 1.0
        w = derive_weights(Instance.from_dict(doc))
        assert np.all(w.beta == 0)
        inst = Instance.from_dict(doc)
        assert np.allclose(w.gamma, inst.time)
        doc["params"]["theta"] = 0.0
        w0 = derive_weights(Instance.from_dict(doc))
        assert np.all(w0.tau == 0)

    def test_wait_matrix_per_hub_pair(self):
        doc = small_doc()
        doc["params"]["wait"] = [[0, 5], [3, 0]]
        inst = Instance.from_dict(doc)
        assert inst.wait_matrix.tolist() == [[0.0, 5.0], [3.0, 0.0]]
        assert not inst.wait_matrix.flags.writeable
        # tau = theta * (t + wait): 0.5 * (6 + 5) from hub 1, 0.5 * (6 + 3) back
        assert derive_weights(inst).tau.tolist() == [[0.0, 5.5], [4.5, 0.0]]

    def test_per_time_mode(self):
        doc = small_doc()
        doc["params"]["bus_cost_mode"] = "per_time"
        doc["params"]["bus_rate"] = 60.0  # $/hour
        w = derive_weights(Instance.from_dict(doc))
        inst = Instance.from_dict(doc)
        # (1-theta) * 60 * n * t/60 = 0.5 * 4 * t
        i, j = inst.hub_index[1], inst.hub_index[2]
        si, sj = inst.stop_index[1], inst.stop_index[2]
        assert w.beta[i, j] == pytest.approx(0.5 * 60 * 4 * inst.time[si, sj] / 60)


class TestGenerator:
    def test_determinism(self):
        cfg = tiny_config()
        a = generate_synthetic(cfg, seed=42).to_json()
        b = generate_synthetic(cfg, seed=42).to_json()
        assert a == b

    def test_counts(self):
        cfg = GeneratorConfig(
            stops=100, hubs=8,
            classes=(TripClass(60, None), TripClass(100, 2.0), TripClass(40, 1.5)),
        )
        inst = generate_synthetic(cfg, seed=0)
        assert len(inst.trips) == 200
        assert len(inst.latent_trips) == 140

    def test_class_alphas(self):
        inst = generate_synthetic(tiny_config(), seed=1)
        assert {t.alpha for t in inst.latent_trips} <= {2.0, 1.5}
        for t in inst.latent_trips:
            assert t.t_cur == pytest.approx(
                inst.time[inst.stop_index[t.origin], inst.stop_index[t.destination]]
            )

    def test_hubs_exceed_stops(self):
        with pytest.raises(ValidationError):
            generate_synthetic(GeneratorConfig(stops=4, hubs=5), seed=0)

    @pytest.mark.parametrize("change, match", [
        (dict(square_km=-3.0), "square_km"),
        (dict(square_km=0.0), "square_km"),
        (dict(square_km=float("inf")), "square_km"),
        (dict(speed_kmh=0.0), "speed_kmh"),
        (dict(speed_kmh=float("nan")), "speed_kmh"),
        (dict(classes=(TripClass(3, None), TripClass(-2, 2.0))), "count"),
        (dict(classes=(TripClass(3, None, max_riders=0),)), "max_riders"),
        (dict(stops=1, hubs=1), "^need at least 2 stops and 1 hub$"),
        (dict(hubs=0), "^need at least 2 stops and 1 hub$"),
    ], ids=["square_neg", "square_zero", "square_inf", "speed_zero", "speed_nan",
            "count_neg", "riders_zero", "one_stop", "no_hub"])
    def test_bad_config_rejected(self, change, match):
        with pytest.raises(ValidationError, match=match):
            generate_synthetic(dataclasses.replace(tiny_config(), **change), seed=0)

    def test_euclidean_triangle(self):
        inst = generate_synthetic(tiny_config(), seed=3)
        assert inst.metric_consistent

    def test_nearest_k_candidates(self):
        cfg = GeneratorConfig(stops=30, hubs=5, candidate=2)
        inst = generate_synthetic(cfg, seed=2)
        assert len(inst.candidate_arcs) < 20
        arcs = set(inst.candidate_arcs)
        assert all((l, h) in arcs for h, l in arcs)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_stops=st.integers(3, 9),
    scale=st.floats(0.01, 100.0),
    theta=st.floats(0.0, 1.0),
    wait=st.one_of(st.floats(0.0, 30.0), st.integers(0, 2**16)),
    shuttles=st.booleans(),
)
def test_json_round_trip_is_byte_stable(seed, n_stops, scale, theta, wait, shuttles):
    base = generate_synthetic(tiny_config(n_stops=n_stops, n_hubs=2), seed=seed)
    if isinstance(wait, int):  # a per-hub-pair wait matrix
        wait = np.random.default_rng(wait).uniform(0.0, 30.0, (2, 2))
        np.fill_diagonal(wait, 0.0)
    inst = Instance(
        stops=base.stops, hubs=base.hubs, time=base.time * scale, dist=base.dist / scale,
        trips=base.trips,
        params=dataclasses.replace(base.params, theta=theta, wait=wait, shuttle_between_hubs=shuttles),
    )
    text = json.dumps(inst.to_dict())
    again = Instance.from_dict(json.loads(text))
    assert json.dumps(again.to_dict()) == text


def triangle_by_pivots(m, tol=1e-9):
    """The one-pass-per-pivot form of ``_satisfies_triangle``, kept as its
    reference."""
    for k in range(m.shape[0]):
        if np.any(m > m[:, k, None] + m[None, k, :] + tol):
            return False
    return True


class TestSatisfiesTriangle:
    @pytest.mark.parametrize("excess, holds", [(0.5e-9, True), (1e-9, True), (1.5e-9, False)])
    def test_violation_against_tol(self, excess, holds):
        # stops at 0, 1 and 2 on a line; 0 -> 2 is longer than 0 -> 1 -> 2 by excess
        m = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        m[0, 2] = 2.0 + excess
        assert _satisfies_triangle(m) is triangle_by_pivots(m) is holds

    def test_matches_the_pivot_loop(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 12))
            xy = rng.uniform(0.0, 10.0, (n, 2))
            m = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
            # random shifts around tol, some making the matrix asymmetric
            m += rng.choice([0.0, 0.5e-9, 1e-9, 2e-9, 1e-3], (n, n)) * rng.integers(0, 2, (n, n))
            if rng.random() < 0.2:
                m = rng.uniform(0.0, 10.0, (n, n))
            np.fill_diagonal(m, 0.0)
            holds = _satisfies_triangle(m)
            assert holds is triangle_by_pivots(m)
            seen.add(holds)
        assert seen == {True, False}

    @staticmethod
    def symmetric_matrix(rng, n):
        """Euclidean distances of n random points, on a small integer grid
        half the time (exactly collinear triples), with the pairs (i, j)
        and (j, i) shifted alike by a step around the tolerance."""
        if rng.random() < 0.5:
            xy = rng.integers(0, 4, (n, 2)).astype(float)
        else:
            xy = rng.uniform(0.0, 10.0, (n, 2))
        m = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        shift = rng.choice([0.0, 0.5e-9, 1e-9, 1.5e-9, 1e-3], (n, n)) * rng.integers(0, 2, (n, n))
        shift = np.triu(shift, 1)
        m += shift + shift.T
        assert np.array_equal(m, m.T)  # the half-pair path
        return m

    def test_symmetric_matches_the_pivot_loop(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(300):
            m = self.symmetric_matrix(rng, int(rng.integers(2, 12)))
            holds = _satisfies_triangle(m)
            assert holds is triangle_by_pivots(m)
            seen.add(holds)
        assert seen == {True, False}

    def test_one_asymmetric_entry_matches_the_pivot_loop(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(3, 12))
            m = self.symmetric_matrix(rng, n)
            i, j = rng.choice(n, 2, replace=False)
            m[i, j] += rng.choice([0.5e-9, 1.5e-9, 1e-3, -1e-3])
            m[i, j] = max(m[i, j], 0.0)
            if np.array_equal(m, m.T):  # the shift rounded away or hit a zero
                continue
            holds = _satisfies_triangle(m)
            assert holds is triangle_by_pivots(m)
            seen.add(holds)
        assert seen == {True, False}
