import json

import numpy as np
import pytest

from odmts import (
    GeneratorConfig,
    Instance,
    InstanceParseError,
    TripClass,
    ValidationError,
    derive_weights,
    generate_synthetic,
    load_instance,
    save_instance,
)
from conftest import make_example_instance, tiny_config


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
        with pytest.raises(InstanceParseError):
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
        ],
        ids=["alpha_nan", "alpha_inf", "alpha_str", "t_cur_nan", "t_cur_inf",
             "wait_nan", "wait_inf", "riders_fraction", "riders_bool",
             "candidate_bool", "trip_without_id", "params_without_theta",
             "trips_int", "trips_mapping"],
    )
    def test_malformed_document_rejected(self, tmp_path, path, value, match):
        doc = small_doc()
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises((InstanceParseError, ValidationError), match=match):
            load_instance(f)


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

    def test_euclidean_triangle(self):
        inst = generate_synthetic(tiny_config(), seed=3)
        assert inst.metric_consistent

    def test_nearest_k_candidates(self):
        cfg = GeneratorConfig(stops=30, hubs=5, candidate=2)
        inst = generate_synthetic(cfg, seed=2)
        assert len(inst.candidate_arcs) < 20
        arcs = set(inst.candidate_arcs)
        assert all((l, h) in arcs for h, l in arcs)
