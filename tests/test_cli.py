import csv
import dataclasses
import json

import pytest

from odmts import GeneratorConfig, SolveError, TripClass, generate_synthetic, highs
from odmts.cli import ALGORITHMS, main


def gen_args(out, stops=12, hubs=3, seed=5):
    return [
        "generate", "--stops", str(stops), "--hubs", str(hubs), "--seed", str(seed),
        "--classes", "5:core/4:2.0/3:1.5", "--buses-per-leg", "4",
        "--bus-rate", "0.5", "--out", str(out),
    ]


# The algorithms that take each solver flag, and a valid value for it.
TAKERS = {"--rho": ("grad", "gagr"), "--eta": ("grre", "gagr"), "--time-limit": ("gagr",),
          "--rules": ("arc-s1", "arc-s2")}
VALUES = {"--rho": "3", "--eta": "2", "--time-limit": "5", "--rules": "a"}
IGNORED = [(alg, flag) for flag, takers in TAKERS.items() for alg in ALGORITHMS
           if alg not in takers]
# JSON whose integer has more digits than Python converts (4300 by default).
LONG_INTEGER = b'{"trips": [{"riders": ' + b"9" * 5001 + b"}]}"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(gen_args(path)) == 0
    return path


@pytest.fixture
def core_lacking_api(monkeypatch):
    """A HiGHS core that fails the API check, as one from another scipy
    would: the loaded module lacks one name of ``highs.API``."""
    monkeypatch.setattr(highs, "API", highs.API + ("_Highs.noSuchCall",))
    monkeypatch.setattr(highs, "_checked", None)
    return "lacks _Highs.noSuchCall"


class TestGenerate:
    def test_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(gen_args(a)) == 0
        assert main(gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        hashes = [line.split("sha256=")[1] for line in out.strip().splitlines()]
        assert hashes[0] == hashes[1]

    def test_hubs_exceed_stops(self, tmp_path):
        assert main(gen_args(tmp_path / "x.json", stops=3, hubs=5)) == 1

    def test_class_without_alpha_exits_one(self, tmp_path, capsys):
        args = gen_args(tmp_path / "x.json")
        args[args.index("--classes") + 1] = "60"
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --classes group '60' is not count:alpha\n"

    @pytest.mark.parametrize("flag, field, value", [
        ("--stops=14", "stops", 14), ("--hubs=4", "hubs", 4),
        ("--square-km=20", "square_km", 20.0), ("--speed-kmh=50", "speed_kmh", 50.0),
        ("--theta=0.2", "theta", 0.2), ("--omega=1.5", "omega", 1.5),
        ("--bus-rate=0.8", "bus_rate", 0.8), ("--buses-per-leg=6", "buses_per_leg", 6.0),
        ("--wait=3", "wait", 3.0), ("--ticket=4", "ticket", 4.0),
        ("--shuttle-between-hubs", "shuttle_between_hubs", True),
        ("--nearest-k=2", "candidate", 2),
    ], ids=["stops", "hubs", "square_km", "speed_kmh", "theta", "omega", "bus_rate",
            "buses_per_leg", "wait", "ticket", "shuttle_between_hubs", "nearest_k"])
    def test_every_flag_reaches_the_instance(self, tmp_path, flag, field, value):
        # the written instance is the generator's for the same config with
        # that one field changed, and differs from the one without the flag
        base = GeneratorConfig(stops=12, hubs=3, classes=(
            TripClass(5, None), TripClass(4, 2.0), TripClass(3, 1.5)), buses_per_leg=4.0,
            bus_rate=0.5)
        path = tmp_path / "x.json"
        assert main(gen_args(path) + [flag]) == 0
        want = generate_synthetic(dataclasses.replace(base, **{field: value}), 5).to_json()
        assert path.read_text() == want != generate_synthetic(base, 5).to_json()

    @pytest.mark.parametrize("flag, message", [
        ("--square-km=-3", "square_km must be finite and > 0, got -3.0"),
        ("--speed-kmh=0", "speed_kmh must be finite and > 0, got 0.0"),
        ("--max-riders=0", "max_riders must be >= 1, got 0"),
        ("--classes=5:core/-2:2.0", "trip class count must be >= 0, got -2"),
        ("--omega=nan", "params: bad 'omega': expected a finite number, got nan"),
        ("--buses-per-leg=inf", "params: bad 'buses_per_leg': expected a finite number, got inf"),
        ("--ticket=nan", "params: bad 'ticket': expected a finite number, got nan"),
        ("--hubs=0", "need at least 2 stops and 1 hub"),
    ], ids=["square_km", "speed_kmh", "max_riders", "class_count", "omega_nan",
            "buses_per_leg_inf", "ticket_nan", "no_hub"])
    def test_bad_config_exits_one(self, tmp_path, capsys, flag, message):
        path = tmp_path / "x.json"
        assert main(gen_args(path) + [flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_counts_echoed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        main(gen_args(path))
        out = capsys.readouterr().out
        assert "trips=12" in out and "latent=7" in out
        doc = json.loads(path.read_text())
        assert len(doc["trips"]) == 12


class TestSolve:
    def test_bundle_written(self, tmp_path, instance_file, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "grad",
                   "--rho", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "design.json").exists()
        assert (out / "evaluation.json").exists()
        assert (out / "trace.csv").exists()
        printed = capsys.readouterr().out
        assert "objective=" in printed
        doc = json.loads((out / "evaluation.json").read_text())
        assert set(doc) >= {"objective", "adopters", "r_false", "a_false", "kpis"}

    def test_exact_dominates(self, tmp_path, instance_file):
        out_e = tmp_path / "exact"
        out_g = tmp_path / "grad"
        main(["solve", "--instance", str(instance_file), "--alg", "exact", "--out", str(out_e)])
        main(["solve", "--instance", str(instance_file), "--alg", "grad", "--rho", "1",
              "--out", str(out_g)])
        obj_e = json.loads((out_e / "evaluation.json").read_text())["objective"]
        obj_g = json.loads((out_g / "evaluation.json").read_text())["objective"]
        assert obj_e <= obj_g + 1e-9

    def test_arc_s2_trace_two_stages(self, tmp_path, instance_file):
        out = tmp_path / "s2"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "arc-s2",
                   "--rules", "d,a", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(
            line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")
        ))
        assert {r["stage"] for r in rows} == {"1", "2"}
        assert [r["k"] for r in rows] == [str(k) for k in range(len(rows))]  # across both stages

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_evaluation_is_a_trace_row(self, tmp_path, instance_file, alg):
        # every algorithm's trace rows score their designs as evaluate does
        out = tmp_path / alg
        rc = main(["solve", "--instance", str(instance_file), "--alg", alg, "--out", str(out)])
        assert rc == 0
        ev = json.loads((out / "evaluation.json").read_text())
        rows = list(csv.DictReader(
            line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")
        ))
        assert (repr(ev["objective"]), str(len(ev["adopters"]))) in {
            (r["objective"], r["adopters"]) for r in rows}

    def test_bad_alg_exits_one(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(instance_file), "--alg", "bogus"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid choice: 'bogus'" in err

    def test_unknown_flag_exits_one(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(instance_file), "--alg", "dfd", "--threads", "2"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == "odmts: error: unrecognized arguments: --threads 2\n"

    def test_string_matrix_entry_exits_one(self, tmp_path, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["time"][0][1] = "0.5"
        path = tmp_path / "str.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--alg", "dfd"]) == 1
        assert capsys.readouterr().err == (
            "error: instance: bad 'time': expected a matrix of numbers, got '0.5'\n")

    @pytest.mark.parametrize("key, value, expected", [
        ("id", 2**63, "an integer within int64"),
        ("riders", 10**400, "an integer within [1, 2**53]"),
    ], ids=["id", "riders"])
    def test_trip_beyond_int64_exits_one(self, tmp_path, instance_file, capsys, key, value,
                                         expected):
        doc = json.loads(instance_file.read_text())
        doc["trips"][0][key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--alg", "dfd",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            f"error: trip entry 0: bad {key!r}: expected {expected}, got {value}")

    @pytest.mark.parametrize("riders, rc", [(2**53, 0), (2**53 + 1, 1), (2**62, 1)],
                             ids=["2**53", "2**53+1", "2**62"])
    def test_riders_up_to_2_53(self, tmp_path, instance_file, capsys, riders, rc):
        # scoring and the flow LP weigh riders as floats, which hold every
        # count up to 2**53 exactly; two trips of 2**62 riders made HiGHS fail
        doc = json.loads(instance_file.read_text())
        doc["trips"][0]["riders"] = doc["trips"][1]["riders"] = riders
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--alg", "dfd",
                     "--out", str(tmp_path / "run")]) == rc
        err = capsys.readouterr().err
        assert err == ("" if rc == 0 else "error: trip entry 0: bad 'riders': expected an "
                       f"integer within [1, 2**53], got {riders}\n")

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_instance_without_trips(self, tmp_path, capsys, alg):
        path = tmp_path / "empty.json"
        args = gen_args(path)
        args[args.index("--classes") + 1] = "0:core"
        assert main(args) == 0
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(path), "--alg", alg, "--out", str(out)]) == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["objective"] == 0.0 and doc["adopters"] == []

    def test_negative_time_limit_exits_one(self, tmp_path, instance_file, capsys):
        rc = main(["solve", "--instance", str(instance_file), "--alg", "gagr",
                   "--time-limit=-1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == "error: time_limit must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("rules", ["d,zz", "a,b", "a,"])
    def test_arc_s1_takes_one_rule(self, tmp_path, instance_file, capsys, rules):
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "arc-s1",
                   "--rules", rules, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: arc-s1 needs exactly one rule in --rules\n"
        assert not (out / "design.json").exists()

    def test_stage_one_rule_a_exits_before_load(self, tmp_path, capsys):
        # the instance file does not exist: the rule fails before it loads
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(tmp_path / "missing.json"), "--alg", "arc-s2",
                   "--rules", "a,a", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: stage-1 rule must be one of b, c, d\n")
        assert not out.exists()

    @pytest.mark.parametrize("rules", ["a", "d,a,b"])
    def test_arc_s2_takes_two_rules(self, tmp_path, instance_file, capsys, rules):
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "arc-s2",
                   "--rules", rules, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: arc-s2 needs --rules stage1,stage2\n"
        assert not (out / "design.json").exists()

    @pytest.mark.parametrize("alg, flag", IGNORED)
    def test_ignored_flag_exits_one(self, tmp_path, capsys, alg, flag):
        # the instance file does not exist: the flag fails before it loads
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(tmp_path / "missing.json"), "--alg", alg,
                   flag, VALUES[flag], "--out", str(out)])
        assert rc == 1
        takers = " and ".join(TAKERS[flag])
        assert capsys.readouterr() == ("", f"error: {flag} applies only to {takers}\n")
        assert not out.exists()

    def test_solver_failure_exits_two(self, tmp_path, instance_file, capsys, monkeypatch):
        def fails(*args):
            raise SolveError("HiGHS ended with status Time limit reached")

        monkeypatch.setattr(highs, "branch", fails)
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "dfd", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "solver failure: HiGHS ended with status Time limit reached\n"
        assert not (out / "design.json").exists()

    def test_core_failure_exits_two(self, tmp_path, instance_file, capsys, core_lacking_api):
        out = tmp_path / "run"
        rc = main(["solve", "--instance", str(instance_file), "--alg", "dfd", "--out", str(out)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure: HiGHS core at ")
        assert lines[0].endswith(core_lacking_api)
        assert not (out / "design.json").exists()

    def test_missing_instance(self, tmp_path):
        rc = main(["solve", "--instance", str(tmp_path / "nope.json"), "--alg", "grad"])
        assert rc == 1

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json", LONG_INTEGER],
                             ids=["not_utf8", "not_json", "integer_too_long"])
    def test_unreadable_instance_named(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc = main(["solve", "--instance", str(path), "--alg", "dfd", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: malformed instance file {path}: ")

    def test_huge_rate_exits_one(self, tmp_path, instance_file, capsys):
        # an integer too large for a float is no finite rate
        doc = json.loads(instance_file.read_text())
        doc["params"]["omega"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--instance", str(path), "--alg", "dfd", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: params: bad 'omega': expected a finite")

    def test_out_below_a_file_exits_one(self, tmp_path, instance_file, capsys):
        (tmp_path / "file").write_text("")
        rc = main(["solve", "--instance", str(instance_file), "--alg", "grad",
                   "--out", str(tmp_path / "file" / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestEvaluate:
    def test_round_trip(self, tmp_path, instance_file, capsys):
        out = tmp_path / "run"
        main(["solve", "--instance", str(instance_file), "--alg", "grad", "--rho", "1",
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["evaluate", "--instance", str(instance_file),
                   "--design", str(out / "design.json"),
                   "--out", str(tmp_path / "ev.json")])
        assert rc == 0
        solved = json.loads((out / "evaluation.json").read_text())
        evaluated = json.loads((tmp_path / "ev.json").read_text())
        assert evaluated["objective"] == pytest.approx(solved["objective"])

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"tset": []}, "open_arcs"),
            ([], "open_arcs"),
            ({"open_arcs": 5}, "open_arcs"),
            ({"open_arcs": [[1]]}, "open_arcs"),
            ({"open_arcs": [[1, "2"]]}, "open_arcs"),
            ({"open_arcs": [], "tset": 7}, "tset"),
            ({"open_arcs": [], "tset": [0, "1"]}, "tset"),
        ],
        ids=["no_open_arcs", "not_object", "open_arcs_int", "open_arcs_short_pair",
             "open_arcs_str_hub", "tset_int", "tset_str_id"],
    )
    def test_design_without_open_arcs(self, tmp_path, instance_file, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["evaluate", "--instance", str(instance_file), "--design", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]

    @pytest.mark.parametrize("tset, first", [
        ([[1]], "[1]"), ([0, 1.5], "1.5"), ([0, True], "True"), ([0, 10**6], "1000000"),
    ], ids=["list_entry", "float", "bool", "unknown"])
    def test_bad_tset_entry_named(self, tmp_path, instance_file, capsys, tset, first):
        # the first bad entry is named after the design file; a non-integer
        # entry is a ValidationError, as a bad open_arcs entry is
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"open_arcs": [], "tset": tset}))
        rc = main(["evaluate", "--instance", str(instance_file), "--design", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: tset references unknown trip ids, first {first}\n")

    @pytest.mark.parametrize("key", ["open_arcs", "tset"])
    def test_duplicate_exits_one(self, tmp_path, instance_file, capsys, key):
        # a design file that repeats an arc or a trip id is refused, not
        # scored as if each appeared once
        out = tmp_path / "run"
        main(["solve", "--instance", str(instance_file), "--alg", "dfd", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads((out / "design.json").read_text())
        first = doc[key][0]
        doc[key].append(first)
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(doc))
        rc = main(["evaluate", "--instance", str(instance_file), "--design", str(bad)])
        assert rc == 1
        what = f"arc {tuple(first)}" if key == "open_arcs" else f"trip id {first}"
        assert capsys.readouterr().err == f"error: {bad}: duplicate {what} in {key}\n"

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", LONG_INTEGER],
                             ids=["not_json", "not_utf8", "integer_too_long"])
    def test_unreadable_design_named(self, tmp_path, instance_file, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = main(["evaluate", "--instance", str(instance_file), "--design", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: malformed design file {bad}: ")

    def test_missing_design_file_exits_one(self, tmp_path, instance_file, capsys):
        rc = main(["evaluate", "--instance", str(instance_file),
                   "--design", str(tmp_path / "missing.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "missing.json" in err


class TestCompare:
    def test_rows_and_best_known(self, tmp_path, instance_file):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--instances", str(instance_file),
                   "--algs", "exact,grad", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ))
        assert len(rows) == 2
        exact_row = next(r for r in rows if r["algorithm"] == "exact")
        assert float(exact_row["gap_vs_best"]) == 0.0
        for r in rows:
            assert float(r["gap_vs_best"]) >= 0.0

    def test_error_row(self, tmp_path, instance_file):
        # a negative time limit is an error of the gagr run, which gets a
        # row of its own while grad runs
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--instances", str(instance_file), "--algs", "gagr,grad",
                   "--time-limit", "-1", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ))
        assert [(r["algorithm"], r["status"]) for r in rows] == [
            ("gagr", "error: time_limit must be >= 0, got -1.0"), ("grad", "ok")]
        assert rows[0]["objective"] == "" and float(rows[1]["gap_vs_best"]) == 0.0

    @pytest.mark.parametrize("algs, rules, message", [
        ("arc-s1,arc-s2", "d,a", "arc-s1 needs exactly one rule in --rules"),
        ("grad,arc-s2", "a", "arc-s2 needs --rules stage1,stage2"),
        ("arc-s1,grad", "x", "unknown expansion rule 'x'"),
        ("grad,arc-s2", "d,y", "unknown expansion rule 'y'"),
    ], ids=["arc_s1_two", "arc_s2_one", "arc_s1_unknown", "arc_s2_unknown"])
    def test_rule_count_checked_before_any_run(self, tmp_path, instance_file, capsys,
                                               algs, rules, message):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(instance_file), "--algs", algs,
                   "--rules", rules, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("algs", ["arc-s2", "grad,arc-s2"])
    def test_stage_one_rule_a_exits_before_load(self, tmp_path, capsys, algs):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(tmp_path / "missing.json"), "--algs", algs,
                   "--rules", "a,a", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: stage-1 rule must be one of b, c, d\n")
        assert not out.exists()

    @pytest.mark.parametrize("algs, flag", [
        ("dfd,grad", "--eta"), ("grad,arc-s1", "--time-limit"), ("grre,exact", "--rho"),
        ("dfd,gagr", "--rules"),
    ])
    def test_flag_no_listed_algorithm_takes(self, tmp_path, capsys, algs, flag):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(tmp_path / "missing.json"), "--algs", algs,
                   flag, VALUES[flag], "--out", str(out)])
        assert rc == 1
        takers = " and ".join(TAKERS[flag])
        assert capsys.readouterr() == ("", f"error: {flag} applies only to {takers}\n")
        assert not out.exists()

    def test_flag_one_listed_algorithm_takes(self, tmp_path, instance_file):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(instance_file), "--algs", "dfd,grad",
                   "--rho", "1", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ))
        assert [(r["algorithm"], r["status"]) for r in rows] == [("dfd", "ok"), ("grad", "ok")]

    def test_core_failure_row(self, tmp_path, instance_file, core_lacking_api):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--instances", str(instance_file), "--algs", "dfd,grad",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ))
        assert [r["algorithm"] for r in rows] == ["dfd", "grad"]
        for r in rows:
            assert r["status"].startswith("error: HiGHS core at ")
            assert r["status"].endswith(core_lacking_api) and r["objective"] == ""

    def test_unknown_alg_exits_one(self, tmp_path, instance_file, capsys):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(instance_file), "--algs", "grad,bogus",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown algorithm 'bogus'\n"
        assert not out.exists()

    def test_empty_algs(self, tmp_path, instance_file, capsys):
        rc = main(["compare", "--instances", str(instance_file), "--algs", "",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: empty algorithm list\n"

    @pytest.mark.parametrize("algs", ["grad,,grre,", ",dfd", "dfd,"])
    def test_empty_algs_entry(self, tmp_path, capsys, algs):
        # refused before the (missing) instance would load, with no CSV written
        out = tmp_path / "x.csv"
        rc = main(["compare", "--instances", str(tmp_path / "missing.json"), "--algs", algs,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: empty entry in --algs {algs!r}\n")
        assert not out.exists()

    def test_body_determinism(self, tmp_path, instance_file):
        outs = []
        for name in ("c1.csv", "c2.csv"):
            path = tmp_path / name
            main(["compare", "--instances", str(instance_file),
                  "--algs", "grad,grre", "--out", str(path)])
            body = [
                line.rsplit(",", 1)[0]  # strip the trailing wall-time column
                for line in path.read_text().splitlines()
                if not line.startswith("#")
            ]
            outs.append(body)
        assert outs[0] == outs[1]
