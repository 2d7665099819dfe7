import csv
import json

import pytest

from odmts.cli import main


def gen_args(out, stops=12, hubs=3, seed=5):
    return [
        "generate", "--stops", str(stops), "--hubs", str(hubs), "--seed", str(seed),
        "--classes", "5:core/4:2.0/3:1.5", "--buses-per-leg", "4",
        "--bus-rate", "0.5", "--out", str(out),
    ]


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(gen_args(path)) == 0
    return path


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

    def test_bad_alg_exits_one(self, instance_file):
        with pytest.raises(SystemExit):
            main(["solve", "--instance", str(instance_file), "--alg", "bogus"])

    def test_missing_instance(self, tmp_path):
        rc = main(["solve", "--instance", str(tmp_path / "nope.json"), "--alg", "grad"])
        assert rc == 1

    def test_threads_is_a_no_op(self, tmp_path, instance_file):
        outs = []
        for n in ("1", "4"):
            out = tmp_path / f"t{n}"
            rc = main(["solve", "--instance", str(instance_file), "--alg", "gagr",
                       "--rho", "1", "--eta", "1", "--threads", n, "--out", str(out)])
            assert rc == 0
            outs.append([(out / f).read_bytes() for f in ("design.json", "evaluation.json")])
        assert outs[0] == outs[1]


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

    def test_empty_algs(self, tmp_path, instance_file):
        rc = main(["compare", "--instances", str(instance_file), "--algs", "",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

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
