"""Command-line front end and benchmark harness.

Subcommands: ``generate`` (synthetic instances), ``solve`` (one
algorithm, writing design.json / evaluation.json / trace.csv),
``evaluate`` (re-score a saved design), ``compare`` (run several
algorithms and tabulate). Exit codes: 0 success, 1 usage or config
error, 2 solver failure (best incumbent still written).

Outputs are deterministic for fixed inputs and seed; wall-clock fields
sit in trailing columns or header lines so the remainder is
byte-comparable across runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .adoption import eval_design, exact_tiny
from .dfd import CapExceeded, SolveError, solve_dfd
from .generator import GeneratorConfig, TripClass, generate_synthetic
from .instance import Instance, InstanceParseError, ValidationError, load_instance, save_instance
from .router import Design
from .trace import HeuristicTrace, write_trace_csv
from .trip_heuristics import eta_grre, rho_gagr, rho_grad
from .arc_heuristics import CycleCapError, arc_s1, arc_s2

ALGORITHMS = ("dfd", "exact", "grad", "grre", "gagr", "arc-s1", "arc-s2")
THREADS_HELP = "accepted for compatibility and has no effect; runs are single-threaded"


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _design_doc(design: Design, algorithm: str, tset, objective) -> dict:
    return {
        "tool_version": __version__,
        "algorithm": algorithm,
        "open_arcs": [list(a) for a in sorted(design.open_arcs)],
        "tset": sorted(tset),
        "objective": objective,
    }


def cmd_generate(args) -> int:
    classes = []
    for spec in args.classes.split("/"):
        fields = spec.split(":")
        count = int(fields[0])
        alpha = None if fields[1] in ("core", "-") else float(fields[1])
        classes.append(TripClass(count=count, alpha=alpha, max_riders=args.max_riders))
    config = GeneratorConfig(
        stops=args.stops,
        hubs=args.hubs,
        classes=tuple(classes),
        square_km=args.square_km,
        speed_kmh=args.speed_kmh,
        theta=args.theta,
        omega=args.omega,
        bus_rate=args.bus_rate,
        buses_per_leg=args.buses_per_leg,
        wait=args.wait,
        ticket=args.ticket,
        shuttle_between_hubs=args.shuttle_between_hubs,
        candidate="all" if args.nearest_k is None else args.nearest_k,
    )
    inst = generate_synthetic(config, seed=args.seed)
    text = save_instance(inst, args.out)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"wrote {args.out} stops={len(inst.stops)} hubs={len(inst.hubs)} "
          f"trips={len(inst.trips)} latent={len(inst.latent_trips)} sha256={digest}")
    return 0


def _run_algorithm(inst: Instance, alg: str, args):
    """Returns (design, tset, trace, extra) where extra documents bounds."""
    if alg == "dfd":
        tset = [t.id for t in inst.trips]
        trace_path = getattr(args, "solver_trace", None)
        sol = solve_dfd(
            inst, tset, eps_gap=args.eps_gap, trace_path=trace_path,
            max_rounds=args.max_rounds,
        )
        trace = HeuristicTrace()
        trace.add(0, 1, len(tset), sol.design, sol.objective, 0, 0.0)
        trace.finish(sol.design, tset)
        return sol.design, frozenset(tset), trace, {"bounds": sol.bounds}
    if alg == "exact":
        res = exact_tiny(inst)
        trace = HeuristicTrace()
        trace.add(0, 1, len(res.tset), res.design, res.evaluation.objective,
                  len(res.evaluation.adopters), 0.0)
        trace.finish(res.design, res.tset)
        return res.design, res.tset, trace, {"resolve_matches": res.resolve_matches}
    if alg == "grad":
        design, tset, trace = rho_grad(inst, rho=args.rho)
        return design, tset, trace, {}
    if alg == "grre":
        design, trace = eta_grre(inst, eta=args.eta)
        return design, trace.tset, trace, {"truncated": trace.truncated}
    if alg == "gagr":
        design, trace = rho_gagr(
            inst, rho=args.rho, eta=args.eta, time_limit=args.time_limit
        )
        return design, trace.tset, trace, {}
    if alg == "arc-s1":
        rules = args.rules.split(",") if args.rules else ["a"]
        design, trace = arc_s1(inst, rules[0])
        return design, trace.tset, trace, {}
    if alg == "arc-s2":
        rules = args.rules.split(",") if args.rules else ["d", "a"]
        if len(rules) != 2:
            raise ValueError("arc-s2 needs --rules stage1,stage2")
        design, trace = arc_s2(inst, rules[0], rules[1])
        return design, trace.tset, trace, {}
    raise ValueError(f"unknown algorithm {alg!r}")


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.alg not in ALGORITHMS:
        print(f"unknown algorithm {args.alg!r}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        design, tset, trace, extra = _run_algorithm(inst, args.alg, args)
    except SolveError as e:
        if e.best is not None:
            ev = eval_design(inst, e.best.design, e.best.tset)
            _write_json(out / "design.json",
                        _design_doc(e.best.design, args.alg, e.best.tset, e.best.objective))
            _write_json(out / "evaluation.json", {"tool_version": __version__, **ev.to_dict()})
        print(f"solver failure: {e}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    ev = eval_design(inst, design, tset)
    _write_json(out / "design.json", _design_doc(design, args.alg, tset, ev.objective))
    doc = {"tool_version": __version__, **ev.to_dict(), **extra}
    _write_json(out / "evaluation.json", doc)
    write_trace_csv(out / "trace.csv", trace, header_note=f"tool_version={__version__}")
    print(f"algorithm={args.alg} objective={ev.objective!r} r_false={ev.r_false!r} "
          f"a_false={ev.a_false!r} wall_time={wall:.3f}s")
    return 0


def _int_list(value) -> bool:
    """A JSON list of integers (true/false excluded)."""
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def cmd_evaluate(args) -> int:
    inst = load_instance(args.instance)
    doc = json.loads(Path(args.design).read_text())
    if not isinstance(doc, dict) or "open_arcs" not in doc:
        raise InstanceParseError(f"{args.design}: design file has no 'open_arcs' key")
    arcs = doc["open_arcs"]
    if not isinstance(arcs, list) or not all(_int_list(a) and len(a) == 2 for a in arcs):
        raise InstanceParseError(f"{args.design}: 'open_arcs' must be a list of [h, l] hub pairs")
    tset = doc.get("tset", [t.id for t in inst.trips])
    if not _int_list(tset):
        raise InstanceParseError(f"{args.design}: 'tset' must be a list of trip ids")
    design = Design(inst, frozenset(tuple(a) for a in arcs))
    ev = eval_design(inst, design, tset)
    out = {"tool_version": __version__, **ev.to_dict()}
    if args.out:
        _write_json(Path(args.out), out)
    print(f"objective={ev.objective!r} r_false={ev.r_false!r} a_false={ev.a_false!r}")
    return 0


COMPARE_COLUMNS = [
    "instance", "algorithm", "status", "objective", "gap_vs_best",
    "r_false", "a_false", "shuttle_km", "bus_investment", "bus_cost_dollars",
    "total_convenience_minutes", "agency_net_cost", "time_s",
]


def cmd_compare(args) -> int:
    algs = [a for a in args.algs.split(",") if a]
    if not algs:
        print("empty algorithm list", file=sys.stderr)
        return 1
    for a in algs:
        if a not in ALGORITHMS:
            print(f"unknown algorithm {a!r}", file=sys.stderr)
            return 1
    rows = []
    for inst_path in args.instances:
        inst = load_instance(inst_path)
        for alg in algs:
            t0 = time.perf_counter()
            try:
                design, tset, trace, _ = _run_algorithm(inst, alg, args)
                ev = eval_design(inst, design, tset)
                rows.append({
                    "instance": inst_path, "algorithm": alg, "status": "ok",
                    "objective": ev.objective, "r_false": ev.r_false,
                    "a_false": ev.a_false, **ev.kpis,
                    "time_s": time.perf_counter() - t0,
                })
            except (SolveError, CapExceeded, CycleCapError, ValueError) as e:
                rows.append({
                    "instance": inst_path, "algorithm": alg,
                    "status": f"error: {e}", "time_s": time.perf_counter() - t0,
                })
    best = {}
    for r in rows:
        if r["status"] == "ok":
            key = r["instance"]
            if key not in best or r["objective"] < best[key]:
                best[key] = r["objective"]
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S')} tool_version={__version__}\n")
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        for r in rows:
            if r["status"] == "ok" and r["instance"] in best:
                r["gap_vs_best"] = repr(r["objective"] - best[r["instance"]])
                r["objective"] = repr(r["objective"])
                r["r_false"] = repr(r["r_false"])
                r["a_false"] = repr(r["a_false"])
                for k in ("shuttle_km", "bus_investment", "bus_cost_dollars",
                          "total_convenience_minutes", "agency_net_cost"):
                    r[k] = repr(r[k])
            r["time_s"] = f"{r['time_s']:.3f}"
            writer.writerow(r)
    print(f"wrote {args.out} rows={len(rows)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="odmts", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance file")
    g.add_argument("--stops", type=int, default=100)
    g.add_argument("--hubs", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--classes", default="60:core/100:2.0/40:1.5",
                   help="count:alpha groups split by '/', alpha 'core' marks core trips")
    g.add_argument("--max-riders", type=int, default=8)
    g.add_argument("--square-km", type=float, default=12.0)
    g.add_argument("--speed-kmh", type=float, default=36.0)
    g.add_argument("--theta", type=float, default=0.001)
    g.add_argument("--omega", type=float, default=1.0)
    g.add_argument("--bus-rate", type=float, default=3.87)
    g.add_argument("--buses-per-leg", type=float, default=16.0)
    g.add_argument("--wait", type=float, default=7.5)
    g.add_argument("--ticket", type=float, default=2.5)
    g.add_argument("--shuttle-between-hubs", action="store_true")
    g.add_argument("--nearest-k", type=int, default=None,
                   help="restrict candidate arcs to the k nearest hubs per hub")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    def common_solver_args(sp):
        sp.add_argument("--rho", type=int, default=None)
        sp.add_argument("--eta", type=int, default=None)
        sp.add_argument("--rules", default=None, help="expansion rules, e.g. 'a' or 'd,a'")
        sp.add_argument("--time-limit", type=float, default=None)
        sp.add_argument("--eps-gap", type=float, default=1e-9)
        sp.add_argument("--max-rounds", type=int, default=200)
        sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)

    s = sub.add_parser("solve", help="run one algorithm and write a result bundle")
    s.add_argument("--instance", required=True)
    s.add_argument("--alg", required=True, choices=ALGORITHMS)
    s.add_argument("--out", default="run")
    s.add_argument("--solver-trace", default=None,
                   help="with --alg dfd, also write one JSON record per master round")
    common_solver_args(s)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="evaluate a saved design against an instance")
    e.add_argument("--instance", required=True)
    e.add_argument("--design", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("compare", help="run several algorithms and tabulate")
    c.add_argument("--instances", nargs="+", required=True)
    c.add_argument("--algs", required=True, help="comma-separated algorithm ids")
    c.add_argument("--out", default="compare.csv")
    common_solver_args(c)
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InstanceParseError, CapExceeded, CycleCapError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
