"""Command-line front end.

Subcommands: ``generate`` (synthetic instances), ``solve`` (one
algorithm, writing design.json / evaluation.json / trace.csv),
``evaluate`` (re-score a saved design), ``compare`` (run several
algorithms and tabulate). Exit codes: 0 success, 1 usage, input or
config error (or a hard size cap), 2 any HiGHS failure; ``main`` alone
maps exception types to them, with one stderr line.

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
from collections import Counter
from pathlib import Path

from . import __version__
from .adoption import eval_design, exact_tiny
from .dfd import CapExceeded, SolveError, solve_dfd
from .generator import GeneratorConfig, TripClass, generate_synthetic
from .instance import (Instance, InstanceParseError, ValidationError, hub_pairs, load_instance,
                       read_json, save_instance)
from .router import Design
from .trace import HeuristicTrace, write_trace_csv
from .trip_heuristics import eta_grre, rho_gagr, rho_grad
from .arc_heuristics import arc_s1, arc_s2, check_rules

# The GeneratorConfig fields that ``generate`` takes as flags of the same name.
GENERATE_FLAGS = ("stops", "hubs", "square_km", "speed_kmh", "theta", "omega", "bus_rate",
                  "buses_per_leg", "wait", "ticket", "shuttle_between_hubs")


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
        if len(fields) != 2:
            raise ValueError(f"--classes group {spec!r} is not count:alpha")
        count = int(fields[0])
        alpha = None if fields[1] in ("core", "-") else float(fields[1])
        classes.append(TripClass(count=count, alpha=alpha, max_riders=args.max_riders))
    config = GeneratorConfig(
        classes=tuple(classes), **{name: getattr(args, name) for name in GENERATE_FLAGS},
        candidate=GeneratorConfig.candidate if args.nearest_k is None else args.nearest_k,
    )
    inst = generate_synthetic(config, seed=args.seed)
    text = save_instance(inst, args.out)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"wrote {args.out} stops={len(inst.stops)} hubs={len(inst.hubs)} "
          f"trips={len(inst.trips)} latent={len(inst.latent_trips)} sha256={digest}")
    return 0


def _rules(alg: str, rules) -> list:
    """``alg``'s rules from the --rules value, [] for its defaults; a count
    it cannot take or rules ``check_rules`` refuses raise."""
    rules = rules.split(",") if rules else []
    if alg == "arc-s1" and len(rules) > 1:
        raise ValueError("arc-s1 needs exactly one rule in --rules")
    if alg == "arc-s2" and len(rules) not in (0, 2):
        raise ValueError("arc-s2 needs --rules stage1,stage2")
    check_rules(rules)
    return rules


def _dfd(inst: Instance):
    trace = HeuristicTrace()
    sol = solve_dfd(inst, [t.id for t in inst.trips])
    trace.add(1, sol.design, sol.tset)
    return (*trace.finish(), {})


def _exact(inst: Instance):
    trace = HeuristicTrace()
    res = exact_tiny(inst)
    trace.add(1, res.design, res.tset)
    return (*trace.finish(), {"resolve_matches": res.resolve_matches})


def _grre(inst: Instance, eta):
    design, trace = eta_grre(inst, eta=eta)
    return design, trace, {"truncated": trace.truncated}


# Each algorithm's solver flags and its run, which takes them as keywords and
# returns (design, trace, extra): trace.tset is the trip set that produced the
# design, extra its own evaluation.json fields. Keys in --alg choice order.
ALGORITHMS = {
    "dfd": ((), _dfd),
    "exact": ((), _exact),
    "grad": (("rho",), lambda inst, **kw: (*rho_grad(inst, **kw), {})),
    "grre": (("eta",), _grre),
    "gagr": (("rho", "eta", "time_limit"), lambda inst, **kw: (*rho_gagr(inst, **kw), {})),
    "arc-s1": (("rules",), lambda inst, rules: (*arc_s1(inst, *_rules("arc-s1", rules)), {})),
    "arc-s2": (("rules",), lambda inst, rules: (*arc_s2(inst, *_rules("arc-s2", rules)), {})),
}


def _check_flags(algs, args) -> None:
    """Raises unless each of ``algs`` is known, each that takes --rules can
    take its value (``_rules``), and one of them takes each solver flag
    given; runs before any instance loads."""
    for alg in algs:
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
        if "rules" in ALGORITHMS[alg][0]:
            _rules(alg, args.rules)
    for dest in dict.fromkeys(f for flags, _ in ALGORITHMS.values() for f in flags):
        takers = [alg for alg, (flags, _) in ALGORITHMS.items() if dest in flags]
        if getattr(args, dest) is not None and not set(takers) & set(algs):
            raise ValueError(f"--{dest.replace('_', '-')} applies only to {' and '.join(takers)}")


def _run_algorithm(inst: Instance, alg: str, args):
    flags, run = ALGORITHMS[alg]
    return run(inst, **{dest: getattr(args, dest) for dest in flags})


def cmd_solve(args) -> int:
    _check_flags([args.alg], args)
    inst = load_instance(args.instance)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    design, trace, extra = _run_algorithm(inst, args.alg, args)
    wall = time.perf_counter() - t0
    ev = eval_design(inst, design, trace.tset)
    _write_json(out / "design.json", _design_doc(design, args.alg, trace.tset, ev.objective))
    doc = {"tool_version": __version__, **ev.to_dict(), **extra}
    _write_json(out / "evaluation.json", doc)
    write_trace_csv(out / "trace.csv", trace, header_note=f"tool_version={__version__}")
    print(f"algorithm={args.alg} objective={ev.objective!r} r_false={ev.r_false!r} "
          f"a_false={ev.a_false!r} wall_time={wall:.3f}s")
    return 0


def cmd_evaluate(args) -> int:
    inst = load_instance(args.instance)
    doc = read_json(args.design, "design")
    if not isinstance(doc, dict) or "open_arcs" not in doc:
        raise InstanceParseError(f"{args.design}: design file has no 'open_arcs' key")
    if not isinstance(doc["open_arcs"], list):
        raise InstanceParseError(f"{args.design}: 'open_arcs' must be a list of [h, l] hub pairs")
    pairs = hub_pairs(doc["open_arcs"], f"{args.design}: open_arcs entry")
    tset = doc.get("tset", [t.id for t in inst.trips])
    if not isinstance(tset, list):
        raise InstanceParseError(f"{args.design}: 'tset' must be a list of trip ids")
    ids = inst.trip_ids(tset, f"{args.design}: tset")
    for items, what in ((pairs, "arc {} in open_arcs"), (tset, "trip id {} in tset")):
        twice = [x for x, n in Counter(items).items() if n > 1]
        if twice:
            raise ValidationError(f"{args.design}: duplicate {what.format(twice[0])}")
    design = Design(inst, frozenset(pairs))
    ev = eval_design(inst, design, ids)
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
    algs = args.algs.split(",")
    if algs == [""]:
        raise ValueError("empty algorithm list")
    if "" in algs:
        raise ValueError(f"empty entry in --algs {args.algs!r}")
    _check_flags(algs, args)
    rows = []
    for inst_path in args.instances:
        inst = load_instance(inst_path)
        for alg in algs:
            t0 = time.perf_counter()
            try:
                design, trace, _ = _run_algorithm(inst, alg, args)
                ev = eval_design(inst, design, trace.tset)
                rows.append({
                    "instance": inst_path, "algorithm": alg, "status": "ok",
                    "objective": ev.objective, "r_false": ev.r_false,
                    "a_false": ev.a_false, **ev.kpis,
                    "time_s": time.perf_counter() - t0,
                })
            except (SolveError, CapExceeded, ValueError) as e:
                rows.append({
                    "instance": inst_path, "algorithm": alg,
                    "status": f"error: {e}", "time_s": time.perf_counter() - t0,
                })
    best = {}
    for r in rows:
        if r["status"] == "ok":
            best[r["instance"]] = min(best.get(r["instance"], r["objective"]), r["objective"])
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S')} tool_version={__version__}\n")
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        for r in rows:
            if r["status"] == "ok":
                r["gap_vs_best"] = r["objective"] - best[r["instance"]]
                for k in COMPARE_COLUMNS[3:-1]:  # objective through agency_net_cost
                    r[k] = repr(r[k])
            r["time_s"] = f"{r['time_s']:.3f}"
            writer.writerow(r)
    print(f"wrote {args.out} rows={len(rows)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 1, as ``main`` does for
    input errors. Subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="odmts", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance file")
    for name in GENERATE_FLAGS:
        default, flag = getattr(GeneratorConfig, name), "--" + name.replace("_", "-")
        if isinstance(default, bool):
            g.add_argument(flag, action="store_true")
        else:
            g.add_argument(flag, type=type(default), default=default)
    g.add_argument("--seed", type=int, default=0)
    classes = "/".join(f"{c.count}:{'core' if c.alpha is None else c.alpha}"
                       for c in GeneratorConfig.classes)
    g.add_argument("--classes", default=classes,
                   help="count:alpha groups split by '/', alpha 'core' marks core trips")
    g.add_argument("--max-riders", type=int, default=TripClass.max_riders)
    g.add_argument("--nearest-k", type=int, default=None,
                   help="restrict candidate arcs to the k nearest hubs per hub")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    def common_solver_args(sp):
        sp.add_argument("--rho", type=int, default=None)
        sp.add_argument("--eta", type=int, default=None)
        sp.add_argument("--rules", default=None, help="expansion rules, e.g. 'a' or 'd,a'")
        sp.add_argument("--time-limit", type=float, default=None)

    s = sub.add_parser("solve", help="run one algorithm and write a result bundle")
    s.add_argument("--instance", required=True)
    s.add_argument("--alg", required=True, choices=ALGORITHMS)
    s.add_argument("--out", default="run")
    common_solver_args(s)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="evaluate a saved design against an instance")
    e.add_argument("--instance", required=True)
    e.add_argument("--design", required=True)
    e.add_argument("--out", default=None)
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
    except SolveError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2
    except (CapExceeded, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
