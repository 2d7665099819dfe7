"""odmts benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload trip-gagr --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory; without
it the run exits 1 and prints no result. Each repetition loads a fresh
instance from the file the benchmark wrote, because ``Instance`` and
``Design`` memoize routes and cuts, and the next repetition starts when
the previous one returns, until ``--seconds`` have passed (at least two
repetitions, three when traced) and, untraced, a whole pass over the
seed's what-if designs is done. On the heuristic workloads each solve is
followed by a short what-if sweep, which supplies the evaluations.

Every timing is in reference seconds (``pace.py``): wall time with the
host's pace divided out, because the shared host's speed moves by up
to two times within minutes.

The last stdout line is the result. With ``--trace 0`` it holds the
end-to-end metrics, medians over the run. With ``--trace 1`` the run
alternates traced and untraced repetitions and reports the per-layer
metrics of the traced ones; their spans go to ``bench/_work/``. The
line before the result holds the samples, in reference and in wall
seconds, the pace probes and the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"

# Standalone set-ups measured after each untraced operation, so that
# setup_s is a median over samples spread across the whole run.
EXTRA_SETUPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "eval_ms_p50": "ms",
    "eval_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_cold"):
        return "us"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def import_program():
    """Import ``odmts`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import odmts
    except ImportError as e:
        sys.exit(f"cannot import odmts from {src}: {e}")
    if src not in Path(odmts.__file__).resolve().parents:
        sys.exit(f"odmts was imported from {odmts.__file__}, not from {src}")
    return odmts


def cpu_ticks() -> tuple:
    """(steal, total) clock ticks of the host, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def machine_record() -> dict:
    model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
    }


class Run:
    """Samples, outputs and failures of one benchmark run."""

    def __init__(self, odmts, workloads, tracing, name, seed, rotate):
        self.odmts = odmts
        self.workloads = workloads
        self.wl = workloads.WORKLOADS[name]
        self.tracer = tracing.Tracer()
        self.path = WORK / f"{name}.json"
        generated = workloads.write_instance(self.wl, self.path)
        self.sweeps = workloads.sweeps(self.wl, generated, seed)
        # Traced runs repeat the first sweep, so that their counts repeat.
        self.rotate = rotate
        self.sweeps_done = 0
        refs = json.loads(REFERENCES.read_text()).get(name, {})
        self.ref_result = refs.get("result")
        self.ref_digests = refs.get("sweeps", {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        # (start, end) perf_counter times of each sample
        self.setup_s = []
        self.solve_s = []  # untraced repetitions
        self.traced_solve_s = []  # aligned with self.tracer.reps
        self.eval_s = []
        self.outputs = {}

    def setup(self, traced=False):
        """The work every ``odmts`` invocation does before solving."""
        t0 = time.perf_counter()
        inst = self.odmts.load_instance(self.path)
        with self.tracer.span("instance.metric_consistent") if traced else contextlib.nullcontext():
            inst.metric_consistent
        self.odmts.router.weights_of(inst)
        return inst, (t0, time.perf_counter())

    def passes_done(self) -> bool:
        """Whether the sweeps so far make the workload's whole passes
        over the seed's designs, so that each design weighs the same."""
        n = len(self.sweeps)
        return self.sweeps_done % n == 0 and self.sweeps_done >= n * self.wl.passes

    def operation(self, kind, traced=False):
        """One timed repetition: a fresh set-up, then a heuristic solve or
        a what-if sweep, then its checks. Returns the (start, end) times
        of the operation, or None when it failed."""
        self.attempted += 1
        if kind == "sweep":
            part = self.sweeps_done % len(self.sweeps) if self.rotate else 0
            self.sweeps_done += 1
            designs = self.sweeps[part]
        gc.collect()
        if traced:
            self.tracer.begin_rep()
        try:
            with self.tracer.installed() if traced else contextlib.nullcontext():
                inst, setup_s = self.setup(traced)
                t0 = time.perf_counter()
                if kind == "solve":
                    record, design, ev, trace = self.workloads.solve(self.wl, inst)
                else:
                    digest, times, evals = self.workloads.sweep(inst, designs, time.perf_counter)
                elapsed = (t0, time.perf_counter())
            if kind == "solve":
                key, output, ref = kind, record, self.ref_result
                errors = self.workloads.solve_errors(self.wl, inst, design, ev, trace)
            else:
                key, output = (kind, part), digest
                ref = self.ref_digests[part] if self.ref_digests else None
                fresh, _ = self.setup()
                errors = self.workloads.sweep_errors(inst, designs, evals, fresh)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if traced:
            self.tracer.end_rep()
        else:
            self.setup_s.append(setup_s)
            self.setup_s.extend(self.setup()[1] for _ in range(EXTRA_SETUPS))
            if kind == "sweep":
                self.eval_s.extend(times)
        if ref is not None and output != ref:
            errors.append(f"{kind} output differs from the recorded reference")
        first = self.outputs.setdefault(key, output)
        if output != first:
            errors.append(f"{kind} output differs from the run's first repetition")
        if errors:
            print(f"failed {kind}: " + "; ".join(errors), file=sys.stderr)
            self.failed += 1
        return elapsed


def medians(pacer, intervals) -> tuple:
    """Median of the intervals in reference and in wall seconds."""
    return (statistics.median(pacer.reference_s(*i) for i in intervals),
            statistics.median(t1 - t0 - pacer.busy(t0, t1) for t0, t1 in intervals))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    odmts = import_program()
    import pace
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    run = Run(odmts, workloads, tracing, args.workload, args.seed, rotate=not args.trace)
    kind = "solve" if run.wl.solve else "sweep"
    steal0, total0 = cpu_ticks()

    pacer = pace.Pacer()
    start = time.perf_counter()
    min_reps = 3 if args.trace else 2
    rep = 0
    with pacer:
        while True:
            spent = time.perf_counter() - start
            whole = args.trace or run.passes_done()
            if rep >= min_reps and spent >= args.seconds and whole:
                break
            traced = bool(args.trace) and rep % 2 == 0
            elapsed = run.operation(kind, traced)
            if elapsed is not None:
                (run.traced_solve_s if traced else run.solve_s).append(elapsed)
            if kind == "solve" and not args.trace:
                run.operation("sweep")  # eval latency on this workload's instance
            rep += 1

    steal1, total1 = cpu_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not run.solve_s or (args.trace and not run.traced_solve_s):
        sys.exit("no repetition completed; nothing to report")

    solve_s, solve_wall_s = medians(pacer, run.solve_s)
    if args.trace:
        per_rep = [
            tracing.rep_metrics(*r, work=lambda a, b: b - a - pacer.busy(a, b),
                                factor=pacer.factor(*interval))
            for r, interval in zip(run.tracer.reps, run.traced_solve_s)
        ]
        for other in per_rep[1:]:
            moved = [k for k in tracing.COUNT_METRICS if other[k] != per_rep[0][k]]
            if moved:
                print(f"failed: counts differ between traced repetitions: {moved}", file=sys.stderr)
                run.failed += 1
        values = tracing.layer_metrics(per_rep)
        traced_s, _ = medians(pacer, run.traced_solve_s)
        values["trace.overhead_pct"] = 100.0 * (traced_s / solve_s - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        run.tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
    else:
        eval_s = [pacer.reference_s(*i) for i in run.eval_s]
        values = {
            "setup_s": medians(pacer, run.setup_s)[0],
            "solve_s": solve_s,
            "eval_ms_p50": 1000.0 * statistics.median(eval_s),
            "eval_ms_p90": 1000.0 * statistics.quantiles(eval_s, n=10)[8],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {
            "setup_s": [pacer.reference_s(*i) for i in run.setup_s],
            "solve_s": [pacer.reference_s(*i) for i in run.solve_s],
            "traced_solve_s": [pacer.reference_s(*i) for i in run.traced_solve_s],
            "eval_ms_count": len(run.eval_s),
            "wall_median": {
                "setup_s": medians(pacer, run.setup_s)[1],
                "solve_s": solve_wall_s,
                "eval_ms_p50": 1000.0 * medians(pacer, run.eval_s)[1] if run.eval_s else None,
            },
        },
        "pace": {
            "probes": len(pacer.samples),
            "probe_ms_quartiles": [1000.0 * q for q in statistics.quantiles(
                [p for _, _, p in pacer.samples], n=4)],
            "probe_share": sum(t1 - t0 for t0, t1, _ in pacer.samples) / (time.perf_counter() - start),
        },
        "machine": {**machine_record(), "steal_ticks": steal1 - steal0, "total_ticks": total1 - total0},
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
