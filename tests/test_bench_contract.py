"""What the benchmark in ``bench/`` reads of the program.

The benchmark checks each heuristic result against its trace
(``workloads.solve_errors``) and wraps functions by module and name
(``tracing.WRAPPED``). A change to ``odmts`` that breaks either shows
only when the benchmark runs, so these tests run both on a tiny
instance. They import ``bench/`` and change nothing there.
"""

import sys
from pathlib import Path

import pytest

import odmts
from odmts import GeneratorConfig, TripClass

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = GeneratorConfig(stops=16, hubs=4, buses_per_leg=4.0, bus_rate=0.5,
                       classes=(TripClass(6, None), TripClass(6, 2.0), TripClass(4, 1.5)))


@pytest.mark.parametrize("solve, matches_trace", [
    (workloads._gagr, workloads._best_record),
    (workloads._arc_s2, workloads._last_record),
], ids=["gagr", "arc-s2"])
def test_solve_passes_the_benchmark_checks(tmp_path, solve, matches_trace):
    wl = workloads.Workload(TINY, instance_seed=3, sweep_size=1, passes=1, solve=solve,
                            matches_trace=matches_trace)
    workloads.write_instance(wl, tmp_path / "inst.json")
    inst = odmts.load_instance(tmp_path / "inst.json")
    _, design, ev, trace = workloads.solve(wl, inst)
    assert workloads.solve_errors(wl, inst, design, ev, trace) == []

    # the same run with the tracer's wrappers installed, as ``--trace 1`` runs it
    tracer = tracing.Tracer()
    tracer.begin_rep()
    with tracer.installed():
        _, traced, ev, trace = workloads.solve(wl, odmts.load_instance(tmp_path / "inst.json"))
    tracer.end_rep()
    assert traced.key() == design.key()
    metrics = tracing.rep_metrics(*tracer.reps[0])
    assert metrics["dfd.solves"] > 0
    assert metrics["dfd.cuts"] == 1  # the run's one FlowModel builds every block at once


@pytest.mark.parametrize("module, name", tracing.WRAPPED)
def test_wrapped_function_exists(module, name):
    assert callable(getattr(getattr(odmts, module), name))
