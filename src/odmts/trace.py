"""Per-iteration trace shared by all heuristic algorithms."""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .router import Design


@dataclass(frozen=True)
class TraceRecord:
    k: int
    stage: int
    tset_size: int
    fingerprint: str
    objective: float
    adopters: int
    wall_time: float


class HeuristicTrace:
    """Iteration log of one heuristic run. ``finish`` records the trip set
    that generated the returned design (the basis for false rejection and
    adoption rates) and whether the run was truncated."""

    def __init__(self):
        self.records = []
        self.tset = frozenset()
        self.truncated = False

    def add(self, k, stage, tset_size, design, objective, adopters, wall_time):
        self.records.append(TraceRecord(k, stage, tset_size, design.fingerprint(), float(objective),
                                        int(adopters), float(wall_time)))

    @property
    def objectives(self) -> list:
        return [r.objective for r in self.records]

    def finish(self, design: Design, tset, truncated: bool = False) -> "HeuristicTrace":
        if not any(r.fingerprint == design.fingerprint() for r in self.records):
            raise RuntimeError(f"finished on design {design.fingerprint()} never traced")
        self.tset = frozenset(tset)
        self.truncated = truncated
        return self


TRACE_COLUMNS = ["k", "stage", "tset_size", "open_arcs", "objective", "adopters", "wall_time"]


def write_trace_csv(path, trace: HeuristicTrace, header_note: str) -> None:
    """A ``# header_note`` line, then the records: wall_time is inherently
    run-dependent, every other column deterministic for a fixed seed."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [r.k, r.stage, r.tset_size, r.fingerprint, repr(r.objective), r.adopters, f"{r.wall_time:.3f}"]
            )
