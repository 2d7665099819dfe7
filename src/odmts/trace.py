"""Per-iteration trace shared by all heuristic algorithms."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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


@dataclass
class HeuristicTrace:
    """Iteration log plus the returned design and the trip set that
    generated it (the basis for false rejection/adoption rates)."""

    records: list = field(default_factory=list)
    design: Design | None = None
    tset: frozenset = frozenset()
    truncated: bool = False

    def add(self, k, stage, tset_size, design, objective, adopters, wall_time):
        self.records.append(
            TraceRecord(
                k=k,
                stage=stage,
                tset_size=tset_size,
                fingerprint=design.fingerprint(),
                objective=float(objective),
                adopters=int(adopters),
                wall_time=float(wall_time),
            )
        )

    @property
    def objectives(self) -> list:
        return [r.objective for r in self.records]

    def finish(self, design: Design, tset, truncated: bool = False) -> "HeuristicTrace":
        self.design = design
        self.tset = frozenset(tset)
        self.truncated = truncated
        if not any(r.fingerprint == design.fingerprint() for r in self.records):
            raise RuntimeError(f"finished on design {design.fingerprint()} never traced")
        return self


TRACE_COLUMNS = ["k", "stage", "tset_size", "open_arcs", "objective", "adopters", "wall_time"]


def write_trace_csv(path, trace: HeuristicTrace, header_note: str = "") -> None:
    """The wall_time column is inherently run-dependent; every other
    column is deterministic for a fixed seed."""
    with open(path, "w", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [r.k, r.stage, r.tset_size, r.fingerprint, repr(r.objective), r.adopters, f"{r.wall_time:.3f}"]
            )
