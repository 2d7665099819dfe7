"""Per-iteration trace shared by all heuristic algorithms."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from .adoption import _scored


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
    """The steps of one heuristic run: each step's (design, trip set) in
    ``steps`` and its record in ``records``. ``finish`` picks the step
    the run returns and records its trip set (the basis for false
    rejection and adoption rates) and whether the run was truncated."""

    def __init__(self):
        self.records = []
        self.steps = []
        self.tset = frozenset()
        self.truncated = False
        self._clock = time.perf_counter()

    def add(self, stage, design, tset) -> None:
        """Record ``design``, produced by the trip set ``tset``, as step
        ``len(records)`` (a run numbers its steps from 0 across its
        stages), with its score (``_scored``) and the seconds since the
        previous record, or since the trace began."""
        score, tset = _scored(design), frozenset(tset)
        now = time.perf_counter()
        self.records.append(TraceRecord(len(self.records), stage, len(tset), design.fingerprint(), score.objective,
                                        len(score.adopters), now - self._clock))
        self.steps.append((design, tset))
        self._clock = now

    @property
    def objectives(self) -> list:
        return [r.objective for r in self.records]

    def finish(self, least: bool = False, truncated: bool = False):
        """(design, trace) for the last step, or with ``least`` the first
        step of least objective; ``tset`` becomes that step's trip set."""
        objectives = self.objectives
        i = min(range(len(objectives)), key=objectives.__getitem__) if least else -1
        design, self.tset = self.steps[i]
        self.truncated = truncated
        return design, self


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
