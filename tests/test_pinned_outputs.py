"""Every algorithm's outputs on a few small instances, pinned by digest.

Each case hashes what a refactor must not move: the design, the ``repr``
of its objective, the sorted trip set, every trace record without its
wall time, and ``truncated``. ``iterations`` is left out: it follows
the solver's path (its warm basis and branching), which may change while
designs and objectives must not. A failing case names
the instance and the run whose outputs changed.
"""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from odmts import (
    arc_s1,
    arc_s2,
    eta_grre,
    eval_design,
    exact_tiny,
    rho_gagr,
    rho_grad,
    save_instance,
    solve_dfd,
)
from odmts.cli import ALGORITHMS, main
from odmts.router import Design, _table
from conftest import random_design, tiny_instance
from test_router import backbone_instance, non_metric, with_hub_trips

INSTANCES = {
    "tiny0": lambda: tiny_instance(0),
    "tiny3": lambda: tiny_instance(3),
    "backbone": backbone_instance,
    "hub_shuttles": lambda: with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4),
                                           shuttle_between_hubs=True),
    "non_metric": lambda: non_metric(with_hub_trips(tiny_instance(2, n_stops=8, n_hubs=4))),
}

HEURISTICS = {
    "grad": rho_grad,
    "grre": eta_grre,
    "gagr": rho_gagr,
    **{f"arc-s1-{r}": (lambda inst, r=r: arc_s1(inst, r)) for r in "abcd"},
    "arc-s2-d,a": lambda inst: arc_s2(inst, "d", "a"),
    "arc-s2-b,a": lambda inst: arc_s2(inst, "b", "a"),
}


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def run_digest(inst, name) -> str:
    if name == "dfd":
        sol = solve_dfd(inst, [t.id for t in inst.trips])
        return digest(sol.design.key(), repr(sol.objective), sorted(sol.tset))
    if name == "exact":
        res = exact_tiny(inst)
        return digest(res.design.key(), repr(res.evaluation.objective), sorted(res.tset),
                      res.resolve_design.key(), res.resolve_matches)
    design, trace = HEURISTICS[name](inst)
    records = [(r.k, r.stage, r.tset_size, r.fingerprint, repr(r.objective), r.adopters)
               for r in trace.records]
    objective = eval_design(inst, design, trace.tset).objective
    return digest(design.key(), repr(objective), sorted(trace.tset), records, trace.truncated)


# A refactor keeps every digest; only a deliberate change of results may move one.
PINNED = {
    "tiny0": {
        "dfd": "18b945f8219c7332",
        "exact": "a0eecc304d6c7ef5",
        "grad": "bdfb401bf0d6b151",
        "grre": "77da3029f772b86c",
        "gagr": "dbc32ed4e983859e",
        "arc-s1-a": "1b418dc5c637158a",
        "arc-s1-b": "5d1eeab59f1f75e7",
        "arc-s1-c": "51c43851c543e319",
        "arc-s1-d": "5d1eeab59f1f75e7",
        "arc-s2-d,a": "378ce55709549d2f",
        "arc-s2-b,a": "378ce55709549d2f",
    },
    "tiny3": {
        "dfd": "b9f3d72760c03b79",
        "exact": "26780832c99ae651",
        "grad": "080c2e256c3dfe88",
        "grre": "09f213dc6d65dc18",
        "gagr": "6d04715d32fe50a2",
        "arc-s1-a": "2630ed285c0e50c0",
        "arc-s1-b": "193611cc30409787",
        "arc-s1-c": "193611cc30409787",
        "arc-s1-d": "d8eef37fb30d0476",
        "arc-s2-d,a": "6615aebde6955b8a",
        "arc-s2-b,a": "ecae20690d0e3684",
    },
    "backbone": {
        "dfd": "e079ff58feb8a1e9",
        "exact": "3092c93b46747219",
        "grad": "b599ed63f98bc1ca",
        "grre": "4e9440e6dd31a27d",
        "gagr": "77d56a8bbbf4a74a",
        "arc-s1-a": "b4149e177d0de41e",
        "arc-s1-b": "cad96186b93ee2bd",
        "arc-s1-c": "b7ade82a260cd3ce",
        "arc-s1-d": "5e495e9e4498bb0b",
        "arc-s2-d,a": "fb849ef419b7fa22",
        "arc-s2-b,a": "2e9eddfd21fdc6c3",
    },
    "hub_shuttles": {
        "dfd": "7fa67bf3c64959e4",
        "exact": "dc35711d4fcd4a9e",
        "grad": "01e442cfb3935a25",
        "grre": "917aec0665f0885e",
        "gagr": "c01355eb75e12d95",
        "arc-s1-a": "03d4992d05e167fb",
        "arc-s1-b": "cdc6f5685c21ce6d",
        "arc-s1-c": "d768808e0c3e89ea",
        "arc-s1-d": "de515d811da64704",
        "arc-s2-d,a": "3124564a6165ce4b",
        "arc-s2-b,a": "988d53432e155e9f",
    },
    "non_metric": {
        "dfd": "5bb88dc28ed439ed",
        "exact": "10176012bf85e8b6",
        "grad": "1ed47dcd16858829",
        "grre": "902784dffa5d4bb4",
        "gagr": "902784dffa5d4bb4",
        "arc-s1-a": "2c345cd01027fb00",
        "arc-s1-b": "38ecd521d38d2479",
        "arc-s1-c": "1bad7e9091e512a2",
        "arc-s1-d": "c43e75f476460379",
        "arc-s2-d,a": "e0e1d9269ec23e58",
        "arc-s2-b,a": "bd79c74a91432b78",
    },
}


@pytest.mark.parametrize("inst_name", list(INSTANCES))
def test_runs_pinned(inst_name):
    inst = INSTANCES[inst_name]()
    got = {name: run_digest(inst, name) for name in ["dfd", "exact", *HEURISTICS]}
    assert got == PINNED[inst_name]


def solve_outputs(out) -> str:
    """``design.json``, ``evaluation.json`` and ``trace.csv`` without
    its ``#`` line and ``wall_time`` column."""
    evaluation = json.loads((out / "evaluation.json").read_text())
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    rows = [row[:-1] for row in csv.reader(io.StringIO("".join(lines[1:])))]
    assert lines[0].startswith("#") and rows[0] == ["k", "stage", "tset_size", "open_arcs",
                                                      "objective", "adopters"]
    return digest((out / "design.json").read_text(), json.dumps(evaluation, sort_keys=True), rows)


SOLVE_PINNED = {
    "dfd": "326869dde68926fd",
    "exact": "151df9489466fad4",
    "grad": "a5d69d0565bf85fe",
    "grre": "5abf5d64232400a4",
    "gagr": "d9dba43a4bcdbcf6",
    "arc-s1": "facf550fdf48e75b",
    "arc-s2": "6bde3fd8b9c99f89",
}


def test_solve_outputs_pinned(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_instance(tiny_instance(3), path)
    got = {}
    for alg in ALGORITHMS:
        out = tmp_path / alg
        assert main(["solve", "--instance", str(path), "--alg", alg, "--out", str(out)]) == 0
        got[alg] = solve_outputs(out)
    assert got == SOLVE_PINNED


def table_digest(inst) -> str:
    """The hub-path table's picks and decided flags for the instance trips
    under the minimal design and seeded random designs."""
    rng = np.random.default_rng(len(inst.trips))
    designs = [Design.minimal(inst)] + [random_design(inst, rng) for _ in range(8)]
    return digest([[a.tolist() for a in _table(z)[:2]] for z in designs])


TABLE_PINNED = {
    "tiny0": "79dc62b21298fe82",
    "tiny3": "ee308dd12d76f8dd",
    "backbone": "da5a5f4c17fd928d",
    "hub_shuttles": "f36e997af06997a4",
    "non_metric": "f9aa45af18f708e4",
}


@pytest.mark.parametrize("inst_name", list(INSTANCES))
def test_table_pinned(inst_name):
    assert table_digest(INSTANCES[inst_name]()) == TABLE_PINNED[inst_name]
