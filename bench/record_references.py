"""Record the outputs that ``run.py`` compares every repetition against.

    python3 bench/record_references.py 1 2 3

Stores, in ``bench/references.json``, each heuristic workload's result
on its pinned instance and, for every seed given, the digest of each
workload's what-if sweep. Seeds without a digest are checked by
invariants alone. Record only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, WORK, import_program


def main(seeds) -> None:
    import_program()
    import workloads

    WORK.mkdir(exist_ok=True)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name, wl in workloads.WORKLOADS.items():
        entry = refs.setdefault(name, {})
        sweeps = entry.setdefault("sweeps", {})
        path = WORK / f"{name}.json"
        generated = workloads.write_instance(wl, path)
        for seed in seeds:
            digests = []
            for designs in workloads.sweeps(wl, generated, seed):
                inst = workloads.odmts.load_instance(path)
                digests.append(workloads.sweep(inst, designs, lambda: 0.0)[0])
            sweeps[str(seed)] = digests
            if wl.solve is not None and "result" not in entry:
                entry["result"] = workloads.solve(wl, workloads.odmts.load_instance(path))[0]
            print(name, seed, *digests, flush=True)
        entry["sweeps"] = dict(sorted(sweeps.items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
