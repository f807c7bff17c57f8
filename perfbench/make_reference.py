"""Write reference.json: the checked outputs of every workload.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/make_reference.py

For each workload it runs program seeds 0, 1, 2, ... until
POOL_SIZE of them pass the workload's own checks, and stores the values
its check compares, floats in round-trip form.  Seeds the program refuses
(kam-run exits 2 when a divisor falls below the small-divisor guard) are
listed under "refused" with the reason and never used.  Takes about ten
minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

MAX_SEED = 4 * POOL_SIZE


def main():
    ref = {}
    out_dir = os.path.join(ROOT, ".bench_build", "reference-work")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for name, w in WORKLOADS.items():
            pool, refused = {}, {}
            for seed in range(MAX_SEED):
                if len(pool) == POOL_SIZE:
                    break
                for f in os.listdir(out_dir):
                    os.remove(os.path.join(out_dir, f))
                values = w.outputs(w.run(seed, out_dir), out_dir).values
                problems = w.check(values, values)
                if problems:
                    refused[str(seed)] = problems
                else:
                    pool[str(seed)] = values
                print(name, seed, problems or "ok", file=sys.stderr,
                      flush=True)
            if len(pool) < POOL_SIZE:
                sys.exit(f"{name}: only {len(pool)} usable seeds below "
                         f"{MAX_SEED}")
            ref[name] = {"pool": pool, "refused": refused}
    finally:
        shutil.rmtree(out_dir)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
