"""Store reference outputs for the benchmark's correctness checks.

Usage: python3 bench/make_reference.py

Run from the root of a pdqw checkout at the commit whose outputs become the
reference. For every workload and seeds 0..REFERENCE_SEEDS-1 it runs the workload once
and stores the digest of its outputs and the numbers checks.reference_values
picks, in bench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
from run_bench import REFERENCE, WORK_DIR, WORKLOADS, _git_commit, run_rep

REFERENCE_SEEDS = 32


def main() -> int:
    table = {"commit": _git_commit()}
    run_dir = WORK_DIR / "reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        for w in WORKLOADS.values():
            (run_dir / "config.yaml").write_text(json.dumps(w.config()))
            seeds = {}
            for seed in range(REFERENCE_SEEDS):
                out_dir = run_dir / "out"
                rep = run_rep(w, seed, run_dir, out_dir, False, time.perf_counter())
                if not rep.ok:
                    print(f"{w.name} seed {seed}: {rep.problems}", file=sys.stderr)
                    return 1
                values = checks.reference_values(w, out_dir)
                seeds[str(seed)] = {"digest": rep.digest, "values": list(values.values())}
            table[w.name] = {"config": w.config(), "keys": list(values), "seeds": seeds}
            print(f"{w.name}: {len(seeds)} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
