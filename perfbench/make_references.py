"""Write the committed reference outputs of one workload's input pool.

Runs every pool entry once, serially (``workers=1``; the benchmark's
``workers=2`` transfers must reproduce these bytes), through the same
set-up the benchmark uses, and stores one record per operation seed in
``references/<workload>.json``.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_references.py --workload fleet

A reference changes only when the program's outputs change on purpose;
regenerating one to make a failing run pass defeats the check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import REFERENCE_DIR, SETUPS, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    bench = SETUPS[workload.name]()
    try:
        bench.warm()
        records = {}
        for seed in range(workload.pool):
            t0 = time.perf_counter()
            run = bench.run(seed, 1)
            scored = bench.score(run, seed, time.perf_counter() - t0)
            record = bench.record(run)
            if not scored.ok:
                print(f"seed {seed}: operation failed: {scored.detail}", file=sys.stderr)
                return 1
            records[str(seed)] = record
            print(f"{workload.name} seed {seed}: {scored.host_s:.2f} s", flush=True)
    finally:
        bench.close()
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
