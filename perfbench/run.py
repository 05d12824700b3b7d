"""The repository benchmark: real-time factor and per-layer cost of InFrame.

Runs from the repository root; needs nothing but the sources under
``src/``::

    python3 perfbench/run.py                       # every workload, tracing off
    python3 perfbench/run.py --workload fleet --seed 2 --seconds 25 --trace 1

Each workload runs in its own process (``worker.py``), after four more
processes that only set up, so ``setup_s`` is a median of five fresh
set-ups.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOAD_NAMES = tuple(PLAN["workloads"])

#: Fresh-process set-ups per workload (the measuring process is one).
SETUP_REPEATS = 5
#: Every process of one workload must end within this many seconds.
WORKLOAD_BUDGET_S = 170.0
RESULT_DIR = ROOT / ".bench_build" / "perfbench"


class BenchError(RuntimeError):
    """A workload process failed or produced no result."""


def _child(args: list[str], deadline: float) -> dict[str, Any]:
    """Run ``worker.py`` with *args*; return the JSON of its last line."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pool workers share the group we kill
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    result: dict[str, Any] = json.loads(lines[-1])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict[str, Any]:
    """Measure one workload; the worker's record plus the set-up samples."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child([*common, "--setup-only"], deadline)["setup_s"])
    record = _child([*common, "--trace", str(trace)], deadline)
    setups.append(record["setup_s"])
    record["setup_samples"] = setups
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
    return record


def _units(trace: int) -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    from worker import END_TO_END, PER_LAYER

    return PER_LAYER if trace else END_TO_END


def report(record: dict[str, Any], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """Print one workload's table; return its metrics in the output shape."""
    host = record["host"]
    attempted, failed = record["attempted"], record["failed"]
    ops = record["op_s"]
    print(
        f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"cpus={host['usable_cpus']}  numpy={host['numpy']}  scipy={host['scipy']}  "
        f"python={host['python']}"
    )
    print(
        f"   operations: {attempted} attempted, {failed} failed "
        f"(fail_ratio {failed / attempted:.3f}); op seconds: "
        + ", ".join(f"{t:.2f}" for t in ops)
    )
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    per_op = ("realtime_factor", "op_s_p50", "cpu_s_per_sim_s")
    samples = {"setup_s": len(record["setup_samples"]), **{name: len(ops) for name in per_op}}
    metrics = {}
    for name, unit in units.items():
        value = record["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        n = samples.get(name)
        print(f"   {name:34s} {value:14.6g} {unit:6s}" + (f" (n={n})" if n else ""))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=PLAN["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = _units(args.trace)
    attempted = failed = 0
    out_metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        deadline = time.monotonic() + WORKLOAD_BUDGET_S
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        RESULT_DIR.mkdir(parents=True, exist_ok=True)
        (RESULT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        metrics = report(record, units)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        out_metrics.update({prefix + k: v for k, v in metrics.items()})
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in out_metrics.values())
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
