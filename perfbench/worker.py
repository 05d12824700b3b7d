"""Set up and measure one workload in this process; print one JSON line.

``run.py`` starts this once per workload (plus ``--setup-only`` copies to
time set-up in fresh processes), so resource usage never carries over from
another workload.  Not meant to be run by hand.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from tracer import ENCODE, INTEGRATE, LAYERS, OpTrace, Tracer  # noqa: E402
from workloads import SETUPS, WORKLOADS, OpResult, load_references, timed_op  # noqa: E402

#: end-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "realtime_factor": "s/s",
    "op_s_p50": "s",
    "cpu_s_per_sim_s": "s/s",
    "peak_rss_mb": "MB",
    "sim_goodput_kbps": "kbps",
}

#: per-layer metric -> unit (reported with ``--trace 1``).
PER_LAYER = {
    f"{layer}.{kind}": unit
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"))
}
PER_LAYER.update(
    {
        "display.encodes_per_frame": "ratio",
        "display.renders_per_read": "ratio",
        "serve.reuse_ratio": "ratio",
        "transport.rounds": "count",
        "transport.recovered_ratio": "ratio",
        "runtime.chunks": "count",
        "runtime.retries": "count",
        "trace.op_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    }
)

#: Where traced runs write their spans, inside the checkout.
TRACE_DIR = Path(".bench_build") / "perfbench"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _extra(results: list[OpResult], key: str) -> list[float]:
    return [r.extras[key] for r in results if key in r.extras]


def measure(bench: Any, seed: int, seconds: float) -> tuple[list[OpResult], dict[str, float]]:
    """Closed loop, tracing off: operations back to back for *seconds*.

    Rates are medians of per-operation rates, so one operation slowed by
    the host does not move them.  Each operation's pools are joined before
    it returns, so its CPU includes its reaped workers'.
    """
    workload = bench.workload
    references = load_references(workload.name)
    deadline = time.perf_counter() + seconds
    results: list[OpResult] = []
    cpu_per_sim: list[float] = []
    while len(results) < workload.min_ops or time.perf_counter() < deadline:
        op_seed = workload.op_seed(seed, len(results))
        cpu0 = _cpu_s()
        result = timed_op(bench, op_seed, references.get(str(op_seed)), bench.workers)
        results.append(result)
        cpu_per_sim.append((_cpu_s() - cpu0) / result.sim_s if result.sim_s else 0.0)
    metrics = {
        "realtime_factor": statistics.median(r.sim_s / r.host_s for r in results),
        "op_s_p50": statistics.median(r.host_s for r in results),
        "cpu_s_per_sim_s": statistics.median(cpu_per_sim),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_goodput_kbps": _mean([r.goodput_kbps for r in results[: workload.min_ops]]),
    }
    return results, metrics


def measure_traced(
    bench: Any, seed: int, seconds: float, trace_path: Path
) -> tuple[list[OpResult], dict[str, float]]:
    """Pairs of untraced and traced operations on the same inputs, for *seconds*.

    transfer-video's pairs run at ``workers=1`` so every layer's spans are
    visible; a third, traced ``workers=2`` operation per input gives the
    runtime layer.
    """
    workload = bench.workload
    references = load_references(workload.name)
    pooled = bench.workers is not None and bench.workers > 1
    traced_workers = 1 if pooled else bench.workers
    tracer = Tracer()
    ops, pool_ops = OpTrace(), OpTrace()
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    pool_results: list[OpResult] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 1 or time.perf_counter() < deadline:
        op_seed = workload.op_seed(seed, index)
        reference = references.get(str(op_seed))
        # Alternate which of the pair runs first, so warm caches favour neither.
        for traced_turn in (False, True) if index % 2 == 0 else (True, False):
            if traced_turn:
                root = len(tracer.spans)
                traced.append(timed_op(bench, op_seed, reference, traced_workers, tracer))
                ops.add(tracer.spans, root)
            else:
                plain.append(timed_op(bench, op_seed, reference, traced_workers))
        if pooled:
            root = len(tracer.spans)
            pool_results.append(timed_op(bench, op_seed, reference, bench.workers, tracer))
            pool_ops.add(tracer.spans, root)
        index += 1
    tracer.export(trace_path, {"workload": workload.name, "seed": seed})

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        source = pool_ops if pooled and layer == "runtime.engine" else ops
        calls, self_s, p50_ms = source.per_op(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.p50_ms"] = p50_ms
    frames = sum(r.display_frames for r in traced)
    metrics["display.encodes_per_frame"] = ops.targets.get(ENCODE, 0) / frames if frames else 0.0
    metrics["display.renders_per_read"] = (
        ops.targets.get(INTEGRATE, 0) / ops.average_reads if ops.average_reads else 0.0
    )
    metrics["serve.reuse_ratio"] = _mean(_extra(traced, "serve.reuse_ratio"))
    metrics["transport.rounds"] = _mean(_extra(traced, "transport.rounds"))
    sent = sum(_extra(traced, "transport.packets_sent"))
    recovered = sum(_extra(traced, "transport.packets_recovered"))
    metrics["transport.recovered_ratio"] = recovered / sent if sent else 0.0
    runtime_source = pool_results if pooled else traced
    metrics["runtime.chunks"] = _mean(_extra(runtime_source, "runtime.chunks"))
    metrics["runtime.retries"] = _mean(_extra(runtime_source, "runtime.retries"))
    metrics["trace.op_s"] = ops.wall_s / ops.ops
    metrics["trace.unattributed_s"] = ops.unattributed_s / ops.ops
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.host_s for r in traced)
        / statistics.median(r.host_s for r in plain)
        - 1.0
    )
    return plain + traced + pool_results, metrics


def host_stamp() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bench = SETUPS[args.workload]()
    setup_s = time.perf_counter() - T_START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        bench.warm()
        if args.trace:
            trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            results, metrics = measure_traced(bench, args.seed, args.seconds, trace_path)
        else:
            results, metrics = measure(bench, args.seed, args.seconds)
    finally:
        bench.close()
    failures = [f"op {i}: {r.detail}" for i, r in enumerate(results) if not r.ok]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "setup_s": setup_s,
                "attempted": len(results),
                "failed": len(failures),
                "failures": failures[:5],
                "op_s": [r.host_s for r in results],
                "metrics": metrics,
                "host": host_stamp(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
