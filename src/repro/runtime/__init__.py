"""repro.runtime: the parallel batched execution engine.

The photon pipeline (encode -> display -> capture -> decode) is
embarrassingly parallel per camera frame.  This package supplies the
execution substrate that exploits it without changing a single decoded
bit:

* :mod:`~repro.runtime.scheduler` -- deterministic chunk plans and
  spawn-keyed per-item RNG streams (the determinism contract);
* :mod:`~repro.runtime.shm` -- a small shared-memory slot pool that moves
  frames between processes without pickling them;
* :mod:`~repro.runtime.engine` -- a crash-tolerant process-pool mapper
  with windowed dispatch, bounded retry and serial fallback;
* :mod:`~repro.runtime.profiler` -- the :class:`RuntimeReport`
  (frames/sec, bits/sec, and a stage breakdown summed from the run's
  stage spans -- spans are the only stage timer);
* :mod:`~repro.runtime.link_exec` -- the capture+observe job that
  ``run_link(..., workers=N)`` dispatches.

See ``docs/runtime.md`` for the design.
"""

from repro.runtime.engine import (
    EngineStats,
    ExecutionEngine,
    default_workers,
    resolve_start_method,
)
from repro.runtime.link_exec import LinkExecution, execute_link_captures
from repro.runtime.profiler import RuntimeReport
from repro.runtime.scheduler import WorkChunk, plan_chunks, spawn_rng
from repro.runtime.shm import SharedFramePool, SlotRef, shared_memory_available

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "LinkExecution",
    "RuntimeReport",
    "SharedFramePool",
    "SlotRef",
    "WorkChunk",
    "default_workers",
    "execute_link_captures",
    "plan_chunks",
    "resolve_start_method",
    "shared_memory_available",
    "spawn_rng",
]
