"""The process-pool execution engine.

:class:`ExecutionEngine` maps a module-level function over a list of work
items on a pool of worker processes, with the three properties the
photon pipeline needs and plain ``Pool.map`` lacks:

* **windowed dispatch** -- at most ``max_inflight`` items are in flight,
  so a bounded shared-memory pool can recycle slots as results drain;
* **crash robustness** -- a dying worker (OOM kill, native-extension
  fault) breaks a ``concurrent.futures`` pool for good; the engine
  detects the break, rebuilds the pool, retries the unfinished items a
  bounded number of times, and finally completes them in-process;
* **cheap context transfer** -- the per-run context (display timeline,
  camera, decoder, frame pool) is handed to workers through the pool
  initializer, which under the default ``fork`` start method is plain
  memory inheritance: nothing is pickled per task except the item.

Ordinary exceptions raised by the work function are *not* retried -- they
are deterministic and propagate to the caller unchanged.  Only pool
breakage (the process vanished) triggers the retry path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any

from repro.obs import Telemetry
from repro.obs.live import record_live
from repro.obs.trace import EXEC

#: ``func(item, context) -> result`` -- must be a module-level function.
WorkFn = Callable[[Any, Any], Any]
#: ``on_result(index, result)`` -- called the moment each item finishes.
ResultFn = Callable[[int, Any], None]
#: ``prepare(index, item) -> item`` -- called right before dispatch.
PrepareFn = Callable[[int, Any], Any]
#: ``tick(inflight_indices) -> indices_to_abandon`` -- a supervision hook
#: called at least every ``tick_interval_s`` during a pool pass.
TickFn = Callable[[Sequence[int]], Iterable[int]]
#: ``on_abandon(index, reason)`` -- reason is ``"tick"`` (abandoned by
#: the tick callback) or ``"crash"`` (per-item crash budget exhausted).
AbandonFn = Callable[[int, str], None]
#: ``dispatch_gate() -> bool`` -- False stops new items from dispatching.
GateFn = Callable[[], bool]


def default_workers() -> int:
    """A sensible worker count for this machine (CPUs, capped at 8)."""
    return max(1, min(os.cpu_count() or 1, 8))


def resolve_start_method() -> str | None:
    """The preferred multiprocessing start method, or None if unusable.

    ``fork`` makes context transfer free and is available on every POSIX
    platform; without it (Windows) the engine still works provided the
    context pickles, but callers should prefer serial there.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    return methods[0] if methods else None


@dataclass
class EngineStats:
    """What happened during one :meth:`ExecutionEngine.map` call."""

    mode: str = "serial"
    workers: int = 1
    items: int = 0
    retries: int = 0
    serial_items: int = 0  # items completed in-process (serial mode or fallback)
    crashes: int = 0  # pool breakages observed
    crashed_items: list[int] = field(default_factory=list)  # items a pool pass lost
    crash_counts: dict[int, int] = field(default_factory=dict)  # crashes per item
    abandoned_items: list[int] = field(default_factory=list)  # tick/crash abandons
    undispatched_items: list[int] = field(default_factory=list)  # gate-halted items
    errors: list[str] = field(default_factory=list)


# Per-worker context installed by the pool initializer (inherited state
# under fork; pickled once per worker otherwise).
_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(func: WorkFn, item: Any) -> Any:
    return func(item, _WORKER_CONTEXT)


class ExecutionEngine:
    """Maps a function over items on a crash-tolerant process pool.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` picks :func:`default_workers`, and
        ``<= 1`` runs everything in-process.
    max_retries:
        Pool rebuilds allowed after crashes before falling back.
    max_inflight:
        Bound on concurrently dispatched items (default ``workers + 2``);
        this is the window a :class:`~repro.runtime.shm.SharedFramePool`
        must cover.
    fallback_serial:
        Complete unfinished items in-process once retries are exhausted
        (or the pool cannot be built at all) instead of raising.
    start_method:
        Multiprocessing start method; default prefers ``fork``.
    telemetry:
        The :class:`~repro.obs.Telemetry` that receives exec-scoped pool
        accounting: one ``exec.pool_pass`` span per pool lifetime and
        ``exec.pool_builds`` / ``exec.pool_rebuilds`` counters.  Defaults
        to a private collector.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_retries: int = 2,
        max_inflight: int | None = None,
        fallback_serial: bool = True,
        start_method: str | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(int(workers), 1)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)
        self.max_inflight = (
            self.workers + 2 if max_inflight is None else max(int(max_inflight), 1)
        )
        self.fallback_serial = bool(fallback_serial)
        self.start_method = start_method or resolve_start_method()
        self.telemetry = telemetry if telemetry is not None else Telemetry(track="engine")
        self.stats = EngineStats()

    def _pass_span(
        self, n_pending: int, rebuild: bool
    ) -> AbstractContextManager[None]:
        """An exec-scoped span around one pool lifetime."""
        metrics = self.telemetry.metrics
        metrics.counter("exec.pool_builds", scope=EXEC).inc()
        if rebuild:
            metrics.counter("exec.pool_rebuilds", scope=EXEC).inc()
        return self.telemetry.tracer.span(
            "exec.pool_pass", category=EXEC, pending=n_pending, rebuild=rebuild
        )

    @property
    def parallel(self) -> bool:
        """Whether this engine will even try to use a pool."""
        return self.workers > 1 and self.start_method is not None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(
        self,
        func: WorkFn,
        items: Iterable[Any],
        context: Any = None,
        on_result: ResultFn | None = None,
        prepare: PrepareFn | None = None,
        *,
        tick: TickFn | None = None,
        tick_interval_s: float = 0.25,
        dispatch_gate: GateFn | None = None,
        on_abandon: AbandonFn | None = None,
        abandon_after_crashes: int | None = None,
    ) -> list[Any]:
        """Apply ``func(item, context)`` to every item; ordered results.

        *func* must be a module-level function (it crosses the process
        boundary by reference).  *on_result* is called as ``(index,
        result)`` the moment each item finishes -- out of order under a
        pool -- and is how callers drain shared-memory slots.  *prepare*
        is called as ``(index, item) -> item`` right before an item is
        dispatched (at most ``max_inflight`` items are prepared but not
        yet drained) and is how callers *acquire* those slots; the
        returned item replaces the original, so a retried item sees its
        own prepared state and can keep its slots.

        The supervision hooks (all optional, all no-ops by default):

        *tick* is called with the currently in-flight indices at least
        every *tick_interval_s* during a pool pass (and between items in
        serial mode, with an empty tuple -- a serial item cannot be
        interrupted).  Indices it returns are **abandoned**: their
        futures are dropped (the worker keeps running; its eventual
        result is discarded), their results stay ``None``, and
        *on_abandon* fires with reason ``"tick"``.  This is how the
        campaign master reclaims heartbeat-stale units without waiting
        out the whole batch.

        *dispatch_gate* is consulted before dispatching each item; once
        it returns False no further items are submitted, in-flight items
        drain normally, and the rest are recorded as
        ``stats.undispatched_items`` (never serially fallen back) --
        the graceful-drain path.

        *abandon_after_crashes* bounds how many crashed pool passes may
        lose one item before the engine stops retrying it and abandons
        it via *on_abandon* with reason ``"crash"`` -- the hook that
        keeps a worker-killing poison item from reaching the in-process
        serial fallback and taking the caller down with it.
        """
        items = list(items)
        self.stats = EngineStats(workers=self.workers, items=len(items))
        results: list[Any] = [None] * len(items)
        if not items:
            return results
        if not self.parallel or len(items) == 1:
            self.stats.mode = "serial"
            self._run_serial(
                func, items, context, range(len(items)), results, on_result, prepare,
                tick=tick, dispatch_gate=dispatch_gate,
            )
            return results

        self.stats.mode = "parallel"
        pending: deque[int] = deque(range(len(items)))
        attempts = 0
        while pending:
            if dispatch_gate is not None and not dispatch_gate():
                self.stats.undispatched_items.extend(pending)
                return results
            if attempts > self.max_retries:
                break
            try:
                with self._pass_span(len(pending), rebuild=attempts > 0):
                    crashed, leftover, broken = self._pool_pass(
                        func, items, context, pending, results, on_result, prepare,
                        tick=tick, tick_interval_s=tick_interval_s,
                        dispatch_gate=dispatch_gate, on_abandon=on_abandon,
                    )
            except OSError as exc:  # pool could not even be built
                self.stats.errors.append(repr(exc))
                break
            retry: list[int] = []
            for index in crashed:
                count = self.stats.crash_counts.get(index, 0) + 1
                self.stats.crash_counts[index] = count
                if index not in self.stats.crashed_items:
                    self.stats.crashed_items.append(index)
                if (
                    abandon_after_crashes is not None
                    and count >= abandon_after_crashes
                ):
                    self.stats.abandoned_items.append(index)
                    if on_abandon is not None:
                        on_abandon(index, "crash")
                else:
                    retry.append(index)
            pending = deque(retry + leftover)
            if broken:
                attempts += 1
                self.stats.crashes += 1
                if attempts <= self.max_retries and pending:
                    self.stats.retries += 1
            elif pending:
                # The pass ended cleanly but left items: the dispatch
                # gate closed mid-pass.  Record and stop -- a drain is
                # not a crash, so no serial fallback.
                self.stats.undispatched_items.extend(pending)
                return results
        if pending:
            if not self.fallback_serial:
                raise BrokenProcessPool(
                    f"{len(pending)} work items unfinished after "
                    f"{self.max_retries} pool retries"
                )
            self.stats.mode = "serial-fallback"
            self._run_serial(
                func, items, context, list(pending), results, on_result, prepare,
                tick=tick, dispatch_gate=dispatch_gate,
            )
        return results

    def _run_serial(
        self,
        func: WorkFn,
        items: list[Any],
        context: Any,
        indices: Iterable[int],
        results: list[Any],
        on_result: ResultFn | None,
        prepare: PrepareFn | None = None,
        tick: TickFn | None = None,
        dispatch_gate: GateFn | None = None,
    ) -> None:
        todo = list(indices)
        for position, index in enumerate(todo):
            if dispatch_gate is not None and not dispatch_gate():
                self.stats.undispatched_items.extend(todo[position:])
                return
            if tick is not None:
                tick(())  # nothing abandonable: the item runs to completion
            if prepare is not None:
                items[index] = prepare(index, items[index])
            results[index] = func(items[index], context)
            self.stats.serial_items += 1
            # Live progress is exec-scoped and advisory: a no-op unless
            # a LiveCollector is installed for this process.
            record_live("engine.items_done", self.stats.serial_items)
            if on_result is not None:
                on_result(index, results[index])

    def _pool_pass(
        self,
        func: WorkFn,
        items: list[Any],
        context: Any,
        pending: Sequence[int],
        results: list[Any],
        on_result: ResultFn | None,
        prepare: PrepareFn | None = None,
        tick: TickFn | None = None,
        tick_interval_s: float = 0.25,
        dispatch_gate: GateFn | None = None,
        on_abandon: AbandonFn | None = None,
    ) -> tuple[list[int], list[int], bool]:
        """One pool lifetime.

        Returns ``(crashed, leftover, broken)``: the indices whose
        futures died with the pool, the indices left queued or in flight
        when the pass ended (collateral of a breakage, or gate-halted),
        and whether the pool broke.  Tick-abandoned indices are in
        neither list -- their futures keep running unobserved and their
        results are discarded.
        """
        queue: deque[int] = deque(pending)
        inflight: dict[Future[Any], int] = {}
        crashed: list[int] = []
        mp_context = multiprocessing.get_context(self.start_method)
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(context,),
        )
        broken = False
        halted = False
        last_tick = time.monotonic()
        try:
            while (queue or inflight) and not broken:
                while queue and len(inflight) < self.max_inflight and not halted:
                    if dispatch_gate is not None and not dispatch_gate():
                        halted = True
                        break
                    index = queue.popleft()
                    if prepare is not None:
                        items[index] = prepare(index, items[index])
                    try:
                        future = executor.submit(_run_task, func, items[index])
                    except (BrokenProcessPool, RuntimeError):
                        queue.appendleft(index)
                        broken = True
                        break
                    inflight[future] = index
                if not inflight:
                    break
                record_live("engine.inflight", len(inflight))
                record_live("engine.pending", len(queue))
                timeout = tick_interval_s if tick is not None else None
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        self.stats.errors.append(repr(exc))
                        crashed.append(index)
                        broken = True
                    else:
                        results[index] = result
                        if on_result is not None:
                            on_result(index, result)
                if tick is not None and not broken:
                    now = time.monotonic()
                    if not done or now - last_tick >= tick_interval_s:
                        last_tick = now
                        abandon = set(tick(tuple(inflight.values())))
                        if abandon:
                            for future, index in list(inflight.items()):
                                if index in abandon:
                                    del inflight[future]
                                    self.stats.abandoned_items.append(index)
                                    if on_abandon is not None:
                                        on_abandon(index, "tick")
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        leftover = [inflight[f] for f in inflight] + list(queue)
        return crashed, leftover, broken
