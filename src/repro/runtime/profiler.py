"""The run report: frames/sec, bits/sec and the per-stage breakdown.

Stage timings are not kept here: every stage boundary opens one
:class:`~repro.obs.trace.SpanTracer` span (workers on their own chunk
tracks, shipped back with each chunk's result), and
:func:`~repro.obs.trace.span_totals` sums a run's spans per name into
:attr:`RuntimeReport.stages`.  :func:`repro.core.pipeline.run_link`
builds the report; the CLIs and the benchmarks surface it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import SpanTotals


@dataclass(frozen=True)
class RuntimeReport:
    """What one engine-driven run cost, and where the time went.

    Attributes
    ----------
    mode:
        ``"serial"`` (in-process), ``"parallel"`` (process pool) or
        ``"serial-fallback"`` (the pool was unavailable or kept dying and
        the engine completed the work in-process).
    workers:
        Worker processes requested.
    chunks, frames:
        Work units dispatched and items (camera frames) processed.
    bits:
        Payload bits decoded (0 when the run carries no scoring info).
    elapsed_s:
        Parent-side wall clock for the whole run.
    retries:
        Pool rebuilds after worker crashes.
    stages:
        Per-stage breakdown, ``{name: {wall_s, cpu_s, calls}}``, summed
        from the run's stage spans.  Worker stages sum *across* workers,
        so their wall total can exceed ``elapsed_s`` -- that surplus is
        the parallelism actually won.
    crashed_chunks:
        Chunk indices a pool pass lost to ``BrokenProcessPool`` (each was
        subsequently retried on a rebuilt pool or completed in-process).
    serial_fallback:
        True when the engine exhausted its pool retries (or could not
        build a pool) and finished the remaining chunks in-process.
    """

    mode: str
    workers: int
    chunks: int
    frames: int
    bits: int
    elapsed_s: float
    retries: int = 0
    stages: SpanTotals = field(default_factory=dict)
    crashed_chunks: tuple[int, ...] = ()
    serial_fallback: bool = False

    @property
    def frames_per_s(self) -> float:
        """Camera frames processed per wall-clock second."""
        return self.frames / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def bits_per_s(self) -> float:
        """Payload bits decoded per wall-clock second of processing."""
        return self.bits / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (used by the CLIs and the bench output)."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "chunks": self.chunks,
            "frames": self.frames,
            "bits": self.bits,
            "elapsed_s": self.elapsed_s,
            "retries": self.retries,
            "frames_per_s": self.frames_per_s,
            "bits_per_s": self.bits_per_s,
            "stages": self.stages,
            "crashed_chunks": list(self.crashed_chunks),
            "serial_fallback": self.serial_fallback,
        }

    def summary(self) -> str:
        """A small human-readable profile block for ``--profile`` output."""
        lines = [
            f"runtime: mode={self.mode} workers={self.workers} "
            f"chunks={self.chunks} retries={self.retries}",
            f"  {self.frames} frames in {self.elapsed_s:.2f} s "
            f"({self.frames_per_s:.1f} frames/s, {self.bits_per_s / 1000:.2f} kbit/s)",
        ]
        if self.crashed_chunks or self.serial_fallback:
            chunks = ",".join(str(i) for i in self.crashed_chunks) or "none"
            fallback = "engaged" if self.serial_fallback else "not needed"
            lines.append(
                f"  crash recovery: chunks [{chunks}] retried "
                f"{self.retries}x, serial fallback {fallback}"
            )
        for name in sorted(self.stages):
            s = self.stages[name]
            lines.append(
                f"  {name:10s} wall={s['wall_s']:7.3f} s  cpu={s['cpu_s']:7.3f} s  "
                f"calls={s['calls']}"
            )
        return "\n".join(lines)

    @staticmethod
    def merge(reports: "list[RuntimeReport]") -> "RuntimeReport | None":
        """Fold several runs (e.g. transport rounds) into one report."""
        reports = [r for r in reports if r is not None]
        if not reports:
            return None
        stages: SpanTotals = {}
        for report in reports:
            for name, stage in report.stages.items():
                row = stages.setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
                for key in row:
                    row[key] += stage[key]
        modes = {r.mode for r in reports}
        return RuntimeReport(
            mode=modes.pop() if len(modes) == 1 else "mixed",
            workers=max(r.workers for r in reports),
            chunks=sum(r.chunks for r in reports),
            frames=sum(r.frames for r in reports),
            bits=sum(r.bits for r in reports),
            elapsed_s=sum(r.elapsed_s for r in reports),
            retries=sum(r.retries for r in reports),
            stages=dict(sorted(stages.items())),
            crashed_chunks=tuple(i for r in reports for i in r.crashed_chunks),
            serial_fallback=any(r.serial_fallback for r in reports),
        )
