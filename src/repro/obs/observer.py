"""The observer hook the online loop reports through.

:class:`Observer` is the contract: :meth:`~Observer.record` receives
every :class:`~repro.obs.events.TraceEvent` the framework, the
strategies and the energy ledger emit, :meth:`~Observer.on_charge`
receives every ledger charge, and :attr:`~Observer.metrics` is the
registry timed sections and gauges land in.  The base class is a
usable no-op (events are dropped, metrics still accumulate), so custom
observers override only what they need.

:class:`TraceRecorder` is the standard implementation: it buffers the
event stream in memory, aggregates charges into per-mode add/energy
counters, and persists everything as JSONL via :meth:`TraceRecorder.save`.

Every hook site in the hot loop is guarded by ``observer is not None``,
so an unobserved run pays nothing.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.events import TraceEvent
from repro.obs.io import TraceWriter, save_trace
from repro.obs.metrics import MetricsRegistry


class Observer:
    """Base observability hook; a no-op for events, live for metrics.

    Attributes:
        metrics: the run's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self):
        self.metrics = MetricsRegistry()

    def record(self, event: TraceEvent) -> None:
        """Receive one control-loop event (default: dropped)."""

    def on_charge(self, mode_name: str, n_adds: int, cost: float) -> None:
        """Receive one energy-ledger charge (default: counters only)."""
        self.metrics.inc(f"adds.{mode_name}", n_adds)
        self.metrics.inc(f"energy.{mode_name}", cost)


class LaneObserver(Observer):
    """Per-lane view of a shared observer, for batched runs.

    ``ApproxIt.run_batch`` binds one of these per lane so every event a
    lane's strategy (or the batched loop itself) emits carries the lane
    id in its ``detail`` — which is what lets
    :func:`~repro.obs.report.summarize_trace` reconstruct a single
    lane's counters from a batch trace.  Charges and metrics forward to
    the shared parent untouched.
    """

    def __init__(self, parent: Observer, lane: int):
        self.parent = parent
        self.lane = int(lane)

    @property
    def metrics(self) -> MetricsRegistry:
        return self.parent.metrics

    def record(self, event: TraceEvent) -> None:
        detail = dict(event.detail)
        detail["lane"] = self.lane
        self.parent.record(
            TraceEvent(event.kind, event.iteration, event.mode, detail)
        )

    def on_charge(self, mode_name: str, n_adds: int, cost: float) -> None:
        self.parent.on_charge(mode_name, n_adds, cost)


class TraceRecorder(Observer):
    """Buffers the full event stream for export and analysis.

    Args:
        label: free-form tag stored in saved trace headers (sweeps use
            ``"<dataset>:<run-label>"``).
    """

    def __init__(self, label: str | None = None):
        super().__init__()
        self.label = label
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def save(self, path: str | Path, meta: dict | None = None) -> Path:
        """Persist the recorded trace as JSONL; returns the path.

        The recorder's ``label`` and its metrics registry ride along in
        the header and trailing record.
        """
        merged_meta = {} if self.label is None else {"label": self.label}
        merged_meta.update(meta or {})
        return save_trace(path, self.events, metrics=self.metrics, meta=merged_meta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" label={self.label!r}" if self.label else ""
        return f"TraceRecorder({len(self.events)} events{tag})"


class StreamingRecorder(Observer):
    """Observer that streams every event to disk as it happens.

    Where :class:`TraceRecorder` buffers in memory and persists once at
    the end, this one opens a :class:`~repro.obs.io.TraceWriter`
    immediately and appends (and flushes) each event the moment it is
    recorded — which is what lets another process tail a *running*
    run's trace with ``load_trace(path, partial=True)``.

    Observation stays passive either way: a run observed by a
    streaming recorder is bit-identical to an unobserved run.

    :meth:`close` appends the trailing metrics record and closes the
    file; it is idempotent and also invoked by ``with``-block exit.

    Args:
        path: destination JSONL file (parents created).
        label: free-form tag stored in the trace header.
        meta: extra header metadata (JSON-ready values only).
    """

    def __init__(
        self,
        path: str | Path,
        label: str | None = None,
        meta: dict | None = None,
    ):
        super().__init__()
        self.label = label
        merged_meta = {} if label is None else {"label": label}
        merged_meta.update(meta or {})
        self._writer = TraceWriter(path, meta=merged_meta)

    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def events_written(self) -> int:
        return self._writer.events_written

    def record(self, event: TraceEvent) -> None:
        self._writer.write_event(event)

    def close(self) -> None:
        """Append the metrics record and close the stream (idempotent)."""
        if not self._writer.closed:
            self._writer.write_metrics(self.metrics)
            self._writer.close()

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" label={self.label!r}" if self.label else ""
        return (
            f"StreamingRecorder({self._writer.events_written} events "
            f"-> {self._writer.path}{tag})"
        )
