"""Trace analysis: run summaries and the mode-timeline rendering.

:func:`summarize_trace` folds an event stream back into the aggregate
decision counters a :class:`~repro.core.framework.RunResult` reports —
``steps_by_mode``, ``rollbacks``, ``mode_switches`` — plus per-scheme
firing counts, LUT refreshes and handovers, which is both the trace
schema's consistency check and the sweep-analysis entry point.

:func:`render_trace` reconstructs the paper's Figure-3-style mode
timeline from a trace: one row per mode, one column per (bucket of)
executed iterations, showing when the online loop ran where, where it
rolled back, and where it reconfigured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.events import TraceEvent
from repro.obs.io import TraceFile, load_trace


def _coerce_events(
    trace: "str | Path | TraceFile | Iterable[TraceEvent]",
) -> list[TraceEvent]:
    """Accept a path, a loaded :class:`TraceFile` or a raw event list."""
    if isinstance(trace, (str, Path)):
        return load_trace(trace).events
    if isinstance(trace, TraceFile):
        return list(trace.events)
    return list(trace)


@dataclass
class TraceSummary:
    """Aggregate decision counters reconstructed from an event stream.

    The first three attributes reproduce the equally named
    :class:`~repro.core.framework.RunResult` quantities exactly.

    Attributes:
        iterations: accepted iterations.
        rollbacks: function-scheme rollbacks.
        mode_switches: reconfigurations along the executed trace.
        executed_iterations: accepted + rolled-back iterations.
        steps_by_mode: accepted iterations per mode name.
        scheme_firings: trigger label → firing count.
        lut_refreshes: adaptive LUT rebuilds (offline init included).
        convergence_handovers: premature-convergence escalations.
        reconfig_energy: total switch-energy units charged.
        program_captures: iteration programs compiled
            (``program_capture`` events).
        program_replays: iterations whose engine ops were driven by a
            compiled program (``detail["execution"] == "replayed"``).
        program_bailouts: replays that diverged and fell back to the
            interpreted path, plus recordings that failed to compile
            (``program_bailout`` events; the latter carry reason
            ``"compile"``).
        program_lane_bailouts: lane-weighted bailout count of a batched
            (``run_batch``) trace — each lane of a bailing lane-group
            contributes one (its ``program_bailout`` event carries the
            group size in ``detail["lanes"]``).  Zero on solo traces.
    """

    iterations: int = 0
    rollbacks: int = 0
    mode_switches: int = 0
    executed_iterations: int = 0
    steps_by_mode: dict[str, int] = field(default_factory=dict)
    scheme_firings: dict[str, int] = field(default_factory=dict)
    lut_refreshes: int = 0
    convergence_handovers: int = 0
    reconfig_energy: float = 0.0
    program_captures: int = 0
    program_replays: int = 0
    program_bailouts: int = 0
    program_lane_bailouts: int = 0


def summarize_trace(
    trace: "str | Path | TraceFile | Iterable[TraceEvent]",
    lane: int | None = None,
) -> TraceSummary:
    """Fold a trace back into its run's decision counters.

    Args:
        trace: a JSONL trace path, a loaded :class:`TraceFile`, or an
            iterable of :class:`TraceEvent`.
        lane: restrict to one lane of a batched (``run_batch``) trace —
            only events whose ``detail["lane"]`` matches are counted,
            reconstructing that lane's solo counters exactly.  ``None``
            (default) counts every event, which on a batch trace
            aggregates all lanes.

    Bailouts count every ``program_bailout`` event: replays that fell
    back to the interpreted path and recordings whose compile failed
    (reason ``"compile"``, after which that engine captures no more).
    """
    summary = TraceSummary()
    for event in _coerce_events(trace):
        if lane is not None and event.detail.get("lane") != lane:
            continue
        if event.kind == "iteration":
            summary.executed_iterations += 1
            if event.detail.get("execution") == "replayed":
                summary.program_replays += 1
            if event.detail.get("accepted"):
                summary.iterations += 1
                mode = event.mode or "?"
                summary.steps_by_mode[mode] = summary.steps_by_mode.get(mode, 0) + 1
        elif event.kind == "rollback":
            summary.rollbacks += 1
        elif event.kind == "mode_switch":
            summary.mode_switches += 1
        elif event.kind == "scheme_fired":
            scheme = str(event.detail.get("scheme", "?"))
            summary.scheme_firings[scheme] = summary.scheme_firings.get(scheme, 0) + 1
        elif event.kind == "lut_refresh":
            summary.lut_refreshes += 1
        elif event.kind == "convergence_handover":
            summary.convergence_handovers += 1
        elif event.kind == "reconfig_charge":
            summary.reconfig_energy += float(event.detail.get("energy", 0.0))
        elif event.kind == "program_capture":
            summary.program_captures += 1
        elif event.kind == "program_bailout":
            summary.program_bailouts += 1
            if "lanes" in event.detail:
                summary.program_lane_bailouts += 1
    return summary


def render_trace(
    trace: "str | Path | TraceFile | Iterable[TraceEvent]",
    width: int = 72,
    mode_order: Sequence[str] | None = None,
    lane: int | None = None,
) -> str:
    """ASCII mode timeline of a run (the paper's Figure-3-style view).

    One row per mode, columns spanning the executed iterations (bucketed
    when the run is longer than ``width``): ``#`` marks buckets whose
    iterations ran (mostly) on that mode, ``=`` marks owned buckets
    whose every iteration on that mode was driven by a compiled
    iteration program (capture/replay, :mod:`repro.arith.program`) —
    so a replayed run reads as ``=`` where an interpreted one reads
    ``#`` — and ``x`` marks buckets containing a rollback on it.  A
    footer lists the aggregate counters from :func:`summarize_trace`,
    including program captures/replays/bailouts when the run captured.

    Args:
        trace: a JSONL trace path, :class:`TraceFile` or event iterable.
        width: maximum timeline columns.
        mode_order: row order, top to bottom (e.g. a bank's names
            reversed so the accurate mode sits on top); first-seen
            order when omitted.
        lane: restrict to one lane of a batched trace (see
            :func:`summarize_trace`).
    """
    events = _coerce_events(trace)
    if lane is not None:
        events = [e for e in events if e.detail.get("lane") == lane]
    steps = [e for e in events if e.kind == "iteration"]
    if not steps:
        return "(empty trace: no executed iterations)"
    n = len(steps)
    bucket = max(1, math.ceil(n / width))
    columns = math.ceil(n / bucket)

    modes: list[str] = list(mode_order) if mode_order is not None else []
    for event in steps:
        name = event.mode or "?"
        if name not in modes:
            modes.append(name)

    # Majority mode per bucket, plus rollback / all-replayed flags per
    # (mode, bucket).
    owner: list[str] = []
    rolled: set[tuple[str, int]] = set()
    replayed: set[tuple[str, int]] = set()
    for col in range(columns):
        chunk = steps[col * bucket : (col + 1) * bucket]
        counts: dict[str, int] = {}
        all_replayed: dict[str, bool] = {}
        for event in chunk:
            name = event.mode or "?"
            counts[name] = counts.get(name, 0) + 1
            if not event.detail.get("accepted"):
                rolled.add((name, col))
            all_replayed[name] = all_replayed.get(name, True) and (
                event.detail.get("execution") == "replayed"
            )
        for name, full in all_replayed.items():
            if full:
                replayed.add((name, col))
        owner.append(max(counts, key=lambda name: counts[name]))

    label_width = max(len(name) for name in modes)
    lines = [
        f"Mode timeline ({n} executed iterations, "
        f"1 column = {bucket} iteration{'s' if bucket > 1 else ''})"
    ]
    for name in modes:
        cells = []
        for col in range(columns):
            if (name, col) in rolled:
                cells.append("x")
            elif owner[col] == name:
                cells.append("=" if (name, col) in replayed else "#")
            else:
                cells.append(".")
        lines.append(f"{name:>{label_width}} |{''.join(cells)}|")

    summary = summarize_trace(events)
    firings = ", ".join(
        f"{scheme}:{count}" for scheme, count in sorted(summary.scheme_firings.items())
    )
    program = ""
    if summary.program_captures or summary.program_replays or summary.program_bailouts:
        lanes = (
            f" lane-bailouts:{summary.program_lane_bailouts}"
            if summary.program_lane_bailouts
            else ""
        )
        program = (
            f"; program [captured:{summary.program_captures} "
            f"replayed:{summary.program_replays} "
            f"bailouts:{summary.program_bailouts}{lanes}]"
        )
    lines.append(
        f"{summary.iterations} accepted, {summary.rollbacks} rollbacks, "
        f"{summary.mode_switches} switches, {summary.lut_refreshes} LUT refreshes, "
        f"{summary.convergence_handovers} handovers"
        + (f"; fired [{firings}]" if firings else "")
        + program
    )
    return "\n".join(lines)
