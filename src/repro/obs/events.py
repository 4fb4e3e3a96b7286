"""Typed trace events of the online reconfiguration loop.

Every control decision the paper's Section-4 loop takes — scheme
firings, rollbacks, mode switches, LUT refreshes, convergence handovers,
reconfiguration charges — is recorded as one :class:`TraceEvent`.  The
event stream is the ground truth the observability layer is built on:
:func:`repro.obs.report.summarize_trace` reconstructs a run's
``steps_by_mode`` / ``rollbacks`` / ``mode_switches`` from it exactly,
and :func:`repro.obs.io.save_trace` persists it as JSONL.

Event kinds
-----------
``iteration``
    One executed iteration (accepted or rolled back).  Emitted by
    :meth:`ApproxIt.run` after every pass through the online loop.
    ``detail``: ``objective`` (exact f at the new iterate), ``accepted``
    (bool), ``reason`` (the strategy's decision label) and — on
    program-capturing runs — ``execution`` (``captured`` / ``replayed``
    / ``interpreted``: how the iteration's engine ops were driven).
``scheme_fired``
    A reconfiguration trigger fired inside a strategy's ``decide``:
    ``detail["scheme"]`` is ``function`` / ``gradient`` / ``quality`` /
    ``quality-window`` (incremental, adaptive) or ``pid`` (the baseline's
    controller actuating a level change).
``rollback``
    The function scheme's error recovery: the iteration was discarded.
    ``detail["next_mode"]`` is the mode the retry runs on.
``mode_switch``
    The mode of the upcoming iteration differs from the previous
    iteration's mode.  ``detail["previous"]`` names the old mode.  The
    count of these events equals ``RunResult.mode_switches``.
``reconfig_charge``
    The energy ledger was charged ``switch_energy`` units for reloading
    the configuration latches (only emitted when ``switch_energy > 0``).
    ``detail["energy"]`` carries the charge.
``convergence_handover``
    A tolerance pass (or datapath fixed point) in an approximate mode
    was *not* accepted; the run handed over to higher accuracy for
    verification (Section 3.2).  ``detail["next_mode"]`` names it.
``lut_refresh``
    The adaptive strategy re-solved the Eq.-5 LP and rebuilt its angle
    LUT.  ``detail``: ``budget`` and the new ``shares``.  The offline
    initialization in ``start()`` is emitted with ``iteration == -1``.
``program_capture``
    The capture/replay layer (:mod:`repro.arith.program`) compiled this
    iteration's interpreted op trace into an :class:`IterationProgram`
    for the current mode.  ``detail["steps"]`` is the program length.
``program_bailout``
    A replayed iteration diverged from its program's structure and fell
    back to the interpreted path; the program was dropped and the next
    iteration on this mode re-records.  ``detail["reason"]``:
    ``structure`` / ``shorter-iteration`` (op sequence changed) or
    ``shape`` / ``operand`` (an operand changed shape or kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Every kind a :class:`TraceEvent` may carry.
EVENT_KINDS = frozenset(
    {
        "iteration",
        "scheme_fired",
        "rollback",
        "mode_switch",
        "reconfig_charge",
        "convergence_handover",
        "lut_refresh",
        "program_capture",
        "program_bailout",
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One control-loop event.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        iteration: 0-based *executed*-iteration index the event belongs
            to (rolled-back iterations count; ``-1`` marks offline-stage
            events such as the adaptive strategy's initial LUT build).
        mode: name of the mode the event concerns, when applicable.
        detail: kind-specific payload (plain JSON-ready scalars only).
    """

    kind: str
    iteration: int
    mode: str | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known: {sorted(EVENT_KINDS)}"
            )

    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) view of the event."""
        payload = {"kind": self.kind, "iteration": int(self.iteration)}
        if self.mode is not None:
            payload["mode"] = self.mode
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Raises:
            ValueError: on a missing kind/iteration or an unknown kind.
        """
        try:
            kind = payload["kind"]
            iteration = int(payload["iteration"])
        except KeyError as missing:
            raise ValueError(f"event record is missing field {missing}") from None
        return cls(
            kind=kind,
            iteration=iteration,
            mode=payload.get("mode"),
            detail=dict(payload.get("detail", {})),
        )
