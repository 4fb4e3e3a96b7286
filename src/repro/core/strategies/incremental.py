"""Incremental reconfiguration strategy (Section 4.1).

Start at the lowest accuracy level; every reconfiguration moves to the
*adjacent* higher-accuracy mode (the only allowed transition), until the
fully accurate mode is reached.  Reconfigurations are triggered by the
three schemes of :mod:`repro.core.schemes`:

* gradient or quality scheme (error prevention) → escalate;
* function scheme (error recovery) → escalate *and roll back* the
  iteration that increased the objective.

Because escalation is monotone and the ladder is finite, the accurate
mode is eventually applied whenever approximation keeps misbehaving,
which is what underwrites the paper's convergence guarantee.

Interaction with program capture/replay (:mod:`repro.arith.program`):
each escalation switches to a different per-mode engine, whose own
iteration program (if previously captured) replays unchanged.  Neither
the switch nor a function-scheme rollback drops a program: every
replayed add decides saturation on the spot, as the interpreted op
does, and replay bails to the interpreted path only where the op
structure no longer matches the recording.  Every path is
bit-identical to the interpreted loop, so the strategy's decisions are
unaffected by capture.
"""

from __future__ import annotations

from repro.arith.modes import ApproxMode, ModeBank
from repro.core.characterize import CharacterizationTable
from repro.core.schemes import (
    function_scheme_violated,
    gradient_scheme_violated,
    quality_scheme_violated,
    windowed_quality_violated,
)
from repro.core.strategies.base import Decision, Observation, ReconfigurationStrategy


class IncrementalStrategy(ReconfigurationStrategy):
    """One-directional (low → high accuracy) scheme-driven escalation.

    Args:
        use_gradient_scheme / use_quality_scheme / use_function_scheme:
            individually togglable, for the scheme-ablation benchmark;
            the paper's configuration enables all three.
        quality_window: window length of the sustained-stagnation
            reading of the quality scheme (see
            :func:`~repro.core.schemes.windowed_quality_violated`);
            0 disables it.
    """

    name = "incremental"

    def __init__(
        self,
        use_gradient_scheme: bool = True,
        use_quality_scheme: bool = True,
        use_function_scheme: bool = True,
        quality_window: int = 8,
    ):
        if quality_window < 0:
            raise ValueError(f"quality_window must be >= 0, got {quality_window}")
        self.use_gradient_scheme = use_gradient_scheme
        self.use_quality_scheme = use_quality_scheme
        self.use_function_scheme = use_function_scheme
        self.quality_window = int(quality_window)

    def start(
        self, bank: ModeBank, characterization: CharacterizationTable
    ) -> ApproxMode:
        self._bind(bank, characterization)
        self._mode = bank.lowest
        self._recent_f: list[float] = []
        return self._mode

    def _escalate(self, mode: ApproxMode) -> ApproxMode:
        self._mode = self._bank.escalate(mode)
        self._recent_f = []
        return self._mode

    def on_premature_convergence(self, mode: ApproxMode) -> ApproxMode:
        """Incremental only moves to the adjacent level, so a tolerance
        pass in an approximate mode escalates one rung rather than
        jumping to ``acc``."""
        return self._escalate(mode)

    def decide(self, obs: Observation) -> Decision:
        mode = self._mode
        if self.use_function_scheme and function_scheme_violated(
            obs.f_prev, obs.f_new
        ):
            self.emit_event(
                "scheme_fired", obs.iteration, mode.name, scheme="function"
            )
            return Decision(
                mode=self._escalate(mode), rollback=True, reason="function"
            )
        if self.use_gradient_scheme and gradient_scheme_violated(
            obs.grad_prev, obs.x_prev, obs.x_new
        ):
            self.emit_event(
                "scheme_fired", obs.iteration, mode.name, scheme="gradient"
            )
            return Decision(
                mode=self._escalate(mode), rollback=False, reason="gradient"
            )
        if self.use_quality_scheme and quality_scheme_violated(
            obs.epsilon, obs.x_prev, obs.x_new, obs.f_prev, obs.f_new
        ):
            self.emit_event(
                "scheme_fired", obs.iteration, mode.name, scheme="quality"
            )
            return Decision(
                mode=self._escalate(mode), rollback=False, reason="quality"
            )
        if self.use_quality_scheme and self.quality_window:
            window = self._recent_f[-self.quality_window :]
            if len(window) >= self.quality_window and windowed_quality_violated(
                obs.epsilon, window, obs.f_new
            ):
                self.emit_event(
                    "scheme_fired",
                    obs.iteration,
                    mode.name,
                    scheme="quality-window",
                )
                return Decision(
                    mode=self._escalate(mode),
                    rollback=False,
                    reason="quality-window",
                )
            self._recent_f.append(obs.f_new)
        return Decision(mode=mode, rollback=False, reason="steady")

    def describe(self) -> str:
        schemes = [
            name
            for name, on in (
                ("gradient", self.use_gradient_scheme),
                ("quality", self.use_quality_scheme),
                ("function", self.use_function_scheme),
            )
            if on
        ]
        return f"IncrementalStrategy(schemes={schemes})"
