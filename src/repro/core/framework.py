"""The ApproxIt orchestrator.

:class:`ApproxIt` wires together an
:class:`~repro.solvers.IterativeMethod`, a
:class:`~repro.arith.ModeBank` and a reconfiguration strategy, runs the
offline characterization stage once (cached), then drives the online
loop:

1. run one iteration (direction + update) on the engine of the current
   mode;
2. build the :class:`~repro.core.strategies.Observation` from exact
   runtime quantities;
3. ask the strategy for a :class:`~repro.core.strategies.Decision`
   (next mode, optional rollback);
4. stop when the method's tolerance test passes — immediately for
   non-verifying strategies (single-mode), or only after the strategy's
   convergence-verification handover for quality-guaranteed strategies.

A second, cheaper stop condition handles the quantized datapath: when an
iteration reproduces the previous iterate bit-for-bit the method has
reached a fixed point of the (quantized) map and cannot move again, so
the run ends regardless of tolerance.

:meth:`ApproxIt.run_batch` drives the same loop over several runs
("lanes") at once: each pass groups the live lanes by mode and steps
every group through stacked batched kernels.  A solo run is the
one-lane case, so both make the same decisions in the same order.

The returned :class:`RunResult` carries everything the paper's tables
report: per-mode step counts, total iterations, rollbacks, energy by
mode, the final state and traces.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ModeBank, default_mode_bank
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.core.characterize import (
    CharacterizationCache,
    CharacterizationTable,
    characterize_cached,
)
from repro.core.strategies.adaptive import AdaptiveAngleStrategy
from repro.core.strategies.base import (
    Decision,
    Observation,
    ReconfigurationStrategy,
)
from repro.core.strategies.incremental import IncrementalStrategy
from repro.core.strategies.static_mode import StaticModeStrategy
from repro.obs.events import TraceEvent
from repro.obs.observer import LaneObserver, Observer
from repro.solvers.base import IterationState, IterativeMethod, state_kwargs
from repro.solvers.batched import batched_kernels_for


@dataclass
class RunResult:
    """Outcome of one framework run.

    Attributes:
        x: final iterate.
        objective: exact objective at ``x``.
        iterations: accepted iterations (rollbacks excluded, matching
            the paper's per-level step counts whose total equals the
            run length).
        rollbacks: function-scheme rollbacks performed.
        converged: whether the run stopped on the tolerance test (or a
            datapath fixed point) rather than on ``MAX_ITER``.
        hit_max_iter: budget exhausted before convergence.
        steps_by_mode: accepted iterations per mode name.
        energy: total energy units charged to the approximate parts.
        energy_by_mode: energy split per mode name.
        strategy_name: which policy produced the run.
        mode_trace: mode name of every executed iteration (including
            rolled-back ones), for plots and tests.
        objective_trace: exact objective after every executed iteration.
        history: full per-accepted-iteration snapshots (iterate,
            objective, mode); only populated when the run was invoked
            with ``collect_history=True`` — states are O(dim) each, so
            this is opt-in.
        trace_path: path of the JSONL trace exported for this run, when
            the run was traced to disk (``--trace`` sweeps); ``None``
            otherwise.
    """

    x: np.ndarray
    objective: float
    iterations: int
    rollbacks: int
    converged: bool
    hit_max_iter: bool
    steps_by_mode: dict[str, int]
    energy: float
    energy_by_mode: dict[str, float]
    strategy_name: str
    mode_trace: list[str] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    history: list[IterationState] = field(default_factory=list)
    trace_path: str | None = None

    @property
    def executed_iterations(self) -> int:
        """Iterations actually run, including rolled-back ones."""
        return self.iterations + self.rollbacks

    @property
    def mode_switches(self) -> int:
        """Number of reconfigurations (mode changes along the trace)."""
        return sum(
            1 for a, b in zip(self.mode_trace, self.mode_trace[1:]) if a != b
        )

    def energy_relative_to(self, reference: "RunResult") -> float:
        """This run's energy normalized by a reference run's (the
        paper's Energy/Power columns, Truth = 1)."""
        if reference.energy <= 0:
            raise ValueError("reference run has non-positive energy")
        return self.energy / reference.energy

    def summary(self) -> str:
        """One-line human-readable digest."""
        status = "converged" if self.converged else "MAX_ITER"
        steps = ", ".join(
            f"{name}:{count}" for name, count in self.steps_by_mode.items() if count
        )
        return (
            f"{self.strategy_name}: {self.iterations} iters ({status}), "
            f"f={self.objective:.6g}, energy={self.energy:.4g}, steps [{steps}]"
        )


#: Default number of offline probe iterations (the paper simulates
#: "several iterations on representative workloads").
DEFAULT_PROBES = 3


class ApproxIt:
    """End-to-end approximate computing framework for iterative methods.

    Args:
        method: the iterative method to accelerate.
        bank: approximation-mode ladder; the paper's default four-level
            LOA bank when omitted.
        fmt: datapath fixed-point format; defaults to a Q15.16 word
            matching the bank width (or the method's
            ``preferred_frac_bits``).
        probe_iterations: offline characterization probes.
        switch_energy: energy units charged per mode reconfiguration
            (the configuration-latch reload of a reconfigurable adder).
            The paper argues this is negligible; leaving the default 0
            reproduces that assumption, and the reconfiguration-cost
            ablation sweeps it.
        char_cache: optional disk-backed
            :class:`~repro.core.characterize.CharacterizationCache`; the
            offline stage is looked up there before being recomputed and
            fresh tables are stored back.  Cached tables round-trip
            through plain data bit-exactly, so runs are identical with
            and without the cache.

    Example:
        >>> framework = ApproxIt(method)                   # doctest: +SKIP
        >>> truth = framework.run(strategy="static:acc")   # doctest: +SKIP
        >>> run = framework.run(strategy="adaptive")       # doctest: +SKIP
        >>> run.energy_relative_to(truth)                  # doctest: +SKIP
        0.45
    """

    def __init__(
        self,
        method: IterativeMethod,
        bank: ModeBank | None = None,
        fmt: FixedPointFormat | None = None,
        probe_iterations: int = DEFAULT_PROBES,
        switch_energy: float = 0.0,
        char_cache: CharacterizationCache | None = None,
    ):
        if switch_energy < 0:
            raise ValueError(f"switch_energy must be >= 0, got {switch_energy}")
        self.switch_energy = float(switch_energy)
        self.method = method
        self.bank = bank if bank is not None else default_mode_bank()
        if fmt is None:
            frac = method.preferred_frac_bits
            if frac is None:
                frac = min(16, self.bank.width - 2)
            frac = min(frac, self.bank.width - 2)
            fmt = FixedPointFormat(width=self.bank.width, frac_bits=frac)
        if fmt.width != self.bank.width:
            raise ValueError(
                f"format width {fmt.width} != bank width {self.bank.width}"
            )
        self.fmt = fmt
        self.probe_iterations = probe_iterations
        self.char_cache = char_cache
        self._characterization: CharacterizationTable | None = None

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def characterization(self) -> CharacterizationTable:
        """Run (or return the cached) offline characterization.

        Consults the disk cache first when one was supplied; either way
        the table is memoized on the instance afterwards.
        """
        if self._characterization is None:
            self._characterization = characterize_cached(
                self.method,
                self.bank,
                self.fmt,
                self.probe_iterations,
                cache=self.char_cache,
            )
        return self._characterization

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    def resolve_strategy(
        self, strategy: str | ReconfigurationStrategy
    ) -> ReconfigurationStrategy:
        """Accept a strategy instance or a spec string.

        Spec strings: ``"incremental"``, ``"adaptive"`` (f=1),
        ``"adaptive:f=<n>"``, ``"static:<mode>"``, ``"truth"``
        (= ``static:acc``).
        """
        if isinstance(strategy, ReconfigurationStrategy):
            return strategy
        if strategy == "incremental":
            return IncrementalStrategy()
        if strategy == "adaptive":
            return AdaptiveAngleStrategy()
        if strategy.startswith("adaptive:f="):
            return AdaptiveAngleStrategy(update_period=int(strategy.split("=", 1)[1]))
        if strategy == "truth":
            return StaticModeStrategy(self.bank.accurate.name)
        if strategy.startswith("static:"):
            return StaticModeStrategy(strategy.split(":", 1)[1])
        raise ValueError(
            f"unknown strategy spec {strategy!r}; expected 'incremental', "
            f"'adaptive', 'adaptive:f=<n>', 'static:<mode>' or 'truth'"
        )

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------
    def run(
        self,
        strategy: str | ReconfigurationStrategy = "incremental",
        max_iter: int | None = None,
        collect_traces: bool = True,
        collect_history: bool = False,
        observer: Observer | None = None,
        program_capture: bool | None = None,
    ) -> RunResult:
        """Drive the method to convergence under a strategy.

        Args:
            strategy: policy instance or spec string (see
                :meth:`resolve_strategy`).
            max_iter: budget override; the method's own ``max_iter``
                when omitted.
            collect_traces: record per-iteration mode/objective traces
                (tiny; disable only for huge sweeps).
            collect_history: additionally record full
                :class:`~repro.solvers.IterationState` snapshots of
                every accepted iteration (O(dim) each).
            observer: observability hook (typically a
                :class:`~repro.obs.observer.TraceRecorder`) receiving
                every control-loop :class:`~repro.obs.events.TraceEvent`,
                per-mode energy charges and ``direction`` / ``update`` /
                ``objective`` wall-time sections.  Purely passive: an
                observed run's :class:`RunResult` is bit-identical to an
                unobserved one, and ``None`` (the default) skips every
                hook site entirely.
            program_capture: record each (solver, mode) iteration's
                engine op sequence once and replay it compiled on later
                iterations (:mod:`repro.arith.program`); iterates stay
                bit-identical and the ledger float-equal, enforced by a
                parity suite.  ``None`` (default) or ``True`` captures;
                ``False`` forces the interpreted oracle.

        Returns:
            A :class:`RunResult`.
        """
        policy = self.resolve_strategy(strategy)
        capture = program_capture is None or bool(program_capture)
        (result,) = self._online(
            [policy],
            [observer],
            ProgramEngine if capture else ApproxEngine,
            EnergyLedger(observer=observer),
            kernels=None,
            capture=capture,
            max_iter=max_iter,
            collect_traces=collect_traces,
            collect_history=collect_history,
            observer=observer,
        )
        return result

    def _online(
        self,
        policies: list[ReconfigurationStrategy],
        lane_observers: list[Observer | None],
        engine_cls,
        ledger,
        *,
        kernels,
        capture: bool,
        max_iter: int | None,
        collect_traces: bool,
        collect_history: bool,
        observer: Observer | None,
    ) -> list[RunResult]:
        """The set-up :meth:`run` and :meth:`run_batch` share around the
        online loop: budget, epsilons, one engine per mode, observer
        binding and the cache-metric export."""
        characterization = self.characterization()
        engines = {
            mode.name: engine_cls(mode, self.fmt, ledger) for mode in self.bank
        }
        loop = _OnlineLoop(
            self,
            engines,
            ledger,
            kernels=kernels,
            capture=capture,
            budget=self.method.max_iter if max_iter is None else int(max_iter),
            epsilons=characterization.epsilons(),
            collect_traces=collect_traces,
            collect_history=collect_history,
            observer=observer,
        )
        for policy, lane_observer in zip(policies, lane_observers):
            policy.bind_observer(lane_observer)
        try:
            results = loop.drive(policies, lane_observers, characterization)
        finally:
            for policy in policies:
                policy.bind_observer(None)
        if observer is not None:
            self._export_cache_metrics(engines if capture else {}, observer)
        return results

    def _export_cache_metrics(self, engines: dict, observer: Observer) -> None:
        """Expose the run's cache effectiveness through the observer:
        each program engine's ``program_*`` counters (capture on) and
        the characterization cache's.

        Gauges (not counters): each records the state at the end of this
        run, so merging registries across runs keeps the latest reading
        instead of double-counting.
        """
        for name, engine in engines.items():
            for stat, value in engine.cache_stats().items():
                observer.metrics.gauge(f"engine.{name}.{stat}", value)
        if self.char_cache is not None:
            for stat, value in self.char_cache.stats().items():
                observer.metrics.gauge(f"char_cache.{stat}", value)

    def run_truth(
        self, max_iter: int | None = None, observer: Observer | None = None
    ) -> RunResult:
        """The fully accurate reference run (the paper's *Truth*)."""
        return self.run(strategy="truth", max_iter=max_iter, observer=observer)

    # ------------------------------------------------------------------
    # Batched (lane-parallel) online stage
    # ------------------------------------------------------------------
    def supports_batching(self) -> bool:
        """Whether :meth:`run_batch` can drive this framework's method."""
        return bool(self.batching_support())

    def batching_support(self):
        """Structured batchability verdict for this framework's method.

        Returns a :class:`~repro.solvers.batched.BatchSupport`; when the
        method cannot be batched, its ``reason`` /``message`` say *why*
        (surfaced by sweep/CLI fallbacks instead of a silent solo path).
        """
        from repro.solvers.batched import batching_support

        return batching_support(self.method)

    def run_batch(
        self,
        strategies,
        max_iter: int | None = None,
        collect_traces: bool = True,
        collect_history: bool = False,
        observer: Observer | None = None,
        program_capture: bool | None = None,
    ) -> list[RunResult]:
        """Run one lane per strategy, lock-step through batched kernels.

        Each lane is an independent run of :attr:`method` under its own
        strategy; all lanes share one characterization table and one
        stacked kernel call per step.  Lanes currently on *different*
        modes are grouped into per-mode sub-batches, so a mixed-mode
        batch still issues one kernel call per mode per step.  A lane
        that converges (or exhausts its budget) freezes: it leaves the
        active set and is charged nothing further.

        Per-lane results are bit-identical to ``self.run(strategy)``
        solo runs and per-lane energy ledgers exactly equal — both go
        through the same online loop, a solo run being a one-lane group,
        and the solo path is the regression oracle (see ``tests/core/
        test_batched_parity.py``); ``run_batch`` only amortizes Python
        and kernel-dispatch overhead across lanes.

        Args:
            strategies: one spec string or
                :class:`~repro.core.strategies.ReconfigurationStrategy`
                instance per lane (instances must be distinct objects —
                strategies are stateful per run).
            max_iter / collect_traces / collect_history / observer: as
                in :meth:`run`, applied to every lane.  Events reach the
                observer with the lane id in ``detail["lane"]``;
                ``observer=None`` batches pay no tracing cost.
            program_capture: capture one
                :class:`~repro.arith.program.IterationProgram` per
                (solver, mode) from the first lock-step iteration of
                each mode group and replay it over the stacked lanes on
                later iterations — per-lane results stay bit-identical
                and ledgers float-equal, the same contract as solo
                capture.  ``None`` (default) or ``True`` captures; only
                adapters declaring ``replayable`` capture (CG's
                mid-iteration lane sub-selection keeps it interpreted).

        Returns:
            One :class:`RunResult` per lane, in ``strategies`` order.

        Raises:
            ValueError: when the method has no batched kernels (see
                :func:`repro.solvers.batched.supports_batching`) or a
                strategy instance is repeated.
        """
        specs = list(strategies)
        lanes = len(specs)
        if lanes == 0:
            raise ValueError("run_batch needs at least one strategy lane")
        kernels = batched_kernels_for(self.method, lanes)
        if kernels is None:
            raise ValueError(
                f"{type(self.method).__name__} has no batched kernels; "
                "use the solo run() path (see repro.solvers.batched)"
            )
        policies = [self.resolve_strategy(spec) for spec in specs]
        seen_ids = set()
        for policy in policies:
            if id(policy) in seen_ids:
                raise ValueError(
                    "the same strategy instance was passed for two lanes; "
                    "strategies are stateful per run — pass distinct "
                    "instances (or spec strings)"
                )
            seen_ids.add(id(policy))
        capture = (
            program_capture is None or bool(program_capture)
        ) and kernels.replayable
        lane_observers: list[Observer | None] = [None] * lanes
        if observer is not None:
            lane_observers = [LaneObserver(observer, i) for i in range(lanes)]
        return self._online(
            policies,
            lane_observers,
            BatchedProgramEngine if capture else BatchedEngine,
            BatchedEnergyLedger(lanes, observer=observer),
            kernels=kernels,
            capture=capture,
            max_iter=max_iter,
            collect_traces=collect_traces,
            collect_history=collect_history,
            observer=observer,
        )


class _Lane:
    """One run's state in the online loop (a solo run is one lane)."""

    __slots__ = (
        "index",
        "policy",
        "observer",
        "mode",
        "last_mode",
        "x",
        "f",
        "grad",
        "state",
        "executed",
        "iterations",
        "rollbacks",
        "converged",
        "done",
        "steps_by_mode",
        "mode_trace",
        "objective_trace",
        "history",
    )

    def __init__(self, index, policy, observer, mode, x, f, grad, state, bank, done):
        self.index = index
        self.policy = policy
        #: The run's observer (solo), a LaneObserver (batch) or None.
        self.observer = observer
        self.mode = mode
        self.last_mode: str | None = None
        #: The accepted iterate, its exact objective, gradient and state.
        self.x, self.f, self.grad, self.state = x, f, grad, state
        self.executed = 0
        self.iterations = 0
        self.rollbacks = 0
        self.converged = False
        self.done = done
        self.steps_by_mode = {m.name: 0 for m in bank}
        self.mode_trace: list[str] = []
        self.objective_trace: list[float] = []
        self.history: list[IterationState] = []


class _OnlineLoop:
    """The online loop of one :meth:`ApproxIt.run` (``kernels=None``) or
    :meth:`ApproxIt.run_batch` call.

    Each pass groups the live lanes by mode, in lane order.  Per group
    it reports mode switches and charges their reconfiguration energy,
    runs one step — the method's own ``direction`` / ``update`` for a
    solo run, the stacked :class:`~repro.solvers.batched.BatchedKernels`
    for a batch — and settles every lane of the group in order.  A solo
    run is the one-lane case of the same loop, so the two paths make the
    same decisions, charges and events.

    Each iterate is evaluated once (:meth:`IterativeMethod.evaluate`);
    its state rides with the lane into ``gradient`` and the next
    ``direction``.  A rolled-back candidate's state is dropped, so the
    retry reads the accepted iterate's.

    With ``capture`` on, each mode's engine records its first iteration
    and replays it thereafter.  Programs survive rollbacks: the retried
    iteration replays its mode's program, whose steps decide saturation
    on the spot, as the interpreted ops do, and whose structural checks
    bail to the interpreted path where the recording no longer holds.
    A mode switch selects that mode's own engine and program, and a
    lane group recomposing keeps it too, because lane-group steps check
    stacked operands on their trailing dims only and charge in
    lane-count-independent units.
    """

    def __init__(
        self,
        framework: ApproxIt,
        engines: dict,
        ledger,
        *,
        kernels,
        capture: bool,
        budget: int,
        epsilons: dict[str, float],
        collect_traces: bool,
        collect_history: bool,
        observer: Observer | None,
    ):
        self.method = framework.method
        self.bank = framework.bank
        self.switch_energy = framework.switch_energy
        self.engines = engines
        self.ledger = ledger
        self.kernels = kernels
        self.capture = capture
        self.budget = budget
        self.epsilons = epsilons
        self.collect_traces = collect_traces
        self.collect_history = collect_history
        self.observer = observer
        self.timer = observer.metrics.time if observer is not None else nullcontext

    def drive(
        self,
        policies: list[ReconfigurationStrategy],
        lane_observers: list[Observer | None],
        characterization: CharacterizationTable,
    ) -> list[RunResult]:
        """Start every lane's policy, loop until every lane is done, and
        return one :class:`RunResult` per lane."""
        method = self.method
        modes = [policy.start(self.bank, characterization) for policy in policies]
        x0 = method.postprocess(method.initial_state())
        # One state at x0, shared by every lane (it is read-only).
        f0, s0 = method.evaluate(x0)
        # The exact gradient is control-loop telemetry for angle-based
        # policies; strategies that never read it opt out and skip an
        # O(nnz) exact matvec per iteration (results are unaffected).
        g0 = (
            method.gradient(x0, **state_kwargs(s0))
            if any(policy.needs_gradient for policy in policies)
            else None
        )
        lanes = [
            _Lane(
                i,
                policy,
                lane_observer,
                mode,
                x0 if self.kernels is None else np.asarray(x0, dtype=np.float64).copy(),
                f0,
                g0 if policy.needs_gradient else None,
                s0,
                self.bank,
                self.budget <= 0,
            )
            for i, (policy, lane_observer, mode) in enumerate(
                zip(policies, lane_observers, modes)
            )
        ]
        step = self._solo_step if self.kernels is None else self._batched_step
        while True:
            groups: dict[str, list[_Lane]] = {}
            for lane in lanes:
                if not lane.done:
                    groups.setdefault(lane.mode.name, []).append(lane)
            if not groups:
                break
            for mode_name, group in groups.items():
                self._switch(mode_name, group)
                execution, x_news = step(self.engines[mode_name], group)
                for lane, x_new in zip(group, x_news):
                    with self.timer("objective"):
                        f_new, state_new = method.evaluate(x_new)
                    grad_new = None
                    if lane.policy.needs_gradient:
                        grad_new = method.gradient(x_new, **state_kwargs(state_new))
                    self.settle(lane, x_new, f_new, grad_new, state_new, execution)
        return [self._result(lane) for lane in lanes]

    def _switch(self, mode_name: str, group: list[_Lane]) -> None:
        """Report the lanes of ``group`` arriving on ``mode_name`` from
        another mode and charge their reconfiguration."""
        switched = [
            lane
            for lane in group
            if lane.last_mode is not None and lane.last_mode != mode_name
        ]
        for lane in switched:
            if lane.observer is not None:
                lane.observer.record(
                    TraceEvent(
                        "mode_switch",
                        lane.executed,
                        mode_name,
                        {"previous": lane.last_mode},
                    )
                )
        if self.switch_energy and switched:
            # The reconfigurable device reloads its configuration
            # latches whenever the selected level actually changes.
            if self.kernels is None:
                self.ledger.charge("reconfig", 1, self.switch_energy)
            else:
                ids = np.asarray([lane.index for lane in switched], dtype=np.int64)
                self.ledger.charge_lanes("reconfig", ids, 1, self.switch_energy)
            for lane in switched:
                if lane.observer is not None:
                    lane.observer.record(
                        TraceEvent(
                            "reconfig_charge",
                            lane.executed,
                            mode_name,
                            {"energy": self.switch_energy},
                        )
                    )
        for lane in group:
            lane.last_mode = mode_name

    def _solo_step(self, engine, group: list[_Lane]):
        """One iteration of the solo lane through the method's own
        ``direction`` / ``update``; returns ``(execution, (x_new,))``."""
        (lane,) = group
        method = self.method
        x = lane.x
        if self.capture:
            engine.begin_iteration({"x": x, **method.replay_operands(x)})
        with self.timer("direction"):
            d = method.direction(x, engine, **state_kwargs(lane.state))
        if self.capture:
            engine.bind_slot("d", d)
        alpha = method.step_size(x, d, lane.iterations)
        with self.timer("update"):
            x_new = method.postprocess(method.update(x, alpha, d, engine))
        return self._end_iteration(engine, group), (x_new,)

    def _batched_step(self, engine, group: list[_Lane]):
        """One lock-step iteration of a mode group through the stacked
        kernels; returns ``(execution, x_news)`` with the per-lane
        iterates post-processed lazily, in lane order."""
        method, kernels = self.method, self.kernels
        ids = np.asarray([lane.index for lane in group], dtype=np.int64)
        engine.select_lanes(ids)
        X = np.stack([lane.x for lane in group])
        if self.capture:
            engine.begin_iteration({"X": X, **kernels.replay_slots(X)})
        with self.timer("direction"):
            kw = {} if group[0].state is None else {"states": [lane.state for lane in group]}
            D = kernels.direction(X, ids, engine, **kw)
        if self.capture:
            engine.bind_slot("D", D)
        alphas = np.array(
            [
                method.step_size(X[row], D[row], lane.iterations)
                for row, lane in enumerate(group)
            ]
        )
        with self.timer("update"):
            X_new = kernels.update(X, alphas, D, ids, engine)
        x_news = (method.postprocess(X_new[row].copy()) for row in range(len(group)))
        return self._end_iteration(engine, group), x_news

    def _end_iteration(self, engine, group: list[_Lane]) -> str | None:
        """Close a captured iteration window and report it to the
        observer; ``None`` when capture is off.

        A solo run's program events carry no ``lanes`` count and it
        keeps no ``program.group.*`` metrics; a batch reports one event
        per lane of the group.
        """
        if not self.capture:
            return None
        execution, reason = engine.end_iteration()
        if self.observer is None:
            return execution
        metrics = self.observer.metrics
        mode_name = engine.mode.name
        batched = self.kernels is not None
        group_size = {"lanes": len(group)} if batched else {}
        if execution == "captured":
            metrics.inc("program.captures")
            if batched:
                metrics.inc(f"program.group.{mode_name}.captures")
            steps = len(engine.program) if engine.program is not None else 0
            for lane in group:
                lane.observer.record(
                    TraceEvent(
                        "program_capture",
                        lane.executed,
                        mode_name,
                        {"steps": steps, **group_size},
                    )
                )
        elif execution == "replayed":
            metrics.inc("program.replays")
            if batched:
                metrics.inc(f"program.group.{mode_name}.replays")
        if reason is not None:
            metrics.inc("program.bailouts")
            if batched:
                metrics.inc("program.lane_bailouts", len(group))
            for lane in group:
                lane.observer.record(
                    TraceEvent(
                        "program_bailout",
                        lane.executed,
                        mode_name,
                        {"reason": reason, **group_size},
                    )
                )
        return execution

    def settle(self, lane: _Lane, x_new, f_new, grad_new, state_new, execution) -> None:
        """Observe one executed iteration of ``lane``, let its strategy
        decide, and accept it (with its ``evaluate`` state) or roll it
        back (dropping the state)."""
        mode, policy, observer = lane.mode, lane.policy, lane.observer
        iteration = lane.executed
        lane.executed += 1
        tolerance_pass = self.method.converged(lane.f, f_new)
        fixed_point = bool(np.array_equal(x_new, lane.x))
        decision: Decision = policy.decide(
            Observation(
                iteration=iteration,
                x_prev=lane.x,
                x_new=x_new,
                f_prev=lane.f,
                f_new=f_new,
                grad_prev=lane.grad,
                grad_new=grad_new,
                mode=mode,
                epsilon=self.epsilons[mode.name],
                converged=tolerance_pass,
            )
        )
        if self.collect_traces:
            lane.mode_trace.append(mode.name)
            lane.objective_trace.append(f_new)
        rolled_back = decision.rollback and not fixed_point
        if observer is not None:
            detail = {
                "objective": f_new,
                "accepted": not rolled_back,
                "reason": decision.reason,
            }
            if execution is not None:
                detail["execution"] = execution
            observer.record(TraceEvent("iteration", iteration, mode.name, detail))

        if rolled_back:
            if mode.is_accurate and decision.mode.is_accurate:
                # Retrying the exact mode from the same state would
                # reproduce the same objective uptick forever: the
                # method sits at its numerical floor, which is as
                # converged as this datapath can get.
                lane.converged = lane.done = True
            else:
                lane.rollbacks += 1
                if observer is not None:
                    observer.record(
                        TraceEvent(
                            "rollback",
                            iteration,
                            mode.name,
                            {"next_mode": decision.mode.name},
                        )
                    )
                lane.mode = decision.mode
        else:
            lane.iterations += 1
            lane.steps_by_mode[mode.name] += 1
            if self.collect_history:
                lane.history.append(
                    IterationState(
                        iteration=lane.iterations - 1,
                        x=np.asarray(x_new, dtype=np.float64).copy(),
                        objective=f_new,
                        mode_name=mode.name,
                    )
                )
            lane.x, lane.f, lane.grad, lane.state = x_new, f_new, grad_new, state_new
            if not (tolerance_pass or fixed_point):
                lane.mode = decision.mode
            elif policy.verify_convergence and not mode.is_accurate:
                # Quality guarantee: a tolerance pass — or a datapath
                # fixed point the approximate mode cannot escape —
                # hands over to higher accuracy instead of being
                # accepted as an unverified stop.
                lane.mode = policy.on_premature_convergence(mode)
                if observer is not None:
                    observer.record(
                        TraceEvent(
                            "convergence_handover",
                            iteration,
                            mode.name,
                            {"next_mode": lane.mode.name},
                        )
                    )
            else:
                lane.converged = lane.done = True
        if lane.executed >= self.budget:
            lane.done = True

    def _result(self, lane: _Lane) -> RunResult:
        ledger = self.ledger
        if self.kernels is not None:
            ledger = ledger.lane_ledger(lane.index)
        return RunResult(
            x=lane.x,
            objective=lane.f,
            iterations=lane.iterations,
            rollbacks=lane.rollbacks,
            converged=lane.converged,
            hit_max_iter=not lane.converged,
            steps_by_mode=lane.steps_by_mode,
            energy=ledger.energy,
            energy_by_mode=dict(ledger.energy_by_mode),
            strategy_name=lane.policy.name,
            mode_trace=lane.mode_trace,
            objective_trace=lane.objective_trace,
            history=lane.history,
        )
