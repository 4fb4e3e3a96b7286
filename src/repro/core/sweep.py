"""Batch sweeps over strategies, seeds and ladders.

Users of a quality-configurable platform rarely run one configuration —
they compare.  :func:`sweep` runs a cartesian grid of (method factory x
strategy) cells, normalizes every cell against its own Truth run, and
returns a :class:`SweepResult` that renders as a table or exports rows
for further analysis.  Used by the extension experiments and handy for
new applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.arith.modes import ModeBank
from repro.core.framework import ApproxIt, RunResult
from repro.core.strategies.base import ReconfigurationStrategy
from repro.experiments.render import format_number, format_table
from repro.solvers.base import IterativeMethod

#: A method factory: label -> fresh IterativeMethod instance.
MethodFactory = Callable[[], IterativeMethod]


@dataclass(frozen=True)
class SweepCell:
    """One (instance, strategy) outcome.

    Attributes:
        instance: label of the method instance.
        strategy: strategy spec that produced the run.
        run: the strategy's run.
        truth: the instance's Truth run.
        quality: optional application QEM vs Truth (``None`` when no
            ``quality_fn`` was supplied).
    """

    instance: str
    strategy: str
    run: RunResult
    truth: RunResult
    quality: float | None

    @property
    def energy(self) -> float:
        """Normalized energy (Truth = 1)."""
        return self.run.energy_relative_to(self.truth)

    @property
    def savings_percent(self) -> float:
        return (1.0 - self.energy) * 100.0


@dataclass
class SweepResult:
    """All cells of one sweep."""

    cells: list[SweepCell]
    #: Instance label → refusal notice for instances that were asked to
    #: batch (``sweep(batch=True)``) but fell back to solo runs because
    #: their method refused the batched path.  Empty when every
    #: instance batched (or batching was never requested).
    batch_fallbacks: dict[str, str] = field(default_factory=dict)

    def table(self) -> str:
        """Render the sweep as a comparison table."""
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.instance,
                    cell.strategy,
                    "MAX_ITER" if cell.run.hit_max_iter else cell.run.iterations,
                    "-" if cell.quality is None else format_number(cell.quality),
                    format_number(cell.energy),
                    f"{cell.savings_percent:+.1f} %",
                ]
            )
        text = format_table(
            ["Instance", "Strategy", "Iterations", "QEM", "Energy", "Savings"],
            rows,
            title="Strategy sweep (energy normalized per-instance to Truth)",
        )
        if self.batch_fallbacks:
            notes = "\n".join(
                f"  {label}: {why}" for label, why in self.batch_fallbacks.items()
            )
            text += f"\nSolo fallbacks (batch refused):\n{notes}"
        return text

    def best_strategy(
        self, instance: str, max_quality: float | None = None
    ) -> SweepCell:
        """The cheapest converged cell of one instance.

        Args:
            instance: instance label.
            max_quality: when given, only cells whose recorded QEM is at
                most this value qualify — pass ``0.0`` to pick among
                quality-preserving policies only (a raw energy minimum
                would happily crown an unverified single-mode run that
                produced the wrong answer cheaply).

        Raises:
            KeyError: if no cell qualifies.
        """
        candidates = [
            c
            for c in self.cells
            if c.instance == instance
            and c.run.converged
            and (
                max_quality is None
                or (c.quality is not None and c.quality <= max_quality)
            )
        ]
        if not candidates:
            raise KeyError(f"no converged runs for instance {instance!r}")
        return min(candidates, key=lambda c: c.energy)

    def rows(self) -> list[dict]:
        """Plain-data rows (for CSV/JSON export)."""
        return [
            {
                "instance": c.instance,
                "strategy": c.strategy,
                "iterations": c.run.iterations,
                "converged": c.run.converged,
                "quality": c.quality,
                "energy": c.energy,
                "savings_percent": c.savings_percent,
            }
            for c in self.cells
        ]


def cells_from_runs(
    instance: str,
    truth: RunResult,
    strategy_runs: "dict[str, RunResult] | Sequence[tuple[str, RunResult]]",
    method: IterativeMethod | None = None,
    quality_fn: Callable[[IterativeMethod, RunResult, RunResult], float] | None = None,
) -> list[SweepCell]:
    """Assemble one instance's sweep cells from already-executed runs.

    This is the shared assembly step of :func:`sweep`, split out so
    callers that obtained the runs elsewhere (e.g. loaded with
    :func:`repro.core.reporting.load_run`) render identically to an
    in-process sweep.

    Args:
        instance: instance label for the cells.
        truth: the instance's Truth run (energy normalizer).
        strategy_runs: strategy spec → its run (a mapping, or an
            iterable of ``(spec, run)`` pairs when duplicate specs must
            be preserved), in display order.
        method: the instance's method; required when ``quality_fn`` is
            given.
        quality_fn: optional ``(method, run, truth) -> QEM``; cells get
            ``quality=None`` without one.
    """
    if quality_fn is not None and method is None:
        raise ValueError("quality_fn requires the instance's method")
    pairs = (
        strategy_runs.items() if hasattr(strategy_runs, "items") else strategy_runs
    )
    cells = []
    for spec, run in pairs:
        quality = (
            quality_fn(method, run, truth) if quality_fn is not None else None
        )
        cells.append(
            SweepCell(
                instance=instance,
                strategy=spec,
                run=run,
                truth=truth,
                quality=quality,
            )
        )
    return cells


def sweep(
    instances: dict[str, MethodFactory],
    strategies: Sequence[str | ReconfigurationStrategy] = ("incremental", "adaptive"),
    bank: ModeBank | None = None,
    quality_fn: Callable[[IterativeMethod, RunResult, RunResult], float] | None = None,
    batch: bool = False,
    **framework_kwargs,
) -> SweepResult:
    """Run every strategy on every instance.

    Args:
        instances: label → factory building a *fresh* method (factories
            are called once per instance; the same object is reused
            across strategies so trajectories share data).
        strategies: strategy specs or instances.
        bank: shared mode ladder (the default platform when omitted).
        quality_fn: optional ``(method, run, truth) -> QEM``.
        batch: advance each instance's runs (Truth plus every strategy)
            lock-step through one
            :meth:`~repro.core.framework.ApproxIt.run_batch` call — one
            lane per strategy, one vectorized kernel call per mode per
            step.  Per-lane results are bit-identical to the solo path
            (the default, which remains the regression oracle), so this
            only changes wall-clock time.  Instances whose method
            refuses the batched path fall back to solo runs, with the
            structured refusal recorded in
            :attr:`SweepResult.batch_fallbacks` (and appended to the
            rendered table).
        **framework_kwargs: forwarded to :class:`ApproxIt`.

    Returns:
        A :class:`SweepResult` with one cell per (instance, strategy).
    """
    if not instances:
        raise ValueError("sweep needs at least one instance")
    cells: list[SweepCell] = []
    batch_fallbacks: dict[str, str] = {}
    for label, factory in instances.items():
        method = factory()
        framework = ApproxIt(method, bank, **framework_kwargs)
        support = framework.batching_support() if batch else None
        if batch and support:
            runs = framework.run_batch(["truth", *strategies])
            truth, strategy_runs = runs[0], runs[1:]
        else:
            if batch and support is not None:
                batch_fallbacks[label] = (
                    f"[{support.reason.value}] {support.message}"
                )
            truth = framework.run_truth()
            strategy_runs = [
                framework.run(strategy=strategy) for strategy in strategies
            ]
        spec_runs = [
            (strategy if isinstance(strategy, str) else strategy.name, run)
            for strategy, run in zip(strategies, strategy_runs)
        ]
        cells.extend(
            cells_from_runs(
                label, truth, spec_runs, method=method, quality_fn=quality_fn
            )
        )
    return SweepResult(cells=cells, batch_fallbacks=batch_fallbacks)
