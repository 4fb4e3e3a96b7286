"""The benchmark's workloads: seeded inputs and the solve set of each.

Every input is generated here from the workload seed and handed to the
program as arrays, datasets or CSR operands; the program never sees a
workload name.  Seed 0 reproduces the registry datasets (seeds
7/11/13/21/23/29), the 100k-node web of the sparse perf entry (seed 11)
and the Jacobi240 right-hand side (seed 17); seed ``s`` shifts every
generator seed by ``1000 * s``.

Workloads (see ``BENCHMARK.json`` and ``baseline.json`` for why each was
chosen):

``paper_matrix``
    The Table 3/4 and Figure 4 matrix: six registry datasets, seven
    solo cells each through :meth:`ApproxIt.run`.
``pagerank_web``
    A 100k-node power-law CSR web, solved under truth, incremental and
    adaptive.
``ablation_lanes``
    A 16-lane design-space sweep run lock-step through
    :meth:`ApproxIt.run_batch` on three problems.

``size="reduced"`` shrinks every workload (fewer datasets, smaller web
and system, capped budgets) for the benchmark's own determinism test;
it never replaces the measured full size.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import ApproxIt
from repro.apps.autoregression import AutoRegression
from repro.apps.gmm import GaussianMixtureEM
from repro.apps.pagerank import PageRank
from repro.core.strategies import AdaptiveAngleStrategy, IncrementalStrategy
from repro.data import (
    make_four_clusters,
    make_hangseng,
    make_nasdaq,
    make_sp500,
    make_three_clusters,
    make_three_clusters_3d,
)
from repro.solvers.linear import JacobiSolver

WORKLOADS = ("paper_matrix", "pagerank_web", "ablation_lanes")
SIZES = ("full", "reduced")

#: Generator seeds at workload seed 0; seed ``s`` adds ``SEED_STRIDE * s``.
SEED_STRIDE = 1000

#: The seven cells of one Table 3/4 row, in the runner's order.
PAPER_CELLS = (
    "truth",
    "static:level1",
    "static:level2",
    "static:level3",
    "static:level4",
    "incremental",
    "adaptive",
)
PAGERANK_CELLS = ("truth", "incremental", "adaptive")
ADAPTIVE_PERIODS = (1, 2, 4, 8, 16, 32, 64)


def lane_strategies() -> list[tuple[str, object]]:
    """The 16 ``ablation_lanes`` lanes as ``(label, fresh strategy)``.

    Strategies are stateful per run, so every call builds new instances.
    """
    lanes: list[tuple[str, object]] = [("truth", "truth")]
    lanes += [(f"level{k}", f"static:level{k}") for k in range(1, 5)]
    lanes += [
        ("incremental", IncrementalStrategy()),
        ("incremental-no-gradient", IncrementalStrategy(use_gradient_scheme=False)),
        ("incremental-no-quality", IncrementalStrategy(use_quality_scheme=False)),
        ("incremental-no-function", IncrementalStrategy(use_function_scheme=False)),
    ]
    lanes += [
        (f"adaptive-f{f}", AdaptiveAngleStrategy(update_period=f))
        for f in ADAPTIVE_PERIODS
    ]
    return lanes


def _cell_label(spec: str) -> str:
    return spec.split(":", 1)[-1]


# ----------------------------------------------------------------------
# Problem construction (the "data" layer of the trace)
# ----------------------------------------------------------------------
@dataclass
class ProblemSpec:
    """One problem of a workload: a name and a seeded method builder."""

    name: str
    build: Callable[[], object]
    max_iter: int | None = None


def _gmm(factory, base_seed):
    return lambda seed: GaussianMixtureEM.from_dataset(factory(seed=base_seed + seed))


def _ar(factory, base_seed):
    return lambda seed: AutoRegression.from_dataset(factory(seed=base_seed + seed))


_REGISTRY = {
    "3cluster": _gmm(make_three_clusters, 7),
    "3d3cluster": _gmm(make_three_clusters_3d, 11),
    "4cluster": _gmm(make_four_clusters, 13),
    "hangseng": _ar(make_hangseng, 21),
    "nasdaq": _ar(make_nasdaq, 23),
    "sp500": _ar(make_sp500, 29),
}


def _web(n_nodes: int, seed: int) -> PageRank:
    return PageRank.random_web_csr(n_nodes=n_nodes, seed=11 + seed, out_degree=8.0)


def _jacobi(n: int, seed: int) -> JacobiSolver:
    """The weakly dominant 1-D Laplacian system of ``e2e/replay_jacobi240``."""
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17 + seed).uniform(-2.0, 2.0, n)
    return JacobiSolver(matrix, rhs, max_iter=150, tolerance=1e-9)


def problem_specs(workload: str, seed: int, size: str = "full") -> list[ProblemSpec]:
    """The problems of ``workload`` for workload seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {SIZES}")
    shift = SEED_STRIDE * int(seed)
    reduced = size == "reduced"
    if workload == "paper_matrix":
        names = ("3cluster", "hangseng") if reduced else tuple(_REGISTRY)
        cap = 40 if reduced else None
        return [
            ProblemSpec(name, (lambda f=_REGISTRY[name]: f(shift)), cap)
            for name in names
        ]
    if workload == "pagerank_web":
        nodes = 2_000 if reduced else 100_000
        return [ProblemSpec(f"web{nodes // 1000}k", lambda: _web(nodes, shift))]
    unknowns = 40 if reduced else 240
    cap = 30 if reduced else None
    return [
        ProblemSpec("3cluster", lambda: _REGISTRY["3cluster"](shift), cap),
        ProblemSpec("hangseng", lambda: _REGISTRY["hangseng"](shift), cap),
        ProblemSpec(f"jacobi{unknowns}", lambda: _jacobi(unknowns, shift), cap),
    ]


# ----------------------------------------------------------------------
# Solve records and output digests
# ----------------------------------------------------------------------
def simulated_adds(result, bank) -> int:
    """Elementary additions the run charged: per mode, its energy over
    that mode's energy per add."""
    per_add = {mode.name: mode.energy_per_add for mode in bank}
    return sum(
        round(energy / per_add[name])
        for name, energy in result.energy_by_mode.items()
        if name in per_add
    )


def digest(result, adds: int) -> str:
    """Hash of everything a solve must reproduce bit for bit: iterate
    bytes, iterations, rollbacks, steps and energy by mode, and the
    simulated add count."""
    h = hashlib.sha256(np.ascontiguousarray(result.x, dtype=np.float64).tobytes())
    fields = [
        result.iterations,
        result.rollbacks,
        sorted(result.steps_by_mode.items()),
        sorted((k, float(v).hex()) for k, v in result.energy_by_mode.items()),
        adds,
    ]
    h.update(json.dumps(fields).encode())
    return h.hexdigest()[:32]


@dataclass
class LaneOutcome:
    """One solve's output (a solo run, or one lane of a batch)."""

    id: str
    digest: str
    executed: int
    accepted: int
    rollbacks: int
    adds: int
    energy: float
    objective: float


@dataclass
class SolveRecord:
    """One measured call into :class:`ApproxIt` (a run or a run_batch)."""

    id: str
    problem: str
    seconds: float
    lanes: list[LaneOutcome] = field(default_factory=list)
    lane_ids: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def executed(self) -> int:
        return sum(lane.executed for lane in self.lanes)

    @property
    def adds(self) -> int:
        return sum(lane.adds for lane in self.lanes)


def _outcome(lane_id: str, result, bank) -> LaneOutcome:
    adds = simulated_adds(result, bank)
    return LaneOutcome(
        id=lane_id,
        digest=digest(result, adds),
        executed=result.executed_iterations,
        accepted=result.iterations,
        rollbacks=result.rollbacks,
        adds=adds,
        energy=result.energy,
        objective=result.objective,
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One user session: set-up, then the workload's solve set."""

    setup_s: float
    wall_s: float
    solves: list[SolveRecord]
    #: Speed-probe readings taken before and after the set-up and after
    #: every solve (empty when the pass ran without a probe).
    probes: list[float] = field(default_factory=list)

    def lanes(self) -> dict[str, LaneOutcome]:
        return {lane.id: lane for solve in self.solves for lane in solve.lanes}

    def failed_lanes(self) -> list[str]:
        return [lid for solve in self.solves if solve.error for lid in solve.lane_ids]


class _NoHooks:
    """Untraced passes: no spans, no solve ids."""

    solve_id = -1

    @staticmethod
    def span(name):
        return nullcontext()


def _solo_cells(workload: str) -> tuple[str, ...]:
    return PAPER_CELLS if workload == "paper_matrix" else PAGERANK_CELLS


def run_pass(
    workload: str,
    seed: int,
    size: str = "full",
    program_capture: bool | None = None,
    hooks=None,
    setup_only: bool = False,
    probe: Callable[[], float] | None = None,
) -> PassResult:
    """Build fresh inputs, a fresh :class:`ApproxIt` per problem (default
    bank, no disk cache) and its characterization, then run the solve
    set back to back.

    ``program_capture=False`` runs the interpreted oracle; for
    ``ablation_lanes`` the oracle is a solo interpreted run per lane,
    the path batched lanes must match bit for bit.  A solve that raises
    is recorded with its error and the remaining solves still run.
    ``setup_only`` stops after the set-up.  ``probe`` is called before and
    after the set-up and after every solve, outside the timed intervals.
    """
    hooks = hooks if hooks is not None else _NoHooks()
    probes = [probe()] if probe else []
    t0 = time.perf_counter()
    problems = []
    for spec in problem_specs(workload, seed, size):
        with hooks.span("data.build"):
            method = spec.build()
        framework = ApproxIt(method)
        framework.characterization()
        problems.append((spec, framework))
    t1 = time.perf_counter()
    if probe:
        probes.append(probe())
    solves: list[SolveRecord] = []
    if setup_only:
        return PassResult(setup_s=t1 - t0, wall_s=0.0, solves=solves, probes=probes)
    for spec, framework in problems:
        if workload == "ablation_lanes":
            solves.extend(_batch_solves(spec, framework, program_capture, hooks, len(solves)))
            if probe:
                probes.append(probe())
            continue
        for cell in _solo_cells(workload):
            lane_id = f"{spec.name}/{_cell_label(cell)}"
            hooks.solve_id = len(solves)
            record = SolveRecord(lane_id, spec.name, 0.0, lane_ids=[lane_id])
            result, record.error, record.seconds = _timed(
                lambda: framework.run(
                    cell, max_iter=spec.max_iter, program_capture=program_capture
                )
            )
            if result is not None:
                record.lanes.append(_outcome(lane_id, result, framework.bank))
            solves.append(record)
            if probe:
                probes.append(probe())
    hooks.solve_id = -1
    wall = sum(s.seconds for s in solves)
    return PassResult(setup_s=t1 - t0, wall_s=wall, solves=solves, probes=probes)


def _timed(call):
    """``(result, error, seconds)`` of one solve; the clock stops before
    the caller digests the result."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed solve is recorded; the pass goes on
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return result, None, time.perf_counter() - start


def _batch_solves(spec, framework, program_capture, hooks, first_id):
    lanes = lane_strategies()
    lane_ids = [f"{spec.name}/{label}" for label, _ in lanes]
    if program_capture is False:
        # Oracle: one solo interpreted run per lane.
        records = []
        for lane_id, (_, strategy) in zip(lane_ids, lanes):
            record = SolveRecord(lane_id, spec.name, 0.0, lane_ids=[lane_id])
            result, record.error, record.seconds = _timed(
                lambda: framework.run(strategy, max_iter=spec.max_iter, program_capture=False)
            )
            if result is not None:
                record.lanes.append(_outcome(lane_id, result, framework.bank))
            records.append(record)
        return records
    hooks.solve_id = first_id
    record = SolveRecord(f"{spec.name}/batch", spec.name, 0.0, lane_ids=lane_ids)
    results, record.error, record.seconds = _timed(
        lambda: framework.run_batch(
            [strategy for _, strategy in lanes],
            max_iter=spec.max_iter,
            program_capture=program_capture,
        )
    )
    if results is not None:
        record.lanes = [
            _outcome(lane_id, result, framework.bank)
            for lane_id, result in zip(lane_ids, results)
        ]
    return [record]
