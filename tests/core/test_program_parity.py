"""Full-run parity: captured/replayed runs vs the interpreted oracle.

The iteration-program engine (:mod:`repro.arith.program`) promises
*exact* equivalence with the interpreted path, not approximate:
bit-identical iterates (``assert_array_equal``, no tolerance), energy
ledgers equal as floats (``==``), and identical decision traces.  The
interpreted run (``program_capture=False``) is the regression oracle —
every assertion here compares a default captured run against it.

Coverage crosses every solver family and both apps-style workloads with
the online strategies, and includes the transitions programs must
survive: natural function-scheme rollbacks (which keep every cached
program) and mode reconfigurations (which switch to a per-mode program
or a fresh capture).
"""

import numpy as np
import pytest

from repro.apps import GaussianMixtureEM, KMeans, PageRank
from repro.core.framework import ApproxIt
from repro.data.registry import load_dataset
from repro.obs import TraceRecorder, summarize_trace
from repro.solvers import (
    ConjugateGradient,
    CoordinateDescent,
    GaussSeidelSolver,
    GradientDescent,
    JacobiSolver,
    LeastSquaresGD,
    MomentumGradientDescent,
    NewtonMethod,
    QuadraticFunction,
    RedBlackGaussSeidelSolver,
    RedBlackSorSolver,
    RosenbrockFunction,
    SorSolver,
    StochasticLeastSquaresGD,
)

networkx = pytest.importorskip("networkx")


def _linear_system(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    A += n * np.eye(n)
    b = rng.uniform(-5.0, 5.0, n)
    return A, b


def _spd_system(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.uniform(-3.0, 3.0, n)
    return A, b


def _jacobi():
    # Seed 11 rolls back once under the incremental strategy — the
    # natural-rollback workload (see TestRollbackReRecord).
    A, b = _linear_system(11, 28)
    return ApproxIt(JacobiSolver(A, b, max_iter=120))


def _gauss_seidel():
    A, b = _linear_system(3, 16)
    return ApproxIt(GaussSeidelSolver(A, b, max_iter=80))


def _sor():
    A, b = _linear_system(7, 16)
    return ApproxIt(SorSolver(A, b, omega=1.2, max_iter=80))


def _gauss_seidel_rb():
    A, b = _linear_system(3, 16)
    return ApproxIt(RedBlackGaussSeidelSolver(A, b, max_iter=80))


def _sor_rb():
    A, b = _linear_system(7, 17)
    return ApproxIt(RedBlackSorSolver(A, b, omega=1.3, max_iter=80))


def _cg():
    A, b = _spd_system(5, 20)
    return ApproxIt(ConjugateGradient(A, b, max_iter=60))


def _gd_quadratic():
    rng = np.random.default_rng(9)
    n = 12
    A = rng.uniform(-0.5, 0.5, (n, n))
    A = A @ A.T + n * np.eye(n)
    return ApproxIt(
        GradientDescent(
            QuadraticFunction(A, rng.uniform(-2.0, 2.0, n)),
            learning_rate=0.02,
            max_iter=80,
        )
    )


def _gd_rosenbrock():
    return ApproxIt(
        GradientDescent(
            RosenbrockFunction(dim=4),
            x0=np.full(4, 0.3),
            learning_rate=0.002,
            max_iter=60,
        )
    )


def _momentum():
    rng = np.random.default_rng(13)
    n = 10
    A = rng.uniform(-0.5, 0.5, (n, n))
    A = A @ A.T + n * np.eye(n)
    return ApproxIt(
        MomentumGradientDescent(
            QuadraticFunction(A, rng.uniform(-2.0, 2.0, n)),
            learning_rate=0.03,
            beta=0.8,
            max_iter=60,
        )
    )


def _lsq():
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, (60, 6))
    w = rng.uniform(-2.0, 2.0, 6)
    y = X @ w + rng.normal(0, 0.01, 60)
    return ApproxIt(LeastSquaresGD(X, y, max_iter=100))


def _stochastic_lsq():
    rng = np.random.default_rng(23)
    X = rng.uniform(-1.0, 1.0, (80, 5))
    w = rng.uniform(-2.0, 2.0, 5)
    y = X @ w + rng.normal(0, 0.01, 80)
    return ApproxIt(StochasticLeastSquaresGD(X, y, batch_size=16, max_iter=80))


def _coordinate():
    rng = np.random.default_rng(17)
    n = 8
    A = rng.uniform(-0.5, 0.5, (n, n))
    A = A @ A.T + n * np.eye(n)
    return ApproxIt(
        CoordinateDescent(
            QuadraticFunction(A, rng.uniform(-1.0, 1.0, n)), max_iter=60
        )
    )


def _newton():
    return ApproxIt(
        NewtonMethod(RosenbrockFunction(dim=4), x0=np.full(4, 0.4), max_iter=40)
    )


def _gmm():
    rng = np.random.default_rng(31)
    points = np.concatenate(
        [
            rng.normal(-2.0, 0.4, (40, 2)),
            rng.normal(2.0, 0.5, (40, 2)),
        ]
    )
    return ApproxIt(GaussianMixtureEM(points, n_clusters=2, max_iter=30))


def _kmeans():
    rng = np.random.default_rng(37)
    points = np.concatenate(
        [
            rng.normal(-3.0, 0.5, (50, 2)),
            rng.normal(3.0, 0.5, (50, 2)),
        ]
    )
    return ApproxIt(KMeans(points, n_clusters=2, max_iter=30))


def _pagerank():
    graph = networkx.gnp_random_graph(40, 0.15, seed=41, directed=True)
    return ApproxIt(PageRank(graph, max_iter=40))


FACTORIES = {
    "jacobi": _jacobi,
    "gauss-seidel": _gauss_seidel,
    "gauss-seidel-rb": _gauss_seidel_rb,
    "sor": _sor,
    "sor-rb": _sor_rb,
    "cg": _cg,
    "gd-quadratic": _gd_quadratic,
    "gd-rosenbrock": _gd_rosenbrock,
    "momentum": _momentum,
    "least-squares": _lsq,
    "stochastic-lsq": _stochastic_lsq,
    "coordinate": _coordinate,
    "newton": _newton,
    "gmm": _gmm,
    "kmeans": _kmeans,
    "pagerank": _pagerank,
}

ONLINE_STRATEGIES = ("incremental", "adaptive")


def assert_captured_matches_interpreted(
    framework, strategy, observer=None, **kwargs
):
    """Run once capturing (the default) and once interpreted; the
    captured run must be indistinguishable in every observable.  The
    ``observer`` (if any) watches only the captured run."""
    captured = framework.run(strategy=strategy, observer=observer, **kwargs)
    oracle = framework.run(strategy=strategy, program_capture=False, **kwargs)
    np.testing.assert_array_equal(captured.x, oracle.x)
    assert captured.objective == oracle.objective
    assert captured.iterations == oracle.iterations
    assert captured.rollbacks == oracle.rollbacks
    assert captured.converged == oracle.converged
    assert captured.hit_max_iter == oracle.hit_max_iter
    assert captured.steps_by_mode == oracle.steps_by_mode
    assert captured.mode_trace == oracle.mode_trace
    # Energy is exact float equality, not approx — the ledger contract.
    assert captured.energy == oracle.energy
    assert captured.energy_by_mode == oracle.energy_by_mode
    assert captured.objective_trace == oracle.objective_trace
    return captured, oracle


@pytest.mark.parametrize("strategy", ONLINE_STRATEGIES)
@pytest.mark.parametrize("solver", sorted(FACTORIES), ids=sorted(FACTORIES))
def test_every_solver_matches_interpreted(solver, strategy):
    assert_captured_matches_interpreted(FACTORIES[solver](), strategy)


@pytest.mark.parametrize("strategy", ["truth", "static:level2", "static:acc"])
def test_static_and_truth_strategies(strategy):
    assert_captured_matches_interpreted(_jacobi(), strategy)


@pytest.mark.parametrize(
    "dataset, strategy",
    [
        ("3cluster", "static:level2"),
        ("3cluster", "incremental"),
        ("3cluster", "adaptive"),
        ("4cluster", "static:level1"),
    ],
)
def test_gmm_weight_block_matches_reference_engine(dataset, strategy, reference_run):
    """GMM issues its k mean sums as one ``(k, n)`` weight block; the
    spec engine computes them as k separate sums.  The captured run
    must equal it bit for bit, with a float-equal ledger."""
    framework = ApproxIt(GaussianMixtureEM.from_dataset(load_dataset(dataset)))
    captured = framework.run(strategy=strategy)
    reference = reference_run(framework, strategy)
    np.testing.assert_array_equal(captured.x, reference.x)
    assert captured.iterations == reference.iterations
    assert captured.rollbacks == reference.rollbacks
    assert captured.mode_trace == reference.mode_trace
    assert captured.objective_trace == reference.objective_trace
    assert captured.energy == reference.energy
    assert captured.energy_by_mode == reference.energy_by_mode


def test_replays_actually_happen():
    """The parity above would pass vacuously if every iteration bailed
    to the interpreted path — prove the replay path dominates on a
    long, mode-stable run."""
    recorder = TraceRecorder(label="replay")
    _lsq().run(strategy="incremental", observer=recorder)
    summary = summarize_trace(recorder.events)
    assert summary.program_captures >= 1
    assert summary.program_replays >= summary.executed_iterations // 2
    assert (
        summary.program_captures + summary.program_replays
        <= summary.executed_iterations
    )


class TestRollbackReRecord:
    """Rollbacks keep every cached program.  The first iteration after a
    rollback replays when its mode recorded a program earlier and
    records otherwise, each mode records once, and the captured run
    stays bit-identical, with a float-equal ledger, to the interpreted
    run."""

    def _rollback_trace(self, strategy="incremental"):
        recorder = TraceRecorder(label="rb")
        framework = _jacobi()
        captured, oracle = assert_captured_matches_interpreted(
            framework, strategy, observer=recorder
        )
        assert captured.rollbacks >= 1, "workload must roll back naturally"
        return recorder.events

    @staticmethod
    def _after_rollbacks(events):
        """``(execution, recorded_before)`` of each iteration that
        directly follows a rolled-back one."""
        iters = [e for e in events if e.kind == "iteration"]
        out = []
        for idx, event in enumerate(iters[:-1]):
            if event.detail.get("accepted"):
                continue
            later = iters[idx + 1]
            recorded = any(
                earlier.mode == later.mode
                and earlier.detail.get("execution") == "captured"
                for earlier in iters[: idx + 1]
            )
            out.append((later.detail.get("execution"), recorded))
        assert out, "expected an iteration after a rollback"
        for execution, recorded in out:
            assert execution == ("replayed" if recorded else "captured")
        return out

    def test_iteration_after_rollback_re_records(self):
        """Incremental escalates past the rolled-back mode onto one not
        yet recorded, which records."""
        after = self._after_rollbacks(self._rollback_trace("incremental"))
        assert ("captured", False) in after

    def test_rollback_onto_recorded_mode_replays(self):
        """Adaptive rolls back onto a mode it recorded earlier; that
        mode's program replays the retried iteration."""
        after = self._after_rollbacks(self._rollback_trace("adaptive"))
        assert ("replayed", True) in after

    def test_rollback_and_mode_switch_runs_stay_exact(self):
        """A run featuring both a rollback and mode reconfigurations
        (switch energy charged) keeps exact parity."""
        framework = ApproxIt(
            JacobiSolver(*_linear_system(11, 28), max_iter=120),
            switch_energy=0.5,
        )
        captured, _ = assert_captured_matches_interpreted(
            framework, "incremental"
        )
        assert captured.rollbacks >= 1
        assert captured.mode_switches >= 1

    def test_rollback_counters_in_summary(self):
        events = self._rollback_trace()
        summary = summarize_trace(events)
        assert summary.rollbacks >= 1
        # One capture per mode the run executed, rollbacks included.
        modes = {e.mode for e in events if e.kind == "iteration"}
        assert summary.program_captures == len(modes) >= 2
        assert summary.program_bailouts == 0
