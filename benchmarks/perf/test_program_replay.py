"""Iteration-program capture/replay vs the interpreted engine.

Times the shipped configuration (program capture on) against the
interpreted op dispatch (``program_capture=False``) and the spec engine
(:class:`~repro.arith.reference.ReferenceEngine`), on workloads
long enough for the iteration loop — not the offline characterization,
which is warmed per framework before timing — to dominate.

The replay win concentrates where per-op Python overhead is the cost:
at the exact ``acc`` mode the executor fuses every reduction tree into
one C-level ``np.add.reduce``, while approximate levels keep paying the
(identical) vectorized adder-model kernels, so their entries mostly
measure dispatch savings.  Every benchmark asserts the capture/replay
contract before timing: bit-identical iterates and float-equal energy.
"""

import numpy as np

from repro.core.framework import ApproxIt
from repro.solvers import ConjugateGradient, LeastSquaresGD
from repro.solvers.linear import JacobiSolver


def _laplacian_jacobi(n=80, max_iter=150):
    """1D Laplacian: weak diagonal dominance, so Jacobi contracts
    slowly and the run spends ~``max_iter`` iterations in the loop
    (random matrices converge in a handful of steps)."""
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return ApproxIt(JacobiSolver(matrix, rhs, max_iter=max_iter, tolerance=1e-9))


def _assert_exact_parity(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.energy == b.energy
    assert a.energy_by_mode == b.energy_by_mode


def test_replay_jacobi80(perf, reference_run):
    """The headline entry (gated at >= 2.0x by check_bench): a
    mode-stable run records one program and replays it for the rest of
    the run."""
    framework = _laplacian_jacobi()
    framework.characterization()  # warm; timing covers the loop only

    replay_run = framework.run(strategy="static:acc")
    interp_run = framework.run(strategy="static:acc", program_capture=False)
    legacy_run = reference_run(framework, "static:acc")
    _assert_exact_parity(replay_run, interp_run)
    _assert_exact_parity(replay_run, legacy_run)

    t_replay, t_legacy = perf.time_pair(
        lambda: framework.run(strategy="static:acc"),
        lambda: reference_run(framework, "static:acc"),
        repeats=7,
    )
    t_interp = perf.time(
        lambda: framework.run(strategy="static:acc", program_capture=False),
        repeats=7,
    )
    speedup = t_legacy / t_replay
    perf.record(
        "e2e/replay_jacobi80",
        iterations=replay_run.iterations,
        replay_s=round(t_replay, 4),
        interpreted_s=round(t_interp, 4),
        legacy_s=round(t_legacy, 4),
        vs_interpreted=round(t_interp / t_replay, 2),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_replay_jacobi240(perf, reference_run):
    """The fused-replay headline (gated at >= 5.0x by check_bench): at
    n=240 the O(n^2) matvec dominates, and the backend's in-range
    product-encode-reduce fusion collapses each replayed iteration to a
    handful of C-level calls.  Parity against both the interpreted
    executor and the reference engine is asserted before timing, so the
    floor can never be bought with drift."""
    framework = _laplacian_jacobi(n=240)
    framework.characterization()

    replay_run = framework.run(strategy="static:acc")
    interp_run = framework.run(strategy="static:acc", program_capture=False)
    legacy_run = reference_run(framework, "static:acc")
    _assert_exact_parity(replay_run, interp_run)
    _assert_exact_parity(replay_run, legacy_run)

    t_replay, t_legacy = perf.time_pair(
        lambda: framework.run(strategy="static:acc"),
        lambda: reference_run(framework, "static:acc"),
        repeats=7,
    )
    t_interp = perf.time(
        lambda: framework.run(strategy="static:acc", program_capture=False),
        repeats=5,
    )
    speedup = t_legacy / t_replay
    perf.record(
        "e2e/replay_jacobi240",
        iterations=replay_run.iterations,
        replay_s=round(t_replay, 4),
        interpreted_s=round(t_interp, 4),
        legacy_s=round(t_legacy, 4),
        vs_interpreted=round(t_interp / t_replay, 2),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_replay_cg64(perf):
    """CG under the incremental strategy: an ill-conditioned system
    keeps the loop alive for tens of iterations, and the escalating
    mode sequence exercises per-mode program caching."""
    rng = np.random.default_rng(5)
    n = 64
    matrix = rng.uniform(-1.0, 1.0, (n, n))
    matrix = matrix @ matrix.T + 2.0 * np.eye(n)
    rhs = rng.uniform(-3.0, 3.0, n)
    framework = ApproxIt(
        ConjugateGradient(matrix, rhs, max_iter=150, tolerance=1e-300)
    )
    framework.characterization()

    replay_run = framework.run(strategy="incremental")
    interp_run = framework.run(strategy="incremental", program_capture=False)
    _assert_exact_parity(replay_run, interp_run)

    t_replay, t_interp = perf.time_pair(
        lambda: framework.run(strategy="incremental"),
        lambda: framework.run(strategy="incremental", program_capture=False),
        repeats=7,
    )
    speedup = t_interp / t_replay
    perf.record(
        "e2e/replay_cg64",
        iterations=replay_run.iterations,
        replay_s=round(t_replay, 4),
        interpreted_s=round(t_interp, 4),
        speedup=round(speedup, 2),
    )


def test_replay_lsq120(perf):
    """Gradient-family replay at the exact mode, where the fused
    reduction carries the win (at approximate levels the adder-model
    kernels dominate both paths identically)."""
    rng = np.random.default_rng(21)
    design = rng.uniform(-1.0, 1.0, (120, 8))
    weights = rng.uniform(-2.0, 2.0, 8)
    targets = design @ weights + rng.normal(0, 0.01, 120)
    framework = ApproxIt(
        LeastSquaresGD(
            design,
            targets,
            learning_rate=0.02,
            max_iter=250,
            tolerance=1e-300,
        )
    )
    framework.characterization()

    replay_run = framework.run(strategy="static:acc")
    interp_run = framework.run(strategy="static:acc", program_capture=False)
    _assert_exact_parity(replay_run, interp_run)

    t_replay, t_interp = perf.time_pair(
        lambda: framework.run(strategy="static:acc"),
        lambda: framework.run(strategy="static:acc", program_capture=False),
        repeats=7,
    )
    speedup = t_interp / t_replay
    perf.record(
        "e2e/replay_lsq120",
        iterations=replay_run.iterations,
        replay_s=round(t_replay, 4),
        interpreted_s=round(t_interp, 4),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_adaptive_jacobi80(perf, reference_run):
    """The adaptive strategy end-to-end (the sibling of
    ``e2e/jacobi80_incremental``): shipped engine vs the reference
    engine on the same slow-converging system."""
    framework = _laplacian_jacobi()
    framework.characterization()

    fast_run = framework.run(strategy="adaptive")
    legacy_run = reference_run(framework, "adaptive")
    _assert_exact_parity(fast_run, legacy_run)

    t_fast, t_legacy = perf.time_pair(
        lambda: framework.run(strategy="adaptive"),
        lambda: reference_run(framework, "adaptive"),
        repeats=5,
    )
    speedup = t_legacy / t_fast
    perf.record(
        "e2e/jacobi80_adaptive",
        iterations=fast_run.iterations,
        fast_s=round(t_fast, 4),
        legacy_s=round(t_legacy, 4),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0
