"""Batched program replay vs the interpreted batched path and solo loop.

The lane-group capture/replay engine (:mod:`repro.arith.program`)
records one ``IterationProgram`` per (solver, mode, lane-group) from the
first lock-step iteration and replays it over the stacked buffers with a
single deferred charge flush per window.  These benchmarks time three
schedules of the same workload — a Python loop of B interpreted solo
runs, the interpreted batched path (``program_capture=False``) and the
replayed batched path (the default) — and gate the replay path against
both: it must beat the solo loop by a wide margin and the interpreted
batch by the per-iteration dispatch overhead it removes.  Each gate's
two sides are timed in alternation (``perf.time_pair``).

Workload choice mirrors the solo replay suite: weakly dominant 1-D
Laplacian systems keep the loop alive for the full ``max_iter`` (random
diagonally dominant matrices hit the fixed-point quantization fixed
point within a handful of steps), and ``static:acc`` lanes concentrate
the replay win where it lives — the executor fuses the exact mode's
reduction trees into single ``np.add.reduce`` calls, while approximate
levels pay the identical vectorized adder kernels on both paths.

Exactness is asserted inside the benchmark (bit-identical iterates,
float-equal per-lane energy); a fast-but-wrong replay path cannot pass.

Coverage spans the solver families this replay work admits to the batch
path: Jacobi (the headline entry, with the 7x-over-solo and
1.4x-over-interpreted-batch floors), red-black Gauss-Seidel
(triangular-free reordered sweeps) and Gaussian-mixture EM (per-lane
component stacks).  GMM's batched loop is dominated by its per-lane EM
control flow (log-joint objective and gradient per lane per iteration),
so its replay headroom is structurally small — its entry records the
honest ratio and gates only against regression.
"""

import resource

import numpy as np

from repro.apps import GaussianMixtureEM
from repro.arith import FixedPointFormat, default_mode_bank
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.core.framework import ApproxIt
from repro.solvers.linear import JacobiSolver, RedBlackGaussSeidelSolver


def _laplacian_framework(solver_cls, n, max_iter=150, seed=17):
    """1D Laplacian (2.05 on the diagonal): weak dominance, so the
    splitting contracts slowly and the run spends ``max_iter``
    iterations in the loop."""
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    framework = ApproxIt(
        solver_cls(matrix, rhs, max_iter=max_iter, tolerance=1e-9)
    )
    framework.characterization()  # warm the shared table once, up front
    return framework


def _gmm_framework():
    """Three overlapping clusters fitted with two components: the
    ambiguity keeps EM moving for the full ``max_iter``."""
    rng = np.random.default_rng(31)
    points = np.concatenate(
        [
            rng.normal(-0.5, 1.0, (60, 2)),
            rng.normal(0.5, 1.0, (60, 2)),
        ]
    )
    framework = ApproxIt(
        GaussianMixtureEM(
            points, n_clusters=3, max_iter=60, tolerance=1e-300
        )
    )
    framework.characterization()
    return framework


def _assert_batch_matches_solo(batch, solo):
    for batch_run, solo_run in zip(batch, solo):
        np.testing.assert_array_equal(batch_run.x, solo_run.x)
        assert batch_run.iterations == solo_run.iterations
        assert batch_run.energy == solo_run.energy  # exact, not approx
        assert batch_run.energy_by_mode == solo_run.energy_by_mode
        assert batch_run.steps_by_mode == solo_run.steps_by_mode


def _bench_replay(perf, name, framework, specs, repeats, solo_gate, batch_gate):
    def solo_loop():
        return [
            framework.run(strategy=spec, program_capture=False)
            for spec in specs
        ]

    def interpreted_batch():
        return framework.run_batch(list(specs), program_capture=False)

    def replayed_batch():
        return framework.run_batch(list(specs))

    solo = solo_loop()
    _assert_batch_matches_solo(interpreted_batch(), solo)
    _assert_batch_matches_solo(replayed_batch(), solo)

    # Each gate divides two sides timed in strict alternation, so both
    # saw the same machine state.
    t_solo, t_replay_a = perf.time_pair(
        solo_loop, replayed_batch, repeats=max(2, repeats - 1)
    )
    t_interp, t_replay_b = perf.time_pair(
        interpreted_batch, replayed_batch, repeats=repeats
    )
    vs_solo = t_solo / t_replay_a
    vs_batch = t_interp / t_replay_b
    perf.record(
        name,
        lanes=len(specs),
        solo_loop_s=round(t_solo, 4),
        interpreted_batch_s=round(t_interp, 4),
        replayed_batch_s=round(min(t_replay_a, t_replay_b), 4),
        speedup=round(vs_solo, 2),
        vs_interpreted_batch=round(vs_batch, 2),
    )
    assert vs_solo >= solo_gate, (
        f"{name}: replay only {vs_solo:.2f}x over the solo interpreted "
        f"loop (floor {solo_gate}x)"
    )
    assert vs_batch >= batch_gate, (
        f"{name}: replay only {vs_batch:.2f}x over the interpreted "
        f"batched path (floor {batch_gate}x)"
    )


def test_replayed_jacobi_b64(perf):
    """The headline entry: 64 acc-mode Jacobi lanes on a slow system
    (measured ~9.3x / ~1.6x; floors 7x over the solo loop and 1.4x over
    the interpreted batch)."""
    framework = _laplacian_framework(JacobiSolver, n=32)
    _bench_replay(
        perf,
        "batched/replay_jacobi_b64",
        framework,
        ["static:acc"] * 64,
        repeats=3,
        solo_gate=7.0,
        batch_gate=1.4,
    )


def test_replayed_gs_rb_b32(perf):
    """Red-black Gauss-Seidel was refused by the batch path before the
    reordered solvers existed; 32 lanes must now replay well ahead of
    both baselines (measured ~5.5-7x / ~1.5x)."""
    framework = _laplacian_framework(RedBlackGaussSeidelSolver, n=80)
    _bench_replay(
        perf,
        "batched/replay_gs_rb32",
        framework,
        ["static:acc"] * 32,
        repeats=3,
        solo_gate=4.0,
        batch_gate=1.2,
    )


def test_replayed_gmm_b16(perf):
    """Gaussian-mixture EM lanes, one ``(L, k, n)`` ``weighted_sum``
    block per M-step, on the replay path: measured ~2.4x over the solo
    loop; the vs-batch gate is a non-regression bound (see module
    docstring)."""
    framework = _gmm_framework()
    _bench_replay(
        perf,
        "batched/replay_gmm_b16",
        framework,
        ["static:acc"] * 16,
        repeats=3,
        solo_gate=1.6,
        batch_gate=0.9,
    )


def test_approx_matvec_jacobi240_b16(perf):
    """One replayed ``static:level2`` matvec of a 16-lane stack on the
    240x240 Jacobi system against 16 solo replayed ones, timed in
    alternation (check_bench's default 0.9 floor applies).  The
    approximate adder declines the fused product-reduce, so both sides
    run the tiled product fold (product, encode and tree one L2-sized
    tile at a time; LOA's error bound proves each tile's tree in range,
    so the tile encodes in place and folds in closed form): the lane
    stack must not lose to the loop it replaces.  Words and per-lane ledgers are asserted equal before
    timing; minor page faults per replayed stack call are recorded."""
    n, lanes = 240, 16
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    X = np.random.default_rng(17).uniform(-2.0, 2.0, (lanes, n))
    mode = default_mode_bank(32).by_name("level2")
    fmt = FixedPointFormat(width=32, frac_bits=16)
    stack = BatchedProgramEngine(mode, fmt, lanes=lanes)
    stack.select_lanes(np.arange(lanes))
    solos = [ProgramEngine(mode, fmt) for _ in range(lanes)]

    def batched():
        stack.begin_iteration({"x": X})
        words = stack.matvec(matrix, X, resident=True).words
        stack.end_iteration()
        return words

    def solo_loop():
        out = []
        for engine, x in zip(solos, X):
            engine.begin_iteration({"x": x})
            out.append(engine.matvec(matrix, x, resident=True).words)
            engine.end_iteration()
        return out

    batched(), solo_loop()  # capture windows
    np.testing.assert_array_equal(batched(), np.stack(solo_loop()))
    assert stack.program_replays == 1
    assert all(engine.program_replays == 1 for engine in solos)
    for lane, engine in enumerate(solos):
        assert stack.ledger.lane_ledger(lane) == engine.ledger

    t_solo, t_batch = perf.time_pair(solo_loop, batched, repeats=7)
    calls = 20
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        batched()
    minflt = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
    perf.record(
        "batched/approx_matvec_jacobi240_b16",
        lanes=lanes,
        solo_loop_s=round(t_solo, 5),
        batched_s=round(t_batch, 5),
        speedup=round(t_solo / t_batch, 2),
        minflt_per_call=round(minflt, 1),
    )
