"""Sparse resident operands: the CSR matvec vs the reference engine.

The flagship workload of the sparse datapath: web-scale PageRank on a
synthetic 100k-node link graph (~8 out-links per node, power-law
in-degrees), where the per-iteration cost is one CSR matvec over ~800k
stored entries plus two rank-one corrections (dangling mass, teleport)
that never densify.

The shipped path captures the iteration program once and replays it
through the fused ``csr_matvec_words`` backend kernel (the
``nnz_max * W`` in-range proof holds for a stochastic matrix).  The
baseline is the spec engine,
:class:`~repro.arith.reference.ReferenceEngine`: per-call checked
encodes and the dense-gather concat reduce, one tree per nnz length.  Parity is asserted before timing — bit-identical
iterates and float-equal ledgers — so the gated floor can never be
bought with numerical drift.

The approximate modes cannot fuse (their adders are not exact), so
``sparse/approx_matvec_pagerank100k`` gates the path they run: one
interpreted CSR matvec at ``level2``, whose level-ordered fold adds
each tree level's two contiguous halves in L2-sized chunks.

The replay entry's gated ``speedup`` is measured on the datapath
iteration itself
(one captured-program replay of the 800k-entry matvec vs one reference
engine call): that is the unit this subsystem owns.  The end-to-end
solver-run ratio is recorded alongside as ``run_speedup`` — it is
necessarily smaller, because both sides share the *exact* control loop
(the per-iteration float64 objective) by the parity contract, and at
web scale that shared exact work is a visible fraction of the replayed
iteration.
"""

import resource
import statistics

import numpy as np

from repro.apps.pagerank import PageRank
from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.program import ProgramEngine
from repro.arith.reference import ReferenceEngine
from repro.core.framework import ApproxIt
from repro.obs.observer import Observer


class _FaultLog(Observer):
    """Minor page faults (``ru_minflt``) between iteration events, with
    each iteration's execution (``captured`` / ``replayed``)."""

    def __init__(self):
        super().__init__()
        self.iterations = []
        self._last = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def record(self, event):
        if event.kind == "iteration":
            now = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            self.iterations.append((event.detail.get("execution"), now - self._last))
            self._last = now


def _replay_faults(framework, strategy):
    """``(median faults per replayed iteration, faults per iteration of
    the whole run)`` of one run after a warm-up run."""
    framework.run(strategy=strategy)
    log = _FaultLog()
    framework.run(strategy=strategy, observer=log)
    replays = [n for execution, n in log.iterations if execution == "replayed"]
    total = sum(n for _, n in log.iterations)
    return statistics.median(replays), total / len(log.iterations)


def _assert_exact_parity(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.energy == b.energy
    assert a.energy_by_mode == b.energy_by_mode


def test_replay_pagerank100k(perf, reference_run):
    """The sparse headline entry (gated at >= 10x by check_bench).

    Three layers, all on the same 100k-node web: (1) full-run parity —
    captured/replayed, interpreted, and reference-engine solves are
    bit-identical with float-equal ledgers; (2) the gated datapath
    measurement — one replayed CSR-matvec iteration against one
    reference engine call, on the solver's own converged mass
    distribution; (3) the recorded end-to-end run ratio.  An
    unreachable tolerance pins the iteration count so every timed run
    does identical work."""
    app = PageRank.random_web_csr(
        n_nodes=100_000, seed=11, out_degree=8.0, max_iter=12, tolerance=1e-300
    )
    framework = ApproxIt(app)
    framework.characterization()  # warm; timing covers the loop only

    replay_run = framework.run(strategy="static:acc")
    interp_run = framework.run(strategy="static:acc", program_capture=False)
    legacy_run = reference_run(framework, "static:acc")
    _assert_exact_parity(replay_run, interp_run)
    _assert_exact_parity(replay_run, legacy_run)

    # --- gated datapath measurement: replayed matvec vs reference ----
    sp = app._link
    vec = np.asarray(replay_run.x, dtype=np.float64)
    mode = framework.bank.by_name("acc")
    engine = ProgramEngine(mode, framework.fmt, EnergyLedger())
    assert engine.begin_iteration({"x": vec}) == "record"
    first = engine.matvec(sp, vec)
    assert engine.end_iteration() == ("captured", None)

    def replay_matvec():
        assert engine.begin_iteration({"x": vec}) == "replay"
        out = engine.matvec(sp, vec)
        execution, reason = engine.end_iteration()
        assert execution == "replayed" and reason is None
        return out

    twin = ReferenceEngine(mode, framework.fmt, EnergyLedger())

    def legacy_matvec():
        return twin.matvec(sp, vec)

    np.testing.assert_array_equal(first, replay_matvec())
    np.testing.assert_array_equal(first, legacy_matvec())

    # Timed separately (not in alternation): one reference call sweeps
    # ~tens of MB through cache and evicts the replay's pinned buffers,
    # which mis-states the shipped path — a solver run replays the
    # program back-to-back, never interleaved with the twin.
    t_replay_mv = perf.time(replay_matvec, repeats=10, number=4)
    t_legacy_mv = perf.time(legacy_matvec, repeats=5)
    speedup = t_legacy_mv / t_replay_mv

    # --- replayed iterations allocate nothing that page-faults --------
    # The CSR matvec reuses its row plan's buffers, so a replayed
    # iteration faults in no fresh pages (ROADMAP item 2: <= 100); the
    # whole-run figure also counts the capture and the fused route's
    # first-replay buffers.
    faults = {s: _replay_faults(framework, f"static:{s}") for s in ("level2", "acc")}

    # --- supplementary: full solver runs through the same layers -----
    t_replay_run, t_legacy_run = perf.time_pair(
        lambda: framework.run(strategy="static:acc"),
        lambda: reference_run(framework, "static:acc"),
        repeats=3,
    )
    perf.record(
        "sparse/replay_pagerank100k",
        nodes=sp.shape[0],
        nnz=sp.nnz,
        nnz_max=sp.nnz_max,
        iterations=replay_run.iterations,
        replay_matvec_ms=round(t_replay_mv * 1e3, 3),
        legacy_matvec_ms=round(t_legacy_mv * 1e3, 3),
        replay_run_s=round(t_replay_run, 4),
        legacy_run_s=round(t_legacy_run, 4),
        run_speedup=round(t_legacy_run / t_replay_run, 2),
        speedup=round(speedup, 2),
        **{f"replay_minflt_{s}": replay for s, (replay, _) in faults.items()},
        **{f"run_minflt_per_iter_{s}": round(run, 1) for s, (_, run) in faults.items()},
    )
    assert speedup > 1.0
    for s, (replay, _) in faults.items():
        assert replay <= 100, f"static:{s} replayed iteration took {replay} minor faults"


def test_approx_matvec_pagerank100k(perf):
    """The approximate-mode CSR matvec (gated at >= 2x by check_bench).

    ``level2``'s adder is approximate, so the fused product-reduce does
    not apply: every characterization probe, capture and replay of an
    approximate mode runs the level-ordered reduce (per tree level, one
    gather and the two contiguous halves added in L2-sized calls across
    all rows).  Replay adds the levels LOA's error bound proves through
    the adder's in-range kernel; the interpreted call timed here keeps
    the adder call, its level bounds carried from the product bound.
    One interpreted ``ApproxEngine`` call against one reference engine
    call on the 100k-node web, after words and ledger parity, timed in
    alternation."""
    app = PageRank.random_web_csr(n_nodes=100_000, seed=11, out_degree=8.0)
    framework = ApproxIt(app)
    sp = app._link
    vec = np.random.default_rng(0).uniform(size=sp.shape[1])
    vec /= vec.sum()
    mode = framework.bank.by_name("level2")
    engine = ApproxEngine(mode, framework.fmt, EnergyLedger())
    twin = ReferenceEngine(mode, framework.fmt, EnergyLedger())
    np.testing.assert_array_equal(engine.matvec(sp, vec), twin.matvec(sp, vec))
    assert engine.ledger == twin.ledger

    sizes = []

    class _CountingKernels(type(engine.backend)):
        def add_signed(self, adder, qa, qb):
            sizes.append(qa.size)
            return super().add_signed(adder, qa, qb)

    counted = ApproxEngine(mode, framework.fmt, EnergyLedger())
    counted.backend = _CountingKernels()
    counted.matvec(sp, vec)
    assert sum(sizes) == counted.ledger.adds

    t_engine, t_twin = perf.time_pair(
        lambda: engine.matvec(sp, vec), lambda: twin.matvec(sp, vec), repeats=7
    )
    speedup = t_twin / t_engine
    perf.record(
        "sparse/approx_matvec_pagerank100k",
        nodes=sp.shape[0],
        nnz=sp.nnz,
        tree_levels=len(sp.row_plan().levels),
        adder_calls=len(sizes),
        engine_matvec_ms=round(t_engine * 1e3, 3),
        reference_matvec_ms=round(t_twin * 1e3, 3),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_sparse_vs_dense_jacobi240(perf):
    """The same tridiagonal system solved through the CSR datapath and
    the dense resident path, both under capture/replay: the CSR solve
    reduces 3 products per row instead of 240, and at the exact mode
    the two produce bit-identical iterates (an in-range reduction is
    associative), so the entry isolates the sparsity win inside the
    shipped configuration."""
    n = 240
    dense = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    from repro.arith.engine import SparseResidentMatrix
    from repro.solvers.linear import JacobiSolver

    dense_fw = ApproxIt(JacobiSolver(dense, rhs, max_iter=150, tolerance=1e-9))
    sparse_fw = ApproxIt(
        JacobiSolver(
            SparseResidentMatrix.from_dense(dense),
            rhs,
            max_iter=150,
            tolerance=1e-9,
        )
    )
    dense_fw.characterization()
    sparse_fw.characterization()

    dense_run = dense_fw.run(strategy="static:acc")
    sparse_run = sparse_fw.run(strategy="static:acc")
    np.testing.assert_array_equal(dense_run.x, sparse_run.x)
    assert dense_run.iterations == sparse_run.iterations
    assert sparse_run.energy < dense_run.energy

    t_sparse, t_dense = perf.time_pair(
        lambda: sparse_fw.run(strategy="static:acc"),
        lambda: dense_fw.run(strategy="static:acc"),
        repeats=5,
    )
    perf.record(
        "sparse/jacobi240_vs_dense",
        iterations=sparse_run.iterations,
        sparse_s=round(t_sparse, 4),
        dense_s=round(t_dense, 4),
        energy_ratio=round(sparse_run.energy / dense_run.energy, 4),
        speedup=round(t_dense / t_sparse, 2),
    )
