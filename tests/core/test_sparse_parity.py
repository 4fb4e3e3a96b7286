"""Sparse-operand parity: CSR fast paths vs their slow-twin oracles.

The sparse datapath (:class:`~repro.arith.SparseResidentMatrix` through
``matvec`` / ``weighted_sum``) promises the repo's *exact* equivalence
contract, not approximate: bit-identical iterates
(``assert_array_equal``, no tolerance) and energy ledgers equal as
floats against :class:`~repro.arith.reference.ReferenceEngine`'s
per-length trees, through every fast layer — iteration-program
capture/replay (including the fused ``csr_matvec_words`` backend route
and its ``nnz_max * W`` fallback) and the batched lane engine.

Three tiers of evidence:

* full framework runs (sparse Jacobi, CSR-built PageRank, sparse
  least-squares × incremental/adaptive) captured vs interpreted vs
  reference;
* an exhaustive width-8 sweep: every one of the 65536 ``(a, b)`` word
  pairs reduced as an nnz-2 CSR row must equal the elementwise
  ``_add_words`` oracle, per adder mode; plus ragged rows of every nnz
  length 0..40 that overflow the word, per mode and overflow policy,
  with equal charge *sequences*;
* targeted replay-fusion gating: the fused kernel must engage exactly
  when the per-row in-range proof holds, and parity must survive
  either way.
"""

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.arith import engine as engine_module
from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
    SparseResidentMatrix,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.arith.reference import ReferenceEngine
from repro.backends import KERNELS
from repro.core.framework import ApproxIt
from repro.solvers import JacobiSolver, LeastSquaresGD

ONLINE_STRATEGIES = ("incremental", "adaptive")


def _tridiag(n: int) -> np.ndarray:
    return 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def _sparse_jacobi():
    n = 40
    matrix = SparseResidentMatrix.from_dense(_tridiag(n))
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return ApproxIt(JacobiSolver(matrix, rhs, max_iter=120))


def _sparse_pagerank():
    return ApproxIt(PageRank.random_web_csr(n_nodes=250, seed=7, max_iter=60))


def _sparse_lsq():
    rng = np.random.default_rng(21)
    n, p, per_row = 80, 6, 3
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, p, size=rows.size)
    vals = rng.uniform(-1.0, 1.0, size=rows.size)
    design = SparseResidentMatrix.from_coo(rows, cols, vals, (n, p))
    w = rng.uniform(-2.0, 2.0, p)
    y = design.matvec_exact(w) + rng.normal(0, 0.01, n)
    return ApproxIt(LeastSquaresGD(design, y, max_iter=100))


FACTORIES = {
    "jacobi-csr": _sparse_jacobi,
    "pagerank-csr": _sparse_pagerank,
    "lsq-csr": _sparse_lsq,
}


def _assert_runs_equal(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.steps_by_mode == b.steps_by_mode
    assert a.mode_trace == b.mode_trace
    # Energy is exact float equality, not approx — the ledger contract.
    assert a.energy == b.energy
    assert a.energy_by_mode == b.energy_by_mode


@pytest.mark.parametrize("strategy", ONLINE_STRATEGIES)
@pytest.mark.parametrize("workload", sorted(FACTORIES), ids=sorted(FACTORIES))
def test_sparse_runs_match_slow_twin(workload, strategy, reference_run):
    """Captured fast runs == interpreted fast runs == the reference
    (dense-gather reduce) engine, bit for bit."""
    framework = FACTORIES[workload]()
    captured = framework.run(strategy=strategy)
    interpreted = framework.run(strategy=strategy, program_capture=False)
    legacy = reference_run(framework, strategy)
    _assert_runs_equal(captured, interpreted)
    _assert_runs_equal(captured, legacy)


def test_sparse_jacobi_matches_dense_at_exact_mode():
    """At the exact mode an in-range reduction is associative, so the
    CSR solve reproduces the dense solve's iterates bit for bit while
    charging only nnz-1 adds per row instead of n-1."""
    n = 40
    dense_mat = _tridiag(n)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    dense_fw = ApproxIt(JacobiSolver(dense_mat, rhs, max_iter=120))
    sparse_fw = ApproxIt(
        JacobiSolver(SparseResidentMatrix.from_dense(dense_mat), rhs, max_iter=120)
    )
    dense_run = dense_fw.run(strategy="static:acc")
    sparse_run = sparse_fw.run(strategy="static:acc")
    np.testing.assert_array_equal(dense_run.x, sparse_run.x)
    assert dense_run.iterations == sparse_run.iterations
    assert sparse_run.energy < dense_run.energy


def test_batched_sparse_lanes_match_solo_runs():
    """The batched lane engine over a shared CSR operand (Jacobi's
    system matrix, least squares' design): every lane bit-identical and
    ledger-equal to its solo run (sparse capture and replay included —
    the batch runs the lane-group program path)."""
    specs = ["incremental", "truth", "static:level2", "adaptive"]
    for workload in ("jacobi-csr", "lsq-csr"):
        framework = FACTORIES[workload]()
        batch = framework.run_batch(list(specs))
        for spec, batch_run in zip(specs, batch):
            _assert_runs_equal(batch_run, framework.run(strategy=spec))


class _ChargeLog:
    """Ledger observer keeping every ``(mode, n_adds, cost)`` charge in
    order: equal totals alone could hide a reordered charge sequence."""

    def __init__(self):
        self.charges = []

    def on_charge(self, mode_name, n_adds, cost):
        self.charges.append((mode_name, n_adds, cost))


class TestWidth8Exhaustive:
    """Every (a, b) word pair at width 8, reduced as an nnz-2 CSR row,
    must equal the elementwise ``_add_words`` oracle — the segment
    reduce is *made of* adder calls, with no sparse-specific arithmetic
    allowed to creep in.

    The ragged cases pin the level-ordered reduce to the reference
    engine's per-length trees: rows of every nnz length 0..40 (empty and
    single-entry rows included, lengths shuffled across rows) plus one
    row longer than three adder chunks, integer products that overflow
    the width-8 word, every mode of the bank and both overflow policies
    — equal words, ledgers and charge sequences through the interpreted,
    batched and captured/replayed engines.  Each runs at the default
    chunk size and at chunks of 1, 3 and 7 words, so that chunk edges
    split rows, levels and lane groups with remainders."""

    WIDTH = 8

    def _engines(self, mode_name):
        bank = default_mode_bank(self.WIDTH)
        fmt = FixedPointFormat(self.WIDTH, 0)
        mode = bank.by_name(mode_name)
        return (
            ApproxEngine(mode, fmt, EnergyLedger()),
            ApproxEngine(mode, fmt, EnergyLedger()),
        )

    @pytest.mark.parametrize("mode_name", ["acc", "level1", "level3"])
    def test_all_pairs_match_adder_oracle(self, mode_name):
        lo, hi = -(1 << (self.WIDTH - 1)), (1 << (self.WIDTH - 1)) - 1
        a, b = np.meshgrid(
            np.arange(lo, hi + 1, dtype=np.int64),
            np.arange(lo, hi + 1, dtype=np.int64),
            indexing="ij",
        )
        a, b = a.ravel(), b.ravel()
        g = a.size
        data = np.empty(2 * g, dtype=np.float64)
        data[0::2] = a
        data[1::2] = b
        indices = np.tile(np.array([0, 1], dtype=np.int64), g)
        indptr = np.arange(0, 2 * g + 1, 2, dtype=np.int64)
        sp = SparseResidentMatrix(data, indices, indptr, (g, 2))
        vec = np.ones(2)

        engine, oracle = self._engines(mode_name)
        got = engine.matvec(sp, vec)
        want = oracle.fmt.decode(oracle._add_words(a, b))
        np.testing.assert_array_equal(got, want)
        # One add per row, charged at the mode's energy.
        assert engine.ledger.adds == oracle.ledger.adds
        assert engine.ledger.energy == oracle.ledger.energy

    @pytest.mark.parametrize("mode_name", ["acc", "level2"])
    def test_random_segments_match_slow_twin(self, mode_name):
        """Mixed nnz lengths 0..8: level-ordered reduce vs the
        reference engine's per-length trees, words and charges."""
        rng = np.random.default_rng(5)
        n_rows = 200
        lengths = rng.integers(0, 9, size=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        data = rng.integers(-100, 100, size=nnz).astype(np.float64)
        indices = np.concatenate(
            [rng.choice(16, size=k, replace=False) for k in lengths if k]
        ).astype(np.int64)
        sp = SparseResidentMatrix(data, indices, indptr, (n_rows, 16))
        vec = np.ones(16)

        bank = default_mode_bank(self.WIDTH)
        fmt = FixedPointFormat(self.WIDTH, 0)
        mode = bank.by_name(mode_name)
        fast = ApproxEngine(mode, fmt, EnergyLedger())
        slow = ReferenceEngine(mode, fmt, EnergyLedger())
        np.testing.assert_array_equal(fast.matvec(sp, vec), slow.matvec(sp, vec))
        assert fast.ledger.adds == slow.ledger.adds
        assert fast.ledger.energy == slow.ledger.energy
        expected_adds = int(np.maximum(lengths - 1, 0).sum())
        assert fast.ledger.adds_by_mode[mode.name] == expected_adds

    COLS = 48
    MODES = [mode.name for mode in default_mode_bank(8)]

    # The default chunk keeps the plain ``saturate`` / ``wrap`` ids.
    CHUNK_CASES = [
        pytest.param(overflow, chunk, id=overflow + (f"-chunk{chunk}" if chunk else ""))
        for chunk in (None, 1, 3, 7)
        for overflow in ("saturate", "wrap")
    ]

    def _setup(self, overflow, mode_name, chunk, monkeypatch, seed=0):
        if chunk is not None:
            monkeypatch.setattr(engine_module, "_FOLD_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        long_row = 3 * engine_module._FOLD_CHUNK + 2
        lengths = rng.permutation(np.append(np.repeat(np.arange(41), 3), long_row))
        cols = max(self.COLS, long_row)
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate(
            [np.sort(rng.choice(cols, k, replace=False)) for k in lengths]
        )
        data = rng.integers(-128, 128, int(indptr[-1])).astype(np.float64)
        sp = SparseResidentMatrix(data, indices, indptr, (lengths.size, cols))
        fmt = FixedPointFormat(self.WIDTH, 0, overflow=overflow)
        mode = default_mode_bank(self.WIDTH).by_name(mode_name)
        vecs = rng.choice([-1.0, 1.0], size=(3, cols))
        return sp, fmt, mode, vecs

    def _reference(self, mode, fmt, calls):
        """Reference words of each ``(kind, vec)`` call on one ledger."""
        log = _ChargeLog()
        ref = ReferenceEngine(mode, fmt, EnergyLedger(observer=log))
        words = [getattr(ref, kind)(*args) for kind, args in calls]
        return words, ref.ledger, log.charges

    @pytest.mark.parametrize("overflow, chunk", CHUNK_CASES)
    @pytest.mark.parametrize("mode_name", MODES)
    def test_interpreted_matches_reference(self, mode_name, overflow, chunk, monkeypatch):
        sp, fmt, mode, vecs = self._setup(overflow, mode_name, chunk, monkeypatch)
        w = np.resize(vecs[1], sp.shape[0])
        calls = [("matvec", (sp, vecs[0])), ("weighted_sum", (w, sp))]
        want, ledger, charges = self._reference(mode, fmt, calls)
        log = _ChargeLog()
        fast = ApproxEngine(mode, fmt, EnergyLedger(observer=log))
        for (kind, args), expected in zip(calls, want):
            np.testing.assert_array_equal(getattr(fast, kind)(*args), expected)
        if overflow == "saturate":
            assert np.any(np.abs(want[0]) >= 127)  # rows hit the clamp
        assert fast.ledger == ledger
        assert log.charges == charges

    @pytest.mark.parametrize("overflow, chunk", CHUNK_CASES)
    @pytest.mark.parametrize("mode_name", MODES)
    def test_lane_stack_matches_solo_runs(self, mode_name, overflow, chunk, monkeypatch):
        sp, fmt, mode, vecs = self._setup(overflow, mode_name, chunk, monkeypatch, seed=1)
        for engine_cls in (BatchedEngine, BatchedProgramEngine):
            log = _ChargeLog()
            engine = engine_cls(mode, fmt, BatchedEnergyLedger(3, observer=log))
            engine.select_lanes(np.arange(3))
            stacks = [vecs, vecs[::-1].copy()]
            outs = []
            for k, xs in enumerate(stacks):
                if engine_cls is BatchedProgramEngine:
                    window = engine.begin_iteration({"X": xs})
                    assert window == ("record", "replay")[k]
                outs.append(engine.matvec(sp, xs))
                if engine_cls is BatchedProgramEngine:
                    assert engine.end_iteration() == (("captured", "replayed")[k], None)
            for lane in range(3):
                calls = [("matvec", (sp, xs[lane])) for xs in stacks]
                want, ledger, charges = self._reference(mode, fmt, calls)
                for out, expected in zip(outs, want):
                    np.testing.assert_array_equal(fmt.decode(out[lane]), expected)
                assert engine.ledger.lane_ledger(lane) == ledger
            assert log.charges == [(m, 3 * n, 3 * c) for m, n, c in charges]

    @pytest.mark.parametrize("overflow, chunk", CHUNK_CASES)
    @pytest.mark.parametrize("mode_name", MODES)
    def test_capture_then_replay_matches_reference(
        self, mode_name, overflow, chunk, monkeypatch
    ):
        """Capture on one iterate, replay on two more: the replay runs
        the unfused route (the ``nnz_max * W`` proof fails at width 8)
        and keeps its recorded charges."""
        sp, fmt, mode, vecs = self._setup(overflow, mode_name, chunk, monkeypatch, seed=2)
        log = _ChargeLog()
        prog = ProgramEngine(mode, fmt, EnergyLedger(observer=log))
        got = []
        for k, vec in enumerate(vecs):
            assert prog.begin_iteration({"x": vec}) == ("replay" if k else "record")
            got.append(prog.matvec(sp, vec))
            assert prog.end_iteration() == (("replayed" if k else "captured"), None)
        want, ledger, charges = self._reference(
            mode, fmt, [("matvec", (sp, vec)) for vec in vecs]
        )
        for out, expected in zip(got, want):
            np.testing.assert_array_equal(out, expected)
        assert prog.ledger == ledger
        assert log.charges == charges


class TestReplayFusionGate:
    """The fused CSR replay kernel engages exactly when the
    ``nnz_max * W`` in-range proof holds; a matrix with one hot row
    must fall back to the level-ordered replay — and stay
    bit-identical."""

    def _capture_and_replay(self, sp, make_vec, monkeypatch):
        calls = {"n": 0}
        fmt = FixedPointFormat(32, 16)
        mode = default_mode_bank(32).by_name("acc")
        engine = ProgramEngine(mode, fmt, EnergyLedger())
        orig = type(engine.backend).csr_matvec_words

        def spy(self, *args, **kwargs):
            calls["n"] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(type(engine.backend), "csr_matvec_words", spy)

        x0, x1 = make_vec(0), make_vec(1)
        assert engine.begin_iteration({"x": x0}) == "record"
        first = engine.matvec(sp, x0)
        assert engine.end_iteration() == ("captured", None)
        assert engine.begin_iteration({"x": x1}) == "replay"
        replayed = engine.matvec(sp, x1)
        execution, reason = engine.end_iteration()
        assert execution == "replayed" and reason is None

        oracle = ApproxEngine(mode, fmt, EnergyLedger())
        np.testing.assert_array_equal(replayed, oracle.matvec(sp, x1))
        np.testing.assert_array_equal(
            first, ApproxEngine(mode, fmt, EnergyLedger()).matvec(sp, x0)
        )
        assert engine.ledger.energy == 2 * oracle.ledger.energy
        return calls["n"]

    def test_well_conditioned_rows_fuse(self, monkeypatch):
        rng = np.random.default_rng(3)
        sp = SparseResidentMatrix.from_dense(
            np.where(rng.uniform(size=(50, 50)) < 0.1, rng.uniform(-1, 1, (50, 50)), 0.0)
        )
        fused = self._capture_and_replay(
            sp, lambda s: np.random.default_rng(s).uniform(-1, 1, 50), monkeypatch
        )
        assert fused == 1  # the replayed iteration, not the recording

    def test_fused_scratch_is_built_once_per_matrix(self, monkeypatch):
        """Every program compiled over one CSR matrix shares its fused
        kernel scratch: two ``static:acc`` runs of one PageRank
        framework build the segment-sum selector (or, without scipy,
        the reduceat geometry) once."""
        framework = _sparse_pagerank()
        framework.characterization()
        seen = []
        orig = type(KERNELS).csr_matvec_words

        def spy(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            bufs = args[5]
            seen.append((bufs, bufs.get("csr_segsum", bufs.get("csr_geom"))))
            return out

        monkeypatch.setattr(type(KERNELS), "csr_matvec_words", spy)
        first = framework.run(strategy="static:acc")
        calls = len(seen)
        second = framework.run(strategy="static:acc")
        assert 0 < calls < len(seen)
        bufs, selector = seen[0]
        assert selector is not None
        assert all(b is bufs and s is selector for b, s in seen)
        _assert_runs_equal(first, second)

    def test_hot_row_disables_fusion_but_keeps_parity(self, monkeypatch):
        """One row whose nnz * W bound overflows the word: the proof
        fails, the fused kernel must not run, and the level-ordered
        replay still matches the interpreted oracle exactly."""
        dense = np.zeros((20, 20))
        dense[3, :] = 2000.0  # hot row: nnz=20, 20*W overflows the word
        for i in range(20):
            dense[i, i] = 1.0
        sp = SparseResidentMatrix.from_dense(dense)
        w = int(np.rint(sp.abs_max * 1.0 * float(FixedPointFormat(32, 16).scale)))
        assert sp.nnz_max * w > (1 << 31) - 1, "test matrix must break the proof"
        fused = self._capture_and_replay(
            sp, lambda s: np.random.default_rng(s).uniform(0.5, 1.0, 20), monkeypatch
        )
        assert fused == 0
