"""Constant operands: same words, same energy, same errors on every path.

The engines encode constant operands (the system matrix, the right-hand
side, cluster points) on every call; iteration-program replay resolves
each one by identity to the words, bounds and ``abs_max`` it computed
once at compile time.  These tests pin both against the reference
engine: bit-identical results and equal ledgers, the checked encode's
non-finite errors (a trusted product encode must raise exactly where
the checked one does), the plan-free tree reduce over odd levels, and
the NumPy-2 ``__array__(copy=...)`` protocol of resident words.
"""

import numpy as np
import pytest

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    EnergyLedger,
    SparseResidentMatrix,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.program import ProgramEngine
from repro.arith.reference import ReferenceEngine


def _pair(bank32, mode_name, fmt=None, engine_cls=ApproxEngine):
    fmt = fmt if fmt is not None else FixedPointFormat(32, 16)
    fast = engine_cls(bank32.by_name(mode_name), fmt, EnergyLedger())
    legacy = ReferenceEngine(bank32.by_name(mode_name), fmt, EnergyLedger())
    return fast, legacy


def _replayed(prog, slots, kernel):
    """Run ``kernel()`` inside one iteration window; replays must not
    bail."""
    prog.begin_iteration(slots)
    out = kernel()
    execution, reason = prog.end_iteration()
    assert reason is None
    return execution, out


MODES = ("acc", "level1", "level4")


class TestPinnedVectors:
    @pytest.mark.parametrize("mode", MODES)
    def test_pinned_chain_bit_identical_and_same_energy(self, bank32, rng, mode):
        """The Jacobi residual chain over raw constants: recorded on the
        first iteration, replayed from the constants' compile-time
        encodings after it."""
        prog, legacy = _pair(bank32, mode, engine_cls=ProgramEngine)
        rhs = rng.uniform(-5, 5, size=32)
        matrix = rng.uniform(-1, 1, size=(32, 32))
        executions = []
        for _ in range(3):
            x = rng.uniform(-5, 5, size=32)
            execution, got = _replayed(
                prog,
                {"x": x},
                lambda: prog.sub(rhs, prog.matvec(matrix, x, resident=True)),
            )
            executions.append(execution)
            want = legacy.sub(rhs, legacy.matvec(matrix, x))
            np.testing.assert_array_equal(got, want)
        assert executions == ["captured", "replayed", "replayed"]
        assert prog.ledger == legacy.ledger


class TestPinnedMatrices:
    @pytest.mark.parametrize("mode", MODES)
    def test_trusted_matvec_bit_identical(self, bank32, rng, mode):
        prog, legacy = _pair(bank32, mode, engine_cls=ProgramEngine)
        matrix = rng.uniform(-2, 2, size=(13, 9))
        for _ in range(3):
            vector = rng.uniform(-2, 2, size=9)
            _, got = _replayed(prog, {"x": vector}, lambda: prog.matvec(matrix, vector))
            np.testing.assert_array_equal(got, legacy.matvec(matrix, vector))
        assert prog.program_replays == 2
        assert prog.ledger == legacy.ledger

    @pytest.mark.parametrize("mode", MODES)
    def test_trusted_weighted_sum_bit_identical(self, bank32, rng, mode):
        prog, legacy = _pair(bank32, mode, engine_cls=ProgramEngine)
        pts = rng.uniform(-5, 5, size=(33, 3))
        for _ in range(3):
            w = rng.uniform(0, 1, size=33)
            _, got = _replayed(prog, {"x": w}, lambda: prog.weighted_sum(w, pts))
            np.testing.assert_array_equal(got, legacy.weighted_sum(w, pts))
        assert prog.program_replays == 2
        assert prog.ledger == legacy.ledger

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_trusted_path_still_rejects_nonfinite_iterate(self, bank32):
        fast, legacy = _pair(bank32, "acc")
        prog, _ = _pair(bank32, "acc", engine_cls=ProgramEngine)
        matrix = np.eye(3)
        bad = np.array([1.0, np.inf, 0.0])
        _replayed(prog, {"x": np.ones(3)}, lambda: prog.matvec(matrix, np.ones(3)))
        prog.begin_iteration({"x": bad})
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            prog.matvec(matrix, bad)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            fast.matvec(matrix, bad)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            fast.matvec(SparseResidentMatrix.from_dense(matrix), bad)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            legacy.matvec(matrix, bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_bound_falls_back_to_checked(self, bank32):
        # max|A| * max|x| overflows float64 → the finiteness proof fails
        # and the checked encode must catch the non-finite products.
        fast, legacy = _pair(bank32, "acc")
        prog, _ = _pair(bank32, "acc", engine_cls=ProgramEngine)
        matrix = np.full((2, 2), 1e200)
        vector = np.full(2, 1e200)
        _replayed(prog, {"x": np.ones(2)}, lambda: prog.matvec(matrix, np.ones(2)))
        prog.begin_iteration({"x": vector})
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            prog.matvec(matrix, vector)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            fast.matvec(matrix, vector)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            legacy.matvec(matrix, vector)


class TestReductionPlans:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 100, 101])
    def test_planned_reduce_matches_legacy_layout(self, bank32, rng, n):
        fast, legacy = _pair(bank32, "level3")
        q = fast.fmt.encode(rng.uniform(-50, 50, size=(n, 4)))
        np.testing.assert_array_equal(
            fast._reduce_words(q.copy()), legacy._reduce(q.copy())
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [9, 101])
    def test_overflowing_odd_reduce_bit_identical(self, bank32, rng, mode, n):
        # Odd tree levels + saturation exercise the odd-tail buffer and
        # the incremental-bounds path (exact adder) or the rescan path
        # (approximate adders) of every tree fold: solo, batched, and a
        # replay whose recording saw the saturation.
        fast, legacy = _pair(bank32, mode)
        prog, _ = _pair(bank32, mode, engine_cls=ProgramEngine)
        batched = BatchedEngine(bank32.by_name(mode), fast.fmt, lanes=2)
        batched.select_lanes([0, 1])
        x = rng.uniform(20000.0, 32000.0, size=n)
        want = legacy.sum(x)
        assert fast.sum(x) == want
        assert fast.ledger.adds == legacy.ledger.adds == n - 1
        for _ in range(2):
            _, got = _replayed(prog, {"x": x}, lambda: prog.sum(x))
            assert got == want
        lanes = batched.sum(np.stack([x, x[::-1]]))
        assert lanes[0] == want
        assert lanes[1] == legacy.sum(x[::-1])


class TestArrayProtocol:
    def test_copy_false_raises(self, bank32):
        fast, _ = _pair(bank32, "acc")
        rv = fast.add(np.array([1.5, -2.25]), 0.0, resident=True)
        with pytest.raises(ValueError, match="without copying"):
            rv.__array__(copy=False)

    def test_copy_true_and_default_decode(self, bank32):
        fast, _ = _pair(bank32, "acc")
        rv = fast.add(np.array([1.5, -2.25]), 0.0, resident=True)
        np.testing.assert_allclose(rv.__array__(copy=True), [1.5, -2.25])
        np.testing.assert_allclose(np.asarray(rv), [1.5, -2.25])
        assert rv.__array__(np.float32).dtype == np.float32


class TestMetricsExport:
    def test_run_exposes_cache_stats_via_observer(self):
        """Captured runs export each mode engine's program counters;
        interpreted runs have no engine cache to export."""
        from repro.core.framework import ApproxIt
        from repro.obs import TraceRecorder
        from repro.solvers.linear import JacobiSolver

        rng = np.random.default_rng(3)
        n = 12
        matrix = rng.uniform(-1, 1, size=(n, n))
        matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
        rhs = rng.uniform(-2, 2, size=n)
        framework = ApproxIt(JacobiSolver(matrix, rhs, max_iter=30))
        recorder = TraceRecorder(label="cache-stats")
        framework.run(strategy="incremental", observer=recorder)
        gauges = recorder.metrics.gauges
        replay_keys = [k for k in gauges if k.endswith(".program_replays")]
        assert replay_keys, sorted(gauges)
        assert any(gauges[k] > 0 for k in replay_keys)
        off = TraceRecorder(label="cache-stats-off")
        framework.run(strategy="incremental", observer=off, program_capture=False)
        assert not [k for k in off.metrics.gauges if k.startswith("engine.")]
