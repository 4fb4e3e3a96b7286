"""Pinned-operand caches: encode once, same words, same energy.

``ApproxEngine.pin`` / ``pin_matrix`` exist purely to stop constant
operands from being re-encoded (or re-scanned for finiteness) every
iteration.  These tests pin the contract: cached operands produce
bit-identical results and an unchanged energy ledger versus both the
un-pinned engine and the reference engine, caches key on array identity
(a different array under the same name re-encodes), and the NumPy-2
``__array__(copy=...)`` protocol is honored.
"""

import numpy as np
import pytest

from repro.arith.engine import (
    ApproxEngine,
    EnergyLedger,
    ReductionPlan,
    ResidentMatrix,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.reference import ReferenceEngine


def _pair(bank32, mode_name, fmt=None):
    fmt = fmt if fmt is not None else FixedPointFormat(32, 16)
    fast = ApproxEngine(bank32.by_name(mode_name), fmt, EnergyLedger())
    legacy = ReferenceEngine(bank32.by_name(mode_name), fmt, EnergyLedger())
    return fast, legacy


MODES = ("acc", "level1", "level4")


class TestPinnedVectors:
    def test_pin_returns_same_object_on_same_array(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        rhs = rng.uniform(-5, 5, size=16)
        first = fast.pin("rhs", rhs)
        second = fast.pin("rhs", rhs)
        assert first is second
        assert fast.encode_cache_hits == 1
        assert fast.encode_cache_misses == 1

    def test_pin_reencodes_a_different_array(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        first = fast.pin("rhs", rng.uniform(-5, 5, size=16))
        other = rng.uniform(-5, 5, size=16)
        second = fast.pin("rhs", other)
        assert first is not second
        np.testing.assert_array_equal(second.words, fast.fmt.encode(other))

    @pytest.mark.parametrize("mode", MODES)
    def test_pinned_chain_bit_identical_and_same_energy(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        rhs = rng.uniform(-5, 5, size=32)
        x = rng.uniform(-5, 5, size=32)
        matrix = rng.uniform(-1, 1, size=(32, 32))
        got = fast.sub(
            fast.pin("rhs", rhs),
            fast.matvec(fast.pin_matrix("A", matrix), x, resident=True),
        )
        want = legacy.sub(rhs, legacy.matvec(matrix, x))
        np.testing.assert_array_equal(got, want)
        assert fast.ledger.adds == legacy.ledger.adds
        assert fast.ledger.energy == pytest.approx(legacy.ledger.energy)
        # Second pass: everything cached, still identical.
        again = fast.sub(
            fast.pin("rhs", rhs),
            fast.matvec(fast.pin_matrix("A", matrix), x, resident=True),
        )
        np.testing.assert_array_equal(again, want)

    def test_raw_pinned_array_hits_through_coerce(self, bank32, rng):
        fast, legacy = _pair(bank32, "acc")
        c = rng.uniform(-5, 5, size=8)
        x = rng.uniform(-5, 5, size=8)
        fast.pin("c", c)
        before = fast.encode_cache_hits
        np.testing.assert_array_equal(fast.add(x, c), legacy.add(x, c))
        assert fast.encode_cache_hits == before + 1

    def test_unpin_drops_both_namespaces(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        arr = rng.uniform(-5, 5, size=8)
        fast.pin("c", arr)
        fast.pin_matrix("c", arr.reshape(2, 4))
        assert fast.cache_stats()["pinned_operands"] == 2
        fast.unpin("c")
        assert fast.cache_stats()["pinned_operands"] == 0
        hits = fast.encode_cache_hits
        fast.add(arr, 0.0)  # no stale id hit after unpin
        assert fast.encode_cache_hits == hits


class TestPinnedMatrices:
    def test_pin_matrix_caches_and_rejects_nonfinite(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        matrix = rng.uniform(-1, 1, size=(6, 6))
        assert fast.pin_matrix("A", matrix) is fast.pin_matrix("A", matrix)
        with pytest.raises(ValueError, match="non-finite"):
            fast.pin_matrix("bad", np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("mode", MODES)
    def test_trusted_matvec_bit_identical(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        matrix = rng.uniform(-2, 2, size=(13, 9))
        pinned = fast.pin_matrix("A", matrix)
        for _ in range(3):
            vector = rng.uniform(-2, 2, size=9)
            np.testing.assert_array_equal(
                fast.matvec(pinned, vector), legacy.matvec(matrix, vector)
            )
        assert fast.ledger.adds == legacy.ledger.adds
        assert fast.ledger.energy_by_mode == legacy.ledger.energy_by_mode

    @pytest.mark.parametrize("mode", MODES)
    def test_trusted_weighted_sum_bit_identical(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        pts = rng.uniform(-5, 5, size=(33, 3))
        pinned = fast.pin_matrix("pts", pts)
        w = rng.uniform(0, 1, size=33)
        np.testing.assert_array_equal(
            fast.weighted_sum(w, pinned), legacy.weighted_sum(w, pts)
        )
        assert fast.ledger.adds == legacy.ledger.adds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_trusted_path_still_rejects_nonfinite_iterate(self, bank32):
        fast, legacy = _pair(bank32, "acc")
        matrix = np.eye(3)
        pinned = fast.pin_matrix("A", matrix)
        bad = np.array([1.0, np.inf, 0.0])
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            fast.matvec(pinned, bad)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            legacy.matvec(matrix, bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_bound_falls_back_to_checked(self, bank32):
        # max|A| * max|x| overflows float64 → the finiteness proof fails
        # and the checked encode must catch the non-finite products,
        # exactly like the un-pinned path.
        fast, legacy = _pair(bank32, "acc")
        matrix = np.full((2, 2), 1e200)
        vector = np.full(2, 1e200)
        pinned = fast.pin_matrix("A", matrix)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            fast.matvec(pinned, vector)
        with pytest.raises(ValueError, match="cannot encode non-finite"):
            legacy.matvec(matrix, vector)

    def test_legacy_engine_accepts_resident_matrix_unchanged(self, bank32, rng):
        _, legacy = _pair(bank32, "level2")
        matrix = rng.uniform(-2, 2, size=(5, 5))
        vector = rng.uniform(-2, 2, size=5)
        np.testing.assert_array_equal(
            legacy.matvec(ResidentMatrix(matrix), vector),
            legacy.matvec(matrix, vector),
        )


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
        # Odd tree levels + saturation exercise the incremental-bounds
        # path (exact adder) and the rescan path (approximate adders).
        fast, legacy = _pair(bank32, mode)
        x = rng.uniform(20000.0, 32000.0, size=n)
        assert fast.sum(x) == legacy.sum(x)
        assert fast.ledger.adds == legacy.ledger.adds == n - 1

    def test_plans_are_reused_per_shape(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        x = rng.uniform(-5, 5, size=(7, 3))
        first = fast.sum(x, axis=0)
        second = fast.sum(x, axis=0)
        np.testing.assert_array_equal(first, second)
        stats = fast.cache_stats()
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_hits"] == 1
        assert stats["reduce_plans"] == 1

    def test_plan_buffer_sized_for_first_odd_level(self):
        plan = ReductionPlan((11, 4))
        # Levels of 11: (5, odd) -> 6 -> (3, even) -> 3 -> (1, odd) ...
        assert sum(half for half, _ in plan.levels) == 10
        assert plan.buf is not None and plan.buf.shape == (6, 4)
        assert ReductionPlan((8,)).buf is None  # pure power of two


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

    def test_resident_matrix_array_protocol(self, rng):
        arr = rng.uniform(-1, 1, size=(3, 3))
        rm = ResidentMatrix(arr)
        assert np.asarray(rm) is arr
        copied = rm.__array__(copy=True)
        assert copied is not arr
        np.testing.assert_array_equal(copied, arr)


class TestMetricsExport:
    def test_run_exposes_cache_stats_via_observer(self):
        from repro.core.framework import ApproxIt
        from repro.obs import TraceRecorder
        from repro.solvers.linear import JacobiSolver

        rng = np.random.default_rng(3)
        n = 12
        matrix = rng.uniform(-1, 1, size=(n, n))
        matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
        rhs = rng.uniform(-2, 2, size=n)
        recorder = TraceRecorder(label="cache-stats")
        framework = ApproxIt(JacobiSolver(matrix, rhs, max_iter=30))
        framework.run(strategy="incremental", observer=recorder)
        gauges = recorder.metrics.gauges
        hit_keys = [k for k in gauges if k.endswith("encode_cache_hits")]
        assert hit_keys, sorted(gauges)
        # The solver pins rhs + matrix, so iterating modes must hit.
        assert any(gauges[k] > 0 for k in hit_keys)
