"""Engine regression tests: residency changes results and energy NOT AT ALL.

The production engine's fixed-point residency exists purely to remove
redundant decode/encode round-trips, skip provably unnecessary
saturation recomputes, and fold reductions in place.  Every test here
pins the invariant that :class:`~repro.arith.engine.ApproxEngine` is
*observationally identical* to the spec,
:class:`~repro.arith.reference.ReferenceEngine`: bit-identical kernel
outputs — including saturating overflow — and an unchanged energy
ledger, down to the exact ``n - 1`` adds per reduced lane.
"""

import numpy as np
import pytest

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    EnergyLedger,
    LaneStack,
    ResidentVector,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.program import ProgramEngine
from repro.arith.reference import ReferenceEngine


def _pair(bank32, mode_name, fmt=None):
    """Matched (production, reference) engines with independent ledgers."""
    fmt = fmt if fmt is not None else FixedPointFormat(32, 16)
    fast = ApproxEngine(bank32.by_name(mode_name), fmt, EnergyLedger())
    legacy = ReferenceEngine(bank32.by_name(mode_name), fmt, EnergyLedger())
    return fast, legacy


MODES = ("acc", "level1", "level4")


class TestEnergyUnchanged:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 101])
    @pytest.mark.parametrize("mode", MODES)
    def test_tree_sum_charges_exactly_n_minus_1(self, bank32, rng, mode, n):
        fast, legacy = _pair(bank32, mode)
        x = rng.uniform(-50.0, 50.0, size=n)
        rf, rl = fast.sum(x), legacy.sum(x)
        assert rf == rl
        assert fast.ledger.adds == n - 1
        assert legacy.ledger.adds == n - 1
        assert fast.ledger.energy == pytest.approx(legacy.ledger.energy)
        assert fast.ledger.adds_by_mode == legacy.ledger.adds_by_mode

    @pytest.mark.parametrize("mode", MODES)
    def test_matvec_ledger_identical(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        matrix = rng.uniform(-2.0, 2.0, size=(13, 9))
        vector = rng.uniform(-2.0, 2.0, size=9)
        np.testing.assert_array_equal(
            fast.matvec(matrix, vector), legacy.matvec(matrix, vector)
        )
        # 13 lanes x (9 - 1) adds each, charged identically.
        assert fast.ledger.adds == legacy.ledger.adds == 13 * 8
        assert fast.ledger.energy_by_mode == legacy.ledger.energy_by_mode

    def test_resident_chain_ledger_identical(self, bank32, rng):
        fast, legacy = _pair(bank32, "level2")
        matrix = rng.uniform(-1.0, 1.0, size=(6, 6))
        rhs = rng.uniform(-1.0, 1.0, size=6)
        x = rng.uniform(-1.0, 1.0, size=6)
        got = fast.sub(rhs, fast.matvec(matrix, x, resident=True))
        want = legacy.sub(rhs, legacy.matvec(matrix, x))
        np.testing.assert_array_equal(got, want)
        assert fast.ledger.adds == legacy.ledger.adds
        assert fast.ledger.energy == pytest.approx(legacy.ledger.energy)


class TestResultsBitIdentical:
    @pytest.mark.parametrize("mode", MODES)
    def test_elementwise_kernels(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        a = rng.uniform(-100.0, 100.0, size=257)
        b = rng.uniform(-100.0, 100.0, size=257)
        np.testing.assert_array_equal(fast.add(a, b), legacy.add(a, b))
        np.testing.assert_array_equal(fast.sub(a, b), legacy.sub(a, b))
        np.testing.assert_array_equal(
            fast.scale_add(a, 0.37, b), legacy.scale_add(a, 0.37, b)
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("overflow", ["saturate", "wrap"])
    def test_overflowing_sum(self, bank32, rng, mode, overflow):
        fmt = FixedPointFormat(32, 16, overflow=overflow)
        fast, legacy = _pair(bank32, mode, fmt)
        # 8 x 30000 blows way past the Q15.16 max of ~32768.
        x = np.full(8, 30000.0)
        assert fast.sum(x) == legacy.sum(x)
        big = rng.uniform(20000.0, 32000.0, size=64)
        np.testing.assert_array_equal(fast.add(big, big), legacy.add(big, big))
        assert fast.ledger.adds == legacy.ledger.adds

    def test_saturating_sum_clamps(self, bank32):
        fast, _ = _pair(bank32, "acc")
        assert fast.sum(np.full(8, 30000.0)) == pytest.approx(
            fast.fmt.max_value, abs=1e-3
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_weighted_sum_and_dot(self, bank32, rng, mode):
        fast, legacy = _pair(bank32, mode)
        w = rng.uniform(0.0, 1.0, size=33)
        pts = rng.uniform(-5.0, 5.0, size=(33, 3))
        np.testing.assert_array_equal(
            fast.weighted_sum(w, pts), legacy.weighted_sum(w, pts)
        )
        assert fast.dot(pts[:, 0], pts[:, 1]) == legacy.dot(pts[:, 0], pts[:, 1])

    def test_reduce_layouts_bit_identical(self, bank32, rng):
        fast, legacy = _pair(bank32, "level3")
        for n in (2, 3, 5, 9, 17, 100, 101):
            q = fast.fmt.encode(rng.uniform(-50.0, 50.0, size=(n, 4)))
            np.testing.assert_array_equal(
                fast._reduce_words(q.copy()), legacy._reduce(q.copy())
            )
        assert fast.ledger == legacy.ledger


class TestResidency:
    def test_resident_round_trip_is_exact(self, bank32, rng):
        fast, _ = _pair(bank32, "acc")
        rv = fast.matvec(rng.uniform(-2, 2, (5, 5)), rng.uniform(-2, 2, 5), resident=True)
        assert isinstance(rv, ResidentVector)
        np.testing.assert_array_equal(fast.fmt.encode(rv.decode()), rv.words)

    def test_resident_operands_accepted_everywhere(self, bank32, rng):
        fast, legacy = _pair(bank32, "level1")
        a = rng.uniform(-10, 10, size=12)
        b = rng.uniform(-10, 10, size=12)
        ra = fast.add(a, 0.0, resident=True)
        np.testing.assert_array_equal(fast.add(ra, b), legacy.add(legacy.add(a, 0.0), b))
        np.testing.assert_array_equal(fast.sub(b, ra), legacy.sub(b, legacy.add(a, 0.0)))
        np.testing.assert_array_equal(
            fast.scale_add(b, 2.0, ra), legacy.scale_add(b, 2.0, legacy.add(a, 0.0))
        )
        assert fast.sum(ra, axis=0) == pytest.approx(legacy.sum(legacy.add(a, 0.0)))

    def test_legacy_engine_never_emits_residents(self, bank32, rng):
        _, legacy = _pair(bank32, "acc")
        out = legacy.matvec(rng.uniform(-2, 2, (4, 4)), rng.uniform(-2, 2, 4), resident=True)
        assert isinstance(out, np.ndarray)

    def test_format_mismatch_rejected(self, bank32):
        fast, _ = _pair(bank32, "acc")
        other = ResidentVector(np.zeros(3, dtype=np.int64), FixedPointFormat(32, 8))
        with pytest.raises(ValueError, match="format"):
            fast.add(other, other)

    def test_asarray_decodes(self, bank32):
        fast, _ = _pair(bank32, "acc")
        rv = fast.add(np.array([1.5, -2.25]), 0.0, resident=True)
        np.testing.assert_allclose(np.asarray(rv), [1.5, -2.25])

    def test_sub_resident_most_negative_word(self, bank32):
        # Negating the most negative word must follow the overflow
        # policy, on the resident path as on the reference's float path.
        for overflow in ("saturate", "wrap"):
            fmt = FixedPointFormat(32, 16, overflow=overflow)
            fast, legacy = _pair(bank32, "acc", fmt)
            lowest = np.array([fmt.min_value, -1.0])
            rv = ResidentVector(fmt.encode(lowest), fmt)
            np.testing.assert_array_equal(
                fast.sub(np.zeros(2), rv), legacy.sub(np.zeros(2), lowest)
            )

    @pytest.mark.parametrize("overflow", ["saturate", "wrap"])
    def test_sub_out_of_range_subtrahend_any_form(self, bank32, overflow):
        """A subtrahend beyond the format's range gives the same words
        as a float, a resident vector or a lane stack, on every engine:
        it is encoded first, then its word negated."""
        fmt = FixedPointFormat(32, 16, overflow=overflow)
        mode = bank32.by_name("acc")
        a = np.array([0.0, 0.0, 3.0, -2.0, 1.0, 0.0])
        b = np.array([40000.0, -40000.0, 1.5, fmt.max_value, fmt.min_value, 1e15])
        qb = fmt.encode(b)
        want = fmt.decode(fmt.handle_overflow(fmt.encode(a) - qb))
        if overflow == "saturate":
            assert want[0] == -fmt.max_value  # not min_value
        fast, legacy = _pair(bank32, "acc", fmt)
        np.testing.assert_array_equal(fast.sub(a, b), want)
        np.testing.assert_array_equal(fast.sub(a, ResidentVector(qb, fmt)), want)
        np.testing.assert_array_equal(legacy.sub(a, b), want)

        batched = BatchedEngine(mode, fmt, lanes=2)
        batched.select_lanes([0, 1])
        stack = np.stack([a, a])
        forms = (np.stack([b, b]), b, ResidentVector(qb, fmt), LaneStack(np.stack([qb, qb]), fmt))
        for form in forms:
            np.testing.assert_array_equal(batched.sub(stack, form), np.stack([want, want]))

        for form in (b, ResidentVector(qb, fmt)):
            prog = ProgramEngine(mode, fmt, EnergyLedger())
            for k, x in enumerate((a, a + 0.0)):
                assert prog.begin_iteration({"x": x}) == ("replay" if k else "record")
                np.testing.assert_array_equal(prog.sub(x, form), want)
                assert prog.end_iteration() == (("replayed" if k else "captured"), None)


class TestFrameworkParity:
    def test_full_run_identical_fast_vs_legacy(self, reference_run):
        from repro.core.framework import ApproxIt
        from repro.solvers.linear import JacobiSolver

        rng = np.random.default_rng(7)
        n = 24
        matrix = rng.uniform(-1.0, 1.0, size=(n, n))
        matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
        rhs = rng.uniform(-5.0, 5.0, size=n)

        def framework():
            return ApproxIt(JacobiSolver(matrix, rhs, max_iter=60))

        fast_run = framework().run(strategy="incremental")
        legacy_run = reference_run(framework(), "incremental")

        np.testing.assert_array_equal(fast_run.x, legacy_run.x)
        assert fast_run.iterations == legacy_run.iterations
        assert fast_run.energy == pytest.approx(legacy_run.energy)
        assert fast_run.steps_by_mode == legacy_run.steps_by_mode
        assert fast_run.mode_trace == legacy_run.mode_trace

    def test_adaptive_run_identical_fast_vs_legacy(self, reference_run):
        # The adaptive strategy reconfigures modes mid-run (and may roll
        # back), so it exercises pinned-operand reuse across engine
        # switches — each mode's engine keeps its own caches.
        from repro.core.framework import ApproxIt
        from repro.solvers.linear import JacobiSolver

        rng = np.random.default_rng(11)
        n = 20
        matrix = rng.uniform(-1.0, 1.0, size=(n, n))
        matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
        rhs = rng.uniform(-5.0, 5.0, size=n)

        def framework():
            return ApproxIt(JacobiSolver(matrix, rhs, max_iter=60))

        fast_run = framework().run(strategy="adaptive")
        legacy_run = reference_run(framework(), "adaptive")

        np.testing.assert_array_equal(fast_run.x, legacy_run.x)
        assert fast_run.iterations == legacy_run.iterations
        assert fast_run.energy == pytest.approx(legacy_run.energy)
        assert fast_run.steps_by_mode == legacy_run.steps_by_mode
        assert fast_run.mode_trace == legacy_run.mode_trace
