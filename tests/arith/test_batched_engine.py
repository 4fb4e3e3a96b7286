"""Batched engine: per-lane bit-identity and exact ledger parity.

The batched path's contract is strict: for every kernel, lane ``i`` of
the stacked call must produce *bit-identical* output words to a solo
:class:`~repro.arith.engine.ApproxEngine` issuing the same call on that
lane's operands, and the per-lane ledger reconstructed by
:meth:`~repro.arith.engine.BatchedEnergyLedger.lane_ledger` must be
*exactly equal* (dataclass ``==``, no tolerance) to the solo ledger.
These tests enforce the contract against the solo engine as the oracle.
"""

import numpy as np
import pytest

from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
    LaneStack,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.reference import ReferenceEngine
from repro.obs import Observer

LANES = 6
DIM = 17


@pytest.fixture()
def lane_vectors(rng):
    return [rng.uniform(-40.0, 40.0, DIM) for _ in range(LANES)]


def make_pair(bank32, fmt32, mode_name):
    """A batched engine over LANES lanes plus per-lane solo engines."""
    mode = bank32.by_name(mode_name)
    batched = BatchedEngine(mode, fmt32, BatchedEnergyLedger(LANES))
    batched.select_lanes(np.arange(LANES))
    solos = [ApproxEngine(mode, fmt32, EnergyLedger()) for _ in range(LANES)]
    return batched, solos


class TestBatchedEnergyLedger:
    def test_charge_fans_out_to_selected_lanes_only(self):
        ledger = BatchedEnergyLedger(4)
        ledger.charge_lanes("level1", np.array([0, 2]), 10, 0.5)
        assert list(ledger.adds) == [10, 0, 10, 0]
        assert ledger.energy[0] == 10 * 0.5
        assert ledger.energy[1] == 0.0
        assert list(ledger.adds_by_mode["level1"]) == [10, 0, 10, 0]

    def test_lane_ledger_exactly_equals_solo_charge_sequence(self):
        """Same charges, same order → exact ``==`` on the dataclass."""
        batched = BatchedEnergyLedger(3)
        solo = EnergyLedger()
        for mode, n, e in (
            ("level1", 17, 0.3),
            ("acc", 5, 1.0),
            ("level1", 17, 0.3),
            ("reconfig", 1, 0.7),
        ):
            batched.charge_lanes(mode, np.array([1]), n, e)
            solo.charge(mode, n, e)
        assert batched.lane_ledger(1) == solo

    def test_untouched_lane_reconstructs_as_empty_ledger(self):
        batched = BatchedEnergyLedger(2)
        batched.charge_lanes("level2", np.array([0]), 4, 0.25)
        assert batched.lane_ledger(1) == EnergyLedger()
        # Modes a lane never touched are omitted from its breakdown.
        assert batched.lane_ledger(1).adds_by_mode == {}

    def test_totals_aggregates_all_lanes(self):
        batched = BatchedEnergyLedger(2)
        batched.charge_lanes("m", np.array([0, 1]), 3, 1.0)
        totals = batched.totals()
        assert totals.adds == 6
        assert totals.energy == pytest.approx(6.0)
        assert totals.adds_by_mode == {"m": 6}

    def test_rejects_negative_adds_and_zero_lanes(self):
        with pytest.raises(ValueError):
            BatchedEnergyLedger(0)
        with pytest.raises(ValueError):
            BatchedEnergyLedger(1).charge_lanes("m", np.array([0]), -1, 1.0)

    def test_observer_receives_one_aggregate_charge(self):
        observer = Observer()
        batched = BatchedEnergyLedger(4, observer=observer)
        batched.charge_lanes("level1", np.array([0, 2, 3]), 10, 0.5)
        assert observer.metrics.counters["adds.level1"] == 30
        assert observer.metrics.counters["energy.level1"] == pytest.approx(15.0)


def _charge_list(rng, modes, length):
    """Random ``(mode, adds, energy_per_add)`` charges; energies are
    irrational-ish so any reordering of float additions shows."""
    return [
        (
            modes[int(rng.integers(len(modes)))],
            int(rng.integers(0, 5000)),
            float(rng.uniform(0.01, 1.7)),
        )
        for _ in range(length)
    ]


def _assert_ledgers_identical(got, want):
    np.testing.assert_array_equal(got.adds, want.adds)
    np.testing.assert_array_equal(got.energy, want.energy)
    assert got.adds_by_mode.keys() == want.adds_by_mode.keys()
    for mode in want.adds_by_mode:
        np.testing.assert_array_equal(got.adds_by_mode[mode], want.adds_by_mode[mode])
        np.testing.assert_array_equal(got.energy_by_mode[mode], want.energy_by_mode[mode])


class TestGatheredFlush:
    """``charge_many_lanes`` gathers once and scatters once; every array
    must equal one ``charge_lanes`` per entry, exactly."""

    @pytest.mark.parametrize("n_lanes", [1, 4, 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_charge_fan_out(self, n_lanes, seed):
        rng = np.random.default_rng(seed)
        got, want = BatchedEnergyLedger(20), BatchedEnergyLedger(20)
        # A warm-up flush on other lanes, so later flushes gather
        # non-zero accumulators and meet some modes for the first time.
        warm = _charge_list(rng, ["acc", "level1"], 7)
        for ledger in (got, want):
            for charge in warm:
                ledger.charge_lanes(charge[0], np.array([3, 19, 0]), *charge[1:])
        for _ in range(3):
            lanes = rng.permutation(20)[:n_lanes]  # unsorted ids
            charges = _charge_list(rng, ["acc", "level1", "level2", "level4"], 31)
            got.charge_many_lanes(lanes, charges)
            for mode, n, e in charges:
                want.charge_lanes(mode, lanes, n, e)
            _assert_ledgers_identical(got, want)
        for lane in range(20):
            assert got.lane_ledger(lane) == want.lane_ledger(lane)

    def test_error_mid_list_keeps_the_charges_before_it(self):
        lanes = np.array([5, 1, 2])
        charges = [("acc", 4, 0.3), ("new", 7, 0.11), ("acc", -1, 0.3), ("late", 2, 1.0)]
        got, want = BatchedEnergyLedger(6), BatchedEnergyLedger(6)
        with pytest.raises(ValueError, match="adds_per_lane must be >= 0"):
            got.charge_many_lanes(lanes, charges)
        for mode, n, e in charges[:2]:
            want.charge_lanes(mode, lanes, n, e)
        _assert_ledgers_identical(got, want)
        assert "late" not in got.adds_by_mode

    def test_observer_sees_every_charge(self):
        observer = Observer()
        ledger = BatchedEnergyLedger(4, observer=observer)
        ledger.charge_many_lanes(np.array([2, 0]), [("acc", 3, 1.0), ("acc", 5, 1.0)])
        assert observer.metrics.counters["adds.acc"] == 16

    @pytest.mark.parametrize("bad", [False, True])
    def test_observed_flush_matches_per_charge_fan_out(self, bad):
        """An observer changes nothing in the ledger and receives the
        counters per-charge ``charge_lanes`` would send, up to a
        mid-list error."""
        rng = np.random.default_rng(11)
        lanes = np.array([7, 2, 9, 4])
        charges = _charge_list(rng, ["acc", "level1", "level3"], 31)
        if bad:
            charges[17] = ("level1", -1, 0.5)
        seen_got, seen_want = Observer(), Observer()
        got = BatchedEnergyLedger(10, observer=seen_got)
        want = BatchedEnergyLedger(10, observer=seen_want)
        try:
            got.charge_many_lanes(lanes, charges)
        except ValueError:
            assert bad
        for mode, n, e in charges[: 17 if bad else None]:
            want.charge_lanes(mode, lanes, n, e)
        _assert_ledgers_identical(got, want)
        assert seen_got.metrics.counters == seen_want.metrics.counters


class TestLaneStack:
    def test_lane_and_decode(self, fmt32):
        words = fmt32.encode(np.array([[1.5, -2.0], [0.25, 4.0]]))
        stack = LaneStack(words, fmt32)
        assert stack.lanes == 2
        np.testing.assert_array_equal(stack.lane(1), [0.25, 4.0])
        np.testing.assert_array_equal(stack.decode()[0], [1.5, -2.0])

    def test_bounds_are_one_cached_envelope(self, fmt32):
        """One ``(min, max)`` over every lane, computed once and cached,
        as a ResidentVector's bounds are; empty stacks have none."""
        words = np.array([[5, -3, 2], [100, 7, -1]], dtype=np.int64)
        stack = LaneStack(words, fmt32)
        assert stack.bounds() == (-3, 100)
        words[0, 0] = 1000  # the envelope is not rescanned
        assert stack.bounds() == (-3, 100)
        assert LaneStack(words, fmt32, bounds=(-5, 5)).bounds() == (-5, 5)
        assert LaneStack(np.zeros((2, 0), dtype=np.int64), fmt32).bounds() is None

    def test_rejects_zero_dim_and_nocopy_array(self, fmt32):
        with pytest.raises(ValueError):
            LaneStack(np.int64(3), fmt32)
        stack = LaneStack(np.zeros((2, 3), dtype=np.int64), fmt32)
        with pytest.raises(ValueError):
            np.asarray(stack, copy=False)


@pytest.mark.parametrize("mode_name", ["acc", "level1", "level3"])
class TestKernelParityVsSolo:
    """Every batched kernel, bit-identical to solo per lane, with
    exactly equal per-lane ledgers."""

    def assert_ledgers_equal(self, batched, solos):
        for i, solo in enumerate(solos):
            assert batched.ledger.lane_ledger(i) == solo.ledger

    def test_add_sub_scale_add(self, bank32, fmt32, mode_name, lane_vectors, rng):
        batched, solos = make_pair(bank32, fmt32, mode_name)
        X = np.stack(lane_vectors)
        Y = np.stack([rng.uniform(-30.0, 30.0, DIM) for _ in range(LANES)])
        alphas = rng.uniform(0.1, 1.5, LANES)

        got_add = batched.add(X, Y)
        got_sub = batched.sub(X, Y)
        got_sa = batched.scale_add(X, alphas, Y)
        for i, solo in enumerate(solos):
            np.testing.assert_array_equal(got_add[i], solo.add(X[i], Y[i]))
            np.testing.assert_array_equal(got_sub[i], solo.sub(X[i], Y[i]))
            np.testing.assert_array_equal(
                got_sa[i], solo.scale_add(X[i], float(alphas[i]), Y[i])
            )
        self.assert_ledgers_equal(batched, solos)

    def test_sum_dot_matvec_weighted_sum(
        self, bank32, fmt32, mode_name, lane_vectors, rng
    ):
        batched, solos = make_pair(bank32, fmt32, mode_name)
        X = np.stack(lane_vectors)
        Y = np.stack([rng.uniform(-3.0, 3.0, DIM) for _ in range(LANES)])
        A = rng.uniform(-1.0, 1.0, (DIM, DIM))
        W = rng.uniform(0.0, 1.0, (LANES, 9))
        P = rng.uniform(-5.0, 5.0, (9, 4))

        got_sum = batched.sum(X)
        got_dot = batched.dot(X, Y)
        got_mv = batched.matvec(A, X)
        got_ws = batched.weighted_sum(W, P)
        for i, solo in enumerate(solos):
            assert got_sum[i] == solo.sum(X[i])
            assert got_dot[i] == solo.dot(X[i], Y[i])
            np.testing.assert_array_equal(got_mv[i], solo.matvec(A, X[i]))
            np.testing.assert_array_equal(
                got_ws[i], solo.weighted_sum(W[i], P)
            )
        self.assert_ledgers_equal(batched, solos)

    def test_resident_chain_with_pinned_operands(
        self, bank32, fmt32, mode_name, lane_vectors, rng
    ):
        """The Jacobi-style chain: constant rhs/matrix, resident matvec,
        sub on the LaneStack — the exact shape ``run_batch`` issues."""
        batched, solos = make_pair(bank32, fmt32, mode_name)
        X = np.stack(lane_vectors)
        A = rng.uniform(-0.5, 0.5, (DIM, DIM)) + DIM * np.eye(DIM)
        b = rng.uniform(-5.0, 5.0, DIM)

        got = batched.sub(b, batched.matvec(A, X, resident=True))
        for i, solo in enumerate(solos):
            want = solo.sub(b, solo.matvec(A, X[i], resident=True))
            np.testing.assert_array_equal(got[i], want)
        self.assert_ledgers_equal(batched, solos)

    def test_lane_subset_charges_only_selected_lanes(
        self, bank32, fmt32, mode_name, lane_vectors
    ):
        batched, solos = make_pair(bank32, fmt32, mode_name)
        ids = np.array([4, 1, 2])
        batched.select_lanes(ids)
        X = np.stack([lane_vectors[i] for i in ids])
        got = batched.add(X, X)
        for row, lane in enumerate(ids):
            np.testing.assert_array_equal(
                got[row], solos[lane].add(X[row], X[row])
            )
        for lane in (0, 3, 5):  # untouched lanes: zero adds, zero energy
            assert batched.ledger.lane_ledger(lane) == EnergyLedger()
        for row, lane in enumerate(ids):
            assert batched.ledger.lane_ledger(lane) == solos[lane].ledger

    def test_lanes_match_reference_engine(
        self, bank32, fmt32, mode_name, lane_vectors, rng
    ):
        mode = bank32.by_name(mode_name)
        batched = BatchedEngine(mode, fmt32, BatchedEnergyLedger(LANES))
        batched.select_lanes(np.arange(LANES))
        X = np.stack(lane_vectors)
        A = rng.uniform(-1.0, 1.0, (DIM, DIM))
        got_mv = batched.matvec(A, X)
        got_sum = batched.sum(X)
        for i in range(LANES):
            ref = ReferenceEngine(mode, fmt32, EnergyLedger())
            np.testing.assert_array_equal(got_mv[i], ref.matvec(A, X[i]))
            assert got_sum[i] == ref.sum(X[i])
            assert batched.ledger.lane_ledger(i) == ref.ledger


class TestBatchedEngineErrors:
    def test_kernels_require_lane_selection(self, bank32, fmt32):
        engine = BatchedEngine(bank32.accurate, fmt32, BatchedEnergyLedger(2))
        with pytest.raises(RuntimeError, match="select_lanes"):
            engine.add(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(RuntimeError, match="select_lanes"):
            engine.sum(np.zeros((2, 3)))

    def test_empty_lane_selection_rejected(self, bank32, fmt32):
        engine = BatchedEngine(bank32.accurate, fmt32, BatchedEnergyLedger(2))
        with pytest.raises(ValueError, match="at least one lane"):
            engine.select_lanes(np.array([], dtype=np.int64))

    @pytest.mark.parametrize(
        "ids", [[-1], [0, 0], [5]], ids=["negative", "repeated", "past-end"]
    )
    def test_bad_lane_ids_rejected_before_any_charge(self, bank32, fmt32, ids):
        ledger = BatchedEnergyLedger(3)
        engine = BatchedEngine(bank32.by_name("level2"), fmt32, ledger)
        with pytest.raises(ValueError, match=r"distinct lane ids in \[0, 3\)"):
            engine.select_lanes(ids)
        assert engine.lane_ids is None
        np.testing.assert_array_equal(ledger.adds, np.zeros(3, dtype=np.int64))

    def test_lane_count_mismatch_rejected(self, bank32, fmt32):
        engine = BatchedEngine(bank32.accurate, fmt32, BatchedEnergyLedger(3))
        engine.select_lanes(np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="lanes"):
            engine.add(np.zeros((2, 4)), np.ones((2, 4)))

    def test_mode_format_width_mismatch_rejected(self, bank32):
        with pytest.raises(ValueError, match="width"):
            BatchedEngine(bank32.accurate, FixedPointFormat(16, 8))

    def test_sum_requires_leading_lane_axis(self, bank32, fmt32):
        engine = BatchedEngine(bank32.accurate, fmt32, BatchedEnergyLedger(2))
        engine.select_lanes(np.array([0, 1]))
        with pytest.raises(ValueError, match="lane axis"):
            engine.sum(np.zeros(5))

    def test_foreign_format_operand_rejected(self, bank32, fmt32):
        engine = BatchedEngine(bank32.accurate, fmt32, BatchedEnergyLedger(2))
        engine.select_lanes(np.array([0, 1]))
        other = FixedPointFormat(32, 8)
        stack = LaneStack(np.zeros((2, 3), dtype=np.int64), other)
        with pytest.raises(ValueError, match="format"):
            engine.add(stack, np.zeros((2, 3)))
