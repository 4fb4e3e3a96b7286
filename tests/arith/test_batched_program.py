"""Unit tests for lane-group program capture & replay (arith.program).

These drive the :class:`BatchedProgramEngine` lifecycle by hand —
``select_lanes`` / ``begin_iteration`` / kernels / ``end_iteration`` —
and compare every output and the per-lane ledgers against a plain
:class:`BatchedEngine` executing the identical call sequence.  The
contract is the solo program engine's, lifted over lane stacks:
bit-identical results and float-equal per-lane energy, per call.
"""

import numpy as np
import pytest

from repro.arith.engine import (
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
    LaneStack,
)
from repro.arith.program import BatchedProgramEngine
from repro.arith.reference import ReferenceEngine
from repro.backends import KERNELS

LANES = 5
DIM = 12


@pytest.fixture()
def mode(bank32):
    return bank32.by_name("level2")


def _pair(mode, fmt32, lanes=LANES):
    """A program engine and a plain oracle engine on fresh ledgers."""
    prog = BatchedProgramEngine(mode, fmt32, BatchedEnergyLedger(lanes))
    oracle = BatchedEngine(mode, fmt32, BatchedEnergyLedger(lanes))
    ids = np.arange(lanes)
    prog.select_lanes(ids)
    oracle.select_lanes(ids)
    return prog, oracle


def _iteration(engine, X, D, mat):
    """One representative lock-step iteration touching every hooked
    kernel (matvec feeds sub resident; weighted_sum feeds sum)."""
    r = engine.matvec(mat, X, resident=True)
    e = engine.sub(r, D, resident=True)
    w = engine.weighted_sum(np.abs(D[:, :3]), mat[:3])
    t = engine.sum(w)
    out = engine.scale_add(X, 0.25 + 0.0 * float(np.sum(t)), e)
    return np.asarray(out)


def _assert_ledgers_equal(prog, oracle, lanes=LANES):
    for lane in range(lanes):
        assert prog.ledger.lane_ledger(lane) == oracle.ledger.lane_ledger(lane)


class TestLaneGroupCaptureReplay:
    def test_replayed_iterations_match_interpreted(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-0.05, 0.05, (DIM, DIM))
        X = rng.uniform(-2.0, 2.0, (LANES, DIM))
        for k in range(5):
            D = rng.uniform(-1.0, 1.0, (LANES, DIM))
            assert prog.begin_iteration({"X": X, "D": D}) == (
                "record" if k == 0 else "replay"
            )
            got = _iteration(prog, X, D, mat)
            execution, reason = prog.end_iteration()
            assert execution == ("captured" if k == 0 else "replayed")
            assert reason is None
            want = _iteration(oracle, X, D, mat)
            np.testing.assert_array_equal(got, want)
            _assert_ledgers_equal(prog, oracle)
            X = got
        assert prog.program_captures == 1
        assert prog.program_replays == 4
        assert prog.program_bailouts == 0

    def test_shrunken_lane_group_replays_full_group_program(
        self, mode, fmt32, rng
    ):
        """The program captured at 5 lanes must replay over any subset
        of lanes — charges are per-lane, stacked operands validate
        trailing dims only."""
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-0.05, 0.05, (DIM, DIM))
        X = rng.uniform(-2.0, 2.0, (LANES, DIM))
        D = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"X": X, "D": D})
        _iteration(prog, X, D, mat)
        assert prog.end_iteration() == ("captured", None)
        _iteration(oracle, X, D, mat)

        for keep in (np.array([0, 2, 4]), np.array([3]), np.array([1, 3])):
            Xs = X[keep]
            Ds = rng.uniform(-1.0, 1.0, (keep.size, DIM))
            prog.select_lanes(keep)
            oracle.select_lanes(keep)
            assert prog.begin_iteration({"X": Xs, "D": Ds}) == "replay"
            got = _iteration(prog, Xs, Ds, mat)
            assert prog.end_iteration() == ("replayed", None)
            want = _iteration(oracle, Xs, Ds, mat)
            np.testing.assert_array_equal(got, want)
            _assert_ledgers_equal(prog, oracle)

    def test_replay_defers_charges_until_end_iteration(self, mode, fmt32, rng):
        """During a replay window nothing lands on the ledger; the one
        flush at end_iteration reproduces the interpreted charge set."""
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-0.05, 0.05, (DIM, DIM))
        X = rng.uniform(-2.0, 2.0, (LANES, DIM))
        D = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"X": X, "D": D})
        _iteration(prog, X, D, mat)
        prog.end_iteration()
        _iteration(oracle, X, D, mat)
        energy_after_capture = prog.ledger.energy.copy()

        prog.begin_iteration({"X": X, "D": D})
        _iteration(prog, X, D, mat)
        np.testing.assert_array_equal(prog.ledger.energy, energy_after_capture)
        prog.end_iteration()
        _iteration(oracle, X, D, mat)
        assert np.all(prog.ledger.energy > energy_after_capture)
        _assert_ledgers_equal(prog, oracle)

    def test_structure_change_bails_to_interpreted(self, mode, fmt32, rng):
        """An op sequence diverging from the program falls back to the
        interpreted path mid-iteration, drops the program, and still
        matches the oracle exactly."""
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1.0, 1.0, (LANES, DIM))
        b = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"a": a, "b": b})
        prog.add(a, b)
        prog.end_iteration()
        oracle.add(a, b)

        prog.begin_iteration({"a": a, "b": b})
        got = np.asarray(prog.sub(a, b))  # program expects add
        execution, reason = prog.end_iteration()
        assert execution == "interpreted"
        assert reason == "structure"
        assert prog.program is None
        assert prog.program_bailouts == 1
        want = np.asarray(oracle.sub(a, b))
        np.testing.assert_array_equal(got, want)
        _assert_ledgers_equal(prog, oracle)

        # The next window re-records from scratch.
        assert prog.begin_iteration({"a": a, "b": b}) == "record"
        prog.sub(a, b)
        assert prog.end_iteration() == ("captured", None)
        oracle.sub(a, b)
        _assert_ledgers_equal(prog, oracle)

    def test_shorter_iteration_bails(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1.0, 1.0, (LANES, DIM))
        b = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"a": a, "b": b})
        prog.add(a, b)
        prog.sub(a, b)
        prog.end_iteration()
        oracle.add(a, b)
        oracle.sub(a, b)

        prog.begin_iteration({"a": a, "b": b})
        prog.add(a, b)  # stops early: program has a second step
        execution, reason = prog.end_iteration()
        assert execution == "interpreted"
        assert reason == "shorter-iteration"
        assert prog.program is None
        oracle.add(a, b)
        _assert_ledgers_equal(prog, oracle)

    def test_idle_engine_is_a_plain_batched_engine(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1.0, 1.0, (LANES, DIM))
        b = rng.uniform(-1.0, 1.0, (LANES, DIM))
        np.testing.assert_array_equal(
            np.asarray(prog.add(a, b)), np.asarray(oracle.add(a, b))
        )
        _assert_ledgers_equal(prog, oracle)
        assert prog.program is None

    def test_begin_iteration_requires_selected_lanes(self, mode, fmt32):
        prog = BatchedProgramEngine(mode, fmt32, BatchedEnergyLedger(2))
        with pytest.raises(RuntimeError, match="select_lanes"):
            prog.begin_iteration({})

    def test_cache_stats_report_program_counters(self, mode, fmt32, rng):
        prog, _ = _pair(mode, fmt32)
        a = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"a": a})
        prog.add(a, a)
        prog.end_iteration()
        stats = prog.cache_stats()
        assert stats["program_captures"] == 1
        assert stats["program_cached"] == 1


class TestReplayDecidesOnTheSpot:
    def test_saturation_outside_recorded_range_keeps_program(
        self, mode, fmt32, rng
    ):
        """Recorded in range at five lanes, replayed out of range on a
        shrunken group: every add decides saturation itself, clamping
        exactly as the interpreted op does, and the program is kept."""
        prog, plain = _pair(mode, fmt32)
        specs = [ReferenceEngine(mode, fmt32, EnergyLedger()) for _ in range(LANES)]
        small = rng.uniform(-1.0, 1.0, (LANES, DIM))
        prog.begin_iteration({"a": small})
        prog.add(small, small)
        assert prog.end_iteration() == ("captured", None)
        plain.add(small, small)
        for lane, spec in enumerate(specs):
            spec.add(small[lane], small[lane])

        keep = np.array([1, 3])
        huge = np.full((keep.size, DIM), fmt32.max_value * 0.9)
        huge[:, ::2] *= -1.0
        prog.select_lanes(keep)
        plain.select_lanes(keep)
        assert prog.begin_iteration({"a": huge}) == "replay"
        got = prog.add(huge, huge)
        assert prog.end_iteration() == ("replayed", None)
        np.testing.assert_array_equal(got, plain.add(huge, huge))
        for row, lane in enumerate(keep):
            np.testing.assert_array_equal(got[row], specs[lane].add(huge[row], huge[row]))
        assert set(got.ravel().tolist()) == {fmt32.min_value, fmt32.max_value}
        assert prog.program is not None
        assert prog.program_bailouts == 0
        _assert_ledgers_equal(prog, plain)
        for lane, spec in enumerate(specs):
            assert prog.ledger.lane_ledger(lane) == spec.ledger

    def test_replayed_sub_of_lane_stacks_runs_in_range(
        self, bank32, fmt32, rng, monkeypatch
    ):
        """A lane group's LaneStack subtrahend takes the solo resident
        route: at the exact mode, a replayed ``sub`` of two in-range
        stacks is one ``sub_words_inrange`` call, and every lane's
        words and ledger equal a solo reference run of that lane."""
        calls = []
        orig = type(KERNELS).sub_words_inrange

        def spy(self, *args, **kwargs):
            calls.append(args[0].shape)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(type(KERNELS), "sub_words_inrange", spy)
        acc = bank32.by_name("acc")
        prog, _ = _pair(acc, fmt32)
        specs = [ReferenceEngine(acc, fmt32, EnergyLedger()) for _ in range(LANES)]
        for k in range(4):
            X = rng.uniform(-2.0, 2.0, (LANES, DIM))
            Y = rng.uniform(-2.0, 2.0, (LANES, DIM))
            assert prog.begin_iteration({"X": X, "Y": Y}) == ("record" if k == 0 else "replay")
            a = prog.add(X, X, resident=True)
            b = prog.add(Y, Y, resident=True)
            assert isinstance(b, LaneStack)
            got = prog.sub(a, b)
            assert prog.end_iteration() == ("captured" if k == 0 else "replayed", None)
            for lane, spec in enumerate(specs):
                want = spec.sub(spec.add(X[lane], X[lane]), spec.add(Y[lane], Y[lane]))
                np.testing.assert_array_equal(got[lane], want)
        assert calls == [(LANES, DIM)] * 3
        for lane, spec in enumerate(specs):
            assert prog.ledger.lane_ledger(lane) == spec.ledger
