"""Unit tests for iteration-program capture & replay (arith.program).

These drive the :class:`ProgramEngine` lifecycle by hand —
``begin_iteration`` / kernels / ``end_iteration`` — and compare every
output and the ledger against a plain :class:`ApproxEngine` executing
the identical call sequence: the capture/replay contract is bit-identical
results and float-equal energy, per call, not just per run.
"""

import numpy as np
import pytest

from repro.arith import program
from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
    ResidentVector,
)
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.arith.reference import ReferenceEngine
from repro.core.framework import ApproxIt
from repro.obs import TraceRecorder, summarize_trace
from repro.solvers import JacobiSolver


@pytest.fixture()
def mode(bank32):
    return bank32.by_name("level2")


def _pair(mode, fmt32):
    """A program engine and a plain oracle engine on fresh ledgers."""
    return (
        ProgramEngine(mode, fmt32, EnergyLedger()),
        ApproxEngine(mode, fmt32, EnergyLedger()),
    )


def _iteration(engine, x, d, mat):
    """One representative solver iteration touching every hooked kernel."""
    r = engine.matvec(mat, x, resident=True)
    e = engine.sub(r, d, resident=True)
    s = float(engine.dot(e, e))
    w = engine.weighted_sum(np.abs(d), mat)
    t = engine.sum(w)
    out = engine.scale_add(x, 0.25 + 0.01 * s + 0.0 * t, e)
    return np.asarray(out)


class TestCaptureReplayParity:
    def test_replayed_iterations_match_interpreted(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        # Small matrix keeps the toy iteration contracting.
        mat = rng.uniform(-0.05, 0.05, (12, 12))
        x = rng.uniform(-2.0, 2.0, 12)
        for k in range(5):
            d = rng.uniform(-1.0, 1.0, 12)
            assert prog.begin_iteration({"x": x, "d": d}) == (
                "record" if k == 0 else "replay"
            )
            got = _iteration(prog, x, d, mat)
            execution, reason = prog.end_iteration()
            assert execution == ("captured" if k == 0 else "replayed")
            assert reason is None
            want = _iteration(oracle, x, d, mat)
            np.testing.assert_array_equal(got, want)
            assert prog.ledger.energy == oracle.ledger.energy
            assert prog.ledger.adds == oracle.ledger.adds
            assert prog.ledger.energy_by_mode == oracle.ledger.energy_by_mode
            x = got
        assert prog.program_captures == 1
        assert prog.program_replays == 4
        assert prog.program_bailouts == 0

    def test_idle_engine_is_a_plain_engine(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 9)
        b = rng.uniform(-1, 1, 9)
        np.testing.assert_array_equal(prog.add(a, b), oracle.add(a, b))
        np.testing.assert_array_equal(prog.sub(a, b), oracle.sub(a, b))
        assert prog.ledger.energy == oracle.ledger.energy
        assert prog.program is None

    def test_resident_chaining_survives_replay(self, mode, fmt32, rng):
        """Residents produced by one replayed step feed the next."""
        prog, oracle = _pair(mode, fmt32)
        x = rng.uniform(-1, 1, 16)
        for k in range(3):
            prog.begin_iteration({"x": x})
            a = prog.add(x, x, resident=True)
            b = prog.sub(a, x, resident=True)
            got = float(prog.dot(b, b))
            prog.end_iteration()
            oa = oracle.add(x, x, resident=True)
            ob = oracle.sub(oa, x, resident=True)
            assert got == float(oracle.dot(ob, ob))
            assert prog.ledger.energy == oracle.ledger.energy
            x = x * 0.9


class TestCompileFailure:
    @pytest.mark.parametrize("batched", [False, True], ids=["solo", "batched"])
    def test_compile_failure_turns_capture_off(
        self, mode, fmt32, rng, monkeypatch, batched
    ):
        """A recording the compiler cannot express closes interpreted,
        and capture stays off for good: outputs and ledger are a plain
        engine's."""

        def broken(*args, **kwargs):
            raise RuntimeError("cannot compile")

        # One compiler table serves both program engines.
        monkeypatch.setitem(program._COMPILERS, "add", broken)
        if batched:
            prog = BatchedProgramEngine(mode, fmt32, BatchedEnergyLedger(3))
            plain = BatchedEngine(mode, fmt32, BatchedEnergyLedger(3))
            prog.select_lanes(np.arange(3))
            plain.select_lanes(np.arange(3))
            shape = (3, 8)
        else:
            prog = ProgramEngine(mode, fmt32, EnergyLedger())
            plain = ApproxEngine(mode, fmt32, EnergyLedger())
            shape = (8,)
        assert prog.cache_stats()["program_compile_failed"] == 0
        for window, reason in (("record", "compile"), ("off", None), ("off", None)):
            a = rng.uniform(-1.0, 1.0, shape)
            b = rng.uniform(-1.0, 1.0, shape)
            assert prog.begin_iteration({"a": a}) == window
            got = prog.add(a, b)
            assert prog.end_iteration() == ("interpreted", reason)
            assert prog.program is None
            np.testing.assert_array_equal(got, plain.add(a, b))
        assert prog.cache_stats()["program_compile_failed"] == 1
        if batched:
            for lane in range(3):
                assert prog.ledger.lane_ledger(lane) == plain.ledger.lane_ledger(lane)
        else:
            assert prog.ledger == plain.ledger

    @pytest.mark.parametrize("batched", [False, True], ids=["solo", "batched"])
    def test_compile_failure_is_one_traced_bailout(self, monkeypatch, batched):
        """Through the online loop a failed compile shows as one
        ``program_bailout`` event (reason ``compile``) and a cache-stats
        flag, not as a silent capture-off run; results stay those of
        the interpreted run."""

        def broken(self, recorder):
            raise RuntimeError("cannot compile")

        engine_cls = BatchedProgramEngine if batched else ProgramEngine
        monkeypatch.setattr(engine_cls, "_compile", broken)
        n = 12
        matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        rhs = np.random.default_rng(3).uniform(-1.0, 1.0, n)
        framework = ApproxIt(JacobiSolver(matrix, rhs, max_iter=30))
        recorder = TraceRecorder()
        if batched:
            (got,) = framework.run_batch(["static:level2"], observer=recorder)
        else:
            got = framework.run("static:level2", observer=recorder)
        want = framework.run("static:level2", program_capture=False)
        np.testing.assert_array_equal(got.x, want.x)
        assert got.energy == want.energy

        bailouts = [e for e in recorder.events if e.kind == "program_bailout"]
        assert len(bailouts) == 1
        assert bailouts[0].detail["reason"] == "compile"
        assert summarize_trace(recorder.events).program_bailouts == 1
        assert recorder.metrics.counters["program.bailouts"] == 1
        assert recorder.metrics.gauges["engine.level2.program_compile_failed"] == 1
        assert recorder.metrics.gauges["engine.level4.program_compile_failed"] == 0


class TestBailouts:
    def _capture(self, prog, x, d, mat):
        prog.begin_iteration({"x": x, "d": d})
        out = _iteration(prog, x, d, mat)
        assert prog.end_iteration() == ("captured", None)
        return out

    def test_structure_divergence_bails_and_re_records(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-1, 1, (8, 8))
        x = rng.uniform(-1, 1, 8)
        d = rng.uniform(-1, 1, 8)
        self._capture(prog, x, d, mat)
        _iteration(oracle, x, d, mat)

        # Replay issues a *different* first op: bail, run interpreted.
        assert prog.begin_iteration({"x": x, "d": d}) == "replay"
        got = prog.add(x, d)
        execution, reason = prog.end_iteration()
        assert (execution, reason) == ("interpreted", "structure")
        np.testing.assert_array_equal(got, oracle.add(x, d))
        assert prog.ledger.energy == oracle.ledger.energy
        # Program dropped; the next iteration re-records.
        assert prog.program is None
        assert prog.begin_iteration({"x": x, "d": d}) == "record"
        _iteration(prog, x, d, mat)
        assert prog.end_iteration() == ("captured", None)
        assert prog.program_bailouts == 1
        assert prog.program_captures == 2

    def test_shape_change_bails(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 6)
        prog.begin_iteration({"x": a})
        prog.add(a, np.ones(6))
        prog.end_iteration()
        wide = rng.uniform(-1, 1, 7)
        prog.begin_iteration({"x": wide})
        got = prog.add(wide, np.ones(7))
        assert prog.end_iteration()[1] == "shape"
        np.testing.assert_array_equal(got, oracle.add(wide, np.ones(7)))

    def test_operand_kind_change_bails(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 6)
        prog.begin_iteration({"x": a})
        prog.add(a, np.ones(6))
        prog.end_iteration()
        oracle.add(a, np.ones(6))  # mirror the capture iteration
        rv = ResidentVector(fmt32.encode(a), fmt32)
        prog.begin_iteration({"x": a})
        got = prog.add(a, rv)
        assert prog.end_iteration()[1] == "operand"
        np.testing.assert_array_equal(got, oracle.add(a, rv))
        assert prog.ledger.energy == oracle.ledger.energy

    def test_saturation_outside_recorded_range_keeps_program(self, mode, fmt32, rng):
        """Recorded in range, replayed out of range: saturation is
        decided on the spot, so the add clamps exactly as the
        interpreted op does and the program is kept."""
        prog, plain = _pair(mode, fmt32)
        spec = ReferenceEngine(mode, fmt32, EnergyLedger())
        small = rng.uniform(-1.0, 1.0, 10)
        prog.begin_iteration({"x": small})
        prog.add(small, small)
        assert prog.end_iteration() == ("captured", None)
        plain.add(small, small)  # mirror the capture iteration
        spec.add(small, small)

        huge = np.full(10, fmt32.max_value * 0.9)
        huge[::2] *= -1.0
        prog.begin_iteration({"x": huge})
        got = prog.add(huge, huge)
        assert prog.end_iteration() == ("replayed", None)
        want = plain.add(huge, huge)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, spec.add(huge, huge))
        assert set(got.tolist()) == {fmt32.min_value, fmt32.max_value}
        assert prog.ledger == plain.ledger == spec.ledger
        assert prog.program is not None
        assert prog.program_bailouts == 0

    def test_recorded_saturation_replays_without_bailing(self, mode, fmt32):
        """An op that saturated at record replays its clamping path."""
        prog, oracle = _pair(mode, fmt32)
        huge = np.full(4, fmt32.max_value * 0.9)
        prog.begin_iteration({"x": huge})
        prog.add(huge, huge)
        assert prog.end_iteration() == ("captured", None)
        prog.begin_iteration({"x": huge})
        got = prog.add(huge, huge)
        assert prog.end_iteration() == ("replayed", None)
        oracle.add(huge, huge)
        want = oracle.add(huge, huge)
        np.testing.assert_array_equal(got, want)
        assert prog.ledger.energy == oracle.ledger.energy

    def test_shorter_iteration_drops_program(self, mode, fmt32, rng):
        prog, _ = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 5)
        prog.begin_iteration({"x": a})
        prog.add(a, a)
        prog.sub(a, a)
        prog.end_iteration()
        prog.begin_iteration({"x": a})
        prog.add(a, a)  # replays fine, but one op is missing
        execution, reason = prog.end_iteration()
        assert (execution, reason) == ("interpreted", "shorter-iteration")
        assert prog.program is None


class TestOperandClassification:
    def test_slot_declared_arrays_are_re_encoded(self, mode, fmt32, rng):
        """A declared iteration-varying buffer may be mutated in place
        between iterations — replay must track the new values."""
        prog, oracle = _pair(mode, fmt32)
        x = rng.uniform(-1, 1, 8)
        scratch = rng.uniform(-1, 1, 8)  # identity-stable, mutated below
        prog.begin_iteration({"x": x, "scratch": scratch})
        prog.add(x, scratch)
        prog.end_iteration()
        _ = oracle.add(x, scratch)

        scratch[:] = rng.uniform(-1, 1, 8)
        prog.begin_iteration({"x": x, "scratch": scratch})
        got = prog.add(x, scratch)
        assert prog.end_iteration() == ("replayed", None)
        np.testing.assert_array_equal(got, oracle.add(x, scratch))
        assert prog.ledger.energy == oracle.ledger.energy

    def test_constant_identity_hit_reuses_encoding(self, mode, fmt32, rng):
        """The same (immutable-by-convention) object replays from its
        capture-time encoding; a different same-shaped array re-encodes."""
        prog, oracle = _pair(mode, fmt32)
        x = rng.uniform(-1, 1, 8)
        const = rng.uniform(-1, 1, 8)
        prog.begin_iteration({"x": x})
        prog.add(x, const)
        prog.end_iteration()
        _ = oracle.add(x, const)

        # Identity hit.
        prog.begin_iteration({"x": x})
        got = prog.add(x, const)
        assert prog.end_iteration() == ("replayed", None)
        np.testing.assert_array_equal(got, oracle.add(x, const))

        # Same shape, different object: fresh encode, still replayed.
        other = rng.uniform(-1, 1, 8)
        prog.begin_iteration({"x": x})
        got = prog.add(x, other)
        assert prog.end_iteration() == ("replayed", None)
        np.testing.assert_array_equal(got, oracle.add(x, other))
        assert prog.ledger.energy == oracle.ledger.energy

    def test_pinned_operand_replays_bit_identically(self, mode, fmt32, rng):
        """A raw additive constant replays from its compile-time words
        against a fresh iterate every iteration."""
        prog, oracle = _pair(mode, fmt32)
        vals = rng.uniform(-2, 2, 10)
        x = rng.uniform(-1, 1, 10)
        for k in range(3):
            prog.begin_iteration({"x": x})
            got = prog.add(x, vals)
            execution, reason = prog.end_iteration()
            assert reason is None
            np.testing.assert_array_equal(got, oracle.add(x, vals))
            assert prog.ledger.energy == oracle.ledger.energy
            x = x * 0.8

    def test_pinned_matrix_matvec_replays(self, mode, fmt32, rng):
        """A raw multiplicative constant replays with its compile-time
        ``abs_max`` proof."""
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-1, 1, (9, 9))
        x = rng.uniform(-1, 1, 9)
        for k in range(3):
            prog.begin_iteration({"x": x})
            got = np.asarray(prog.matvec(mat, x))
            execution, reason = prog.end_iteration()
            assert reason is None
            np.testing.assert_array_equal(got, np.asarray(oracle.matvec(mat, x)))
            assert prog.ledger.energy == oracle.ledger.energy
            x = got * 0.1


class TestChargeAccounting:
    def test_replay_flushes_identical_charge_stream(self, mode, fmt32, rng):
        """The deferred flush reproduces the interpreted per-op charge
        order, so ledgers agree exactly — including per-mode splits."""
        prog, oracle = _pair(mode, fmt32)
        mat = rng.uniform(-1, 1, (11, 11))
        x = rng.uniform(-1, 1, 11)
        d = rng.uniform(-1, 1, 11)
        for _ in range(4):
            prog.begin_iteration({"x": x, "d": d})
            _iteration(prog, x, d, mat)
            prog.end_iteration()
            _iteration(oracle, x, d, mat)
        assert prog.ledger.adds == oracle.ledger.adds
        assert prog.ledger.energy == oracle.ledger.energy
        assert prog.ledger.adds_by_mode == oracle.ledger.adds_by_mode
        assert prog.ledger.energy_by_mode == oracle.ledger.energy_by_mode

    def test_bailed_iteration_charges_like_interpreted(self, mode, fmt32, rng):
        prog, oracle = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 7)
        prog.begin_iteration({"x": a})
        prog.add(a, a)
        prog.end_iteration()
        oracle.add(a, a)
        # Diverge immediately; the whole iteration runs interpreted but
        # its charges still flush in order at end_iteration.
        prog.begin_iteration({"x": a})
        prog.sub(a, a)
        prog.dot(a, a)
        prog.end_iteration()
        oracle.sub(a, a)
        oracle.dot(a, a)
        assert prog.ledger.energy == oracle.ledger.energy
        assert prog.ledger.adds_by_mode == oracle.ledger.adds_by_mode

    def test_cache_stats_exposes_program_counters(self, mode, fmt32, rng):
        prog, _ = _pair(mode, fmt32)
        a = rng.uniform(-1, 1, 5)
        prog.begin_iteration({"x": a})
        prog.add(a, a)
        prog.end_iteration()
        prog.begin_iteration({"x": a})
        prog.add(a, a)
        prog.end_iteration()
        stats = prog.cache_stats()
        assert stats["program_captures"] == 1
        assert stats["program_replays"] == 1
        assert stats["program_bailouts"] == 0
        assert stats["program_cached"] == 1
