"""Tests for the approximate execution engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.obs import Observer


def make_engine(bank, mode_name, fmt=None, ledger=None):
    fmt = fmt if fmt is not None else FixedPointFormat(32, 16)
    return ApproxEngine(bank.by_name(mode_name), fmt, ledger)


class TestLedger:
    def test_charge_accumulates(self):
        ledger = EnergyLedger()
        ledger.charge("level1", 10, 0.5)
        ledger.charge("level1", 5, 0.5)
        ledger.charge("acc", 3, 1.0)
        assert ledger.adds == 18
        assert ledger.energy == pytest.approx(10.5)
        assert ledger.adds_by_mode == {"level1": 15, "acc": 3}
        assert ledger.energy_by_mode["acc"] == pytest.approx(3.0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge("m", -1, 1.0)

    def test_snapshot_is_independent(self):
        ledger = EnergyLedger()
        ledger.charge("m", 2, 1.0)
        snap = ledger.snapshot()
        ledger.charge("m", 2, 1.0)
        assert snap.energy == pytest.approx(2.0)
        assert ledger.energy == pytest.approx(4.0)
        assert ledger.delta_energy(snap) == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [False, True])
    def test_observed_charge_many_matches_per_charge_calls(self, bad):
        """An observed ``charge_many`` equals one ``charge`` per entry, in
        the ledger and in the observer's counters, up to a mid-list
        negative count."""
        rng = np.random.default_rng(5)
        modes = ("acc", "level1", "level3")
        charges = [
            (modes[int(rng.integers(3))], int(rng.integers(0, 5000)), float(rng.uniform(0.01, 1.7)))
            for _ in range(31)
        ]
        if bad:
            charges[17] = ("level1", -1, 0.5)
        seen_got, seen_want = Observer(), Observer()
        got, want = EnergyLedger(observer=seen_got), EnergyLedger(observer=seen_want)
        try:
            got.charge_many(charges)
        except ValueError:
            assert bad
        else:
            assert not bad
        for mode, n, e in charges[: 17 if bad else None]:
            want.charge(mode, n, e)
        assert got == want
        assert seen_got.metrics.counters == seen_want.metrics.counters

    def test_reset(self):
        ledger = EnergyLedger()
        ledger.charge("m", 2, 1.0)
        ledger.reset()
        assert ledger.adds == 0
        assert ledger.energy == 0.0
        assert ledger.adds_by_mode == {}


class TestAccurateEngineCorrectness:
    """The exact mode must reproduce quantized reference arithmetic."""

    def test_add_matches_quantized_sum(self, bank32):
        eng = make_engine(bank32, "acc")
        a = np.array([1.25, -3.5, 100.0625])
        b = np.array([2.5, 1.25, -50.0])
        assert np.allclose(eng.add(a, b), a + b)

    def test_sub(self, bank32):
        eng = make_engine(bank32, "acc")
        assert eng.sub(np.array([5.5]), np.array([2.25]))[0] == pytest.approx(3.25)

    def test_sum_matches_numpy_within_quantization(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        x = rng.normal(0, 3, size=257)
        approx = eng.sum(x)
        # Each element quantized to 2^-16 before the tree: error <= n ulp.
        assert abs(approx - x.sum()) < 257 * 2**-16

    def test_sum_axis(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        x = rng.normal(0, 2, size=(40, 3))
        out = eng.sum(x, axis=0)
        assert out.shape == (3,)
        assert np.allclose(out, x.sum(axis=0), atol=40 * 2**-16)

    def test_sum_empty_axis(self, bank32):
        eng = make_engine(bank32, "acc")
        assert eng.sum(np.zeros((0,))) == 0.0
        out = eng.sum(np.zeros((0, 4)), axis=0)
        assert np.array_equal(out, np.zeros(4))

    def test_mean(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        x = rng.normal(0, 1, size=100)
        assert eng.mean(x) == pytest.approx(x.mean(), abs=1e-3)

    def test_mean_empty_raises(self, bank32):
        eng = make_engine(bank32, "acc")
        with pytest.raises(ValueError, match="empty"):
            eng.mean(np.zeros((0,)))

    def test_dot(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        a = rng.normal(0, 1, size=64)
        b = rng.normal(0, 1, size=64)
        assert eng.dot(a, b) == pytest.approx(float(a @ b), abs=1e-2)

    def test_dot_shape_mismatch(self, bank32):
        eng = make_engine(bank32, "acc")
        with pytest.raises(ValueError, match="dot"):
            eng.dot(np.zeros(3), np.zeros(4))

    def test_matvec(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        A = rng.normal(0, 1, size=(7, 5))
        x = rng.normal(0, 1, size=5)
        assert np.allclose(eng.matvec(A, x), A @ x, atol=1e-2)

    def test_matvec_shape_mismatch(self, bank32):
        eng = make_engine(bank32, "acc")
        with pytest.raises(ValueError, match="matvec"):
            eng.matvec(np.zeros((3, 4)), np.zeros(3))

    def test_weighted_sum(self, bank32, rng):
        eng = make_engine(bank32, "acc")
        w = rng.uniform(0, 1, size=50)
        pts = rng.normal(0, 2, size=(50, 3))
        out = eng.weighted_sum(w, pts)
        assert np.allclose(out, (w[:, None] * pts).sum(axis=0), atol=1e-2)

    def test_weighted_sum_shape_mismatch(self, bank32):
        eng = make_engine(bank32, "acc")
        with pytest.raises(ValueError, match="weighted_sum"):
            eng.weighted_sum(np.zeros(3), np.zeros((4, 2)))

    def test_scale_add_is_update_rule(self, bank32):
        eng = make_engine(bank32, "acc")
        x = np.array([1.0, 2.0])
        d = np.array([0.5, -0.25])
        assert np.allclose(eng.scale_add(x, 2.0, d), [2.0, 1.5])


class TestEnergyAccounting:
    def test_elementwise_add_charges_per_lane(self, bank32):
        ledger = EnergyLedger()
        eng = make_engine(bank32, "acc", ledger=ledger)
        eng.add(np.zeros(17), np.zeros(17))
        assert ledger.adds == 17
        assert ledger.energy == pytest.approx(17 * 1.0)

    def test_tree_sum_charges_n_minus_one(self, bank32):
        for n in (1, 2, 3, 7, 8, 100):
            ledger = EnergyLedger()
            eng = make_engine(bank32, "acc", ledger=ledger)
            eng.sum(np.ones(n))
            assert ledger.adds == n - 1, f"n={n}"

    def test_sum_axis_charges_per_lane(self, bank32):
        ledger = EnergyLedger()
        eng = make_engine(bank32, "acc", ledger=ledger)
        eng.sum(np.ones((10, 4)), axis=0)
        assert ledger.adds == 9 * 4

    def test_approximate_mode_cheaper(self, bank32):
        cheap = EnergyLedger()
        dear = EnergyLedger()
        make_engine(bank32, "level1", ledger=cheap).sum(np.ones(100))
        make_engine(bank32, "acc", ledger=dear).sum(np.ones(100))
        assert cheap.energy < dear.energy
        assert cheap.adds == dear.adds

    def test_shared_ledger_splits_by_mode(self, bank32):
        ledger = EnergyLedger()
        make_engine(bank32, "level1", ledger=ledger).add(np.ones(5), np.ones(5))
        make_engine(bank32, "acc", ledger=ledger).add(np.ones(5), np.ones(5))
        assert set(ledger.adds_by_mode) == {"level1", "acc"}

    def test_quantize_charges_nothing(self, bank32):
        ledger = EnergyLedger()
        make_engine(bank32, "acc", ledger=ledger).quantize(np.ones(100))
        assert ledger.adds == 0


class TestApproximateBehaviour:
    def test_level1_sum_deviates_from_exact(self, bank32, rng):
        x = rng.normal(0, 5, size=500)
        exact = make_engine(bank32, "acc").sum(x)
        approx = make_engine(bank32, "level1").sum(x)
        assert approx != exact

    def test_error_shrinks_with_level(self, bank32, rng):
        x = rng.normal(0, 5, size=(500,))
        reference = float(x.sum())
        errors = []
        for name in ("level1", "level2", "level3", "level4"):
            approx = make_engine(bank32, name).sum(x)
            errors.append(abs(approx - reference))
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_saturation_on_overflowing_sum(self, bank32):
        fmt = FixedPointFormat(32, 16, overflow="saturate")
        eng = make_engine(bank32, "acc", fmt=fmt)
        big = np.full(8, 30000.0)  # sum 240000 >> max 32767.99
        out = eng.sum(big)
        assert out == pytest.approx(fmt.max_value, rel=1e-3)

    def test_width_mismatch_rejected(self, bank32):
        with pytest.raises(ValueError, match="width"):
            ApproxEngine(bank32.accurate, FixedPointFormat(16, 8))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_approx_sum_close_for_high_levels(self, bank32, values):
        x = np.array(values)
        approx = make_engine(bank32, "level4").sum(x)
        # level4 approximates the low 4 bits: per-add error < 2^(4-16)*2,
        # accumulated over n-1 adds plus quantization.
        bound = (len(values) + 1) * (2 ** (4 - 16)) * 4 + 1e-6
        assert abs(approx - x.sum()) < bound
