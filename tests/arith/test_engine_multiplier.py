"""Tests for the engine's approximate-multiplication path."""

import numpy as np
import pytest

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat


@pytest.fixture()
def fmt():
    return FixedPointFormat(32, 16)


class TestExactMulDefault:
    def test_default_mul_is_float_exact(self, bank32, fmt):
        eng = ApproxEngine(bank32.by_name("level1"), fmt)
        a = np.array([1.234567, -2.5])
        b = np.array([3.3, 0.5])
        assert np.array_equal(eng.mul(a, b), a * b)

    def test_default_mul_charges_nothing(self, bank32, fmt):
        ledger = EnergyLedger()
        eng = ApproxEngine(bank32.accurate, fmt, ledger)
        eng.mul(np.ones(10), np.ones(10))
        assert ledger.energy == 0.0


class TestApproximateMul:
    def test_accurate_mode_close_to_float(self, bank32, fmt, rng):
        eng = ApproxEngine(bank32.accurate, fmt, approximate_multiplier=True)
        a = rng.uniform(-40, 40, size=200)
        b = rng.uniform(-40, 40, size=200)
        out = eng.mul(a, b)
        # Operands carry frac/2 = 8 fractional bits each; error bound is
        # ~(|a|+|b|) * 2^-8 per lane.
        bound = (np.abs(a) + np.abs(b)) * 2**-8 + 2**-7
        assert (np.abs(out - a * b) <= bound).all()

    def test_error_grows_as_level_drops(self, bank32, fmt, rng):
        a = rng.uniform(-40, 40, size=500)
        b = rng.uniform(-40, 40, size=500)
        errors = []
        for name in ("acc", "level4", "level2", "level1"):
            eng = ApproxEngine(
                bank32.by_name(name), fmt, approximate_multiplier=True
            )
            errors.append(float(np.abs(eng.mul(a, b) - a * b).mean()))
        assert errors[0] <= errors[1] <= errors[2] < errors[3]

    def test_energy_charged_under_mul_label(self, bank32, fmt):
        ledger = EnergyLedger()
        eng = ApproxEngine(
            bank32.by_name("level2"), fmt, ledger, approximate_multiplier=True
        )
        eng.mul(np.ones(7), np.ones(7))
        assert ledger.adds_by_mode == {"level2:mul": 7}
        assert ledger.energy > 0

    def test_multiplication_costs_more_than_addition(self, bank32, fmt):
        mul_ledger = EnergyLedger()
        add_ledger = EnergyLedger()
        mul_eng = ApproxEngine(
            bank32.accurate, fmt, mul_ledger, approximate_multiplier=True
        )
        add_eng = ApproxEngine(bank32.accurate, fmt, add_ledger)
        mul_eng.mul(np.ones(5), np.ones(5))
        add_eng.add(np.ones(5), np.ones(5))
        assert mul_ledger.energy > 10 * add_ledger.energy

    def test_overflow_saturates(self, bank32, fmt):
        eng = ApproxEngine(bank32.accurate, fmt, approximate_multiplier=True)
        out = eng.mul(np.array([30000.0]), np.array([30000.0]))
        assert out[0] == pytest.approx(fmt.max_value, rel=1e-6)
        out = eng.mul(np.array([-30000.0]), np.array([30000.0]))
        assert out[0] == pytest.approx(fmt.min_value, rel=1e-6)

    def test_mul_by_zero(self, bank32, fmt):
        eng = ApproxEngine(
            bank32.by_name("level3"), fmt, approximate_multiplier=True
        )
        out = eng.mul(np.array([12.5, -3.0]), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_overflowing_product_still_clamps(self, bank32, fmt):
        """A product past ``max_value`` still saturates, and an
        in-range lane is untouched."""
        eng = ApproxEngine(bank32.accurate, fmt, approximate_multiplier=True)
        big = np.array([30000.0, 4.0])
        out = eng.mul(big, big)
        assert out[0] == pytest.approx(fmt.max_value, rel=1e-6)
        assert out[1] == pytest.approx(16.0, rel=1e-3)
