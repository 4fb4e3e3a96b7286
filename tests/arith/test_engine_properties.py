"""Property-based tests of the execution engine's algebraic laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat

floats = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


def exact_engine_of(bank):
    return ApproxEngine(bank.accurate, FixedPointFormat(32, 16), EnergyLedger())


class TestExactEngineLaws:
    @given(st.lists(floats, min_size=1, max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_sum_is_permutation_invariant(self, bank32, values, rnd):
        """Fixed-point exact addition is associative and commutative, so
        any tree pairing over any operand order gives one answer."""
        engine = exact_engine_of(bank32)
        data = np.array(values)
        shuffled = data.copy()
        rnd.shuffle(shuffled)
        assert engine.sum(data) == engine.sum(shuffled)

    @given(floats, floats)
    @settings(max_examples=200)
    def test_add_commutative(self, bank32, a, b):
        engine = exact_engine_of(bank32)
        assert engine.add(np.array([a]), np.array([b]))[0] == engine.add(
            np.array([b]), np.array([a])
        )[0]

    @given(floats, floats, floats)
    @settings(max_examples=150)
    def test_add_associative(self, bank32, a, b, c):
        engine = exact_engine_of(bank32)

        def q(x):
            return engine.quantize(np.array([x]))[0]

        left = engine.add(engine.add(np.array([a]), np.array([b])), np.array([c]))
        right = engine.add(np.array([a]), engine.add(np.array([b]), np.array([c])))
        assert left[0] == right[0]

    @given(floats)
    @settings(max_examples=200)
    def test_zero_is_identity(self, bank32, a):
        engine = exact_engine_of(bank32)
        out = engine.add(np.array([a]), np.array([0.0]))[0]
        assert out == engine.quantize(np.array([a]))[0]

    @given(floats)
    @settings(max_examples=200)
    def test_sub_self_is_zero(self, bank32, a):
        engine = exact_engine_of(bank32)
        assert engine.sub(np.array([a]), np.array([a]))[0] == 0.0

    @given(st.lists(floats, min_size=1, max_size=20))
    @settings(max_examples=150)
    def test_sum_error_bounded_by_quantization(self, bank32, values):
        engine = exact_engine_of(bank32)
        data = np.array(values)
        err = abs(engine.sum(data) - float(data.sum()))
        assert err <= (len(values) + 1) * engine.fmt.resolution


class TestApproximateEngineLaws:
    @given(st.lists(floats, min_size=2, max_size=20))
    @settings(max_examples=100)
    def test_approx_sum_deterministic(self, bank32, values):
        data = np.array(values)
        mode = bank32.by_name("level2")
        fmt = FixedPointFormat(32, 16)
        a = ApproxEngine(mode, fmt, EnergyLedger()).sum(data)
        b = ApproxEngine(mode, fmt, EnergyLedger()).sum(data)
        assert a == b

    @given(floats, floats)
    @settings(max_examples=200)
    def test_approx_add_commutative(self, bank32, a, b):
        """Every ladder adder is structurally symmetric."""
        mode = bank32.by_name("level1")
        engine = ApproxEngine(mode, FixedPointFormat(32, 16), EnergyLedger())
        ab = engine.add(np.array([a]), np.array([b]))[0]
        ba = engine.add(np.array([b]), np.array([a]))[0]
        assert ab == ba

    @given(st.lists(floats, min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_energy_independent_of_values(self, bank32, values):
        """Energy accounting counts operations, not data."""
        data = np.array(values)
        mode = bank32.by_name("level3")
        fmt = FixedPointFormat(32, 16)
        led_a = EnergyLedger()
        led_b = EnergyLedger()
        ApproxEngine(mode, fmt, led_a).sum(data)
        ApproxEngine(mode, fmt, led_b).sum(np.zeros_like(data))
        assert led_a.energy == led_b.energy
        assert led_a.adds == led_b.adds
