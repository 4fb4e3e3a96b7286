"""Tests for the multiplier models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.adders import ExactAdder, LowerOrAdder
from repro.hardware.energy import EnergyModel
from repro.hardware.multipliers import (
    ApproxArrayMultiplier,
    ExactMultiplier,
    exact_reference,
)

WIDTH = 8


class TestExactMultiplier:
    def test_small_products(self):
        mul = ExactMultiplier(WIDTH)
        out = mul.multiply_unsigned(np.array([7]), np.array([9]))
        assert out[0] == 63

    def test_wraps_to_width(self):
        mul = ExactMultiplier(WIDTH)
        out = mul.multiply_unsigned(np.array([200]), np.array([200]))
        assert out[0] == (200 * 200) & 0xFF

    def test_signed_multiplication(self):
        mul = ExactMultiplier(WIDTH)
        assert mul.multiply_signed(np.array([-3]), np.array([5]))[0] == -15

    def test_wide_width_uses_object_path(self):
        mul = ExactMultiplier(40)
        a, b = (1 << 30) + 12345, (1 << 25) + 678
        out = int(mul.multiply_unsigned(np.array([a]), np.array([b]))[0])
        assert out == (a * b) & ((1 << 40) - 1)


class TestApproxArrayMultiplier:
    def test_exact_adder_reproduces_exact_product(self):
        array_mul = exact_reference(WIDTH)
        golden = ExactMultiplier(WIDTH)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=500, dtype=np.int64)
        b = rng.integers(0, 256, size=500, dtype=np.int64)
        assert np.array_equal(
            array_mul.multiply_unsigned(a, b), golden.multiply_unsigned(a, b)
        )

    def test_approximate_adder_induces_bounded_error(self):
        mul = ApproxArrayMultiplier(LowerOrAdder(WIDTH, approx_bits=2))
        golden = ExactMultiplier(WIDTH)
        rng = np.random.default_rng(4)
        a = rng.integers(0, 16, size=2000, dtype=np.int64)
        b = rng.integers(0, 15, size=2000, dtype=np.int64)
        approx = mul.multiply_unsigned(a, b)
        exact = golden.multiply_unsigned(a, b)
        err = np.abs(approx - exact)
        assert err.max() > 0  # approximation visible
        assert err.max() < 64  # but bounded well below the word range

    def test_multiply_by_zero_and_one(self):
        mul = ApproxArrayMultiplier(LowerOrAdder(WIDTH, approx_bits=3))
        a = np.array([37, 91])
        assert np.array_equal(mul.multiply_unsigned(a, np.array([0, 0])), [0, 0])
        # x*1 accumulates x once into an OR-approximated zero register.
        out = mul.multiply_unsigned(a, np.array([1, 1]))
        assert np.array_equal(out, a)

    def test_energy_scales_with_partial_products(self):
        model = EnergyModel(voltage_exponent=0.0)
        add_cost = model.energy_per_add(ExactAdder(WIDTH))
        mul_cost = model.cost_of_cells(exact_reference(WIDTH).cell_inventory())
        assert mul_cost > (WIDTH - 1) * add_cost  # adders + AND array

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200)
    def test_array_multiplier_matches_schoolbook(self, a, b):
        mul = exact_reference(WIDTH)
        out = int(mul.multiply_unsigned(np.array([a]), np.array([b]))[0])
        assert out == (a * b) & 0xFF
