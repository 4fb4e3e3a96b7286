"""Correctness tests for the approximate adder zoo.

Every family is checked against a pure-python golden model of its
*published behaviour* (not just against the exact sum): LOA must OR the
low bits, ETA-II must break the carry at segment boundaries, and so on.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import bitops
from repro.hardware.adders import (
    ADDER_FAMILIES,
    AcaAdder,
    EtaIIAdder,
    ExactAdder,
    GearAdder,
    LowerOrAdder,
    TruncatedAdder,
    build_adder,
)

WIDTH = 8
SPACE = np.arange(1 << WIDTH, dtype=np.int64)
ALL_A, ALL_B = (x.ravel() for x in np.meshgrid(SPACE, SPACE, indexing="ij"))


def golden_loa(a: int, b: int, width: int, k: int) -> int:
    low = (a | b) & ((1 << k) - 1)
    carry = ((a >> (k - 1)) & 1) & ((b >> (k - 1)) & 1) if k else 0
    upper = (a >> k) + (b >> k) + carry
    return ((upper << k) | low) & ((1 << width) - 1)


def golden_etaii(a: int, b: int, width: int, s: int) -> int:
    result, carry, lo = 0, 0, 0
    while lo < width:
        length = min(s, width - lo)
        seg_a = (a >> lo) & ((1 << length) - 1)
        seg_b = (b >> lo) & ((1 << length) - 1)
        result |= ((seg_a + seg_b + carry) & ((1 << length) - 1)) << lo
        carry = (seg_a + seg_b) >> length
        lo += length
    return result


def golden_aca(a: int, b: int, width: int, k: int) -> int:
    result = 0
    for i in range(width):
        lo = max(0, i - k)
        window = i - lo
        if window:
            wa = (a >> lo) & ((1 << window) - 1)
            wb = (b >> lo) & ((1 << window) - 1)
            carry = (wa + wb) >> window
        else:
            carry = 0
        bit = (((a >> i) & 1) + ((b >> i) & 1) + carry) & 1
        result |= bit << i
    return result


def golden_truncated(a: int, b: int, width: int, k: int, fill: str) -> int:
    upper = (a >> k) + (b >> k)
    low = (1 << k) - 1 if fill == "one" else 0
    return ((upper << k) | low) & ((1 << width) - 1)


class TestExactAdder:
    def test_exhaustive_correct(self):
        adder = ExactAdder(WIDTH)
        out = adder.add_unsigned(ALL_A, ALL_B)
        assert np.array_equal(out, (ALL_A + ALL_B) & 0xFF)

    def test_signed_addition_wraps(self):
        adder = ExactAdder(8)
        assert adder.add_signed(np.array([127]), np.array([1]))[0] == -128
        assert adder.add_signed(np.array([-128]), np.array([-1]))[0] == 127

    def test_is_exact_flag(self):
        assert ExactAdder(8).is_exact

    def test_error_distance_zero(self):
        adder = ExactAdder(WIDTH)
        assert int(adder.error_distance(ALL_A[:1000], ALL_B[:1000]).max()) == 0


class TestLowerOrAdder:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_golden_model(self, k):
        adder = LowerOrAdder(WIDTH, approx_bits=k)
        out = adder.add_unsigned(ALL_A, ALL_B)
        expected = np.array(
            [golden_loa(int(a), int(b), WIDTH, k) for a, b in zip(ALL_A, ALL_B)]
        )
        assert np.array_equal(out, expected)

    def test_zero_approx_bits_is_exact(self):
        adder = LowerOrAdder(WIDTH, approx_bits=0)
        assert adder.is_exact
        out = adder.add_unsigned(ALL_A[:500], ALL_B[:500])
        assert np.array_equal(out, (ALL_A[:500] + ALL_B[:500]) & 0xFF)

    def test_error_bounded_by_approx_region(self):
        k = 4
        adder = LowerOrAdder(WIDTH, approx_bits=k)
        keep = (ALL_A + ALL_B) < (1 << WIDTH)  # avoid wrap aliasing
        err = adder.error_distance(ALL_A[keep], ALL_B[keep])
        assert int(err.max()) < (1 << (k + 1))

    def test_rejects_bad_approx_bits(self):
        with pytest.raises(ValueError):
            LowerOrAdder(8, approx_bits=8)
        with pytest.raises(ValueError):
            LowerOrAdder(8, approx_bits=-1)

    def test_critical_path_shrinks(self):
        assert LowerOrAdder(32, approx_bits=20).critical_path_cells() == 12


@st.composite
def wide_loa_operands(draw):
    """A width-9..60 LOA, two signed operand lists of one length ``n``,
    per-word multiples of ``2**width`` that keep them inside int64, and a
    row length ``m <= n`` for the broadcast case."""
    width = draw(st.integers(9, bitops.MAX_WIDTH))
    adder = LowerOrAdder(width, approx_bits=draw(st.integers(1, width - 1)))
    lo, hi = bitops.signed_range(width)
    reach = ((1 << 63) - 1 - (1 << (width - 1))) >> width
    n = draw(st.integers(1, 6))
    words = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    wraps = st.lists(st.integers(-reach, reach), min_size=n, max_size=n)
    m = draw(st.integers(1, n))
    return adder, draw(words), draw(words), draw(wraps), draw(wraps), m


def masked_signed_add(adder, a, b):
    """The generic signed add: mask to unsigned words, add, sign-extend."""
    w = adder.width
    ua, ub = bitops.to_unsigned(a, w), bitops.to_unsigned(b, w)
    return bitops.to_signed(adder.add_unsigned(ua, ub), w)


class TestLowerOrAdderWide:
    """``LowerOrAdder.add_signed`` skips the operand masks; beyond the
    exhaustive width-8 suites it must still equal the masked composition."""

    @given(wide_loa_operands())
    @settings(max_examples=300, deadline=None)
    def test_add_signed_matches_masked_composition(self, case):
        adder, a_list, b_list, wrap_a, wrap_b, m = case
        w, k = adder.width, adder.approx_bits
        a = np.array(a_list, dtype=np.int64)
        b = np.array(b_list, dtype=np.int64)
        expected = masked_signed_add(adder, a, b)
        ua, ub = bitops.to_unsigned(a, w), bitops.to_unsigned(b, w)
        golden = [golden_loa(int(x), int(y), w, k) for x, y in zip(ua, ub)]
        assert np.array_equal(bitops.to_unsigned(expected, w), golden)

        def wrapped(words, wraps):
            return np.array(
                [x + (t << w) for x, t in zip(words, wraps)], dtype=np.int64
            )

        shifted_a, shifted_b = wrapped(a_list, wrap_a), wrapped(b_list, wrap_b)
        cases = [
            (a, b, expected),
            (shifted_a, shifted_b, expected),
            (np.array(shifted_a[0]), np.array(shifted_b[0]), expected[0]),
            (
                shifted_a[:, None],
                shifted_b[None, :m],
                masked_signed_add(adder, a[:, None], b[None, :m]),
            ),
        ]
        for x, y, want in cases:
            before = (x.copy(), y.copy())
            out = adder.add_signed(x, y)
            assert out.dtype == np.int64
            assert np.array_equal(out, want)
            assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])

    @pytest.mark.parametrize("k", [0, 8])
    def test_zero_d_operands_wrap_without_warnings(self, k):
        """Two 0-d operands give the one-element result's word, without
        NumPy's scalar overflow warning on the mod-2^64 wrap."""
        adder = LowerOrAdder(60, k)
        a, b = 2**63 - 1, 11
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            word = adder.add_signed(np.array(a), np.array(b))
            want = adder.add_signed(np.array([a]), np.array([b]))
        assert word.dtype == np.int64 and np.ndim(word) == 0
        assert word == want[0]


class TestEtaIIAdder:
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_golden_model(self, s):
        adder = EtaIIAdder(WIDTH, segment_bits=s)
        out = adder.add_unsigned(ALL_A, ALL_B)
        expected = np.array(
            [golden_etaii(int(a), int(b), WIDTH, s) for a, b in zip(ALL_A, ALL_B)]
        )
        assert np.array_equal(out, expected)

    def test_big_segment_is_exact(self):
        adder = EtaIIAdder(WIDTH, segment_bits=WIDTH)
        assert adder.is_exact
        out = adder.add_unsigned(ALL_A[:500], ALL_B[:500])
        assert np.array_equal(out, (ALL_A[:500] + ALL_B[:500]) & 0xFF)

    def test_error_rate_decreases_with_segment_size(self):
        rates = []
        for s in (2, 3, 4):
            adder = EtaIIAdder(WIDTH, segment_bits=s)
            err = adder.error_distance(ALL_A, ALL_B)
            rates.append(float((err > 0).mean()))
        assert rates[0] > rates[1] > rates[2]

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError):
            EtaIIAdder(8, segment_bits=0)


class TestAcaAdder:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_golden_model(self, k):
        adder = AcaAdder(WIDTH, lookback_bits=k)
        out = adder.add_unsigned(ALL_A, ALL_B)
        expected = np.array(
            [golden_aca(int(a), int(b), WIDTH, k) for a, b in zip(ALL_A, ALL_B)]
        )
        assert np.array_equal(out, expected)

    def test_full_lookback_is_exact(self):
        adder = AcaAdder(WIDTH, lookback_bits=WIDTH - 1)
        assert adder.is_exact

    def test_rejects_bad_lookback(self):
        with pytest.raises(ValueError):
            AcaAdder(8, lookback_bits=0)


class TestGearAdder:
    @pytest.mark.parametrize("r,p", [(2, 0), (2, 2), (3, 1)])
    def test_low_window_bits_always_exact(self, r, p):
        # The first sub-adder computes bits [0, r+p) exactly.
        adder = GearAdder(WIDTH, result_bits=r, previous_bits=p)
        out = adder.add_unsigned(ALL_A, ALL_B)
        golden = (ALL_A + ALL_B) & 0xFF
        mask = (1 << min(r + p, WIDTH)) - 1
        assert np.array_equal(out & mask, golden & mask)

    def test_gear_with_p0_equals_zero_carry_segments(self):
        # GeAr(R, 0) treats each R-bit block independently with no carry.
        adder = GearAdder(WIDTH, result_bits=2, previous_bits=0)
        a = np.array([0b01_01_01_01])
        b = np.array([0b01_01_01_11])
        out = int(adder.add_unsigned(a, b)[0])
        # Blocks (LSB first): 01+11=100 -> keeps 00; others 01+01=10.
        assert out == 0b10_10_10_00

    def test_covering_window_is_exact(self):
        adder = GearAdder(WIDTH, result_bits=4, previous_bits=4)
        assert adder.is_exact

    def test_error_rate_decreases_with_previous_bits(self):
        rates = []
        for p in (0, 2, 4):
            adder = GearAdder(WIDTH, result_bits=2, previous_bits=p)
            if adder.is_exact:
                rates.append(0.0)
                continue
            err = adder.error_distance(ALL_A, ALL_B)
            rates.append(float((err > 0).mean()))
        assert rates[0] > rates[1] > rates[2]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GearAdder(8, result_bits=0, previous_bits=1)
        with pytest.raises(ValueError):
            GearAdder(8, result_bits=2, previous_bits=-1)


class TestTruncatedAdder:
    @pytest.mark.parametrize("k,fill", [(2, "one"), (4, "one"), (3, "zero")])
    def test_matches_golden_model(self, k, fill):
        adder = TruncatedAdder(WIDTH, approx_bits=k, fill=fill)
        out = adder.add_unsigned(ALL_A, ALL_B)
        expected = np.array(
            [
                golden_truncated(int(a), int(b), WIDTH, k, fill)
                for a, b in zip(ALL_A, ALL_B)
            ]
        )
        assert np.array_equal(out, expected)

    def test_rejects_bad_fill(self):
        with pytest.raises(ValueError, match="fill"):
            TruncatedAdder(8, approx_bits=2, fill="random")


class TestFactory:
    def test_builds_every_family(self):
        params = {
            "exact": {},
            "loa": {"approx_bits": 3},
            "etaii": {"segment_bits": 2},
            "aca": {"lookback_bits": 2},
            "gear": {"result_bits": 2, "previous_bits": 1},
            "truncated": {"approx_bits": 2},
        }
        for family in ADDER_FAMILIES:
            adder = build_adder(family, 8, **params[family])
            assert adder.width == 8
            assert adder.family == family

    def test_unknown_family_raises_with_known_list(self):
        with pytest.raises(KeyError, match="loa"):
            build_adder("bogus", 8)


@st.composite
def adder_and_operands(draw):
    """Any family at width 10 plus two in-range unsigned operands."""
    width = 10
    family = draw(st.sampled_from(sorted(ADDER_FAMILIES)))
    params = {
        "exact": {},
        "loa": {"approx_bits": draw(st.integers(0, width - 1))},
        "etaii": {"segment_bits": draw(st.integers(1, width))},
        "aca": {"lookback_bits": draw(st.integers(1, width))},
        "gear": {
            "result_bits": draw(st.integers(1, width)),
            "previous_bits": draw(st.integers(0, width)),
        },
        "truncated": {"approx_bits": draw(st.integers(0, width - 1))},
    }[family]
    a = draw(st.integers(0, (1 << width) - 1))
    b = draw(st.integers(0, (1 << width) - 1))
    return build_adder(family, width, **params), a, b


class TestUniversalAdderProperties:
    @given(adder_and_operands())
    @settings(max_examples=300)
    def test_result_is_masked_to_width(self, case):
        adder, a, b = case
        out = int(adder.add_unsigned(np.array([a]), np.array([b]))[0])
        assert 0 <= out < (1 << adder.width)

    @given(adder_and_operands())
    @settings(max_examples=300)
    def test_exact_adders_have_zero_error(self, case):
        adder, a, b = case
        if adder.is_exact:
            assert int(adder.error_distance(np.array([a]), np.array([b]))[0]) == 0

    @given(adder_and_operands())
    @settings(max_examples=300)
    def test_commutative(self, case):
        # Every family's structure is symmetric in its operands.
        adder, a, b = case
        ab = int(adder.add_unsigned(np.array([a]), np.array([b]))[0])
        ba = int(adder.add_unsigned(np.array([b]), np.array([a]))[0])
        assert ab == ba

    @given(adder_and_operands())
    @settings(max_examples=300)
    def test_adding_zero_near_exact(self, case):
        # x + 0 may only deviate inside the approximate low region
        # (e.g. OR/constant fills); never in the upper exact part.
        adder, a, _ = case
        out = int(adder.add_unsigned(np.array([a]), np.array([0]))[0])
        # The deviation must be below the adder's critical-path cut.
        cut = adder.width - adder.critical_path_cells()
        assert abs(out - a) < (1 << (cut + 1)) if cut else out == a

    @given(adder_and_operands())
    @settings(max_examples=200)
    def test_cell_inventory_nonnegative_and_known(self, case):
        adder, _, _ = case
        from repro.hardware.energy import EnergyModel

        cost = EnergyModel().energy_per_add(adder)
        assert cost > 0

    @given(adder_and_operands())
    @settings(max_examples=200)
    def test_critical_path_bounded_by_width(self, case):
        adder, _, _ = case
        assert 1 <= adder.critical_path_cells() <= adder.width
