"""Tests for the Q-format fixed-point encoding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arith.fixed import FixedPointFormat


class TestConstruction:
    def test_defaults(self):
        fmt = FixedPointFormat()
        assert fmt.width == 32
        assert fmt.frac_bits == 16
        assert fmt.overflow == "saturate"

    def test_rejects_frac_ge_width(self):
        with pytest.raises(ValueError, match="frac_bits"):
            FixedPointFormat(width=16, frac_bits=16)

    def test_rejects_negative_frac(self):
        with pytest.raises(ValueError, match="frac_bits"):
            FixedPointFormat(width=16, frac_bits=-1)

    def test_rejects_unknown_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            FixedPointFormat(overflow="explode")

    def test_describe_mentions_q_format(self):
        assert "Q15.16" in FixedPointFormat(32, 16).describe()


class TestRangeResolution:
    def test_resolution(self):
        assert FixedPointFormat(32, 16).resolution == pytest.approx(2**-16)

    def test_range_symmetry(self):
        fmt = FixedPointFormat(16, 8)
        assert fmt.max_value == pytest.approx(127 + 255 / 256)
        assert fmt.min_value == pytest.approx(-128.0)


class TestEncodeDecode:
    def test_integers_exact(self):
        fmt = FixedPointFormat(32, 16)
        vals = np.array([-5.0, 0.0, 42.0])
        assert np.array_equal(fmt.quantize(vals), vals)

    def test_quantization_error_bounded_by_half_ulp(self):
        fmt = FixedPointFormat(32, 16)
        rng = np.random.default_rng(0)
        vals = rng.uniform(-100, 100, size=1000)
        err = np.abs(fmt.quantize(vals) - vals)
        assert err.max() <= fmt.resolution / 2 + 1e-12

    def test_saturate_clamps(self):
        # Beyond 2**63 a float has no int64 cast: the clamp must come
        # first, or huge positives turn into the most negative word.
        for width in (8, 16, 32):
            fmt = FixedPointFormat(width, width // 2, overflow="saturate")
            out = fmt.quantize(np.array([1e6, -1e6, 1e15, -1e15, 1e300, -1e300]))
            assert list(out) == [fmt.max_value, fmt.min_value] * 3

    def test_wrap_wraps(self):
        fmt = FixedPointFormat(16, 8, overflow="wrap")
        out = fmt.quantize(np.array([fmt.max_value + fmt.resolution]))
        assert out[0] == pytest.approx(fmt.min_value)
        # rint(x * scale) modulo 2**width, sign-extended, for any finite x.
        values = [1e15, -1e15, 1e300, -1e300, 2.0**40 + 0.75]
        for width in (8, 16, 32):
            fmt = FixedPointFormat(width, width // 2, overflow="wrap")
            half = 1 << (width - 1)
            want = [
                (int(np.rint(v * fmt.scale)) + half) % (1 << width) - half for v in values
            ]
            assert fmt.encode(np.array(values)).tolist() == want

    def test_rejects_nan(self):
        fmt = FixedPointFormat()
        with pytest.raises(ValueError, match="non-finite"):
            fmt.encode(np.array([np.nan]))

    def test_rejects_inf(self):
        fmt = FixedPointFormat()
        with pytest.raises(ValueError, match="non-finite"):
            fmt.encode(np.array([np.inf]))

    def test_representable_mask(self):
        fmt = FixedPointFormat(16, 8)
        mask = fmt.representable(np.array([0.0, 1e5, -1e5]))
        assert list(mask) == [True, False, False]

    @given(st.floats(min_value=-30000.0, max_value=30000.0, allow_nan=False))
    @settings(max_examples=300)
    def test_roundtrip_idempotent(self, value):
        fmt = FixedPointFormat(32, 16)
        once = fmt.quantize(np.array([value]))
        twice = fmt.quantize(once)
        assert np.array_equal(once, twice)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([(8, 4), (16, 8), (32, 16), (32, 0)]),
    )
    @example(1e14, 1e15, (32, 16))
    @settings(max_examples=300)
    def test_saturating_quantize_monotone_full_range(self, a, b, shape):
        fmt = FixedPointFormat(*shape)
        lo, hi = sorted((a, b))
        assert fmt.quantize(np.array([lo]))[0] <= fmt.quantize(np.array([hi]))[0]

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_quantize_monotone_nondecreasing(self, value):
        fmt = FixedPointFormat(32, 16)
        lo = fmt.quantize(np.array([value]))[0]
        hi = fmt.quantize(np.array([value + 0.001]))[0]
        assert hi >= lo
