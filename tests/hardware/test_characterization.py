"""Tests for the low-level error-metric characterization."""

import pytest

from repro.hardware.adders import ExactAdder, LowerOrAdder, TruncatedAdder, build_adder
from repro.hardware.characterization import (
    characterize_adder,
    compare_levels,
)


class TestExactProfile:
    def test_exact_adder_has_all_zero_metrics(self):
        profile = characterize_adder(ExactAdder(8))
        assert profile.error_rate == 0.0
        assert profile.mean_error == 0.0
        assert profile.mean_error_distance == 0.0
        assert profile.mean_relative_error_distance == 0.0
        assert profile.worst_case_error == 0
        assert profile.exhaustive

    def test_exact_wide_adder_sampled(self):
        profile = characterize_adder(ExactAdder(32), samples=2000, seed=9)
        assert profile.error_rate == 0.0
        assert not profile.exhaustive
        assert profile.samples == 2000


class TestApproximateProfiles:
    def test_loa_has_positive_bias(self):
        # OR of low bits only over-approximates (missing carries can
        # under-approximate, but the OR dominates for the one-fill).
        profile = characterize_adder(TruncatedAdder(8, approx_bits=3, fill="one"))
        assert profile.error_rate > 0

    def test_wce_bounded_by_approx_region(self):
        k = 3
        profile = characterize_adder(LowerOrAdder(8, approx_bits=k))
        assert 0 < profile.worst_case_error < (1 << (k + 1))

    def test_metrics_improve_with_accuracy(self):
        adders = [LowerOrAdder(8, approx_bits=k) for k in (6, 4, 2)]
        profiles = compare_levels(adders)
        meds = [p.mean_error_distance for p in profiles]
        assert meds[0] > meds[1] > meds[2]

    def test_overflow_free_avoids_wrap_aliasing(self):
        adder = LowerOrAdder(8, approx_bits=4)
        clean = characterize_adder(adder, overflow_free=True)
        dirty = characterize_adder(adder, overflow_free=False)
        # Aliased pairs produce errors near 2**width.
        assert dirty.worst_case_error > clean.worst_case_error

    def test_sampled_vs_exhaustive_agree_roughly(self):
        adder = LowerOrAdder(8, approx_bits=4)
        exhaustive = characterize_adder(adder, exhaustive=True)
        sampled = characterize_adder(adder, exhaustive=False, samples=60_000, seed=2)
        assert sampled.error_rate == pytest.approx(exhaustive.error_rate, abs=0.05)
        assert sampled.mean_error_distance == pytest.approx(
            exhaustive.mean_error_distance, rel=0.2
        )


class TestBitErrorProfile:
    def test_exact_adder_never_flips(self):
        from repro.hardware.characterization import bit_error_profile

        rates = bit_error_profile(ExactAdder(12), samples=5000)
        assert rates.shape == (12,)
        assert (rates == 0).all()

    def test_loa_flips_concentrate_in_low_bits(self):
        from repro.hardware.characterization import bit_error_profile

        k = 6
        rates = bit_error_profile(LowerOrAdder(16, approx_bits=k), samples=30_000)
        # The OR'd region flips frequently...
        assert rates[: k - 1].max() > 0.1
        # ...while the exact upper part only suffers the (rare) missing
        # carry propagating in, decaying with distance from the cut.
        assert rates[k:].max() < rates[: k - 1].max()
        assert rates[-1] <= rates[k]

    def test_etaii_flips_at_segment_boundaries(self):
        from repro.hardware.adders import EtaIIAdder
        from repro.hardware.characterization import bit_error_profile

        s = 4
        rates = bit_error_profile(EtaIIAdder(16, segment_bits=s), samples=30_000)
        # Bits inside the first segment are always exact (no incoming
        # speculation), later segments can be wrong.
        assert (rates[:s] == 0).all()
        assert rates[s:].max() > 0

    def test_rejects_zero_samples(self):
        from repro.hardware.characterization import bit_error_profile

        with pytest.raises(ValueError, match="samples"):
            bit_error_profile(ExactAdder(8), samples=0)


class TestApiContracts:
    def test_seed_reproducibility(self):
        adder = build_adder("etaii", 16, segment_bits=4)
        p1 = characterize_adder(adder, samples=5000, seed=7)
        p2 = characterize_adder(adder, samples=5000, seed=7)
        assert p1 == p2

    def test_different_seeds_differ(self):
        adder = build_adder("etaii", 16, segment_bits=4)
        p1 = characterize_adder(adder, samples=5000, seed=7)
        p2 = characterize_adder(adder, samples=5000, seed=8)
        assert p1 != p2

    def test_refuses_exhaustive_at_wide_width(self):
        with pytest.raises(ValueError, match="exhaustive"):
            characterize_adder(ExactAdder(32), exhaustive=True)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples"):
            characterize_adder(ExactAdder(16), samples=0, exhaustive=False)

    def test_as_dict_keys(self):
        profile = characterize_adder(ExactAdder(8))
        assert set(profile.as_dict()) == {"ER", "ME", "MED", "MRED", "WCE"}

    def test_profile_is_frozen(self):
        profile = characterize_adder(ExactAdder(8))
        with pytest.raises(AttributeError):
            profile.error_rate = 1.0
