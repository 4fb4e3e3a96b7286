"""Q-format fixed-point encoding.

A :class:`FixedPointFormat` maps floats to ``width``-bit two's-complement
integers with ``frac_bits`` fractional bits (resolution ``2**-frac_bits``)
— the representation an approximate-adder datapath actually operates on.

Overflow policy is configurable:

* ``"saturate"`` (default) — clamp to the representable range, the usual
  DSP datapath choice and the one that keeps iterative methods stable;
* ``"wrap"`` — discard high bits, matching raw adder overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware import bitops

_OVERFLOW_POLICIES = ("saturate", "wrap")


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed Q-format: ``width`` total bits, ``frac_bits`` fractional.

    Attributes:
        width: total word width including the sign bit.
        frac_bits: fractional bits; integer range shrinks as it grows.
        overflow: ``"saturate"`` or ``"wrap"``.
    """

    width: int = 32
    frac_bits: int = 16
    overflow: str = "saturate"

    def __post_init__(self):
        bitops.check_width(self.width)
        if not 0 <= self.frac_bits < self.width:
            raise ValueError(
                f"frac_bits must be in [0, width), got {self.frac_bits} "
                f"for width {self.width}"
            )
        if self.overflow not in _OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {_OVERFLOW_POLICIES}, got {self.overflow!r}"
            )

    # ------------------------------------------------------------------
    # Range / resolution
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Multiplier applied to floats before rounding (``2**frac_bits``)."""
        return float(1 << self.frac_bits)

    @property
    def resolution(self) -> float:
        """Smallest representable increment."""
        return 1.0 / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return bitops.signed_range(self.width)[1] / self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable real value."""
        return bitops.signed_range(self.width)[0] / self.scale

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray, *, assume_finite: bool = False) -> np.ndarray:
        """Quantize floats to fixed-point words (``int64``).

        Args:
            values: float data to quantize.
            assume_finite: skip the finiteness scan.  Only pass ``True``
                when finiteness has already been *proved* (e.g. the
                values are products of operands whose absolute maxima
                were checked) — the emitted words are identical either
                way, this merely avoids a redundant full pass.

        Raises:
            ValueError: if any value is NaN or infinite — iterative
                methods should never feed non-finite data into the
                datapath, so this is treated as a caller bug rather than
                silently clipped.
        """
        arr = np.asarray(values, dtype=np.float64)
        if not assume_finite and not np.all(np.isfinite(arr)):
            raise ValueError("cannot encode non-finite values into fixed point")
        scale = self.scale
        lo, hi = bitops.signed_range(self.width)
        # Bring every value into range in the float domain first: x·scale
        # can overflow to inf, and a float beyond ±2**63 has no int64
        # cast.  Clamping to [lo, hi]/scale before scaling equals
        # clamping rint(x·scale); fmod is exact and shifts x·scale by a
        # multiple of 2**width, which rint and the sign extension keep.
        if self.overflow == "saturate":
            scaled = np.clip(arr, lo / scale, hi / scale)
        else:
            scaled = np.fmod(arr, (1 << self.width) / scale)
        # The clamped copy is a fresh temporary: scale and round it in
        # place.
        scaled = np.asarray(scaled)
        scaled *= scale
        np.rint(scaled, out=scaled)
        q = scaled.astype(np.int64)
        if self.overflow == "wrap":
            return bitops.to_signed(bitops.to_unsigned(q, self.width), self.width)
        if self.width > 54:  # hi rounds up to 2**(width-1) in float64
            np.clip(q, lo, hi, out=q)
        return q

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Convert fixed-point words back to floats."""
        return np.asarray(words, dtype=np.float64) / self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip floats through the format (encode then decode)."""
        return self.decode(self.encode(values))

    def handle_overflow(self, words: np.ndarray) -> np.ndarray:
        """Apply the overflow policy to raw (possibly out-of-range) words."""
        if self.overflow == "saturate":
            return bitops.saturate_signed(words, self.width)
        return bitops.to_signed(bitops.to_unsigned(words, self.width), self.width)

    def representable(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values inside the representable range."""
        arr = np.asarray(values, dtype=np.float64)
        return (arr >= self.min_value) & (arr <= self.max_value)

    def describe(self) -> str:
        """Human-readable ``Qm.n`` style description."""
        int_bits = self.width - self.frac_bits - 1
        return (
            f"Q{int_bits}.{self.frac_bits} (width={self.width}, "
            f"range [{self.min_value:g}, {self.max_value:g}], "
            f"resolution {self.resolution:g}, overflow={self.overflow})"
        )
