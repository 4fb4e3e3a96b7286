"""Lower-part OR Adder (LOA).

Mahdiani et al.'s classic design: the ``approx_bits`` low-order result
bits are computed as the bitwise OR of the operands (a single OR gate per
bit instead of a full adder), the remaining high-order bits are added
exactly, and the carry into the exact part is generated by ANDing the
most significant bits of the approximate part (a cheap carry guess).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.hardware import bitops
from repro.hardware.adders.base import AdderModel


class LowerOrAdder(AdderModel):
    """LOA with a configurable approximate lower part.

    Args:
        width: total word width in bits.
        approx_bits: number of low-order bits computed by OR gates.  Must
            satisfy ``0 <= approx_bits < width``.  ``approx_bits == 0``
            degenerates to an exact adder.
    """

    family = "loa"

    def __init__(self, width: int, approx_bits: int):
        super().__init__(width)
        if not 0 <= approx_bits < width:
            raise ValueError(
                f"approx_bits must be in [0, width), got {approx_bits} for width {width}"
            )
        self.approx_bits = int(approx_bits)
        k = self.approx_bits
        self._shift = np.int64(k)
        self._carry_bit = np.int64(k - 1)
        self._low_mask = np.int64((1 << k) - 1)
        self._word_mask = np.int64(bitops.word_mask(width))
        self._sign_bit = np.int64(1 << (width - 1))
        # Sign extensions as two int64 shifts: from bit k - 1 and from
        # bit width - 1.
        self._low_shift = np.int64(64 - k)
        self._word_shift = np.int64(64 - width)

    def add_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.approx_bits == 0:
            return self.exact_sum(a, b)
        # Carry guess into the exact upper part: AND of the operand MSBs
        # of the approximate region.  Every in-place op below writes to a
        # fresh temporary of the broadcast shape, never to an operand.
        out = a & b
        out >>= self._carry_bit
        out &= 1
        out += a >> self._shift
        out += b >> self._shift
        out <<= self._shift
        low = a | b
        low &= self._low_mask
        out |= low
        out &= self._word_mask
        return out

    def add_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Signed add in seven passes: ``sext_w(a + b - sext_k(a & b))``.

        With ``a_lo``, ``b_lo`` the low ``k`` bits, ``a_lo + b_lo =
        (a_lo | b_lo) + (a_lo & b_lo)``, and LOA's carry guess ``c`` is
        bit ``k - 1`` of ``a_lo & b_lo``.  So LOA's sum ``(a_hi + b_hi
        + c)·2^k + (a_lo | b_lo)`` is ``a + b - (a_lo & b_lo) + c·2^k =
        a + b - sext_k(a & b)`` modulo ``2**width``: the OR lower part
        drops the AND of the low bits, and the carry guess gives back its
        top bit.  The sum depends on its operands only modulo
        ``2**width`` (``sext_k`` reads the low ``k < width`` bits alone),
        so they need no masking first.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim == b.ndim == 0:
            # As NumPy scalars the passes below would warn on the wrap.
            return self.add_signed(a.reshape(1), b.reshape(1))[0]
        if self.approx_bits == 0:
            out = self.add_unsigned(a, b)
            out ^= self._sign_bit
            out -= self._sign_bit
            return out
        low = a & b
        low <<= self._low_shift
        low >>= self._low_shift
        out = a + b
        out -= low
        out <<= self._word_shift
        out >>= self._word_shift
        return out

    def cell_inventory(self) -> Counter:
        k = self.approx_bits
        cells = Counter({"or2": k, "and2": 1 if k else 0})
        cells["fa"] = self.width - k
        return cells

    def critical_path_cells(self) -> int:
        """The carry chain only spans the exact upper part."""
        return self.width - self.approx_bits

    @property
    def is_exact(self) -> bool:
        return self.approx_bits == 0

    def describe(self) -> str:
        return f"LowerOrAdder(width={self.width}, approx_bits={self.approx_bits})"
