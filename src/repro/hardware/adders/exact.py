"""Golden (fully accurate) adder model."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.hardware import bitops
from repro.hardware.adders.base import AdderModel


class ExactAdder(AdderModel):
    """A conventional ripple-carry adder: functionally perfect.

    This is the ``accurate`` mode of the paper's quality-configurable
    system and the reference against which every approximate model's
    error and energy are normalized.
    """

    family = "exact"

    def add_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask = np.int64(bitops.word_mask(self.width))
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return (a + b) & mask

    def cell_inventory(self) -> Counter:
        """One full adder per bit position."""
        return Counter({"fa": self.width})

    @property
    def is_exact(self) -> bool:
        return True

    @property
    def error_bound(self) -> int:
        return 0
