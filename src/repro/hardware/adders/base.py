"""Abstract base class for bit-accurate adder models.

An :class:`AdderModel` adds two's-complement words of a fixed ``width``.
Subclasses implement the *unsigned* addition (two's-complement signed
addition is the same operation modulo ``2**width``) and report a
structural :meth:`cell_inventory` from which
:class:`~repro.hardware.energy.EnergyModel` derives an energy per
operation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter

import numpy as np

from repro.hardware import bitops


class AdderModel(ABC):
    """A ``width``-bit two's-complement adder, possibly approximate.

    The model is deliberately *functional*: it has no internal state, so a
    single instance can be shared between engines and threads.

    Attributes:
        width: word width in bits.
    """

    #: Short family identifier used in reports (overridden by subclasses).
    family: str = "abstract"

    def __init__(self, width: int):
        self.width = bitops.check_width(width)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @abstractmethod
    def add_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Add unsigned words, returning a word masked to ``width`` bits.

        Args:
            a, b: ``int64`` arrays with values in ``[0, 2**width)``.

        Returns:
            ``int64`` array of the (approximate) sums, masked to ``width``
            bits — i.e. carry-out is discarded exactly as a fixed-width
            datapath would.
        """

    def add_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Add two's-complement signed words with wraparound overflow."""
        ua = bitops.to_unsigned(a, self.width)
        ub = bitops.to_unsigned(b, self.width)
        return bitops.to_signed(self.add_unsigned(ua, ub), self.width)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_signed(a, b)

    # ------------------------------------------------------------------
    # Structure / energy
    # ------------------------------------------------------------------
    @abstractmethod
    def cell_inventory(self) -> Counter:
        """Structural cell counts, e.g. ``Counter({'fa': 24, 'or2': 8})``.

        Keys must be cell names known to
        :class:`~repro.hardware.energy.EnergyModel`.
        """

    def critical_path_cells(self) -> int:
        """Length of the longest carry chain, in full-adder cells.

        Approximate adders shorten the carry chain, which is what lets
        a voltage-scaled deployment trade the slack for energy (the
        accuracy-configurable designs the paper builds on are pitched
        exactly this way).  The default is the full ripple chain;
        subclasses with broken chains override.
        """
        return self.width

    @property
    def is_exact(self) -> bool:
        """Whether this model never deviates from the true sum."""
        return False

    @property
    def error_bound(self) -> int | None:
        """The largest ``|add_signed(a, b) - (a + b)|`` over operands
        whose sum and result both fit the word, known by construction;
        ``None`` when the design declares none (the folds then rescan
        their operands' range at every level)."""
        return None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{type(self).__name__}(width={self.width})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    def exact_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Golden unsigned sum (masked), for error characterization."""
        mask = np.int64(bitops.word_mask(self.width))
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return (a + b) & mask

    def error_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Absolute deviation from the golden sum, elementwise."""
        return np.abs(self.add_unsigned(a, b) - self.exact_sum(a, b))
