"""The reference engine against the bit-serial adder oracle, exhaustively.

:class:`~repro.arith.reference.ReferenceEngine` is the spec every
production path is checked against, so it is pinned one layer down: at
width 8 (``FixedPointFormat(8, 0)``, one word per integer) every signed
operand pair of every mode in ``default_mode_bank(8)`` must add exactly
as the bit-serial reference of :mod:`repro.hardware.adders.reference`
does, behind a clamp to the true sum when the format saturates; and its
tree sum must equal a scalar balanced fold on that same adder while
charging exactly ``n - 1`` additions.
"""

import numpy as np
import pytest

from repro.arith.engine import EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.reference import ReferenceEngine
from repro.hardware import bitops
from repro.hardware.adders.reference import reference_add_unsigned

WIDTH = 8
LO, HI = bitops.signed_range(WIDTH)
SPACE = np.arange(LO, HI + 1, dtype=np.int64)
ALL_A, ALL_B = (x.ravel() for x in np.meshgrid(SPACE, SPACE, indexing="ij"))
MODES = list(default_mode_bank(WIDTH))


def _oracle_add(adder, a, b, overflow):
    """Bit-serial addition of signed words plus the output stage."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    raw = reference_add_unsigned(
        adder, bitops.to_unsigned(a, WIDTH), bitops.to_unsigned(b, WIDTH)
    )
    out = bitops.to_signed(raw, WIDTH)
    if overflow == "saturate":
        true = a + b
        out = np.where((true < LO) | (true > HI), np.clip(true, LO, HI), out)
    return out


def _oracle_sum(adder, words, overflow):
    """A scalar balanced fold: level by level, ``x[i] + x[half + i]``,
    the odd tail carried up unchanged."""
    words = [int(w) for w in words]
    while len(words) > 1:
        half = len(words) // 2
        folded = [
            int(_oracle_add(adder, words[i], words[half + i], overflow))
            for i in range(half)
        ]
        words = folded + words[2 * half :]
    return words[0]


@pytest.mark.parametrize("overflow", ["saturate", "wrap"])
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
def test_add_matches_bit_serial_oracle_on_every_pair(mode, overflow):
    fmt = FixedPointFormat(WIDTH, 0, overflow=overflow)
    engine = ReferenceEngine(mode, fmt, EnergyLedger())
    got = engine.add(ALL_A.astype(np.float64), ALL_B.astype(np.float64))
    want = _oracle_add(mode.adder, ALL_A, ALL_B, overflow)
    mismatch = got != want
    assert not np.any(mismatch), (
        f"{mode.name}/{overflow}: {int(mismatch.sum())} mismatches, first at "
        f"a={int(ALL_A[mismatch.argmax()])} b={int(ALL_B[mismatch.argmax()])}"
    )
    assert engine.ledger.adds == ALL_A.size


@pytest.mark.parametrize("overflow", ["saturate", "wrap"])
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
def test_sum_matches_scalar_balanced_fold(mode, overflow):
    fmt = FixedPointFormat(WIDTH, 0, overflow=overflow)
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5, 8, 13):
        engine = ReferenceEngine(mode, fmt, EnergyLedger())
        words = rng.integers(LO, HI + 1, size=n)
        got = engine.sum(words.astype(np.float64))
        assert got == _oracle_sum(mode.adder, words, overflow)
        assert engine.ledger.adds == n - 1
        assert engine.ledger.adds_by_mode == ({mode.name: n - 1} if n > 1 else {})
