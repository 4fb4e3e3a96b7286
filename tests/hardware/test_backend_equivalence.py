"""Exhaustive kernel equivalence against the bit-serial oracle.

The engine's adder dispatch (:meth:`~repro.backends.KernelBackend.add_signed`
on the shared :data:`~repro.backends.KERNELS`) must reproduce
:mod:`repro.hardware.adders.reference` — the same bit-serial oracle the
vectorized adder kernels are proven against — bit-for-bit on the full
width-8 operand space, fed both raw unsigned words and two's-complement
signed words.

The fused in-range kernels have no bit-serial formulation of their own;
they are checked against the reference *composition* they claim to
collapse (plain add / encode-then-clip-then-reduce) on operands
satisfying their in-range precondition.
"""

import numpy as np
import pytest

from repro.backends import KERNELS, resolve_backend_name
from repro.hardware import bitops
from repro.hardware.adders import (
    AcaAdder,
    EtaIIAdder,
    ExactAdder,
    GearAdder,
    LowerOrAdder,
    TruncatedAdder,
)
from repro.hardware.adders.reference import reference_add_unsigned

WIDTH = 8
SPACE = np.arange(1 << WIDTH, dtype=np.int64)
ALL_A, ALL_B = (x.ravel() for x in np.meshgrid(SPACE, SPACE, indexing="ij"))
SIGNED_A = bitops.to_signed(ALL_A, WIDTH)
SIGNED_B = bitops.to_signed(ALL_B, WIDTH)


def _configs():
    yield "exact", ExactAdder(WIDTH)
    for k in range(1, WIDTH):
        yield f"loa-k{k}", LowerOrAdder(WIDTH, k)
    for k in range(1, WIDTH):
        for fill in ("zero", "one"):
            yield f"trunc-k{k}-{fill}", TruncatedAdder(WIDTH, k, fill=fill)
    for k in range(1, WIDTH):
        yield f"aca-k{k}", AcaAdder(WIDTH, k)
    for s in range(1, WIDTH + 1):
        yield f"etaii-s{s}", EtaIIAdder(WIDTH, s)
    for r, p in ((1, 0), (1, 2), (2, 0), (2, 2), (2, 5), (3, 1), (4, 4)):
        yield f"gear-r{r}p{p}", GearAdder(WIDTH, r, p)


ADDERS = [a for _, a in _configs()]
ADDER_IDS = [name for name, _ in _configs()]
#: The one kernel set, its test ids tagged with the kernels' name.
KERNEL_SET = pytest.mark.parametrize(
    "kernels", [KERNELS], ids=[resolve_backend_name()]
)


@KERNEL_SET
@pytest.mark.parametrize("adder", ADDERS, ids=ADDER_IDS)
def test_add_unsigned_matches_bit_serial_oracle(kernels, adder):
    """Raw unsigned words (half of them above the signed maximum) through
    the adder dispatch, read back as unsigned words: the dispatch sees
    only operand bit patterns, so every sum is the oracle's."""
    got = bitops.to_unsigned(kernels.add_signed(adder, ALL_A, ALL_B), WIDTH)
    want = reference_add_unsigned(adder, ALL_A, ALL_B)
    mismatch = got != want
    assert not np.any(mismatch), (
        f"{adder.describe()}: {int(mismatch.sum())} mismatches, first at "
        f"a={int(ALL_A[mismatch.argmax()])} b={int(ALL_B[mismatch.argmax()])}"
    )


@KERNEL_SET
@pytest.mark.parametrize("adder", ADDERS, ids=ADDER_IDS)
def test_add_signed_matches_bit_serial_oracle(kernels, adder):
    got = kernels.add_signed(adder, SIGNED_A, SIGNED_B)
    want = bitops.to_signed(reference_add_unsigned(adder, ALL_A, ALL_B), WIDTH)
    mismatch = got != want
    assert not np.any(mismatch), (
        f"{adder.describe()}: {int(mismatch.sum())} signed mismatches"
    )


@KERNEL_SET
def test_inrange_kernels_match_reference_composition(kernels):
    """The fused kernels equal the computation they collapse, on
    operands that satisfy their in-range precondition."""
    rng = np.random.default_rng(7)
    exact = ExactAdder(32)
    qa = rng.integers(-1000, 1000, size=(64,), dtype=np.int64)
    qb = rng.integers(-1000, 1000, size=(64,), dtype=np.int64)
    np.testing.assert_array_equal(
        kernels.add_words_inrange(qa, qb), exact.add_signed(qa, qb)
    )
    np.testing.assert_array_equal(
        kernels.sub_words_inrange(qa, qb), exact.add_signed(qa, -qb)
    )
    stack = rng.integers(-1000, 1000, size=(9, 64), dtype=np.int64)
    folded = stack[0]
    for row in stack[1:]:
        folded = exact.add_signed(folded, row)
    np.testing.assert_array_equal(kernels.reduce_inrange(stack), folded)


@KERNEL_SET
def test_product_reduce_matches_encode_then_reduce(kernels):
    rng = np.random.default_rng(11)
    scale = float(1 << 12)
    mat = rng.uniform(-2.0, 2.0, (17, 23))
    vec = rng.uniform(-2.0, 2.0, 23)
    want = np.add.reduce(
        np.rint((mat * vec[np.newaxis, :]) * scale).astype(np.int64), axis=1
    )
    bufs: dict = {}
    got = kernels.product_reduce_words(mat, vec[np.newaxis, :], scale, 1, bufs)
    np.testing.assert_array_equal(got, want)
    # Buffers are reused across calls at the same shape — a second call
    # must not be polluted by the first.
    got2 = kernels.product_reduce_words(mat, vec[np.newaxis, :], scale, 1, bufs)
    np.testing.assert_array_equal(got2, want)


@KERNEL_SET
def test_scale_encode_matches_checked_encode(kernels):
    rng = np.random.default_rng(13)
    scale = float(1 << 12)
    arr = rng.uniform(-3.0, 3.0, 64)
    alpha = 0.37
    want = np.rint((arr * alpha) * scale).astype(np.int64)
    bufs: dict = {}
    got = kernels.scale_encode_inrange(arr, alpha, scale, bufs)
    np.testing.assert_array_equal(got, want)
