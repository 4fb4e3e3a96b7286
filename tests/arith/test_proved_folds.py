"""Approximate folds at the edge of their range proof.

An LOA adder's word lies within its declared error bound ``E =
2**(k-1)`` of the true sum, so a tree of ``n`` words within ``±W``
keeps every add inside the word when ``n·W + (n-1)·E`` fits it.
Replay then folds such a tree in closed form
(:meth:`~repro.backends.base.KernelBackend.reduce_inrange`), and runs a
level proved on its own through the adder's in-range kernel
(:meth:`~repro.backends.base.KernelBackend.add_words_inrange`), in place
on the buffers the fold owns, instead of the checked adder call.  These
cases put ``n·W + (n-1)·E`` exactly on the word's top, where the proof
holds, and one word above it, where the fold must take the checked
path.  Dense solo, lane-stacked and CSR operands, at every LOA level,
must equal :class:`~repro.arith.reference.ReferenceEngine` word for
word and ledger for ledger, on the plain engines and on replay; a
resident operand's words must survive the fold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    LaneStack,
    ResidentVector,
    SparseResidentMatrix,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.arith.reference import ReferenceEngine
from repro.backends import KERNELS

BANK = default_mode_bank(32)
FMT = FixedPointFormat(width=32, frac_bits=16)
HI = (1 << 31) - 1
LEVELS = ("level1", "level2", "level3", "level4")


def _error(name):
    return BANK.by_name(name).adder.error_bound


#: Per level, the tree sizes whose ``n·W + (n-1)·E`` meets the word's
#: top exactly for an integer ``W``.
EDGE_SIZES = {
    name: [n for n in range(2, 160) if (HI - (n - 1) * _error(name)) % n == 0]
    for name in LEVELS
}
KINDS = ("sum", "matvec", "weighted_sum", "csr")


def test_every_level_has_edge_sizes():
    assert all(EDGE_SIZES[name] for name in LEVELS)


def _bounded(rng, shape, full):
    """Values in ``[-1, 1]`` whose largest magnitude is exactly 1: every
    one 1 when ``full`` (sums sit on the bound), else uniform."""
    if full:
        return np.ones(shape)
    out = rng.uniform(-1.0, 1.0, shape)
    out.reshape(-1)[0] = 1.0
    return out


def _operands(kind, n, lanes, word, full, rng):
    """``(constant, varying)``: the call arguments of ``kind``, every
    encoded summand within ``±word`` and one at ``word`` (``word /
    scale`` is exact)."""
    unit = word / FMT.scale
    lead = () if lanes is None else (lanes,)
    if kind == "sum":
        words = rng.integers(-word, word + 1, lead + (n,))
        words[..., 0] = word
        if full:
            words[...] = word
        kind_cls = ResidentVector if lanes is None else LaneStack
        return None, kind_cls(words, FMT)
    if kind == "matvec":
        m = int(rng.integers(1, 5))
        return unit * _bounded(rng, (m, n), full), _bounded(rng, lead + (n,), full)
    if kind == "weighted_sum":
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        return unit * _bounded(rng, (n, d), full), _bounded(rng, lead + (k, n), full)
    rows = int(rng.integers(1, 5))
    dense = unit * _bounded(rng, (rows, n), full)
    dense[0, 0] = unit  # the longest row keeps all n entries
    for r in range(1, rows):
        dense[r, rng.permutation(n)[: int(rng.integers(0, n))]] = 0.0
    return SparseResidentMatrix.from_dense(dense), _bounded(rng, lead + (n,), full)


def _call(engine, kind, const, varying):
    if kind == "sum":
        return engine.sum(varying, axis=0, resident=True)
    if kind == "weighted_sum":
        return engine.weighted_sum(varying, const, resident=True)
    return engine.matvec(const, varying, resident=True)


def _reference(refs, kind, const, varying, lanes):
    """Each reference engine's words for its lane (or the solo call);
    the reference takes ``resident=`` and returns floats anyway."""
    if kind == "sum":
        varying = FMT.decode(varying.words)
    rows = [varying] if lanes is None else list(varying)
    want = [_call(ref, kind, const, row) for ref, row in zip(refs, rows)]
    return FMT.encode(np.asarray(want[0] if lanes is None else np.stack(want)))


class _Counts:
    """Adder calls (``add_signed``) and in-range kernel calls with an
    adder (a proved level, or a proved tree in closed form), counted on
    the one kernel set."""

    def __init__(self, patch):
        self.signed = self.inrange = 0
        cls = type(KERNELS)
        add_signed = cls.add_signed
        add_inrange, reduce_inrange = cls.add_words_inrange, cls.reduce_inrange

        def signed(backend, *args, **kwargs):
            self.signed += 1
            return add_signed(backend, *args, **kwargs)

        def add(backend, qa, qb, adder=None, **kwargs):
            self.inrange += adder is not None
            return add_inrange(backend, qa, qb, adder, **kwargs)

        def reduce(backend, q, axis=0, adder=None):
            self.inrange += adder is not None
            return reduce_inrange(backend, q, axis, adder)

        patch.setattr(cls, "add_signed", signed)
        patch.setattr(cls, "add_words_inrange", add)
        patch.setattr(cls, "reduce_inrange", reduce)

    def take(self):
        counts = (self.signed, self.inrange)
        self.signed = self.inrange = 0
        return counts


def _check(name, n, above, kind, lanes, full, seed):
    mode = BANK.by_name(name)
    word = (HI - (n - 1) * mode.adder.error_bound) // n + above
    assert n * (word - above) + (n - 1) * mode.adder.error_bound == HI
    rng = np.random.default_rng(seed)
    const, varying = _operands(kind, n, lanes, word, full, rng)
    resident = varying if kind == "sum" else None
    kept = None if resident is None else resident.words.copy()

    refs = [ReferenceEngine(mode, FMT) for _ in range(lanes or 1)]
    want = _reference(refs, kind, const, varying, lanes)
    # The program engine makes the call three times.
    thrice = [ReferenceEngine(mode, FMT) for _ in range(lanes or 1)]
    for _ in range(3):
        _reference(thrice, kind, const, varying, lanes)

    if lanes is None:
        plain, prog = ApproxEngine(mode, FMT), ProgramEngine(mode, FMT)
    else:
        plain = BatchedEngine(mode, FMT, lanes=lanes)
        prog = BatchedProgramEngine(mode, FMT, lanes=lanes)
        plain.select_lanes(np.arange(lanes))
        prog.select_lanes(np.arange(lanes))

    with pytest.MonkeyPatch.context() as patch:
        counts = _Counts(patch)
        got = _call(plain, kind, const, varying)
        np.testing.assert_array_equal(got.words, want)
        assert counts.take()[1] == 0, "an interpreted fold ran the in-range kernel"
        for window in range(3):
            prog.begin_iteration({"v": varying})
            got = _call(prog, kind, const, varying)
            assert prog.end_iteration() == ("captured" if window == 0 else "replayed", None)
            np.testing.assert_array_equal(got.words, want)
            signed, inrange = counts.take()
            if window == 0:
                continue
            if above:
                assert signed > 0, "a fold past the proof skipped the checked adder"
            else:
                assert signed == 0 and inrange > 0, "a proved fold took the checked adder"
    if kept is not None:
        np.testing.assert_array_equal(resident.words, kept)
    if lanes is None:
        plain_ledgers, prog_ledgers = [plain.ledger], [prog.ledger]
    else:
        plain_ledgers = [plain.ledger.lane_ledger(j) for j in range(lanes)]
        prog_ledgers = [prog.ledger.lane_ledger(j) for j in range(lanes)]
    assert plain_ledgers == [ref.ledger for ref in refs]
    assert prog_ledgers == [ref.ledger for ref in thrice]


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(LEVELS))
    n = draw(st.sampled_from(EDGE_SIZES[name]))
    above = draw(st.sampled_from([0, 1]))
    kind = draw(st.sampled_from(KINDS))
    lanes = draw(st.sampled_from([None, 1, 3]))
    full = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return name, n, above, kind, lanes, full, seed


@given(_cases())
@settings(max_examples=80, deadline=None)
def test_folds_at_the_proof_edge_match_reference(case):
    _check(*case)


@pytest.mark.parametrize("name", LEVELS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lanes", [None, 3], ids=["solo", "lanes"])
@pytest.mark.parametrize("above", [0, 1], ids=["proved", "checked"])
def test_every_level_and_operand_at_the_edge(name, kind, lanes, above):
    _check(name, EDGE_SIZES[name][0], above, kind, lanes, True, seed=17)
