"""The dense product fold at its tile edges.

Every engine's dense ``matvec`` and ``weighted_sum`` runs product,
encode and tree fold one tile of the kept axes at a time
(:func:`repro.arith.engine._product_fold`).  Each output word's tree
depends on the reduced length alone, so the words and the ledger must
not depend on the tiling: these tests shrink the tile budget until
tiles hold one row, leave a remainder, or split the inner axis, and
compare the plain engines and program replay (solo and lane group)
with :class:`~repro.arith.reference.ReferenceEngine`, word for word and
ledger for ledger, in every mode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import engine as engine_mod
from repro.arith.engine import ApproxEngine, BatchedEngine, _fold, _product_fold
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.program import (
    BatchedProgramEngine,
    ProgramEngine,
    _product_bound,
    _replay_reduce,
)
from repro.arith.reference import ReferenceEngine

BANK = default_mode_bank(32)
FMT = FixedPointFormat(width=32, frac_bits=16)
MODES = tuple(mode.name for mode in BANK)
#: sqrt of Q15.16's largest value: products of two such operands sit at
#: the edge of the word, so encodes clip and tree levels clamp.
EDGE = math.sqrt(FMT.max_value)


def _call(engine, kind, const, varying, **kwargs):
    if kind == "matvec":
        return engine.matvec(const, varying, **kwargs)
    return engine.weighted_sum(varying, const, **kwargs)


def _check_solo(mode, kind, const, varyings):
    """Plain engine and program engine (one recorded window, then
    replayed ones) against the reference, call by call."""
    ref, plain, prog = ReferenceEngine(mode, FMT), ApproxEngine(mode, FMT), ProgramEngine(mode, FMT)
    for i, v in enumerate(varyings):
        want = FMT.encode(_call(ref, kind, const, v))
        np.testing.assert_array_equal(_call(plain, kind, const, v, resident=True).words, want)
        prog.begin_iteration({"v": v})
        got = _call(prog, kind, const, v, resident=True)
        assert prog.end_iteration() == ("captured" if i == 0 else "replayed", None)
        np.testing.assert_array_equal(got.words, want)
    assert plain.ledger == ref.ledger
    assert prog.ledger == ref.ledger


def _check_lanes(mode, kind, const, stacks):
    """The lane-group twin of :func:`_check_solo`: every lane against
    its own reference engine."""
    lanes = stacks[0].shape[0]
    refs = [ReferenceEngine(mode, FMT) for _ in range(lanes)]
    plain = BatchedEngine(mode, FMT, lanes=lanes)
    prog = BatchedProgramEngine(mode, FMT, lanes=lanes)
    plain.select_lanes(np.arange(lanes))
    prog.select_lanes(np.arange(lanes))
    for i, V in enumerate(stacks):
        want = np.stack([FMT.encode(_call(r, kind, const, V[j])) for j, r in enumerate(refs)])
        np.testing.assert_array_equal(_call(plain, kind, const, V, resident=True).words, want)
        prog.begin_iteration({"v": V})
        got = _call(prog, kind, const, V, resident=True)
        assert prog.end_iteration() == ("captured" if i == 0 else "replayed", None)
        np.testing.assert_array_equal(got.words, want)
    for j, ref in enumerate(refs):
        assert plain.ledger.lane_ledger(j) == ref.ledger
        assert prog.ledger.lane_ledger(j) == ref.ledger


def _operands(rng, kind, n, m, lead, magnitude, calls=3):
    """The constant operand and ``calls`` varying ones of shape
    ``lead + (n,)``."""
    shape = (m, n) if kind == "matvec" else (n, m)
    const = rng.uniform(-magnitude, magnitude, shape)
    return const, [rng.uniform(-magnitude, magnitude, lead + (n,)) for _ in range(calls)]


def _check_everywhere(kind, n, m, block, lanes, magnitude, tile, seed):
    """Solo (``block`` leading dims) and lane group (``lanes`` on top),
    every mode, at tile budget ``tile``."""
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "_TILE_WORDS", tile)
        for name in MODES:
            mode = BANK.by_name(name)
            const, varyings = _operands(rng, kind, n, m, block, magnitude)
            _check_solo(mode, kind, const, varyings)
            const, stacks = _operands(rng, kind, n, m, (lanes,) + block, magnitude)
            _check_lanes(mode, kind, const, stacks)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["matvec", "weighted_sum"]))
    n = draw(st.integers(0, 11))
    m = draw(st.integers(1, 6))
    block = () if kind == "matvec" else draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    lanes = draw(st.integers(1, 4))
    magnitude = draw(st.sampled_from([1.0, 40.0, EDGE, 1.2 * EDGE]))
    tile = draw(st.integers(1, 4 * max(n, 1) * 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n, m, block, lanes, magnitude, tile, seed


@given(_cases())
@settings(max_examples=40, deadline=None)
def test_tiled_fold_matches_reference(case):
    _check_everywhere(*case)


@pytest.mark.parametrize(
    "kind, n, m, block, tile",
    [
        ("weighted_sum", 5, 4, (3,), 20),  # (n, G, m): one-row tiles
        ("weighted_sum", 5, 4, (3,), 40),  # two rows, then a remainder row
        ("weighted_sum", 7, 5, (3,), 14),  # the inner axis split, with a remainder
        ("weighted_sum", 9, 2, (2, 3), 9),  # (n, m, G): G > m, one-word tiles
        ("matvec", 11, 3, (), 5),  # a tile smaller than the reduced axis
        ("matvec", 1, 4, (), 1),
        ("matvec", 0, 3, (), 1),
        ("weighted_sum", 0, 2, (3,), 4),
        ("weighted_sum", 1, 2, (3,), 4),
    ],
)
@pytest.mark.parametrize("magnitude", [1.0, 1.2 * EDGE], ids=["small", "edge"])
def test_tile_edges_match_reference(kind, n, m, block, tile, magnitude):
    _check_everywhere(kind, n, m, block, 3, magnitude, tile, seed=n * 31 + tile)


@pytest.mark.parametrize(
    "n, m, lead, tile, tiles",
    [
        (5, 4, (3,), 20, [(5, 1, 4)] * 3),
        (5, 4, (3,), 40, [(5, 2, 4), (5, 1, 4)]),
        (7, 5, (3,), 14, [(7, 1, 2), (7, 1, 2), (7, 1, 1)] * 3),
        (9, 2, (6,), 9, [(9, 1, 1)] * 12),
        (4, 2, (6,), 1 << 16, [(4, 2, 6)]),
    ],
)
def test_tiles_cover_the_block_once(n, m, lead, tile, tiles, monkeypatch):
    """The tile walk visits every kept ``(a, b)`` pair once, in the
    layout that puts the longer kept axis innermost, and its words
    equal one fold of the whole block: on the interpreted route (a
    checked encode per tile) and on replay's proved one, where a bound
    ``W`` encodes each tile in place and its tree folds in closed form.
    Both hand every tile to the fold they were given."""
    monkeypatch.setattr(engine_mod, "_TILE_WORDS", tile)
    engine = ApproxEngine(BANK.by_name("level3"), FMT)
    rng = np.random.default_rng(n + tile)
    c = rng.uniform(-9.0, 9.0, (n, m))
    v = rng.uniform(-9.0, 9.0, lead + (n,))
    whole = _fold(engine, FMT.encode(np.moveaxis(v, -1, 0)[..., None] * c[:, None, :]))
    bound = _product_bound(engine, float(np.abs(c).max()), v)
    assert bound <= engine._signed_hi  # the tiles take the in-place encode
    for fold, proved in ((_fold, None), (_replay_reduce, bound)):
        seen = []

        def spy(eng, q, bounds, owned, fold=fold):
            seen.append(q.shape)
            return fold(eng, q, bounds, owned)

        words = _product_fold(engine, c, v, spy, proved)
        assert seen == tiles
        np.testing.assert_array_equal(words, whole)


def test_scratch_tile_grows_and_keeps_the_words(monkeypatch):
    """A replay step's scratch tile is reused across calls and grown,
    never shrunk, when a larger block arrives; the words equal those
    of a fresh buffer."""
    monkeypatch.setattr(engine_mod, "_TILE_WORDS", 70)
    engine = ApproxEngine(BANK.by_name("level3"), FMT)
    rng = np.random.default_rng(5)
    c = rng.uniform(-9.0, 9.0, (7, 5))
    bufs, sizes = {}, []
    for lanes in (1, 6, 2, 4, 6):
        v = rng.uniform(-9.0, 9.0, (lanes, 7))
        np.testing.assert_array_equal(_product_fold(engine, c, v, bufs=bufs), _product_fold(engine, c, v))
        sizes.append(bufs["tile"].size)
    # Tiles of 35, 42, 70, 70 and 42 products.
    assert sizes == [35, 42, 70, 70, 70]


@pytest.mark.parametrize("name", MODES)
def test_replay_across_lane_selections_matches_reference(name, monkeypatch):
    """One compiled matvec replays as the selected lanes shrink and grow
    again, its scratch tile shared by every window: each lane's words
    and ledger equal its own reference engine's."""
    monkeypatch.setattr(engine_mod, "_TILE_WORDS", 14)
    mode = BANK.by_name(name)
    rng = np.random.default_rng(9)
    c = rng.uniform(-9.0, 9.0, (5, 7))
    prog = BatchedProgramEngine(mode, FMT, lanes=6)
    refs = [ReferenceEngine(mode, FMT) for _ in range(6)]
    for i, ids in enumerate([range(6), range(6), [1, 3, 4], [2], range(6), [5, 0]]):
        ids = np.array(ids)
        prog.select_lanes(ids)
        V = rng.uniform(-9.0, 9.0, (ids.size, 7))
        prog.begin_iteration({"v": V})
        got = prog.matvec(c, V, resident=True)
        assert prog.end_iteration() == ("captured" if i == 0 else "replayed", None)
        want = np.stack([FMT.encode(refs[j].matvec(c, V[k])) for k, j in enumerate(ids)])
        np.testing.assert_array_equal(got.words, want)
    for j, ref in enumerate(refs):
        assert prog.ledger.lane_ledger(j) == ref.ledger
