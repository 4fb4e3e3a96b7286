"""Iteration-program capture & replay for the online loop.

An iterative method walks the *same* :class:`~repro.arith.ApproxEngine`
op sequence every iteration at a fixed mode: the op kinds, operand
shapes, reduction geometries and per-op ledger charges are all
structure, not data.  Re-deriving that structure through Python dispatch
every iteration — ``_coerce`` type switches, constant-operand encodes,
finiteness and saturation prechecks, one ledger call per elementary op
— is where the solo end-to-end path loses its time (see
``docs/performance.md``).

This module captures that structure once and replays it, CUDA-graph
style:

* :class:`ProgramRecorder` — during ONE fully interpreted iteration,
  records every top-level engine call (kind, operand identities —
  constants or iteration-varying slots — shapes, and the exact per-op
  ``(mode, n_adds, energy_per_add)`` charges) into an
  :class:`IterationProgram`;
* :class:`ProgramExecutor` — replays subsequent iterations by driving
  the vectorized kernels directly: constants resolve by identity to the
  words, bounds and ``abs_max`` computed once at compile time, broadcast
  decisions are precomputed, saturation prechecks reuse cached bounds,
  and the whole iteration's charges flush through a single ordered
  :meth:`~repro.arith.engine.EnergyLedger.charge_many` call;
* :class:`ProgramEngine` / :class:`BatchedProgramEngine` — solo and
  lane-group engines hosting the record/replay state machine they share
  (:class:`_ProgramCapture`) behind the same public kernel API, so
  solvers need no changes.

One step class per op serves both engines.  Each step is compiled with
the lane count its recording ran on — ``None`` for a solo engine — and
that value alone decides how a stacked operand's shape is checked and
which resident types it takes.  A dense product folds its varying
operand's leading slots — lanes, weight rows or both — as one block.
Every step decides saturation on the spot, as the interpreted op does:
each add re-runs its range precheck and clamps where the true sum
leaves the word, and each fused route carries its own in-range proof
for the call at hand.

Contract (the repo's established one): a replayed iteration produces
**bit-identical** words/iterates and an energy ledger **equal as
floats** to the interpreted execution — every compiled step either
reproduces the interpreted arithmetic exactly or raises a bailout that
re-runs the call interpreted.  ``tests/core/test_program_parity.py``
asserts this across every solver × strategy.

Bailouts (structure divergence drops the program; the iteration
finishes interpreted and the engine's next one re-records):

* operand shape or kind change (``"shape"`` / ``"operand"``);
* an op sequence that no longer matches the program (``"structure"`` /
  ``"shorter-iteration"``);
* a recording the compiler cannot express (``"compile"``): reported
  once, after which capture stays off for the engine's lifetime.

Nothing else drops a program.  A function-scheme rollback keeps every
engine's: the retried iteration replays its mode's program, whose
steps decide saturation themselves and whose structural checks guard
every step; a mode switch selects that mode's own engine and keeps its
program.

The interpreted path stays byte-for-byte untouched as the regression
oracle: a ``ProgramEngine`` with capture off *is* the plain engine, and
both are checked against the spec engine,
:class:`repro.arith.reference.ReferenceEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    LaneStack,
    ResidentVector,
    SparseResidentMatrix,
    _csr_product_words,
    _fold,
    _product_fold,
    _product_operands,
    _reduce_csr_rows,
    _saturating_add,
)

_IDLE = "idle"
_RECORD = "record"
_REPLAY = "replay"
_BAILED = "bailed"


class ProgramBailout(Exception):
    """A compiled step met input the program was not recorded for.

    Raised inside replay and caught by :class:`ProgramEngine`, which
    drops the program and re-runs the call (and the rest of the
    iteration) interpreted.  ``reason`` is a short tag surfaced in the
    ``program_bailout`` trace event.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------------------
# Operand resolvers (compiled at capture close)
# ----------------------------------------------------------------------
#
# Every resolver and step takes the lane count its recording ran on,
# ``None`` for a solo engine (see ``Batched capture & replay`` below).
def _is_slot(operand, arr, slots) -> bool:
    """Whether the operand is a declared iteration-varying slot."""
    for obj in slots.values():
        if operand is obj or arr is obj:
            return True
    return False


def _negated_encode(fmt):
    """``sub``'s subtrahend encode: the word is negated after encoding,
    as the interpreted engines negate every subtrahend form."""

    def encode(arr):
        return fmt.handle_overflow(-fmt.encode(arr))

    return encode


def _residents(lanes):
    """The resident operand types of a solo engine (``lanes is None``)
    or of a lane group's, which adds :class:`LaneStack`."""
    return ResidentVector if lanes is None else (ResidentVector, LaneStack)


def _shape_rule(shape, stacked):
    """``(cut, tail, ndim)``: replay accepts a shape ``s`` when
    ``len(s) == ndim and s[cut:] == tail`` — every dim, or only the
    trailing ones of a lane-stacked operand."""
    cut = 1 if stacked else 0
    return cut, shape[cut:], len(shape)


def _resident_check(engine, operand):
    """Compile a check ``op -> op`` for a resident operand: the kind
    seen at capture, the engine's format and a matching shape, else
    bail (``"operand"``)."""
    kind = type(operand)
    cut, tail, ndim = _shape_rule(operand.words.shape, kind is LaneStack)
    fmt = engine.fmt

    def check(op):
        if (
            not isinstance(op, kind)
            or op.fmt != fmt
            or op.words.ndim != ndim
            or op.words.shape[cut:] != tail
        ):
            raise ProgramBailout("operand")
        return op

    return check


def _fresh_floats(arr, lanes):
    """Compile a resolver ``op -> float array`` for an operand that is
    not a resident: a resident bails (``"operand"``), and so does a
    shape the capture did not see (``"shape"``)."""
    residents = _residents(lanes)
    stacked = lanes is not None and arr.ndim >= 1 and arr.shape[0] == lanes
    cut, tail, ndim = _shape_rule(arr.shape, stacked)

    def resolve(op):
        if isinstance(op, residents):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        if a.ndim != ndim or a.shape[cut:] != tail:
            raise ProgramBailout("shape")
        return a

    return resolve


def _word_operand(engine, operand, slots, lanes, negate=False):
    """Compile a resolver: operand -> ``(words, bounds)``.

    Mirrors what ``_coerce`` (plus ``sub``'s negation) produces for the
    operand kind seen at capture:

    * a resident — resolved by value every iteration (kind, format and
      shape checked; its cached word bounds ride along);
    * a declared slot — always re-encoded (finiteness-checked, exactly
      like the interpreted encode);
    * anything else — *maybe-constant*: the capture-time encoding is
      cached and returned on an ``is``-identity hit, any other
      same-shaped array re-encodes fresh.  Identity keying treats
      arrays fed to the engine as immutable — mutate-in-place operands
      must be declared via ``IterativeMethod.replay_operands``.

    ``negate`` applies to float operands only: a resident subtrahend
    compiles to :class:`_SubStep`, which resolves its positive words.
    """
    if isinstance(operand, _residents(lanes)):
        check = _resident_check(engine, operand)

        def resolve(op):
            op = check(op)
            return op.words, op.bounds()

        return resolve

    encode = _negated_encode(engine.fmt) if negate else engine.fmt.encode
    arr = np.asarray(operand, dtype=np.float64)
    fresh = _fresh_floats(arr, lanes)
    if _is_slot(operand, arr, slots):
        return lambda op: (encode(fresh(op)), None)

    obj = operand if isinstance(operand, np.ndarray) else arr
    words = encode(arr)
    bounds = (int(words.min()), int(words.max())) if words.size else None

    def resolve(op):
        if op is obj:
            return words, bounds
        return encode(fresh(op)), None

    return resolve


def _float_operand(engine, operand, slots, lanes):
    """Compile a resolver: operand -> float array (``_to_float``)."""
    if isinstance(operand, _residents(lanes)):
        check = _resident_check(engine, operand)
        return lambda op: check(op).decode()
    arr = np.asarray(operand, dtype=np.float64)
    fresh = _fresh_floats(arr, lanes)
    if _is_slot(operand, arr, slots):
        return fresh
    obj = operand if isinstance(operand, np.ndarray) else arr
    return lambda op: arr if op is obj else fresh(op)


def _matrix_operand(engine, operand, slots):
    """Compile a resolver: operand -> ``(array, transpose, abs_max)``.

    ``abs_max`` is the compile-time absolute bound of a finite constant,
    returned on an identity hit together with the array and a
    contiguous copy of its transpose, both made once; it enables the
    trusted (scan-skipping) product encode and the fused
    product-reduce.  ``None`` means the replay runs the full checked
    encode, exactly as the interpreted call does — for slots, non-finite
    constants and any other array.
    """
    arr = np.asarray(operand, dtype=np.float64)
    shape = arr.shape
    finite = not _is_slot(operand, arr, slots) and bool(np.all(np.isfinite(arr)))
    obj = operand if isinstance(operand, np.ndarray) else arr
    abs_max = float(np.abs(arr).max()) if finite and arr.size else 0.0
    flipped = np.ascontiguousarray(arr.T) if finite else None

    def resolve(op):
        if finite and op is obj:
            return arr, flipped, abs_max
        a = np.asarray(op, dtype=np.float64)
        if a.shape != shape:
            raise ProgramBailout("shape")
        return a, a.T, None

    return resolve


# ----------------------------------------------------------------------
# Replay arithmetic (interpreted-identical, charge-free)
# ----------------------------------------------------------------------
def _replay_add_words(engine, qa, qb, bounds_a, bounds_b):
    """One elementwise add, bit-identical to ``_add_words`` sans charge.

    With an exact adder and an in-range proof on the resolved bounds
    the masked add collapses to ``np.add`` (the wrapped sum *is* the
    true sum), skipping three masking passes.  Anything else runs the
    interpreted adder call and output stage
    (:func:`~repro.arith.engine._saturating_add`), which decides
    saturation on the spot: an add that leaves the range its recording
    saw clamps exactly as the interpreted op does.
    """
    if qa.shape != qb.shape:
        qa, qb = np.broadcast_arrays(qa, qb)
    if engine.mode.adder.is_exact and engine.fmt.overflow == "saturate" and qa.size:
        if bounds_a is None:
            bounds_a = (int(qa.min()), int(qa.max()))
        if bounds_b is None:
            bounds_b = (int(qb.min()), int(qb.max()))
        if (
            bounds_a[0] + bounds_b[0] >= engine._signed_lo
            and bounds_a[1] + bounds_b[1] <= engine._signed_hi
        ):
            return engine.backend.add_words_inrange(qa, qb)
    return _saturating_add(engine, qa, qb, bounds_a, bounds_b)[0]


def _replay_reduce(engine, q, bounds=None, owned=False):
    """Tree-reduce axis 0, bit-identical to ``_reduce_words`` sans
    charges.

    Exact adder: with a saturating format and one O(1) proof that
    *every* partial sum stays in the word — each intermediate is a sum
    of at most ``n`` of the inputs, so ``n * min(min_word, 0) >= lo``
    and ``n * max(max_word, 0) <= hi`` bound them all — the whole tree
    fuses into a single ``np.add.reduce``: in-range exact integer
    addition is associative, so any summation order yields
    bit-identical words.  Anything else walks the interpreted fold
    (:func:`~repro.arith.engine._fold`): same adder calls, same
    per-level bounds carry, same clamps.  An approximate adder walks it
    from the caller's ``bounds`` on the words with its in-range kernels
    allowed: a tree its error bound proves whole folds in closed form,
    and a level proved on its own adds without the adder call, both in
    place when the caller ``owned`` the words.
    """
    if not engine.mode.adder.is_exact:
        return _fold(engine, q, bounds, owned, inrange=True)
    n = q.shape[0]
    if n > 1 and q.size and engine.fmt.overflow == "saturate":
        lo, hi = bounds = (int(q.min()), int(q.max()))
        if n * min(lo, 0) >= engine._signed_lo and n * max(hi, 0) <= engine._signed_hi:
            return engine.backend.reduce_inrange(q)
    return _fold(engine, q, bounds, owned)


# ----------------------------------------------------------------------
# Compiled steps
# ----------------------------------------------------------------------
class _Step:
    """One compiled op: the ``kind`` and ``params`` replay matches each
    call against, the recorded charges it defers, and whether it emits
    residents."""

    __slots__ = ("kind", "params", "charges", "resident")

    def __init__(self, kind, op):
        self.kind = kind
        self.params = op.params
        self.charges = tuple(op.charges)
        self.resident = op.params.get("resident", False)


class _AddStep(_Step):
    """``add``, or ``sub`` of a float subtrahend (negation folded into
    the b-resolver)."""

    __slots__ = ("res_a", "res_b")

    def __init__(self, kind, op, res_a, res_b):
        super().__init__(kind, op)
        self.res_a = res_a
        self.res_b = res_b

    def replay(self, engine, args):
        a, b = args
        qa, bounds_a = self.res_a(a)
        qb, bounds_b = self.res_b(b)
        out = _replay_add_words(engine, qa, qb, bounds_a, bounds_b)
        return engine._emit(out, self.resident)


class _SubStep(_AddStep):
    """``sub`` of a resident subtrahend (a :class:`ResidentVector`, or a
    lane group's :class:`LaneStack`): the negate pass is deferred until
    needed.

    The generic ``sub`` compile folds negation into the b-resolver —
    one ``handle_overflow(-words)`` pass (clip plus allocation) per
    call.  When the subtrahend's cached word bounds prove the negation
    clamp-free *and* the difference in range, the whole negate+add
    collapses to one :meth:`KernelBackend.sub_words_inrange`; otherwise
    the negation runs here, bit-identical to the folded resolver.
    """

    __slots__ = ()

    def __init__(self, op, res_a, res_b):
        super().__init__("sub", op, res_a, res_b)

    def replay(self, engine, args):
        a, b = args
        qa, bounds_a = self.res_a(a)
        qb, bounds_b = self.res_b(b)
        lo, hi = engine._signed_lo, engine._signed_hi
        if (
            bounds_b is not None
            and bounds_b[0] > lo
            and engine.mode.adder.is_exact
            and engine.fmt.overflow == "saturate"
            and qa.size
        ):
            # The interval proof holds elementwise, so a shared minuend
            # broadcast against a lane stack takes this route too.
            if bounds_a is None:
                bounds_a = (int(qa.min()), int(qa.max()))
            if bounds_a[0] - bounds_b[1] >= lo and bounds_a[1] - bounds_b[0] <= hi:
                out = engine.backend.sub_words_inrange(qa, qb)
                return engine._emit(out, self.resident)
        # Negate exactly like the folded resolver would have.
        nwords = engine.fmt.handle_overflow(-qb)
        if bounds_b is not None and bounds_b[0] > lo:
            nbounds = (-bounds_b[1], -bounds_b[0])
        else:
            nbounds = None
        out = _replay_add_words(engine, qa, nwords, bounds_a, nbounds)
        return engine._emit(out, self.resident)


class _ScaleAddStep(_Step):
    """``scale_add``: x + alpha*d with alpha live per call; a lane group
    may pass one alpha per lane."""

    __slots__ = ("res_x", "res_d", "lane_group", "bufs")

    def __init__(self, engine, op, slots, lanes):
        x, _alpha, d = op.args
        super().__init__("scale_add", op)
        self.res_x = _word_operand(engine, x, slots, lanes)
        self.res_d = _float_operand(engine, d, slots, lanes)
        self.lane_group = lanes is not None
        self.bufs: dict = {}

    def replay(self, engine, args):
        x, alpha, d = args
        qa, bounds_a = self.res_x(x)
        fd = self.res_d(d)
        per_lane = self.lane_group and np.ndim(alpha) == 1
        if per_lane:
            # One alpha per lane row, as BatchedEngine.scale_add scales.
            alpha = np.asarray(alpha, dtype=np.float64)
            alpha = alpha.reshape((-1,) + (1,) * (fd.ndim - 1))
        # Fused path: with alpha live the bound is one O(n) scan per
        # call — |rint(fl(alpha*fd_i)*scale)| <= W := rint(fl(|alpha| *
        # max|fd|)*scale) (fl and rint are monotone, the power-of-two
        # scale multiply is exact; max|alpha| bounds per-lane alphas), so
        # W <= hi proves the encode clip (and finiteness scan — a
        # non-finite operand lands peak at NaN/inf and falls through to
        # the checked encode, which raises exactly like the interpreted
        # call) a no-op, and the word-bounds check proves the add in
        # range.  Python-int arithmetic throughout: a float compare
        # could round past the boundary.
        if (
            (per_lane or np.ndim(alpha) == 0)
            and fd.size
            and qa.size
            and engine.mode.adder.is_exact
            and engine.fmt.overflow == "saturate"
            and fd.shape == qa.shape
        ):
            if bounds_a is None:
                # The add-range check below needs these words scanned
                # anyway; computing them here just moves the scan ahead
                # of (and shares it with) the fusion proof.
                bounds_a = (int(qa.min()), int(qa.max()))
            alpha_max = float(np.abs(alpha).max()) if per_lane else abs(float(alpha))
            peak = alpha_max * float(np.abs(fd).max()) * engine.fmt.scale
            if np.isfinite(peak):
                w = int(np.rint(peak))
                lo, hi = engine._signed_lo, engine._signed_hi
                if (
                    w <= hi
                    and -w >= lo
                    and bounds_a[1] + w <= hi
                    and bounds_a[0] - w >= lo
                ):
                    qb = engine.backend.scale_encode_inrange(
                        fd, alpha, engine.fmt.scale, self.bufs
                    )
                    out = engine.backend.add_words_inrange(qa, qb)
                    return engine._emit(out, self.resident)
        qb = engine.fmt.encode(alpha * fd)
        out = _replay_add_words(engine, qa, qb, bounds_a, None)
        return engine._emit(out, self.resident)


class _SumStep(_Step):
    """``sum``; a lane group's lane axis is implicit and always survives,
    and an empty axis reduces to the zero word.

    The reduce slab's leading dim is the reduced-axis length, fixed by
    the program, while a lane group's surviving lane dim floats with
    the active group; the tree walk depends on the leading dim alone.
    """

    __slots__ = ("res_x", "owned", "lead", "scalar", "axis")

    def __init__(self, engine, op, slots, lanes):
        (x,) = op.args
        super().__init__("sum", op)
        # A fresh encode is the fold's own to overwrite; a resident's
        # words are not.
        self.owned = not isinstance(x, _residents(lanes))
        if not self.owned:
            check = _resident_check(engine, x)
            self.res_x = lambda op: check(op).words
        else:
            # Re-encoded on every call, never resolved by identity: a
            # sum's float operand is an intermediate of the iteration.
            fresh = _fresh_floats(np.asarray(x, dtype=np.float64), lanes)
            encode = engine.fmt.encode
            self.res_x = lambda op: encode(fresh(op))
        self.lead = 0 if lanes is None else 1
        axis = op.params["axis"]
        self.scalar = axis is None
        if self.scalar:
            self.axis = self.lead
        else:
            # Lane-group axes index each lane's shape.
            self.axis = axis + self.lead if axis >= 0 else axis

    def replay(self, engine, args):
        (x,) = args
        q = self.res_x(x)
        axis = self.axis
        if self.scalar:
            q = q.reshape(q.shape[: self.lead] + (-1,))
        if q.shape[axis] == 0:
            zeros = np.zeros(tuple(np.delete(q.shape, axis)))
            if self.scalar:
                return zeros if self.lead else float(zeros)
            return engine._emit(engine.fmt.encode(zeros), self.resident)
        reduced = _replay_reduce(engine, np.moveaxis(q, axis, 0), owned=self.owned)
        if self.scalar:
            out = engine.fmt.decode(reduced)
            return out if self.lead else float(out)
        return engine._emit(reduced, self.resident)


class _DotStep(_Step):
    """``dot``: exact products, approximate accumulation, scalar out.

    Solo only in practice: a lane group's ``dot`` is not hooked and
    funnels into its hooked ``sum``.
    """

    __slots__ = ("res_a", "res_b")

    def __init__(self, engine, op, slots, lanes):
        a, b = op.args
        super().__init__("dot", op)
        self.res_a = _float_operand(engine, a, slots, lanes)
        self.res_b = _float_operand(engine, b, slots, lanes)

    def replay(self, engine, args):
        a, b = args
        fa = self.res_a(a).reshape(-1)
        fb = self.res_b(b).reshape(-1)
        q = engine.fmt.encode(fa * fb)
        if not q.size:
            return 0.0
        return float(engine.fmt.decode(_replay_reduce(engine, q, owned=True)))


def _product_bound(engine, abs_max, varying) -> int | None:
    """``W``, bounding the magnitude of every encoded word of a const ×
    varying product block, or ``None`` when no finite bound exists.

    With a compile-proven-finite constant, one O(n) scan of the varying
    operand bounds the O(rows × cols) products: ``P = fl(abs_max *
    max|varying|)`` bounds every float product (``fl`` is monotone),
    the power-of-two ``scale`` multiply is exact and ``rint`` is
    monotone, so ``W = rint(P * scale)`` bounds every word.  A finite
    ``W`` proves the products finite (a non-finite ``varying`` makes
    ``P`` NaN or infinite), so the encode may skip its finiteness scan;
    an interpreted call is a checked encode, so the bound only
    *upgrades* provably-finite calls.  (A CSR operand's products encode
    through :func:`~repro.arith.engine._csr_product_words`, which bounds
    them alike.)
    """
    if abs_max is None or not varying.size:
        return None
    peak = abs_max * float(np.abs(varying).max()) * engine.fmt.scale
    return int(np.rint(peak)) if np.isfinite(peak) else None


def _fused_product_ok(engine, abs_max, varying, n) -> bool:
    """Whether a product-encode-reduce may run fully fused (clip-free
    single-pass) through :meth:`KernelBackend.product_reduce_words`.

    Exact adder and saturating format only.  The proof is one
    O(len(varying)) scan, :func:`_product_bound`'s ``W``.  ``W <= hi``
    proves the encode clip a no-op; ``n * W <= hi`` (exact Python-int
    arithmetic — a float product could round below the true value)
    bounds every partial sum of the ``n``-term reduction, making the
    exact integer fold associative and hence bit-identical to the
    reference clip + tree.  ``n * W < 2**53`` additionally keeps every
    partial sum (under any association) in float64's integer-exact
    range, licensing the kernel to fold the integer-valued *float*
    buffer directly — automatic for word widths up to 53 bits, checked
    so wider formats fall back rather than round.  The proof covers
    the call it is made for, whatever the recording saw.  Any failure
    — including a non-finite ``varying``, where the unfused path
    reproduces the interpreted raise/checked-encode behavior exactly —
    falls back to the unfused replay.
    """
    if not engine.mode.adder.is_exact or engine.fmt.overflow != "saturate":
        return False
    w = _product_bound(engine, abs_max, varying)
    hi = engine._signed_hi
    return w is not None and w <= hi and n * w <= hi and n * w < (1 << 53)


class _ProductFoldStep(_Step):
    """Dense ``matvec`` and ``weighted_sum``: exact products of a
    constant operand with the varying ``(..., n)`` one — a vector, a
    lane group's ``(L, N)`` stack, a ``(k, n)`` weight block or a lane
    group's ``(L, k, n)`` one — and approximate accumulation over ``n``.

    The constant resolves with a contiguous transposed copy made at
    compile time, so both layouts are at hand: ``(n, m)``, reduced axis
    first, for the tiled fold and ``(m, n)`` for the fused route.  Under
    :func:`_fused_product_ok`, proved over the whole block, product,
    encode and fold fuse into one
    :meth:`~repro.backends.base.KernelBackend.product_reduce_words`.
    Few long sums (``n >= G·m``: a GMM block, a solo matvec) reduce
    ``(G, m, n)`` products along their contiguous last axis; many short
    ones (a wide lane stack) reduce axis 0 in the tiles' layout, adding
    whole ``G·m`` rows.  Otherwise the block folds tile by tile through
    the interpreted engines' own
    :func:`~repro.arith.engine._product_fold` over
    :func:`_replay_reduce`, given :func:`_product_bound`'s ``W``: a
    tile then encodes in place when ``W`` fits the word, and an
    approximate adder's tree folds in closed form when ``n·W + (n-1)·E``
    does too, ``E`` its error bound.
    """

    __slots__ = ("res_c", "res_v", "matvec", "flat", "bufs")

    def __init__(self, engine, op, slots, lanes):
        self.matvec = op.kind == "matvec"
        const, varying = op.args if self.matvec else op.args[::-1]
        super().__init__(op.kind, op)
        self.res_c = _matrix_operand(engine, const, slots)
        self.res_v = _float_operand(engine, varying, slots, lanes)
        # A solo matvec flattens its vector, as ApproxEngine.matvec does.
        self.flat = self.matvec and lanes is None
        self.bufs: dict = {}

    def replay(self, engine, args):
        const, varying = args if self.matvec else args[::-1]
        arr, flipped, abs_max = self.res_c(const)
        # (n, m) with the reduced axis first, and its (m, n) transpose.
        c, c_t = (flipped, arr) if self.matvec else (arr, flipped)
        v = self.res_v(varying)
        if self.flat:
            v = v.reshape(-1)
        n = c.shape[0]
        if _fused_product_ok(engine, abs_max, v, n):
            fused, scale = engine.backend.product_reduce_words, engine.fmt.scale
            if n >= v.size // n * c.shape[1]:
                words = fused(v.reshape(-1, n)[:, None, :], c_t[None, :, :], scale, -1, self.bufs)
            else:
                outer, inner, swapped = _product_operands(c, v)
                words = fused(outer[:, :, None], inner[:, None, :], scale, 0, self.bufs)
                words = words.T if swapped else words
            words = words.reshape(v.shape[:-1] + c.shape[1:])
        else:
            bound = _product_bound(engine, abs_max, v)
            words = _product_fold(engine, c, v, _replay_reduce, bound, self.bufs)
        return engine._emit(words, self.resident)


class _SparseMatvecStep(_Step):
    """Sparse ``matvec`` / ``weighted_sum``: exact products over the
    stored entries only, approximate per-row segment accumulation, of
    one vector or a lane group's ``(L, N)`` stack.

    The sparse operand resolves by identity alone: the segment plan is
    a function of the CSR ``indptr``, so — unlike the dense
    ``_matrix_operand`` — substituting a different same-shape matrix
    would silently change the reduction structure, and instead bails
    out (``"operand"``) to re-record.  ``weighted_sum`` compiles to the
    same step over the operand's cached transpose (the interpreted
    kernel reduces through exactly that object, so geometry and charge
    order match by construction).

    The fused route specializes the dense in-range proof to the per-row
    nnz bound: with ``W`` bounding every encoded product word,
    ``nnz_max * W <= hi`` and ``nnz_max * W < 2**53`` bound every
    partial sum of every row's segment, licensing the fused
    single-pass :meth:`~repro.backends.base.KernelBackend.csr_matvec_words`
    over the matrix's own kernel scratch, which every program compiled
    over that matrix shares.  Otherwise the products fold through the
    interpreted engines' own level-ordered, chunked
    :func:`~repro.arith.engine._reduce_csr_rows`, whose schedule does
    not depend on the lane count, and the step keeps its recorded
    charges.
    """

    __slots__ = ("obj", "sp", "res_vec", "lead")

    def __init__(self, engine, op, slots, lanes, kind, operand, vec_arg, sp):
        super().__init__(kind, op)
        self.obj = operand
        self.sp = sp
        self.res_vec = _float_operand(engine, vec_arg, slots, lanes)
        self.lead = 0 if lanes is None else 1

    def replay(self, engine, args):
        if self.kind == "matvec":
            operand, vec_arg = args
        else:
            vec_arg, operand = args
        if operand is not self.obj:
            raise ProgramBailout("operand")
        sp = self.sp
        vec = self.res_vec(vec_arg)
        if not self.lead:
            vec = vec.reshape(-1)
        if sp.nnz_max and _fused_product_ok(engine, sp.abs_max, vec, sp.nnz_max):
            out = engine.backend.csr_matvec_words(
                sp.data, sp.indices, sp.indptr, vec, engine.fmt.scale, sp._kernel_bufs
            )
            return engine._emit(out, self.resident)
        out = _reduce_csr_rows(
            engine, sp.row_plan(), *_csr_product_words(engine, sp, vec), inrange=True
        )
        return engine._emit(out, self.resident)


class _RecordedOp:
    """One top-level engine call as seen while recording."""

    __slots__ = ("kind", "args", "params", "charges")

    def __init__(self, kind, args, params):
        self.kind = kind
        self.args = args
        self.params = params
        self.charges: list[tuple[str, int, float]] = []


def _compile_add(engine, op, slots, lanes):
    a, b = op.args
    return _AddStep(
        "add",
        op,
        _word_operand(engine, a, slots, lanes),
        _word_operand(engine, b, slots, lanes),
    )


def _compile_sub(engine, op, slots, lanes):
    a, b = op.args
    res_a = _word_operand(engine, a, slots, lanes)
    if isinstance(b, _residents(lanes)):
        # Resident subtrahend: resolve positive words so the in-range
        # proof can skip the negate pass entirely (see _SubStep).
        return _SubStep(op, res_a, _word_operand(engine, b, slots, lanes))
    return _AddStep("sub", op, res_a, _word_operand(engine, b, slots, lanes, negate=True))


def _compile_matvec(engine, op, slots, lanes):
    matrix, vector = op.args
    if isinstance(matrix, SparseResidentMatrix):
        return _SparseMatvecStep(engine, op, slots, lanes, "matvec", matrix, vector, matrix)
    return _ProductFoldStep(engine, op, slots, lanes)


def _compile_weighted_sum(engine, op, slots, lanes):
    weights, points = op.args
    if isinstance(points, SparseResidentMatrix):
        return _SparseMatvecStep(
            engine, op, slots, lanes, "weighted_sum", points, weights, points.transpose()
        )
    return _ProductFoldStep(engine, op, slots, lanes)


#: One compiler per op kind, ``(engine, op, slots, lanes) -> step``,
#: for both program engines.
_COMPILERS = {
    "add": _compile_add,
    "sub": _compile_sub,
    "scale_add": _ScaleAddStep,
    "sum": _SumStep,
    "dot": _DotStep,
    "matvec": _compile_matvec,
    "weighted_sum": _compile_weighted_sum,
}


class IterationProgram:
    """The compiled op sequence of one iteration at one mode."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(steps)

    def __len__(self) -> int:
        return len(self.steps)


class ProgramRecorder:
    """Collects one interpreted iteration's op trace for compilation."""

    def __init__(self):
        self.ops: list[_RecordedOp] = []
        self._open: _RecordedOp | None = None

    def open_op(self, kind, args, params) -> None:
        self._open = _RecordedOp(kind, args, params)

    def close_op(self) -> None:
        op = self._open
        self._open = None
        if op is not None:
            self.ops.append(op)

    def on_charge(self, mode_name, n_adds, energy_per_add) -> None:
        if self._open is not None:
            self._open.charges.append((mode_name, n_adds, energy_per_add))

    def finalize(self, engine, slots, lanes) -> IterationProgram:
        """Compile the recorded ops against the end-of-iteration slots,
        for the lane count the recording ran on (``None`` solo)."""
        return IterationProgram(
            _COMPILERS[op.kind](engine, op, slots, lanes) for op in self.ops
        )


class ProgramExecutor:
    """Replay cursor + the iteration's deferred charge list.

    Charges append in execution order — compiled steps extend with
    their precomputed tuples, interpreted passthroughs (un-hooked
    kernels such as ``mul``, and everything after a bailout) append via
    the ``_charge`` hook — and flush through one
    :meth:`~repro.arith.engine.EnergyLedger.charge_many` call at
    ``end_iteration``, preserving the interpreted accumulation order
    exactly.
    """

    __slots__ = ("program", "cursor", "pending", "bailed_reason")

    def __init__(self, program: IterationProgram):
        self.program = program
        self.cursor = 0
        self.pending: list[tuple[str, int, float]] = []
        self.bailed_reason: str | None = None

    def next_step(self, kind, params):
        """The next compiled step, or ``None`` on structure mismatch."""
        if self.cursor >= len(self.program.steps):
            return None
        step = self.program.steps[self.cursor]
        if step.kind != kind or step.params != params:
            return None
        self.cursor += 1
        return step


class _ProgramCapture:
    """The record/replay state machine both program engines share.

    Placed before the engine class in the bases, so ``super()`` reaches
    the plain engine.  Each subclass supplies ``_impls`` (the interpreted
    kernels the dispatcher records through and bails out to),
    :meth:`_compile` (recording -> program) and :meth:`_flush` (a
    replay's deferred charges -> ledger), wraps :meth:`_open_window` /
    :meth:`_close_window` in its own ``begin_iteration`` /
    ``end_iteration``, and routes its charge hook through
    :meth:`_deferred`.  The hooked kernels stay on the subclasses: no
    engine op may be defined here.
    """

    _impls: dict

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pstate = _IDLE
        self._depth = 0
        self._slots: dict[str, object] = {}
        self._recorder: ProgramRecorder | None = None
        self._executor: ProgramExecutor | None = None
        self.program: IterationProgram | None = None
        self.program_captures = 0
        self.program_replays = 0
        self.program_bailouts = 0
        self._program_unsupported = False

    # ------------------------------------------------------------------
    # Lifecycle (called by the framework's online loop)
    # ------------------------------------------------------------------
    def _open_window(self, slots: dict[str, object]) -> str:
        """Open an iteration window.

        Returns ``"replay"`` when a cached program will drive it,
        ``"record"`` when this iteration runs interpreted under the
        recorder, ``"off"`` when an earlier compile failed and capture
        stays off for good.
        """
        if self._program_unsupported:
            self._pstate = _IDLE
            return "off"
        self._slots = dict(slots)
        if self.program is not None:
            self._executor = ProgramExecutor(self.program)
            self._pstate = _REPLAY
            return "replay"
        self._recorder = ProgramRecorder()
        self._pstate = _RECORD
        return "record"

    def bind_slot(self, name: str, value) -> None:
        """Declare an iteration-varying operand discovered mid-iteration
        (the framework binds the direction ``d`` / ``D`` once computed)."""
        if self._pstate is not _IDLE:
            self._slots[name] = value

    def _close_window(self) -> tuple[str, str | None]:
        """Close the iteration window.

        Returns ``(execution, bailout_reason)``: execution is
        ``"captured"`` / ``"replayed"`` / ``"interpreted"``; the reason
        is non-``None`` exactly when a replay bailed (the program was
        dropped and the next iteration re-records) or, as
        ``"compile"``, when a recording failed to compile (capture then
        stays off).  Flushes a replay's deferred charges through one
        ordered :meth:`_flush`.
        """
        state = self._pstate
        execution = "interpreted"
        reason = None
        if state is _RECORD:
            recorder = self._recorder
            self._recorder = None
            if recorder is not None:
                try:
                    self.program = self._compile(recorder)
                except Exception:
                    # Structure the compiler cannot express: stay on the
                    # interpreted path for good rather than re-fail
                    # every iteration, and report it once.
                    self.program = None
                    self._program_unsupported = True
                    reason = "compile"
                else:
                    self.program_captures += 1
                    execution = "captured"
        elif state is _REPLAY or state is _BAILED:
            executor = self._executor
            self._executor = None
            if (
                state is _REPLAY
                and self.program is not None
                and executor.cursor != len(self.program.steps)
            ):
                # The iteration issued fewer ops than the program holds:
                # every replayed step was individually validated, so the
                # results stand, but the structure diverged.
                executor.bailed_reason = "shorter-iteration"
            if executor.bailed_reason is None:
                execution = "replayed"
                self.program_replays += 1
            else:
                reason = executor.bailed_reason
                self.program_bailouts += 1
                self.program = None
            if executor.pending:
                self._flush(executor.pending)
        self._pstate = _IDLE
        self._slots = {}
        return execution, reason

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _deferred(self, mode_name, n_adds, energy_per_add) -> bool:
        """Route one kernel charge through the window: log it while
        recording (the caller still charges it), or defer it to the
        replay's end-of-iteration flush and return ``True``."""
        state = self._pstate
        if state is _RECORD:
            recorder = self._recorder
            if recorder is not None:
                recorder.on_charge(mode_name, n_adds, energy_per_add)
        elif state is _REPLAY or state is _BAILED:
            self._executor.pending.append((mode_name, n_adds, energy_per_add))
            return True
        return False

    def _dispatch(self, kind, args, params):
        if self._pstate is _RECORD:
            recorder = self._recorder
            recorder.open_op(kind, args, params)
            self._depth += 1
            try:
                out = self._impls[kind](self, *args, **params)
            except BaseException:
                # Recording aborted (e.g. a non-finite operand raised):
                # drop the half-built trace; the error propagates as it
                # would from a plain engine.
                self._recorder = None
                self._pstate = _IDLE
                raise
            finally:
                self._depth -= 1
            recorder.close_op()
            return out
        # _REPLAY
        executor = self._executor
        step = executor.next_step(kind, params)
        if step is None:
            return self._bail_and_run(kind, args, params, "structure")
        self._depth += 1
        try:
            out = step.replay(self, args)
        except ProgramBailout as bail:
            reason = bail.reason
        else:
            executor.pending.extend(step.charges)
            return out
        finally:
            self._depth -= 1
        return self._bail_and_run(kind, args, params, reason)

    def _bail_and_run(self, kind, args, params, reason):
        executor = self._executor
        if executor.bailed_reason is None:
            executor.bailed_reason = reason
        # The rest of the iteration runs interpreted; its charges keep
        # appending to the pending list (via the charge hook) in order.
        self._pstate = _BAILED
        return self._impls[kind](self, *args, **params)

    def cache_stats(self) -> dict[str, int]:
        """The program cache's counters (exported per engine by the
        framework when capture is on)."""
        return {
            "program_captures": self.program_captures,
            "program_replays": self.program_replays,
            "program_bailouts": self.program_bailouts,
            "program_cached": int(self.program is not None),
            "program_compile_failed": int(self._program_unsupported),
        }


#: Interpreted implementations the dispatcher records through and bails
#: out to — always the plain ApproxEngine methods, never the hooks.
_BASE_IMPLS = {
    "add": ApproxEngine.add,
    "sub": ApproxEngine.sub,
    "scale_add": ApproxEngine.scale_add,
    "sum": ApproxEngine.sum,
    "dot": ApproxEngine.dot,
    "matvec": ApproxEngine.matvec,
    "weighted_sum": ApproxEngine.weighted_sum,
}


class ProgramEngine(_ProgramCapture, ApproxEngine):
    """An :class:`ApproxEngine` with iteration-program capture/replay.

    Driven by :class:`~repro.core.framework.ApproxIt` through
    :meth:`begin_iteration` / :meth:`bind_slot` / :meth:`end_iteration`;
    between those calls the public kernel API is unchanged, so solvers
    are oblivious.  Outside an iteration window every call runs plain
    interpreted — a ``ProgramEngine`` never changes results, only how
    often the structure around them is re-derived.
    """

    _impls = _BASE_IMPLS

    def begin_iteration(self, slots: dict[str, object]) -> str:
        """Open an iteration window: ``"replay"``, ``"record"`` or
        ``"off"`` (see :meth:`_ProgramCapture._open_window`)."""
        return self._open_window(slots)

    def end_iteration(self) -> tuple[str, str | None]:
        """Close the iteration window; returns ``(execution,
        bailout_reason)`` (see :meth:`_ProgramCapture._close_window`)."""
        return self._close_window()

    def _compile(self, recorder):
        return recorder.finalize(self, self._slots, None)

    def _flush(self, pending):
        self.ledger.charge_many(pending)

    def _charge(self, mode_name, n_adds, energy_per_add):
        if not self._deferred(mode_name, n_adds, energy_per_add):
            self.ledger.charge(mode_name, n_adds, energy_per_add)

    # ------------------------------------------------------------------
    # Hooked public kernels (record/replay at depth 0 only — nested
    # internal calls like sub→add or matvec→sum pass through)
    # ------------------------------------------------------------------
    def add(self, a, b, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("add", (a, b), {"resident": resident})
        return ApproxEngine.add(self, a, b, resident=resident)

    def sub(self, a, b, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("sub", (a, b), {"resident": resident})
        return ApproxEngine.sub(self, a, b, resident=resident)

    def scale_add(self, x, alpha: float, d, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "scale_add", (x, alpha, d), {"resident": resident}
            )
        return ApproxEngine.scale_add(self, x, alpha, d, resident=resident)

    def sum(self, x, axis: int | None = None, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "sum", (x,), {"axis": axis, "resident": resident}
            )
        return ApproxEngine.sum(self, x, axis, resident=resident)

    def dot(self, a, b) -> float:
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("dot", (a, b), {})
        return ApproxEngine.dot(self, a, b)

    def matvec(self, matrix, vector, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "matvec", (matrix, vector), {"resident": resident}
            )
        return ApproxEngine.matvec(self, matrix, vector, resident=resident)

    def weighted_sum(self, weights, points, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "weighted_sum", (weights, points), {"resident": resident}
            )
        return ApproxEngine.weighted_sum(self, weights, points, resident=resident)


# ======================================================================
# Batched (lane-group) capture & replay
# ======================================================================
#
# A lock-step lane group walks the *same* op structure every iteration:
# the only thing that changes between iterations — or between lane-group
# compositions, as lanes converge out of the active set — is the leading
# lane dimension of the stacked operands.  The steps above, compiled
# with the lane count of the capture window, therefore check a
# lane-stacked operand on its *trailing* (per-lane) dims only, which is
# what lets one captured program replay across a shrinking lane group
# without re-capture: the program is a property of the (solver, mode)
# pair, not of the lane count.


#: Interpreted batched implementations the dispatcher records through
#: and bails out to — the plain BatchedEngine methods, never the hooks.
#: ``dot`` is deliberately absent: the batched ``dot`` is un-hooked and
#: funnels into the hooked ``sum`` at depth 0.
_B_BASE_IMPLS = {
    "add": BatchedEngine.add,
    "sub": BatchedEngine.sub,
    "scale_add": BatchedEngine.scale_add,
    "sum": BatchedEngine.sum,
    "matvec": BatchedEngine.matvec,
    "weighted_sum": BatchedEngine.weighted_sum,
}


class BatchedProgramEngine(_ProgramCapture, BatchedEngine):
    """A :class:`~repro.arith.engine.BatchedEngine` with lane-group
    iteration-program capture/replay.

    One program per (solver, mode) pair, captured from the first
    lock-step iteration this engine's mode group runs and replayed over
    the ``(L, ...)``-stacked buffers of every later one.  Lane-stacked
    operands validate trailing dims only, so per-lane convergence
    masking — the active group shrinking as lanes finish or switch
    modes — replays the same program at any group size.  Replayed
    charges defer to the executor's pending list and flush through one
    ordered ``charge_many_lanes`` call per iteration.

    Only *uniform* batched kernel adapters may drive this engine: every
    lane must issue the identical op sequence over the full selected
    lane set with no mid-iteration ``select_lanes`` (adapters declare
    this via ``BatchedKernels.replayable``).  The interpreted batched
    path stays untouched as the oracle: capture off *is* the plain
    batched engine.
    """

    _impls = _B_BASE_IMPLS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The lanes the open window was selected on (compile and flush).
        self._window_lanes: np.ndarray | None = None

    def begin_iteration(self, slots: dict[str, object]) -> str:
        """Open a lane-group iteration window (after ``select_lanes``).

        Returns ``"replay"`` / ``"record"`` / ``"off"`` exactly as
        :meth:`ProgramEngine.begin_iteration` does.
        """
        if self.lane_ids is None:
            raise RuntimeError("call select_lanes() before begin_iteration()")
        self._window_lanes = self.lane_ids
        return self._open_window(slots)

    def end_iteration(self) -> tuple[str, str | None]:
        """Close the lane-group iteration window as the solo engine
        does, flushing a replay's deferred charges through one ordered
        ``charge_many_lanes`` call over the lanes the window opened on."""
        result = self._close_window()
        self._window_lanes = None
        return result

    def _compile(self, recorder):
        return recorder.finalize(self, self._slots, int(self._window_lanes.shape[0]))

    def _flush(self, pending):
        self.ledger.charge_many_lanes(self._window_lanes, pending)

    def _charge_lanes(self, mode_name, adds_per_lane, energy_per_add):
        if not self._deferred(mode_name, adds_per_lane, energy_per_add):
            super()._charge_lanes(mode_name, adds_per_lane, energy_per_add)

    # ------------------------------------------------------------------
    # Hooked public kernels (record/replay at depth 0 only)
    # ------------------------------------------------------------------
    def add(self, a, b, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("add", (a, b), {"resident": resident})
        return BatchedEngine.add(self, a, b, resident=resident)

    def sub(self, a, b, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("sub", (a, b), {"resident": resident})
        return BatchedEngine.sub(self, a, b, resident=resident)

    def scale_add(self, x, alpha, d, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "scale_add", (x, alpha, d), {"resident": resident}
            )
        return BatchedEngine.scale_add(self, x, alpha, d, resident=resident)

    def sum(self, x, axis: int | None = None, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "sum", (x,), {"axis": axis, "resident": resident}
            )
        return BatchedEngine.sum(self, x, axis, resident=resident)

    def matvec(self, matrix, x, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch("matvec", (matrix, x), {"resident": resident})
        return BatchedEngine.matvec(self, matrix, x, resident=resident)

    def weighted_sum(self, weights, points, *, resident: bool = False):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "weighted_sum", (weights, points), {"resident": resident}
            )
        return BatchedEngine.weighted_sum(
            self, weights, points, resident=resident
        )
