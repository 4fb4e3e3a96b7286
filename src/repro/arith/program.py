"""Iteration-program capture & replay for the solo online loop.

An iterative method walks the *same* :class:`~repro.arith.ApproxEngine`
op sequence every iteration at a fixed mode: the op kinds, operand
shapes, reduction geometries and per-op ledger charges are all
structure, not data.  Re-deriving that structure through Python dispatch
every iteration — ``_coerce`` type switches, finiteness and saturation
prechecks, plan lookups, one ledger call per elementary op — is where
the solo end-to-end path loses its time (see ``docs/performance.md``).

This module captures that structure once and replays it, CUDA-graph
style:

* :class:`ProgramRecorder` — during ONE fully interpreted iteration,
  records every top-level engine call (kind, operand identities —
  cached constants or iteration-varying slots — shapes, reduction
  plans, saturation-precheck outcomes, and the exact per-op
  ``(mode, n_adds, energy_per_add)`` charges) into an
  :class:`IterationProgram`;
* :class:`ProgramExecutor` — replays subsequent iterations by driving
  the vectorized kernels directly: operands resolve through compiled
  identity checks, reduction plans and broadcast decisions are
  precomputed, saturation prechecks reuse cached bounds, and the whole
  iteration's charges flush through a single ordered
  :meth:`~repro.arith.engine.EnergyLedger.charge_many` call;
* :class:`ProgramEngine` — an :class:`ApproxEngine` subclass hosting
  the record/replay state machine behind the same public kernel API, so
  solvers need no changes.

Contract (the repo's established one): a replayed iteration produces
**bit-identical** words/iterates and an energy ledger **equal as
floats** to the interpreted execution — every compiled step either
reproduces the interpreted arithmetic exactly or raises a bailout that
re-runs the call interpreted.  ``tests/core/test_program_parity.py``
asserts this across every solver × strategy.

Bailouts (structure divergence drops the program; the iteration
finishes interpreted and the next one re-records):

* operand shape or kind change (``"shape"`` / ``"operand"``);
* an op sequence that no longer matches the program (``"structure"`` /
  ``"shorter-iteration"``);
* an add whose recorded saturation precheck said "in range" now
  overflowing (``"saturation"``);
* mode reconfigurations and function-scheme rollbacks invalidate
  programs up front (driven by :class:`~repro.core.framework.ApproxIt`),
  so the retried/reconfigured iteration re-records.

The interpreted path stays byte-for-byte untouched as the regression
oracle: a ``ProgramEngine`` with capture off (or ``fast_path=False``)
*is* the plain engine.
"""

from __future__ import annotations

import numpy as np

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    LaneStack,
    ReductionPlan,
    ResidentMatrix,
    ResidentVector,
    SparseResidentMatrix,
)

_IDLE = "idle"
_RECORD = "record"
_REPLAY = "replay"
_BAILED = "bailed"

_NONFINITE_MSG = "cannot encode non-finite values into fixed point"


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
def _is_slot(operand, arr, slots) -> bool:
    """Whether the operand is a declared iteration-varying slot."""
    for obj in slots.values():
        if operand is obj or arr is obj:
            return True
    return False


def _word_operand(engine, operand, slots, negate=False):
    """Compile a resolver: operand -> ``(words, bounds)``.

    Mirrors what ``_coerce`` (plus ``sub``'s negation) produces for the
    operand kind seen at capture:

    * :class:`ResidentVector` — resolved by value every iteration
      (format and shape checked; cached word bounds ride along);
    * a declared slot — always re-encoded (finiteness-checked, exactly
      like the interpreted encode);
    * anything else — *maybe-constant*: the capture-time encoding is
      cached and returned on an ``is``-identity hit, any other
      same-shaped array re-encodes fresh.  Identity keying matches the
      ``pin`` convention: arrays fed to the engine are immutable —
      mutate-in-place operands must be declared via
      ``IterativeMethod.replay_operands``.
    """
    fmt = engine.fmt
    signed_lo = engine._signed_lo
    if isinstance(operand, ResidentVector):
        shape = operand.words.shape
        if negate:

            def resolve(op):
                if (
                    not isinstance(op, ResidentVector)
                    or op.fmt != fmt
                    or op.words.shape != shape
                ):
                    raise ProgramBailout("operand")
                words = fmt.handle_overflow(-op.words)
                bounds = op.bounds()
                if bounds is not None and bounds[0] > signed_lo:
                    return words, (-bounds[1], -bounds[0])
                return words, None

        else:

            def resolve(op):
                if (
                    not isinstance(op, ResidentVector)
                    or op.fmt != fmt
                    or op.words.shape != shape
                ):
                    raise ProgramBailout("operand")
                return op.words, op.bounds()

        return resolve

    arr = np.asarray(operand, dtype=np.float64)
    shape = arr.shape
    if _is_slot(operand, arr, slots):

        def resolve(op):
            if isinstance(op, ResidentVector):
                raise ProgramBailout("operand")
            a = np.asarray(op, dtype=np.float64)
            if a.shape != shape:
                raise ProgramBailout("shape")
            return fmt.encode(-a if negate else a), None

        return resolve

    obj = operand if isinstance(operand, np.ndarray) else arr
    words = fmt.encode(-arr if negate else arr)
    bounds = (int(words.min()), int(words.max())) if words.size else None

    def resolve(op):
        if op is obj:
            return words, bounds
        if isinstance(op, ResidentVector):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        if a.shape != shape:
            raise ProgramBailout("shape")
        return fmt.encode(-a if negate else a), None

    return resolve


def _float_operand(engine, operand, slots):
    """Compile a resolver: operand -> float array (``_to_float``)."""
    fmt = engine.fmt
    if isinstance(operand, ResidentVector):
        shape = operand.words.shape

        def resolve(op):
            if (
                not isinstance(op, ResidentVector)
                or op.fmt != fmt
                or op.words.shape != shape
            ):
                raise ProgramBailout("operand")
            return op.decode()

        return resolve

    arr = np.asarray(operand, dtype=np.float64)
    shape = arr.shape
    if _is_slot(operand, arr, slots):

        def resolve(op):
            if isinstance(op, ResidentVector):
                raise ProgramBailout("operand")
            a = np.asarray(op, dtype=np.float64)
            if a.shape != shape:
                raise ProgramBailout("shape")
            return a

        return resolve

    obj = operand if isinstance(operand, np.ndarray) else arr

    def resolve(op):
        if op is obj:
            return arr
        if isinstance(op, ResidentVector):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        if a.shape != shape:
            raise ProgramBailout("shape")
        return a

    return resolve


def _matrix_operand(engine, operand, slots):
    """Compile a resolver: operand -> ``(float array, abs_max, strict)``.

    ``abs_max`` is a proven-finite absolute bound enabling the trusted
    (scan-skipping) product encode; ``None`` means the replay must run
    the full checked encode, exactly as the interpreted call would.
    ``strict`` marks a :class:`ResidentMatrix` — there the interpreted
    path itself runs ``_trusted_product`` (which *raises* on a
    non-finite varying operand), so the replay must replicate that
    contract exactly; for an identity-hit plain constant the interpreted
    path is a checked encode, so the bound is only an optimisation and
    must never raise where the checked encode would not.
    """
    if isinstance(operand, ResidentMatrix):
        obj = operand
        shape = operand.array.shape

        def resolve(op):
            if op is obj:
                return obj.array, obj.abs_max, True
            if isinstance(op, ResidentMatrix) and op.array.shape == shape:
                return op.array, op.abs_max, True
            raise ProgramBailout("operand")

        return resolve

    arr = np.asarray(operand, dtype=np.float64)
    shape = arr.shape
    if _is_slot(operand, arr, slots) or not np.all(np.isfinite(arr)):

        def resolve(op):
            if isinstance(op, ResidentMatrix):
                raise ProgramBailout("operand")
            a = np.asarray(op, dtype=np.float64)
            if a.shape != shape:
                raise ProgramBailout("shape")
            return a, None, False

        return resolve

    obj = operand if isinstance(operand, np.ndarray) else arr
    abs_max = float(np.abs(arr).max()) if arr.size else 0.0

    def resolve(op):
        if op is obj:
            return arr, abs_max, False
        if isinstance(op, ResidentMatrix):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        if a.shape != shape:
            raise ProgramBailout("shape")
        return a, None, False

    return resolve


# ----------------------------------------------------------------------
# Replay arithmetic (interpreted-identical, charge-free)
# ----------------------------------------------------------------------
def _replay_add_words(engine, qa, qb, bounds_a, bounds_b, sat_recorded):
    """One elementwise add, bit-identical to ``_add_words`` sans charge.

    The saturation precheck re-runs on the resolved bounds; ``needed``
    while the recording said "in range" is the unexpected
    saturation-bound violation — the numeric regime left the envelope
    the program was compiled for, so bail and re-record.  With an exact
    adder and an in-range proof the masked add collapses to ``np.add``
    (the wrapped sum *is* the true sum), skipping three masking passes.
    """
    if qa.shape != qb.shape:
        qa, qb = np.broadcast_arrays(qa, qb)
    lo, hi = engine._signed_lo, engine._signed_hi
    if engine.fmt.overflow == "saturate":
        if qa.size == 0 or qb.size == 0:
            needed = False
        else:
            if bounds_a is None:
                bounds_a = (int(qa.min()), int(qa.max()))
            if bounds_b is None:
                bounds_b = (int(qb.min()), int(qb.max()))
            needed = (
                bounds_a[0] + bounds_b[0] < lo or bounds_a[1] + bounds_b[1] > hi
            )
        if needed:
            if not sat_recorded:
                raise ProgramBailout("saturation")
            out = engine.backend.add_signed(engine.mode.adder, qa, qb)
            true = qa.astype(np.int64) + qb.astype(np.int64)
            overflowed = (true < lo) | (true > hi)
            if np.any(overflowed):
                out = np.where(overflowed, np.clip(true, lo, hi), out)
            return out
        if engine.mode.adder.is_exact:
            return engine.backend.add_words_inrange(qa, qb)
    return engine.backend.add_signed(engine.mode.adder, qa, qb)


def _replay_reduce(engine, q, plan, sat_recorded):
    """Tree-reduce axis 0, bit-identical to ``_reduce_words`` sans
    charges and plan lookups.

    Fast route: exact adder, saturating format, no saturation recorded,
    and one O(1) proof that *every* partial sum stays in the word —
    each intermediate is a sum of at most ``n`` of the inputs, so
    ``n * min(min_word, 0) >= lo`` and ``n * max(max_word, 0) <= hi``
    bound them all — fuses the whole tree into a single
    ``np.add.reduce``: in-range exact integer addition is associative,
    so any summation order yields bit-identical words.  Anything else
    walks the interpreted fold exactly (same adder calls, same
    per-level bounds carry, same clamps).
    """
    if q.shape[0] <= 1:
        return q[0]
    saturating = engine.fmt.overflow == "saturate"
    exact = engine.mode.adder.is_exact
    lo_w, hi_w = engine._signed_lo, engine._signed_hi
    if saturating and exact and not sat_recorded and q.size:
        m0 = int(q.min())
        m1 = int(q.max())
        n = q.shape[0]
        if n * min(m0, 0) >= lo_w and n * max(m1, 0) <= hi_w:
            return engine.backend.reduce_inrange(q)
        # Conservative proof failed; the tighter per-level walk below is
        # still interpreted-identical, just not fused.
    adder = engine.mode.adder
    backend = engine.backend
    cur = q
    bounds = None
    if saturating and cur.size:
        bounds = (int(cur.min()), int(cur.max()))
    last = len(plan.levels) - 1
    for i, (half, odd) in enumerate(plan.levels):
        qa = cur[:half]
        qb = cur[half : 2 * half]
        out = backend.add_signed(adder, qa, qb)
        if saturating:
            if qa.size == 0:
                needed = False
            elif bounds is None:
                b0 = (int(qa.min()), int(qa.max()))
                b1 = (int(qb.min()), int(qb.max()))
                needed = b0[0] + b1[0] < lo_w or b0[1] + b1[1] > hi_w
            else:
                needed = (
                    bounds[0] + bounds[0] < lo_w or bounds[1] + bounds[1] > hi_w
                )
            if needed:
                true = qa.astype(np.int64) + qb.astype(np.int64)
                overflowed = (true < lo_w) | (true > hi_w)
                if np.any(overflowed):
                    out = np.where(overflowed, np.clip(true, lo_w, hi_w), out)
        if odd:
            nxt = plan.buf[: half + 1]
            nxt[half] = cur[2 * half]
            nxt[:half] = out
            cur = nxt
        else:
            cur = out
        if bounds is not None and i < last:
            if exact:
                lo = max(bounds[0] + bounds[0], lo_w)
                hi = min(bounds[1] + bounds[1], hi_w)
                if odd:
                    lo = min(lo, bounds[0])
                    hi = max(hi, bounds[1])
                bounds = (lo, hi)
            else:
                bounds = (int(cur.min()), int(cur.max()))
    return cur[0]


def _get_plan(engine, shape) -> ReductionPlan | None:
    """The engine's cached plan for a reduce-input shape (created on
    first capture of that shape; shared with the interpreted path)."""
    if shape[0] <= 1:
        return None
    plan = engine._reduce_plans.get(shape)
    if plan is None:
        plan = ReductionPlan(shape)
        engine._reduce_plans[shape] = plan
    return plan


# ----------------------------------------------------------------------
# Compiled steps
# ----------------------------------------------------------------------
class _AddStep:
    """``add`` / ``sub`` (negation folded into the b-resolver)."""

    __slots__ = ("kind", "params", "charges", "sat", "res_a", "res_b", "resident")

    def __init__(self, kind, params, charges, sat, res_a, res_b):
        self.kind = kind
        self.params = params
        self.charges = charges
        self.sat = sat
        self.res_a = res_a
        self.res_b = res_b
        self.resident = params["resident"]

    def replay(self, engine, args):
        a, b = args
        qa, bounds_a = self.res_a(a)
        qb, bounds_b = self.res_b(b)
        out = _replay_add_words(engine, qa, qb, bounds_a, bounds_b, self.sat)
        return engine._emit(out, self.resident)


class _SubStep:
    """``sub`` with a resident-captured subtrahend: the negate pass is
    deferred until needed.

    The generic ``sub`` compile folds negation into the b-resolver —
    one ``handle_overflow(-words)`` pass (clip plus allocation) per
    call.  When the subtrahend's cached word bounds prove the negation
    clamp-free *and* the difference in range, the whole negate+add
    collapses to one :meth:`KernelBackend.sub_words_inrange`; otherwise
    the negation runs here, bit-identical to the folded resolver.
    """

    __slots__ = ("kind", "params", "charges", "sat", "res_a", "res_b", "resident")

    def __init__(self, params, charges, sat, res_a, res_b):
        self.kind = "sub"
        self.params = params
        self.charges = charges
        self.sat = sat
        self.res_a = res_a
        self.res_b = res_b
        self.resident = params["resident"]

    def replay(self, engine, args):
        a, b = args
        qa, bounds_a = self.res_a(a)
        qb, bounds_b = self.res_b(b)
        lo, hi = engine._signed_lo, engine._signed_hi
        if (
            not self.sat
            and bounds_b is not None
            and bounds_b[0] > lo
            and engine.mode.adder.is_exact
            and engine.fmt.overflow == "saturate"
            and qa.shape == qb.shape
            and qa.size
        ):
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
        out = _replay_add_words(engine, qa, nwords, bounds_a, nbounds, self.sat)
        return engine._emit(out, self.resident)


class _ScaleAddStep:
    """``scale_add``: x + alpha*d with alpha live per call."""

    __slots__ = ("kind", "params", "charges", "sat", "res_x", "res_d", "resident", "bufs")

    def __init__(self, params, charges, sat, res_x, res_d):
        self.kind = "scale_add"
        self.params = params
        self.charges = charges
        self.sat = sat
        self.res_x = res_x
        self.res_d = res_d
        self.resident = params["resident"]
        self.bufs: dict = {}

    def replay(self, engine, args):
        x, alpha, d = args
        qa, bounds_a = self.res_x(x)
        fd = self.res_d(d)
        # Fused path: with alpha live the bound is one O(n) scan per
        # call — |rint(fl(alpha*fd_i)*scale)| <= W := rint(fl(|alpha| *
        # max|fd|)*scale) (fl and rint are monotone, the power-of-two
        # scale multiply is exact), so W <= hi proves the encode clip
        # (and finiteness scan — a non-finite operand lands peak at
        # NaN/inf and falls through to the checked encode, which raises
        # exactly like the interpreted call) a no-op, and the word-
        # bounds check proves the add in range.  Python-int arithmetic
        # throughout: a float compare could round past the boundary.
        if (
            not self.sat
            and fd.size
            and qa.size
            and np.ndim(alpha) == 0
            and engine.mode.adder.is_exact
            and engine.fmt.overflow == "saturate"
            and fd.shape == qa.shape
        ):
            if bounds_a is None:
                # The add-range check below needs these words scanned
                # anyway; computing them here just moves the scan ahead
                # of (and shares it with) the fusion proof.
                bounds_a = (int(qa.min()), int(qa.max()))
            peak = abs(float(alpha)) * float(np.abs(fd).max()) * engine.fmt.scale
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
        out = _replay_add_words(engine, qa, qb, bounds_a, None, self.sat)
        return engine._emit(out, self.resident)


class _SumStep:
    """``sum`` over a non-empty axis."""

    __slots__ = (
        "kind",
        "params",
        "charges",
        "sat",
        "rv_shape",
        "arr_shape",
        "scalar",
        "axis",
        "assume_finite",
        "resident",
        "plan",
    )

    def __init__(self, engine, op, slots):
        (x,) = op.args
        self.kind = "sum"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        axis = op.params["axis"]
        self.scalar = axis is None
        self.assume_finite = op.params["assume_finite"]
        self.resident = op.params["resident"]
        if isinstance(x, ResidentVector):
            self.rv_shape = x.words.shape
            self.arr_shape = None
            qshape = x.words.shape
        else:
            self.rv_shape = None
            self.arr_shape = np.asarray(x, dtype=np.float64).shape
            qshape = self.arr_shape
        if self.scalar:
            qshape = (int(np.prod(qshape)),)
            axis = 0
        self.axis = axis
        rshape = np.moveaxis(np.empty(qshape, dtype=np.int64), axis, 0).shape
        self.plan = _get_plan(engine, rshape)

    def _words(self, engine, x):
        if self.rv_shape is not None:
            if (
                not isinstance(x, ResidentVector)
                or x.fmt != engine.fmt
                or x.words.shape != self.rv_shape
            ):
                raise ProgramBailout("operand")
            return x.words
        if isinstance(x, ResidentVector):
            raise ProgramBailout("operand")
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != self.arr_shape:
            raise ProgramBailout("shape")
        return engine.fmt.encode(arr, assume_finite=self.assume_finite)

    def replay(self, engine, args):
        (x,) = args
        q = self._words(engine, x)
        if self.scalar:
            q = q.reshape(-1)
        reduced = _replay_reduce(
            engine, np.moveaxis(q, self.axis, 0), self.plan, self.sat
        )
        if self.scalar:
            return float(engine.fmt.decode(reduced))
        return engine._emit(reduced, self.resident)


class _ZeroSumStep:
    """``sum`` over an empty axis: the structural zero output."""

    __slots__ = ("kind", "params", "charges", "rv_shape", "arr_shape", "scalar", "out_words", "resident")

    def __init__(self, engine, op, slots, qshape, axis):
        (x,) = op.args
        self.kind = "sum"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.scalar = op.params["axis"] is None
        self.resident = op.params["resident"]
        if isinstance(x, ResidentVector):
            self.rv_shape = x.words.shape
            self.arr_shape = None
        else:
            self.rv_shape = None
            self.arr_shape = np.asarray(x, dtype=np.float64).shape
        out = np.zeros(np.delete(qshape, axis))
        self.out_words = engine.fmt.encode(out)

    def replay(self, engine, args):
        (x,) = args
        if self.rv_shape is not None:
            if (
                not isinstance(x, ResidentVector)
                or x.fmt != engine.fmt
                or x.words.shape != self.rv_shape
            ):
                raise ProgramBailout("operand")
        else:
            if isinstance(x, ResidentVector):
                raise ProgramBailout("operand")
            arr = np.asarray(x, dtype=np.float64)
            if arr.shape != self.arr_shape:
                raise ProgramBailout("shape")
            if not self.params["assume_finite"] and not np.all(np.isfinite(arr)):
                raise ValueError(_NONFINITE_MSG)
        if self.scalar:
            return 0.0
        return engine._emit(self.out_words, self.resident)


class _DotStep:
    """``dot``: exact products, approximate accumulation, scalar out."""

    __slots__ = ("kind", "params", "charges", "sat", "res_a", "res_b", "n", "plan")

    def __init__(self, engine, op, slots):
        a, b = op.args
        self.kind = "dot"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.res_a = _float_operand(engine, a, slots)
        self.res_b = _float_operand(engine, b, slots)
        fa = engine._to_float(a).reshape(-1)
        self.n = fa.shape[0]
        self.plan = _get_plan(engine, (self.n,))

    def replay(self, engine, args):
        a, b = args
        fa = self.res_a(a).reshape(-1)
        fb = self.res_b(b).reshape(-1)
        q = engine.fmt.encode(fa * fb)
        if self.n == 0:
            return 0.0
        reduced = _replay_reduce(engine, q, self.plan, self.sat)
        return float(engine.fmt.decode(reduced))


def _trusted_encode(engine, product, varying, abs_max, strict):
    """Encode a const × varying product, scan-skipping when provable.

    With a compile-proven-finite constant, one O(n) scan of the varying
    operand replaces the O(rows × cols) product scan.  ``strict`` (a
    :class:`ResidentMatrix` operand) replicates ``_trusted_product``
    verbatim — including its raise on a non-finite varying operand;
    otherwise the interpreted call was a checked encode, so the bound
    only *upgrades* provably-finite calls and every other case falls
    back to the checked encode unchanged.
    """
    if abs_max is None:
        return engine.fmt.encode(product)
    if strict:
        if varying.size == 0:
            trusted = True
        else:
            if not np.all(np.isfinite(varying)):
                raise ValueError(_NONFINITE_MSG)
            trusted = bool(np.isfinite(abs_max * float(np.abs(varying).max())))
        return engine.fmt.encode(product, assume_finite=trusted)
    if (
        product.size
        and varying.size
        and np.all(np.isfinite(varying))
        and np.isfinite(abs_max * float(np.abs(varying).max()))
    ):
        return engine.fmt.encode(product, assume_finite=True)
    return engine.fmt.encode(product)


def _fused_product_ok(engine, step, abs_max, varying, n) -> bool:
    """Whether a product-encode-reduce may run fully fused (clip-free
    single-pass) through :meth:`KernelBackend.product_reduce_words`.

    The proof is one O(len(varying)) scan:  with ``P = fl(abs_max *
    max|varying|)`` every element of the float product is bounded by
    ``P`` (real-product ordering survives rounding — ``fl`` is
    monotone), multiplying by the power-of-two ``scale`` is exact, and
    ``rint`` is monotone, so ``W = rint(P * scale)`` bounds every
    encoded word's magnitude.  ``W <= hi`` proves the encode clip a
    no-op; ``n * W <= hi`` (exact Python-int arithmetic — a float
    product could round below the true value) bounds every partial sum
    of the ``n``-term reduction, making the exact integer fold
    associative and hence bit-identical to the reference clip + tree.
    ``n * W < 2**53`` additionally keeps every partial sum (under any
    association) in float64's integer-exact range, licensing the
    kernel to fold the integer-valued *float* buffer directly —
    automatic for word widths up to 53 bits, checked so wider formats
    fall back rather than round.
    Any failure — including a non-finite ``varying``, where the
    unfused path reproduces the interpreted raise/checked-encode
    behavior exactly — falls back to the unfused replay.
    """
    if (
        step.sat
        or abs_max is None
        or not varying.size
        or not engine.mode.adder.is_exact
        or engine.fmt.overflow != "saturate"
    ):
        return False
    peak = abs_max * float(np.abs(varying).max()) * engine.fmt.scale
    if not np.isfinite(peak):
        return False
    w = int(np.rint(peak))
    hi = engine._signed_hi
    return w <= hi and n * w <= hi and n * w < (1 << 53)


class _MatvecStep:
    """``matvec``: exact row products, approximate row accumulation."""

    __slots__ = ("kind", "params", "charges", "sat", "res_mat", "res_vec", "rows", "cols", "plan", "zero_words", "resident", "bufs")

    def __init__(self, engine, op, slots):
        matrix, vector = op.args
        self.kind = "matvec"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.res_mat = _matrix_operand(engine, matrix, slots)
        self.res_vec = _float_operand(engine, vector, slots)
        mat = np.asarray(matrix, dtype=np.float64)
        self.rows, self.cols = mat.shape
        self.plan = _get_plan(engine, (self.cols, self.rows))
        self.zero_words = (
            engine.fmt.encode(np.zeros(self.rows)) if self.cols == 0 else None
        )
        self.bufs: dict = {}

    def replay(self, engine, args):
        matrix, vector = args
        mat, abs_max, strict = self.res_mat(matrix)
        vec = self.res_vec(vector).reshape(-1)
        if self.cols == 0:
            return engine._emit(self.zero_words, self.resident)
        if _fused_product_ok(engine, self, abs_max, vec, self.cols):
            reduced = engine.backend.product_reduce_words(
                mat, vec[np.newaxis, :], engine.fmt.scale, 1, self.bufs
            )
            return engine._emit(reduced, self.resident)
        product = mat * vec[np.newaxis, :]
        q = _trusted_encode(engine, product, vec, abs_max, strict)
        reduced = _replay_reduce(engine, q.T, self.plan, self.sat)
        return engine._emit(reduced, self.resident)


class _WeightedSumStep:
    """``weighted_sum``: exact scaling, approximate accumulation."""

    __slots__ = ("kind", "params", "charges", "sat", "res_w", "res_pts", "n", "plan", "zero_words", "resident", "bufs")

    def __init__(self, engine, op, slots):
        weights, points = op.args
        self.kind = "weighted_sum"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.res_w = _float_operand(engine, weights, slots)
        self.res_pts = _matrix_operand(engine, points, slots)
        pts = np.asarray(points, dtype=np.float64)
        self.n = pts.shape[0]
        self.plan = _get_plan(engine, pts.shape)
        self.zero_words = (
            engine.fmt.encode(np.zeros(pts.shape[1:])) if self.n == 0 else None
        )
        self.bufs: dict = {}

    def replay(self, engine, args):
        weights, points = args
        w = self.res_w(weights).reshape(-1)
        pts, abs_max, strict = self.res_pts(points)
        if self.n == 0:
            return engine._emit(self.zero_words, self.resident)
        if _fused_product_ok(engine, self, abs_max, w, self.n):
            reduced = engine.backend.product_reduce_words(
                w[:, np.newaxis], pts, engine.fmt.scale, 0, self.bufs
            )
            return engine._emit(reduced, self.resident)
        product = w[:, np.newaxis] * pts
        q = _trusted_encode(engine, product, w, abs_max, strict)
        reduced = _replay_reduce(engine, q, self.plan, self.sat)
        return engine._emit(reduced, self.resident)


class _SparseMatvecStep:
    """Sparse ``matvec`` / ``weighted_sum``: exact products over the
    stored entries only, approximate per-row segment accumulation.

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
    single-pass :meth:`~repro.backends.base.KernelBackend.csr_matvec_words`.
    Otherwise each nnz-length bucket's ``(L, g)`` slab replays through
    :func:`_replay_reduce` with the recorded aggregate saturation flag.
    """

    __slots__ = (
        "kind",
        "params",
        "charges",
        "sat",
        "obj",
        "sp",
        "res_vec",
        "plans",
        "resident",
        "bufs",
    )

    def __init__(self, engine, op, slots, kind, operand, vec_arg, sp):
        self.kind = kind
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.obj = operand
        self.sp = sp
        self.res_vec = _float_operand(engine, vec_arg, slots)
        self.plans = tuple(
            (length, rows, gather, _get_plan(engine, (length, rows.shape[0])))
            for length, rows, gather in sp.row_plan().buckets
        )
        self.bufs: dict = {}

    def replay(self, engine, args):
        if self.kind == "matvec":
            operand, vec_arg = args
        else:
            vec_arg, operand = args
        if operand is not self.obj:
            raise ProgramBailout("operand")
        sp = self.sp
        vec = self.res_vec(vec_arg).reshape(-1)
        if sp.nnz_max and _fused_product_ok(
            engine, self, sp.abs_max, vec, sp.nnz_max
        ):
            out = engine.backend.csr_matvec_words(
                sp.data, sp.indices, sp.indptr, vec, engine.fmt.scale, self.bufs
            )
            return engine._emit(out, self.resident)
        products = sp.data * vec[sp.indices]
        q = _trusted_encode(engine, products, vec, sp.abs_max, True)
        out = np.zeros(sp.shape[0], dtype=np.int64)
        for _length, rows, gather, plan in self.plans:
            out[rows] = _replay_reduce(engine, q[gather].T, plan, self.sat)
        return engine._emit(out, self.resident)


class _RecordedOp:
    """One top-level engine call as seen while recording."""

    __slots__ = ("kind", "args", "params", "charges", "sat", "out")

    def __init__(self, kind, args, params):
        self.kind = kind
        self.args = args
        self.params = params
        self.charges: list[tuple[str, int, float]] = []
        self.sat: list[bool] = []
        self.out = None


class _ChainTail:
    """A chained op: every arg is either an earlier op's output or an
    identity-stable literal, so the whole call is predictable at the
    chain head's dispatch.

    ``srcs`` holds one ``(is_op, value)`` pair per arg position:
    ``(True, k)`` reads op ``k``'s output this iteration, ``(False,
    obj)`` predicts the capture-time operand object (pinned residents
    and constant arrays are identity-stable by the engine's pin
    convention; anything else — e.g. a live float ``alpha`` — makes the
    op unchainable).
    """

    __slots__ = ("index", "srcs")

    def __init__(self, index, srcs):
        self.index = index
        self.srcs = srcs


class _Chain:
    """One dataflow chain: a head op plus the tail ops it feeds.

    At replay the tails run through their compiled steps one by one,
    all inside a single Python dispatch entry for the whole chain.
    """

    __slots__ = ("root", "tails")

    def __init__(self, root):
        self.root = root
        self.tails: list[int] = []


_PREDICTABLE = (
    np.ndarray,
    ResidentVector,
    ResidentMatrix,
    SparseResidentMatrix,
    LaneStack,
)


def _link_chains(ops):
    """Link recorded ops into dataflow chains by output identity.

    An op whose args are all either (a) ``is``-identical to an earlier
    op's recorded output or (b) identity-stable literals joins the
    chain rooted at its latest op-source (transitively: a tail feeding
    another tail keeps one root).  At replay the whole chain executes
    speculatively inside the head's dispatch — one Python entry per
    chain — and each tail's own dispatch merely verifies the predicted
    operand identities and serves the memoized result; any mismatch
    (changed dataflow) recomputes that op through its compiled step, so
    chaining never changes results, only entry count.
    """
    out_index: dict[int, int] = {}
    roots: dict[int, int] = {}
    chains: dict[int, _Chain] = {}
    tails: dict[int, _ChainTail] = {}
    for i, op in enumerate(ops):
        srcs = []
        last_src = -1
        predictable = True
        for a in op.args:
            j = out_index.get(id(a))
            if j is not None and a is ops[j].out:
                srcs.append((True, j))
                if j > last_src:
                    last_src = j
            elif isinstance(a, _PREDICTABLE):
                srcs.append((False, a))
            else:
                predictable = False
                break
        if predictable and last_src >= 0:
            root = roots.get(last_src, last_src)
            chain = chains.get(root)
            if chain is None:
                chain = chains[root] = _Chain(root)
            chain.tails.append(i)
            tails[i] = _ChainTail(i, tuple(srcs))
            roots[i] = root
        if isinstance(op.out, _PREDICTABLE):
            out_index[id(op.out)] = i
    return chains, tails


def _speculate_chain(engine, executor, program, chain):
    """Execute a chain's tails ahead of their dispatches (called from
    the head's dispatch, right after the head step replayed).

    Results land in the executor's memo keyed by program index,
    together with the exact predicted-arg tuple the tail dispatch must
    verify by identity.  Speculation is side-effect-free with respect
    to the ledger — charges append only when the real dispatch serves
    the memo — and aborts silently on *any* failure (bailout, raise,
    missing source): the affected tails simply replay normally at their
    own dispatches, where errors surface at the interpreted call site.
    """
    results = executor.results
    memo = executor.memo
    try:
        for t in chain.tails:
            tail = program.tails[t]
            args = []
            for is_op, val in tail.srcs:
                if is_op:
                    hit = memo.get(val)
                    val = hit[1] if hit is not None else results[val]
                    if val is None:
                        return
                args.append(val)
            args = tuple(args)
            out = program.steps[t].replay(engine, args)
            memo[t] = (args, out)
    except Exception:
        return


def _compile_add(engine, op, slots):
    a, b = op.args
    return _AddStep(
        "add",
        op.params,
        tuple(op.charges),
        any(op.sat),
        _word_operand(engine, a, slots),
        _word_operand(engine, b, slots),
    )


def _compile_sub(engine, op, slots):
    a, b = op.args
    if isinstance(b, ResidentVector):
        # Resident subtrahend: resolve positive words so the in-range
        # proof can skip the negate pass entirely (see _SubStep).
        return _SubStep(
            op.params,
            tuple(op.charges),
            any(op.sat),
            _word_operand(engine, a, slots),
            _word_operand(engine, b, slots),
        )
    return _AddStep(
        "sub",
        op.params,
        tuple(op.charges),
        any(op.sat),
        _word_operand(engine, a, slots),
        _word_operand(engine, b, slots, negate=True),
    )


def _compile_scale_add(engine, op, slots):
    x, _alpha, d = op.args
    return _ScaleAddStep(
        op.params,
        tuple(op.charges),
        any(op.sat),
        _word_operand(engine, x, slots),
        _float_operand(engine, d, slots),
    )


def _compile_sum(engine, op, slots):
    (x,) = op.args
    axis = op.params["axis"]
    if isinstance(x, ResidentVector):
        qshape = x.words.shape
    else:
        qshape = np.asarray(x, dtype=np.float64).shape
    if axis is None:
        qshape = (int(np.prod(qshape)),)
        eff_axis = 0
    else:
        eff_axis = axis
    if qshape[eff_axis] == 0:
        return _ZeroSumStep(engine, op, slots, qshape, eff_axis)
    return _SumStep(engine, op, slots)


def _compile_matvec(engine, op, slots):
    matrix, vector = op.args
    if isinstance(matrix, SparseResidentMatrix):
        return _SparseMatvecStep(engine, op, slots, "matvec", matrix, vector, matrix)
    return _MatvecStep(engine, op, slots)


def _compile_weighted_sum(engine, op, slots):
    weights, points = op.args
    if isinstance(points, SparseResidentMatrix):
        return _SparseMatvecStep(
            engine, op, slots, "weighted_sum", points, weights, points.transpose()
        )
    return _WeightedSumStep(engine, op, slots)


_COMPILERS = {
    "add": _compile_add,
    "sub": _compile_sub,
    "scale_add": _compile_scale_add,
    "sum": _compile_sum,
    "dot": _DotStep,
    "matvec": _compile_matvec,
    "weighted_sum": _compile_weighted_sum,
}


class IterationProgram:
    """The compiled op sequence of one iteration at one mode, plus the
    dataflow chains linked across it (see :func:`_link_chains`)."""

    __slots__ = ("steps", "chains", "tails")

    def __init__(self, steps, chains=None, tails=None):
        self.steps = tuple(steps)
        self.chains = chains if chains is not None else {}
        self.tails = tails if tails is not None else {}

    def __len__(self) -> int:
        return len(self.steps)


class ProgramRecorder:
    """Collects one interpreted iteration's op trace for compilation."""

    def __init__(self):
        self.ops: list[_RecordedOp] = []
        self._open: _RecordedOp | None = None

    def open_op(self, kind, args, params) -> None:
        self._open = _RecordedOp(kind, args, params)

    def close_op(self, out=None) -> None:
        op = self._open
        self._open = None
        if op is not None:
            op.out = out
            self.ops.append(op)

    def on_charge(self, mode_name, n_adds, energy_per_add) -> None:
        if self._open is not None:
            self._open.charges.append((mode_name, n_adds, energy_per_add))

    def on_saturation(self, needed: bool) -> None:
        if self._open is not None:
            self._open.sat.append(bool(needed))

    def finalize(self, engine, slots) -> IterationProgram:
        """Compile the recorded ops against the end-of-iteration slots."""
        steps = tuple(_COMPILERS[op.kind](engine, op, slots) for op in self.ops)
        chains, tails = _link_chains(self.ops)
        return IterationProgram(steps, chains, tails)


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

    __slots__ = ("program", "cursor", "pending", "bailed_reason", "results", "memo")

    def __init__(self, program: IterationProgram):
        self.program = program
        self.cursor = 0
        self.pending: list[tuple[str, int, float]] = []
        self.bailed_reason: str | None = None
        # Per-step outputs this iteration (chain sources) and the
        # speculated-tail memo: index -> (predicted args, output).
        self.results: list = [None] * len(program.steps)
        self.memo: dict[int, tuple[tuple, object]] = {}

    def next_step(self, kind, params):
        """The next compiled step, or ``None`` on structure mismatch."""
        if self.cursor >= len(self.program.steps):
            return None
        step = self.program.steps[self.cursor]
        if step.kind != kind or step.params != params:
            return None
        self.cursor += 1
        return step


class ProgramEngine(ApproxEngine):
    """An :class:`ApproxEngine` with iteration-program capture/replay.

    Driven by :class:`~repro.core.framework.ApproxIt` through
    :meth:`begin_iteration` / :meth:`bind_slot` / :meth:`end_iteration`;
    between those calls the public kernel API is unchanged, so solvers
    are oblivious.  Outside an iteration window (or with
    ``fast_path=False``) every call runs plain interpreted — a
    ``ProgramEngine`` never changes results, only how often the
    structure around them is re-derived.
    """

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
    def begin_iteration(self, slots: dict[str, object]) -> str:
        """Open an iteration window.

        Returns ``"replay"`` when a cached program will drive it,
        ``"record"`` when this iteration runs interpreted under the
        recorder, ``"off"`` when capture is unavailable (legacy engine
        or a previous compile failure).
        """
        if not self.fast_path or self._program_unsupported:
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
        (the framework binds the direction ``d`` once computed)."""
        if self._pstate is not _IDLE:
            self._slots[name] = value

    def invalidate_program(self) -> None:
        """Drop the cached program (mode reconfiguration, rollback)."""
        self.program = None

    def end_iteration(self) -> tuple[str, str | None]:
        """Close the iteration window.

        Returns ``(execution, bailout_reason)``: execution is
        ``"captured"`` / ``"replayed"`` / ``"interpreted"``; the reason
        is non-``None`` exactly when a replay bailed (the program was
        dropped and the next iteration re-records).  Flushes a replay's
        deferred charges through one ordered ``charge_many`` call.
        """
        state = self._pstate
        execution = "interpreted"
        reason = None
        if state is _RECORD:
            recorder = self._recorder
            self._recorder = None
            if recorder is not None:
                try:
                    self.program = recorder.finalize(self, self._slots)
                except Exception:
                    # Structure the compiler cannot express: stay on the
                    # interpreted path for good rather than re-fail
                    # every iteration.
                    self.program = None
                    self._program_unsupported = True
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
                self.ledger.charge_many(executor.pending)
        self._pstate = _IDLE
        self._slots = {}
        return execution, reason

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _charge(self, mode_name, n_adds, energy_per_add):
        state = self._pstate
        if state is _RECORD:
            recorder = self._recorder
            if recorder is not None:
                recorder.on_charge(mode_name, n_adds, energy_per_add)
            self.ledger.charge(mode_name, n_adds, energy_per_add)
        elif state is _REPLAY or state is _BAILED:
            self._executor.pending.append((mode_name, n_adds, energy_per_add))
        else:
            self.ledger.charge(mode_name, n_adds, energy_per_add)

    def _saturation_needed(self, qa, qb, bounds_a, bounds_b):
        needed = super()._saturation_needed(qa, qb, bounds_a, bounds_b)
        if self._pstate is _RECORD:
            recorder = self._recorder
            if recorder is not None:
                recorder.on_saturation(needed)
        return needed

    def _dispatch(self, kind, args, params):
        if self._pstate is _RECORD:
            recorder = self._recorder
            recorder.open_op(kind, args, params)
            self._depth += 1
            try:
                out = _BASE_IMPLS[kind](self, *args, **params)
            except BaseException:
                # Recording aborted (e.g. a non-finite operand raised):
                # drop the half-built trace; the error propagates as it
                # would from a plain engine.
                self._recorder = None
                self._pstate = _IDLE
                raise
            finally:
                self._depth -= 1
            recorder.close_op(out)
            return out
        # _REPLAY
        executor = self._executor
        step = executor.next_step(kind, params)
        if step is None:
            return self._bail_and_run(kind, args, params, "structure")
        idx = executor.cursor - 1
        hit = executor.memo.pop(idx, None)
        if hit is not None:
            pred_args, out = hit
            if len(pred_args) == len(args) and all(
                p is a for p, a in zip(pred_args, args)
            ):
                # Chain hit: this op already ran speculatively at its
                # chain head on these exact operands — serve the result
                # and charge now, keeping the ledger order identical.
                executor.results[idx] = out
                executor.pending.extend(step.charges)
                return out
        self._depth += 1
        try:
            out = step.replay(self, args)
        except ProgramBailout as bail:
            self._depth -= 1
            return self._bail_and_run(kind, args, params, bail.reason)
        except BaseException:
            self._depth -= 1
            raise
        self._depth -= 1
        executor.pending.extend(step.charges)
        executor.results[idx] = out
        chain = self.program.chains.get(idx)
        if chain is not None:
            _speculate_chain(self, executor, self.program, chain)
        return out

    def _bail_and_run(self, kind, args, params, reason):
        executor = self._executor
        if executor.bailed_reason is None:
            executor.bailed_reason = reason
        # The rest of the iteration runs interpreted; its charges keep
        # appending to the pending list (via _charge) in order.
        self._pstate = _BAILED
        return _BASE_IMPLS[kind](self, *args, **params)

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

    def sum(
        self,
        x,
        axis: int | None = None,
        *,
        resident: bool = False,
        assume_finite: bool = False,
    ):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "sum",
                (x,),
                {"axis": axis, "resident": resident, "assume_finite": assume_finite},
            )
        return ApproxEngine.sum(
            self, x, axis, resident=resident, assume_finite=assume_finite
        )

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

    def cache_stats(self) -> dict[str, int]:
        stats = super().cache_stats()
        stats["program_captures"] = self.program_captures
        stats["program_replays"] = self.program_replays
        stats["program_bailouts"] = self.program_bailouts
        stats["program_cached"] = int(self.program is not None)
        return stats


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


# ======================================================================
# Batched (lane-group) capture & replay
# ======================================================================
#
# A lock-step lane group walks the *same* op structure every iteration:
# the only thing that changes between iterations — or between lane-group
# compositions, as lanes converge out of the active set — is the leading
# lane dimension of the stacked operands.  The batched resolvers below
# therefore validate lane-stacked operands on their *trailing* (per-
# lane) dims only, which is what lets one captured program replay across
# a shrinking lane group without re-capture: the program is a property
# of the (solver, mode) pair, not of the lane count.
#
# Replay arithmetic is shared with the solo path: ``_replay_add_words``
# and ``_replay_reduce`` are shape-agnostic (the adders are elementwise
# and the tree geometry depends only on the reduced-axis length).  The
# per-lane bound arrays a ``LaneStack`` carries collapse to their global
# (min-over-lanes, max-over-lanes) envelope first — the interpreted
# batched precheck is already global any-lane, and a conservative
# precheck can only trigger the true-sum recompute more often, never
# change the emitted words.
#
# Charges are recorded as lane-count-independent
# ``(mode, adds_per_lane, energy_per_add)`` tuples and flushed at
# ``end_iteration`` through one ordered
# :meth:`~repro.arith.engine.BatchedEnergyLedger.charge_many_lanes`
# call over the lanes the iteration ran on — per-lane accumulation
# order matches the interpreted batched run (and hence the solo oracle)
# addition for addition.


def _b_word_operand(engine, operand, slots, lanes, negate=False):
    """Compile a lane-aware resolver: operand -> ``(words, bounds)``.

    The batched analogue of :func:`_word_operand` with two differences:
    a :class:`LaneStack` takes the role of :class:`ResidentVector` for
    lane-stacked residents, and any operand whose leading dim equalled
    the capture-time lane count is validated on trailing dims only (so
    the program survives active-set shrinkage).  Bounds collapse to the
    scalar global envelope (sound: see module notes above).
    """
    fmt = engine.fmt
    signed_lo = engine._signed_lo
    if isinstance(operand, LaneStack):
        trail = operand.words.shape[1:]
        ndim = operand.words.ndim

        def resolve(op):
            if (
                not isinstance(op, LaneStack)
                or op.fmt != fmt
                or op.words.ndim != ndim
                or op.words.shape[1:] != trail
            ):
                raise ProgramBailout("operand")
            bounds = op.lane_bounds()
            if negate:
                words = fmt.handle_overflow(-op.words)
                if bounds is not None and bool(np.all(bounds[0] > signed_lo)):
                    return words, (-int(bounds[1].max()), -int(bounds[0].min()))
                return words, None
            if bounds is None:
                return op.words, None
            return op.words, (int(bounds[0].min()), int(bounds[1].max()))

        return resolve
    if isinstance(operand, ResidentVector):
        # Lane-shared resident: identical semantics to the solo path.
        return _word_operand(engine, operand, slots, negate=negate)

    arr = np.asarray(operand, dtype=np.float64)
    lane_stacked = arr.ndim >= 1 and arr.shape[0] == lanes
    shape = arr.shape
    trail = arr.shape[1:]
    ndim = arr.ndim

    def check_shape(a):
        if lane_stacked:
            if a.ndim != ndim or a.shape[1:] != trail:
                raise ProgramBailout("shape")
        elif a.shape != shape:
            raise ProgramBailout("shape")

    if _is_slot(operand, arr, slots):

        def resolve(op):
            if isinstance(op, (LaneStack, ResidentVector)):
                raise ProgramBailout("operand")
            a = np.asarray(op, dtype=np.float64)
            check_shape(a)
            return fmt.encode(-a if negate else a), None

        return resolve

    obj = operand if isinstance(operand, np.ndarray) else arr
    words = fmt.encode(-arr if negate else arr)
    bounds = (int(words.min()), int(words.max())) if words.size else None

    def resolve(op):
        if op is obj:
            return words, bounds
        if isinstance(op, (LaneStack, ResidentVector)):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        check_shape(a)
        return fmt.encode(-a if negate else a), None

    return resolve


def _b_float_operand(engine, operand, slots, lanes):
    """Compile a lane-aware resolver: operand -> float array."""
    fmt = engine.fmt
    if isinstance(operand, LaneStack):
        trail = operand.words.shape[1:]
        ndim = operand.words.ndim

        def resolve(op):
            if (
                not isinstance(op, LaneStack)
                or op.fmt != fmt
                or op.words.ndim != ndim
                or op.words.shape[1:] != trail
            ):
                raise ProgramBailout("operand")
            return op.decode()

        return resolve
    if isinstance(operand, ResidentVector):
        return _float_operand(engine, operand, slots)

    arr = np.asarray(operand, dtype=np.float64)
    lane_stacked = arr.ndim >= 1 and arr.shape[0] == lanes
    shape = arr.shape
    trail = arr.shape[1:]
    ndim = arr.ndim

    def check_shape(a):
        if lane_stacked:
            if a.ndim != ndim or a.shape[1:] != trail:
                raise ProgramBailout("shape")
        elif a.shape != shape:
            raise ProgramBailout("shape")

    if _is_slot(operand, arr, slots):

        def resolve(op):
            if isinstance(op, (LaneStack, ResidentVector)):
                raise ProgramBailout("operand")
            a = np.asarray(op, dtype=np.float64)
            check_shape(a)
            return a

        return resolve

    obj = operand if isinstance(operand, np.ndarray) else arr

    def resolve(op):
        if op is obj:
            return arr
        if isinstance(op, (LaneStack, ResidentVector)):
            raise ProgramBailout("operand")
        a = np.asarray(op, dtype=np.float64)
        check_shape(a)
        return a

    return resolve


class _BScaleAddStep:
    """Batched ``scale_add``: per-lane alpha broadcast, alpha live."""

    __slots__ = ("kind", "params", "charges", "sat", "res_x", "res_d", "resident")

    def __init__(self, params, charges, sat, res_x, res_d):
        self.kind = "scale_add"
        self.params = params
        self.charges = charges
        self.sat = sat
        self.res_x = res_x
        self.res_d = res_d
        self.resident = params["resident"]

    def replay(self, engine, args):
        x, alpha, d = args
        qa, bounds_a = self.res_x(x)
        df = self.res_d(d)
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim == 1:
            alpha = alpha.reshape((-1,) + (1,) * (df.ndim - 1))
        qb = engine.fmt.encode(alpha * df)
        out = _replay_add_words(engine, qa, qb, bounds_a, None, self.sat)
        return engine._emit(out, self.resident)


class _BSumStep:
    """Batched ``sum``: the lane axis is implicit and always survives.

    The reduce slab's leading dim is the per-lane reduced-axis length —
    fixed by the program — while the surviving lane dim floats with the
    active group, so the reduction plan is fetched per replay (a dict
    hit after the first call at each group size).
    """

    __slots__ = (
        "kind",
        "params",
        "charges",
        "sat",
        "is_stack",
        "trail",
        "scalar",
        "axis",
        "assume_finite",
        "resident",
    )

    def __init__(self, op, lanes):
        (x,) = op.args
        self.kind = "sum"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.assume_finite = op.params["assume_finite"]
        self.resident = op.params["resident"]
        axis = op.params["axis"]
        self.scalar = axis is None
        if isinstance(x, LaneStack):
            self.is_stack = True
            self.trail = x.words.shape[1:]
        else:
            self.is_stack = False
            self.trail = np.asarray(x, dtype=np.float64).shape[1:]
        if not self.scalar:
            if axis < 0:
                axis += len(self.trail)
        self.axis = axis

    def replay(self, engine, args):
        (x,) = args
        if self.is_stack:
            if (
                not isinstance(x, LaneStack)
                or x.fmt != engine.fmt
                or x.words.shape[1:] != self.trail
            ):
                raise ProgramBailout("operand")
            q = x.words
        else:
            if isinstance(x, (LaneStack, ResidentVector)):
                raise ProgramBailout("operand")
            arr = np.asarray(x, dtype=np.float64)
            if arr.shape[1:] != self.trail:
                raise ProgramBailout("shape")
            q = engine.fmt.encode(arr, assume_finite=self.assume_finite)
        if self.scalar:
            q = q.reshape(q.shape[0], -1)
            red_axis = 1
        else:
            red_axis = self.axis + 1
        if q.shape[red_axis] == 0:
            out = np.zeros(tuple(np.delete(q.shape, red_axis)))
            if self.scalar:
                return out.reshape(q.shape[0])
            return engine._emit(engine.fmt.encode(out), self.resident)
        slab = np.moveaxis(q, red_axis, 0)
        plan = _get_plan(engine, slab.shape)
        reduced = _replay_reduce(engine, slab, plan, self.sat)
        if self.scalar:
            return engine.fmt.decode(reduced)
        return engine._emit(reduced, self.resident)


class _BMatvecStep:
    """Batched ``matvec``: shared matrix × ``(L, N)`` iterate stack."""

    __slots__ = ("kind", "params", "charges", "sat", "res_mat", "res_vec", "rows", "cols", "resident", "bufs")

    def __init__(self, engine, op, slots, lanes):
        matrix, vector = op.args
        self.kind = "matvec"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.res_mat = _matrix_operand(engine, matrix, slots)
        self.res_vec = _b_float_operand(engine, vector, slots, lanes)
        mat = np.asarray(matrix, dtype=np.float64)
        self.rows, self.cols = mat.shape
        self.bufs: dict = {}

    def replay(self, engine, args):
        matrix, vector = args
        mat, abs_max, strict = self.res_mat(matrix)
        xs = self.res_vec(vector)
        if self.cols == 0:
            zeros = engine.fmt.encode(np.zeros((xs.shape[0], self.rows)))
            return engine._emit(zeros, self.resident)
        if _fused_product_ok(engine, self, abs_max, xs, self.cols):
            reduced = engine.backend.product_reduce_words(
                mat[np.newaxis, :, :],
                xs[:, np.newaxis, :],
                engine.fmt.scale,
                2,
                self.bufs,
            )
            return engine._emit(reduced, self.resident)
        products = mat[np.newaxis, :, :] * xs[:, np.newaxis, :]
        q = _trusted_encode(engine, products, xs, abs_max, strict)
        slab = np.moveaxis(q, 2, 0)
        plan = _get_plan(engine, slab.shape)
        reduced = _replay_reduce(engine, slab, plan, self.sat)
        return engine._emit(reduced, self.resident)


class _BWeightedSumStep:
    """Batched ``weighted_sum``: per-lane weights × shared points."""

    __slots__ = ("kind", "params", "charges", "sat", "res_w", "res_pts", "n", "resident", "bufs")

    def __init__(self, engine, op, slots, lanes):
        weights, points = op.args
        self.kind = "weighted_sum"
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.res_w = _b_float_operand(engine, weights, slots, lanes)
        self.res_pts = _matrix_operand(engine, points, slots)
        pts = np.asarray(points, dtype=np.float64)
        self.n = pts.shape[0]
        self.bufs: dict = {}

    def replay(self, engine, args):
        weights, points = args
        w = self.res_w(weights)
        pts, abs_max, strict = self.res_pts(points)
        if self.n == 0:
            zeros = engine.fmt.encode(
                np.zeros((w.shape[0],) + pts.shape[1:])
            )
            return engine._emit(zeros, self.resident)
        if _fused_product_ok(engine, self, abs_max, w, self.n):
            reduced = engine.backend.product_reduce_words(
                w[:, :, np.newaxis],
                pts[np.newaxis, :, :],
                engine.fmt.scale,
                1,
                self.bufs,
            )
            return engine._emit(reduced, self.resident)
        products = w[:, :, np.newaxis] * pts[np.newaxis, :, :]
        q = _trusted_encode(engine, products, w, abs_max, strict)
        slab = np.moveaxis(q, 1, 0)
        plan = _get_plan(engine, slab.shape)
        reduced = _replay_reduce(engine, slab, plan, self.sat)
        return engine._emit(reduced, self.resident)


class _BSparseMatvecStep:
    """Batched sparse ``matvec`` / ``weighted_sum``: shared CSR operand
    × ``(L, N)`` stack, per-row segment accumulation per lane.

    Identity-only operand resolution, as in the solo
    :class:`_SparseMatvecStep`.  The lane-count-dependent slab plans
    are fetched per replay (the active lane group shrinks as lanes
    finish), sharing the engine's dense plan cache; the fused route
    runs the fused CSR kernel over the whole stack at once.
    """

    __slots__ = (
        "kind",
        "params",
        "charges",
        "sat",
        "obj",
        "sp",
        "res_vec",
        "buckets",
        "resident",
        "bufs",
    )

    def __init__(self, engine, op, slots, lanes, kind, operand, vec_arg, sp):
        self.kind = kind
        self.params = op.params
        self.charges = tuple(op.charges)
        self.sat = any(op.sat)
        self.resident = op.params["resident"]
        self.obj = operand
        self.sp = sp
        self.res_vec = _b_float_operand(engine, vec_arg, slots, lanes)
        self.buckets = tuple(sp.row_plan().buckets)
        self.bufs: dict = {}

    def replay(self, engine, args):
        if self.kind == "matvec":
            operand, vec_arg = args
        else:
            vec_arg, operand = args
        if operand is not self.obj:
            raise ProgramBailout("operand")
        sp = self.sp
        xs = self.res_vec(vec_arg)
        if sp.nnz_max and _fused_product_ok(
            engine, self, sp.abs_max, xs, sp.nnz_max
        ):
            out = engine.backend.csr_matvec_words(
                sp.data, sp.indices, sp.indptr, xs, engine.fmt.scale, self.bufs
            )
            return engine._emit(out, self.resident)
        products = sp.data[np.newaxis, :] * xs[:, sp.indices]
        q = _trusted_encode(engine, products, xs, sp.abs_max, True)
        out = np.zeros((xs.shape[0], sp.shape[0]), dtype=np.int64)
        for _length, rows, gather in self.buckets:
            slab = np.moveaxis(q[:, gather], 2, 0)
            plan = _get_plan(engine, slab.shape)
            out[:, rows] = _replay_reduce(engine, slab, plan, self.sat)
        return engine._emit(out, self.resident)


def _b_compile_add(engine, op, slots, lanes):
    a, b = op.args
    return _AddStep(
        "add",
        op.params,
        tuple(op.charges),
        any(op.sat),
        _b_word_operand(engine, a, slots, lanes),
        _b_word_operand(engine, b, slots, lanes),
    )


def _b_compile_sub(engine, op, slots, lanes):
    a, b = op.args
    return _AddStep(
        "sub",
        op.params,
        tuple(op.charges),
        any(op.sat),
        _b_word_operand(engine, a, slots, lanes),
        _b_word_operand(engine, b, slots, lanes, negate=True),
    )


def _b_compile_scale_add(engine, op, slots, lanes):
    x, _alpha, d = op.args
    return _BScaleAddStep(
        op.params,
        tuple(op.charges),
        any(op.sat),
        _b_word_operand(engine, x, slots, lanes),
        _b_float_operand(engine, d, slots, lanes),
    )


def _b_compile_sum(engine, op, slots, lanes):
    return _BSumStep(op, lanes)


def _b_compile_matvec(engine, op, slots, lanes):
    matrix, vector = op.args
    if isinstance(matrix, SparseResidentMatrix):
        return _BSparseMatvecStep(
            engine, op, slots, lanes, "matvec", matrix, vector, matrix
        )
    return _BMatvecStep(engine, op, slots, lanes)


def _b_compile_weighted_sum(engine, op, slots, lanes):
    weights, points = op.args
    if isinstance(points, SparseResidentMatrix):
        return _BSparseMatvecStep(
            engine, op, slots, lanes, "weighted_sum", points, weights,
            points.transpose(),
        )
    return _BWeightedSumStep(engine, op, slots, lanes)


_B_COMPILERS = {
    "add": _b_compile_add,
    "sub": _b_compile_sub,
    "scale_add": _b_compile_scale_add,
    "sum": _b_compile_sum,
    "matvec": _b_compile_matvec,
    "weighted_sum": _b_compile_weighted_sum,
}


def _finalize_batched(recorder, engine, slots, lanes) -> IterationProgram:
    """Compile a batched recording against the end-of-iteration slots."""
    steps = tuple(
        _B_COMPILERS[op.kind](engine, op, slots, lanes) for op in recorder.ops
    )
    chains, tails = _link_chains(recorder.ops)
    return IterationProgram(steps, chains, tails)


class BatchedProgramEngine(BatchedEngine):
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pstate = _IDLE
        self._depth = 0
        self._slots: dict[str, object] = {}
        self._recorder: ProgramRecorder | None = None
        self._executor: ProgramExecutor | None = None
        self._iter_lane_ids: np.ndarray | None = None
        self._capture_lanes = 0
        self.program: IterationProgram | None = None
        self.program_captures = 0
        self.program_replays = 0
        self.program_bailouts = 0
        self._program_unsupported = False

    # ------------------------------------------------------------------
    # Lifecycle (called by the framework's batched loop, per mode group)
    # ------------------------------------------------------------------
    def begin_iteration(self, slots: dict[str, object]) -> str:
        """Open a lane-group iteration window (after ``select_lanes``).

        Returns ``"replay"`` / ``"record"`` / ``"off"`` exactly as
        :meth:`ProgramEngine.begin_iteration` does.
        """
        if not self.fast_path or self._program_unsupported:
            self._pstate = _IDLE
            return "off"
        if self.lane_ids is None:
            raise RuntimeError("call select_lanes() before begin_iteration()")
        self._slots = dict(slots)
        self._iter_lane_ids = self.lane_ids
        if self.program is not None:
            self._executor = ProgramExecutor(self.program)
            self._pstate = _REPLAY
            return "replay"
        self._recorder = ProgramRecorder()
        self._capture_lanes = int(self.lane_ids.shape[0])
        self._pstate = _RECORD
        return "record"

    def bind_slot(self, name: str, value) -> None:
        """Declare an iteration-varying operand discovered mid-iteration
        (the framework binds the stacked direction ``D``)."""
        if self._pstate is not _IDLE:
            self._slots[name] = value

    def invalidate_program(self) -> None:
        """Drop the cached program (rollback re-record)."""
        self.program = None

    def end_iteration(self) -> tuple[str, str | None]:
        """Close the lane-group iteration window.

        Returns ``(execution, bailout_reason)`` as the solo engine does,
        flushing a replay's deferred charges through one ordered
        ``charge_many_lanes`` call over the lanes the window opened on.
        """
        state = self._pstate
        execution = "interpreted"
        reason = None
        if state is _RECORD:
            recorder = self._recorder
            self._recorder = None
            if recorder is not None:
                try:
                    self.program = _finalize_batched(
                        recorder, self, self._slots, self._capture_lanes
                    )
                except Exception:
                    # Structure the batched compiler cannot express:
                    # stay interpreted for good rather than re-fail
                    # every iteration.
                    self.program = None
                    self._program_unsupported = True
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
                executor.bailed_reason = "shorter-iteration"
            if executor.bailed_reason is None:
                execution = "replayed"
                self.program_replays += 1
            else:
                reason = executor.bailed_reason
                self.program_bailouts += 1
                self.program = None
            if executor.pending:
                self.ledger.charge_many_lanes(
                    self._iter_lane_ids, executor.pending
                )
        self._pstate = _IDLE
        self._slots = {}
        self._iter_lane_ids = None
        return execution, reason

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _charge_lanes(self, mode_name, adds_per_lane, energy_per_add):
        state = self._pstate
        if state is _RECORD:
            recorder = self._recorder
            if recorder is not None:
                recorder.on_charge(mode_name, adds_per_lane, energy_per_add)
            BatchedEngine._charge_lanes(
                self, mode_name, adds_per_lane, energy_per_add
            )
        elif state is _REPLAY or state is _BAILED:
            self._executor.pending.append(
                (mode_name, adds_per_lane, energy_per_add)
            )
        else:
            BatchedEngine._charge_lanes(
                self, mode_name, adds_per_lane, energy_per_add
            )

    def _saturation_needed(self, qa, qb, bounds_a, bounds_b, lane_axis):
        needed = super()._saturation_needed(
            qa, qb, bounds_a, bounds_b, lane_axis
        )
        if self._pstate is _RECORD:
            recorder = self._recorder
            if recorder is not None:
                recorder.on_saturation(needed)
        return needed

    def _dispatch(self, kind, args, params):
        if self._pstate is _RECORD:
            recorder = self._recorder
            recorder.open_op(kind, args, params)
            self._depth += 1
            try:
                out = _B_BASE_IMPLS[kind](self, *args, **params)
            except BaseException:
                self._recorder = None
                self._pstate = _IDLE
                raise
            finally:
                self._depth -= 1
            recorder.close_op(out)
            return out
        # _REPLAY
        executor = self._executor
        step = executor.next_step(kind, params)
        if step is None:
            return self._bail_and_run(kind, args, params, "structure")
        idx = executor.cursor - 1
        hit = executor.memo.pop(idx, None)
        if hit is not None:
            pred_args, out = hit
            if len(pred_args) == len(args) and all(
                p is a for p, a in zip(pred_args, args)
            ):
                executor.results[idx] = out
                executor.pending.extend(step.charges)
                return out
        self._depth += 1
        try:
            out = step.replay(self, args)
        except ProgramBailout as bail:
            self._depth -= 1
            return self._bail_and_run(kind, args, params, bail.reason)
        except BaseException:
            self._depth -= 1
            raise
        self._depth -= 1
        executor.pending.extend(step.charges)
        executor.results[idx] = out
        chain = self.program.chains.get(idx)
        if chain is not None:
            _speculate_chain(self, executor, self.program, chain)
        return out

    def _bail_and_run(self, kind, args, params, reason):
        executor = self._executor
        if executor.bailed_reason is None:
            executor.bailed_reason = reason
        self._pstate = _BAILED
        return _B_BASE_IMPLS[kind](self, *args, **params)

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

    def sum(
        self,
        x,
        axis: int | None = None,
        *,
        resident: bool = False,
        assume_finite: bool = False,
    ):
        if self._depth == 0 and (
            self._pstate is _RECORD or self._pstate is _REPLAY
        ):
            return self._dispatch(
                "sum",
                (x,),
                {"axis": axis, "resident": resident, "assume_finite": assume_finite},
            )
        return BatchedEngine.sum(
            self, x, axis, resident=resident, assume_finite=assume_finite
        )

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

    def cache_stats(self) -> dict[str, int]:
        stats = super().cache_stats()
        stats["program_captures"] = self.program_captures
        stats["program_replays"] = self.program_replays
        stats["program_bailouts"] = self.program_bailouts
        stats["program_cached"] = int(self.program is not None)
        return stats


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
