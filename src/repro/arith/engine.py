"""The approximate execution engine.

An :class:`ApproxEngine` executes the additive kernels of an iterative
method *through* a bit-level adder model: float operands are quantized to
a :class:`~repro.arith.fixed.FixedPointFormat`, every elementary addition
is performed by the configured adder (vectorized), and the result is
decoded back to floats.  Every elementary addition is charged to an
:class:`EnergyLedger`, which is how the experiments obtain the paper's
"energy consumption on total approximate parts".

Multiplications are performed exactly in floating point: the paper's
platform approximates the adders only (Table 2, "Adder Impact"), and the
dot-product / matrix-vector kernels below therefore approximate the
*accumulation*, which is where approximate adders bite in practice.

Reductions use a balanced binary tree, mirroring a hardware adder-tree
reduction unit; ``n`` summands cost exactly ``n - 1`` elementary
additions per output lane regardless of tree shape.

Fixed-point residency
---------------------
Every public kernel accepts a ``resident=True`` keyword to return a
:class:`ResidentVector` — the raw fixed-point words plus their format —
instead of decoded floats, and accepts :class:`ResidentVector` operands
wherever it accepts float arrays.  Chained kernels (``sub(rhs,
matvec(A, x, resident=True))`` and friends) then encode once on entry
and decode once on exit instead of round-tripping through floats at
every step.  Because ``encode(decode(w)) == w`` for every representable
word at the supported widths, residency changes *no results and no
energy accounting* — it only removes redundant conversions.  The
literal execution — checked encodes on every call, an unconditional
saturation recompute, a concatenating tree — lives apart, in
:class:`repro.arith.reference.ReferenceEngine`; it is the oracle the
tests and the perf benchmarks' baselines run on.

Constant operands
-----------------
Iterative methods feed the same constant operands — the system matrix,
the right-hand side, cluster points — into every iteration.  The
engines encode and scan them on every call; iteration-program replay
(:mod:`repro.arith.program`) resolves each one by identity to the
words, bounds and ``abs_max`` it computed once at compile time.  The
CSR operand, :class:`SparseResidentMatrix`, is validated and profiled
once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

try:  # The engine treats scipy as optional (it is a declared project
    # dependency, but every scipy-accelerated path keeps a pure-NumPy
    # fallback); used only for the *exact* CSR helpers, never in the
    # approximate datapath itself.
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None

from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ApproxMode
from repro.backends import KERNELS
from repro.backends.base import _row_starts
from repro.hardware import bitops


class ResidentVector:
    """Fixed-point words kept resident in the datapath between kernels.

    A thin, immutable-by-convention wrapper pairing an ``int64`` word
    array with the :class:`~repro.arith.fixed.FixedPointFormat` it is
    encoded in.  Engines hand these out when a kernel is called with
    ``resident=True`` and accept them as operands, skipping the
    decode/encode round-trip between chained operations.

    Attributes:
        words: the fixed-point words (``int64``, any shape).
        fmt: the format the words are encoded in.
    """

    __slots__ = ("words", "fmt", "_bounds")

    def __init__(
        self,
        words: np.ndarray,
        fmt: FixedPointFormat,
        bounds: tuple[int, int] | None = None,
    ):
        self.words = np.asarray(words, dtype=np.int64)
        self.fmt = fmt
        self._bounds = bounds

    @property
    def shape(self) -> tuple[int, ...]:
        return self.words.shape

    @property
    def size(self) -> int:
        return int(self.words.size)

    def bounds(self) -> tuple[int, int] | None:
        """Cached ``(min, max)`` of the words; ``None`` when empty."""
        if self._bounds is None and self.words.size:
            self._bounds = (int(self.words.min()), int(self.words.max()))
        return self._bounds

    def decode(self) -> np.ndarray:
        """The float values these words represent."""
        return self.fmt.decode(self.words)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            # NumPy 2 semantics: ``copy=False`` demands a zero-copy view,
            # but decoding always materialises a fresh float array.
            raise ValueError(
                "ResidentVector cannot be converted to an array without "
                "copying (decode allocates); use copy=None or copy=True"
            )
        decoded = self.decode()
        return decoded if dtype is None else decoded.astype(dtype)

    def __repr__(self) -> str:
        return f"ResidentVector(shape={self.words.shape}, fmt={self.fmt.describe()})"


#: Words per adder call in :func:`_reduce_csr_rows`: two 128 KiB operand
#: chunks and their sum stay inside a 2 MiB L2.  A lane stack splits it
#: across its lanes.
_FOLD_CHUNK = 16384


class SparseReductionPlan:
    """Level-ordered tree-reduce schedule over every CSR row at once.

    Pure CSR geometry, engine-independent.  Each level gathers its live
    words into one buffer laid out as ``[every row's first half | every
    row's second half, same row order | odd-length rows' tails]``, so
    its ``H`` pairs are the two contiguous halves ``buf[:H]`` and
    ``buf[H:2H]`` and the sums land in ``buf[:H]``, each row's run in
    row order — the ``(half, odd)`` walk of
    :func:`~repro.hardware.bitops.reduction_levels` for every row at
    once (:func:`_reduce_csr_rows`).  Level 0 gathers from the
    CSR-ordered products, each later level from the one before.

    Attributes:
        n_rows / nnz: number of matrix rows (empty rows included) and
            stored entries.
        levels: per tree level, ``(gather, H, rows, pos, longest)``: the
            ``intp`` map into the previous buffer, the pair count, the
            rows whose sum the level finishes with their ``buf``
            positions, and the most words a row has left to fold.
        single_rows / single_pos: one-entry rows and their CSR
            positions, read out directly; empty rows emit the zero word.
        counts: add counts in ledger order — nnz lengths ascending,
            each length's levels root-ward, ``half`` times its rows.
    """

    __slots__ = ("n_rows", "nnz", "levels", "single_rows", "single_pos", "counts", "_scratch")

    def __init__(self, indptr: np.ndarray):
        # intp: NumPy converts any other index dtype on every use.
        indptr = np.asarray(indptr, dtype=np.intp)
        self.n_rows = int(indptr.size - 1)
        self.nnz = int(indptr[-1])
        self._scratch = None
        lengths = np.diff(indptr)
        nnz, rows = np.unique(lengths[lengths > 0], return_counts=True)
        self.counts = tuple(
            half * int(g)
            for length, g in zip(nnz.tolist(), rows)
            for half, _odd in bitops.reduction_levels(length)
        )
        self.single_rows = np.flatnonzero(lengths == 1)
        self.single_pos = indptr[self.single_rows]
        # Each live row's words 0..L-2 sit at start + k in the source
        # buffer and its word L-1 at last (contiguous at level 0; later
        # the sums run, then the carried tail).
        rows = np.flatnonzero(lengths > 1)
        start, cur = indptr[rows], lengths[rows]
        last = start + cur - 1
        levels = []
        while rows.size:
            half, odd = cur // 2, (cur & 1).astype(bool)
            ends = np.cumsum(half)
            n_pairs = int(ends[-1])
            gather = np.empty(2 * n_pairs + int(odd.sum()), dtype=np.intp)
            first, second = gather[:n_pairs], gather[n_pairs : 2 * n_pairs]
            first[:] = np.arange(n_pairs, dtype=np.intp)
            first += np.repeat(start - (ends - half), half)
            np.add(first, np.repeat(half, half), out=second)
            second[ends[~odd] - 1] = last[~odd]
            gather[2 * n_pairs :] = last[odd]
            start = ends - half
            last = np.where(odd, 2 * n_pairs + np.cumsum(odd) - 1, ends - 1)
            longest = int(cur.max())
            cur = cur - half
            done = cur == 1
            levels.append((gather, n_pairs, rows[done], start[done], longest))
            rows, start, cur, last = rows[~done], start[~done], cur[~done], last[~done]
        self.levels = tuple(levels)

    def scratch(self, lanes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``int64`` buffers for a ``lanes``-row stack (1 solo),
        reused across calls, so one plan serves one call at a time: the
        encoded products and the fold's even- and odd-level words.
        Fresh nnz-sized arrays would page-fault whenever the allocator
        has handed their pages back.  Sized for the widest stack seen."""
        if self._scratch is None or self._scratch[0] < lanes:
            sizes = [gather.size for gather, *_ in self.levels]
            self._scratch = (lanes,) + tuple(
                np.empty(lanes * size, dtype=np.int64)
                for size in (self.nnz, max(sizes[0::2], default=0), max(sizes[1::2], default=0))
            )
        return self._scratch[1:]


class SparseResidentMatrix:
    """A constant CSR multiplicative operand validated and profiled once.

    Products stay exact float over the stored entries only, and each
    output row accumulates its own nnz products through the approximate
    adder — ``nnz_i - 1`` elementary additions per row, zero for empty
    or single-entry rows.  ``abs_max`` is ``max(|data|)``, so the
    product bound ``abs_max * max|x|`` covers every stored product: it
    proves the product encode finite from an ``O(n)`` scan of ``x``
    (:func:`_csr_product_words`), and replay's fused-reduction proof
    specializes the dense ``n`` to ``nnz_max``.

    The arrays are treated as immutable after construction; the row
    plan (with its reused buffers) and the transpose are built lazily
    and cached on the instance, and so is ``_kernel_bufs``: the scratch
    every fused :meth:`~repro.backends.base.KernelBackend.csr_matvec_words`
    call over this matrix shares, whichever program issues it — its
    segment-sum selector (or, without scipy, the non-empty rows and
    their starts, which :meth:`matvec_exact` reads too) is built once
    per matrix, on first use.

    Attributes:
        data: nnz float64 values.
        indices: nnz int64 column indices (ascending within each row).
        indptr: ``rows + 1`` int64 row pointers.
        shape: ``(rows, cols)``.
        abs_max: ``max(|data|)`` (``0.0`` when empty).
        nnz_max: largest per-row nnz (the replay fusion bound).
    """

    __slots__ = (
        "data",
        "indices",
        "indptr",
        "shape",
        "abs_max",
        "nnz_max",
        "_plan",
        "_transpose",
        "_kernel_bufs",
        "_row_ids",
        "_scipy",
        "_scipy_T",
    )

    ndim = 2

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        rows, cols = (int(s) for s in shape)
        self.shape = (rows, cols)
        if self.indptr.shape != (rows + 1,):
            raise ValueError("CSR indptr must have rows + 1 entries")
        if self.data.shape != self.indices.shape or self.data.ndim != 1:
            raise ValueError("CSR data and indices must be flat and equal-length")
        if int(self.indptr[0]) != 0 or int(self.indptr[-1]) != self.data.size:
            raise ValueError("CSR indptr must span the data array")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("CSR indptr must be non-decreasing")
        if self.indices.size and (
            int(self.indices.min()) < 0 or int(self.indices.max()) >= cols
        ):
            raise ValueError("CSR column index out of range")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("CSR values must be finite")
        self.abs_max = float(np.abs(self.data).max()) if self.data.size else 0.0
        nnz = np.diff(self.indptr)
        self.nnz_max = int(nnz.max()) if nnz.size else 0
        self._plan = None
        self._transpose = None
        self._kernel_bufs: dict = {}
        self._row_ids = None
        self._scipy = None
        self._scipy_T = None

    @classmethod
    def from_dense(cls, array) -> "SparseResidentMatrix":
        """CSR of the nonzero entries of a dense 2-D array."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("from_dense needs a 2-D array")
        rows, cols = np.nonzero(arr)
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=arr.shape[0]), out=indptr[1:])
        return cls(arr[rows, cols], cols, indptr, arr.shape)

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> "SparseResidentMatrix":
        """CSR from unsorted COO triplets (duplicates are summed)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        n_rows, n_cols = (int(s) for s in shape)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("COO row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("COO column index out of range")
        key = rows * n_cols + cols
        uniq, inverse = np.unique(key, return_inverse=True)
        data = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(data, inverse, values)
        r = uniq // n_cols
        c = uniq % n_cols
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=indptr[1:])
        return cls(data, c, indptr, (n_rows, n_cols))

    @classmethod
    def from_csr_like(cls, matrix) -> "SparseResidentMatrix":
        """Adopt any scipy-style object exposing ``tocsr()`` (duck-typed
        so scipy stays an optional dependency of the engine)."""
        csr = matrix.tocsr()
        return cls(csr.data, csr.indices, csr.indptr, csr.shape)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row_plan(self) -> SparseReductionPlan:
        """The cached per-row reduce schedule (built on first use)."""
        if self._plan is None:
            self._plan = SparseReductionPlan(self.indptr)
        return self._plan

    def row_ids(self) -> np.ndarray:
        """Cached COO row index of every stored entry (nnz int64)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_ids

    def transpose(self) -> "SparseResidentMatrix":
        """The cached CSR transpose (``weighted_sum`` reduces through
        it: ``sum_i w_i * S[i, :] == S.T @ w``)."""
        if self._transpose is None:
            self._transpose = SparseResidentMatrix.from_coo(
                self.indices, self.row_ids(), self.data, (self.shape[1], self.shape[0])
            )
        return self._transpose

    def _scipy_handle(self):
        """Cached scipy CSR view of the arrays (None w/o scipy)."""
        if _scipy_sparse is not None and self._scipy is None:
            self._scipy = _scipy_sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy

    def matvec_exact(self, x: np.ndarray) -> np.ndarray:
        """Exact float64 ``A @ x`` (solver objectives/gradients; the
        approximate datapath goes through the engine instead).

        Control loops evaluate this every iteration, so the geometry is
        cached on the instance: a scipy CSR handle when scipy is
        available (C row loop, no temporaries), else the non-empty-row
        reduceat partition — rebuilding either O(rows) structure per
        call dominated the call at web scale."""
        x = np.asarray(x, dtype=np.float64)
        if not self.data.size:
            return np.zeros(self.shape[0], dtype=np.float64)
        handle = self._scipy_handle()
        if handle is not None:
            return handle @ x
        out = np.zeros(self.shape[0], dtype=np.float64)
        nz, starts = _row_starts(self.indptr, self._kernel_bufs)
        out[nz] = np.add.reduceat(self.data * x[self.indices], starts)
        return out

    def rmatvec_exact(self, y: np.ndarray) -> np.ndarray:
        """Exact float64 ``A.T @ y``.

        Both branches accumulate each output in ascending source-row
        order: the cached scipy CSC view walks a column's entries by
        row, and ``bincount`` accumulates the flat (row-major) entry
        order — the same sequential order ``np.add.at`` walks, minus
        the scatter-add's per-element dispatch cost."""
        y = np.asarray(y, dtype=np.float64)
        if not self.data.size:
            return np.zeros(self.shape[1], dtype=np.float64)
        handle = self._scipy_handle()
        if handle is not None:
            if self._scipy_T is None:
                self._scipy_T = handle.T.tocsr()
            return self._scipy_T @ y
        return np.bincount(
            self.indices,
            weights=self.data * y[self.row_ids()],
            minlength=self.shape[1],
        )

    def diagonal(self) -> np.ndarray:
        """The stored main diagonal (zeros where no entry is stored; a
        row storing its diagonal column twice reads the first entry)."""
        out = np.zeros(min(self.shape), dtype=np.float64)
        row_ids = self.row_ids()
        hits = np.flatnonzero(self.indices == row_ids)
        rows, first = np.unique(row_ids[hits], return_index=True)
        out[rows] = self.data[hits[first]]
        return out

    def toarray(self) -> np.ndarray:
        """Densify (test/diagnostic helper; never used on the hot path)."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def __repr__(self) -> str:
        return (
            f"SparseResidentMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nnz_max={self.nnz_max}, abs_max={self.abs_max:g})"
        )


@dataclass
class EnergyLedger:
    """Accumulates elementary-addition counts and energy, per mode.

    Attributes:
        adds: total elementary additions executed.
        energy: total energy units charged.
        adds_by_mode: per-mode addition counts.
        energy_by_mode: per-mode energy totals.
        observer: optional observability hook (duck-typed
            :class:`repro.obs.observer.Observer`); every charge is
            forwarded to its ``on_charge`` so traced runs see where
            energy goes without the ledger depending on the obs
            package.  Excluded from equality and snapshots.
    """

    adds: int = 0
    energy: float = 0.0
    adds_by_mode: dict[str, int] = field(default_factory=dict)
    energy_by_mode: dict[str, float] = field(default_factory=dict)
    observer: object | None = field(default=None, compare=False, repr=False)

    def charge(self, mode_name: str, n_adds: int, energy_per_add: float) -> None:
        """Record ``n_adds`` elementary additions on mode ``mode_name``."""
        if n_adds < 0:
            raise ValueError(f"n_adds must be >= 0, got {n_adds}")
        cost = n_adds * energy_per_add
        self.adds += n_adds
        self.energy += cost
        self.adds_by_mode[mode_name] = self.adds_by_mode.get(mode_name, 0) + n_adds
        self.energy_by_mode[mode_name] = (
            self.energy_by_mode.get(mode_name, 0.0) + cost
        )
        if self.observer is not None:
            self.observer.on_charge(mode_name, n_adds, cost)

    def charge_many(
        self, charges: "list[tuple[str, int, float]]"
    ) -> None:
        """Apply a sequence of ``(mode_name, n_adds, energy_per_add)``
        charges in order.

        Exactly equivalent — float accumulation for float accumulation —
        to calling :meth:`charge` once per tuple: a replayed iteration
        (see :mod:`repro.arith.program`) flushes its deferred charge list
        through one call without perturbing the accumulation order the
        interpreted execution would have used, so ledgers stay equal as
        floats, not merely approximately.

        The loop body is :meth:`charge` inlined with the counters held
        in locals (replay flushes tens of thousands of scalar charges
        per iteration at web scale, where per-tuple attribute traffic
        was measurable); the accumulation order is untouched, and an
        observer sees each entry as :meth:`charge` forwards it.
        """
        observer = self.observer
        adds = self.adds
        energy = self.energy
        adds_by_mode = self.adds_by_mode
        energy_by_mode = self.energy_by_mode
        get_adds = adds_by_mode.get
        get_energy = energy_by_mode.get
        try:
            for mode_name, n_adds, energy_per_add in charges:
                if n_adds < 0:
                    raise ValueError(f"n_adds must be >= 0, got {n_adds}")
                cost = n_adds * energy_per_add
                adds += n_adds
                energy += cost
                adds_by_mode[mode_name] = get_adds(mode_name, 0) + n_adds
                energy_by_mode[mode_name] = get_energy(mode_name, 0.0) + cost
                if observer is not None:
                    observer.on_charge(mode_name, n_adds, cost)
        finally:
            # Write-back in a finally so a mid-list validation error
            # leaves the totals consistent with the per-mode dicts,
            # exactly as the per-call path would.
            self.adds = adds
            self.energy = energy

    def reset(self) -> None:
        """Zero every counter."""
        self.adds = 0
        self.energy = 0.0
        self.adds_by_mode.clear()
        self.energy_by_mode.clear()

    def snapshot(self) -> "EnergyLedger":
        """An independent copy (for before/after deltas)."""
        return EnergyLedger(
            adds=self.adds,
            energy=self.energy,
            adds_by_mode=dict(self.adds_by_mode),
            energy_by_mode=dict(self.energy_by_mode),
        )

    def delta_energy(self, earlier: "EnergyLedger") -> float:
        """Energy charged since ``earlier`` was snapshotted."""
        return self.energy - earlier.energy


def _saturating_add(engine, qa, qb, bounds_a=None, bounds_b=None, out=None, proved=False):
    """One adder call behind the saturating output stage, charge-free.

    The adder wraps; when the *true* sum leaves the representable
    range, the output stage clamps it instead of trusting the wrapped
    (sign-flipped) approximate word.  One range precheck (the operands'
    global ``(min, max)``, taken from ``bounds_*`` when the caller
    already knows them) proves most adds cannot leave the range and
    skips the ``int64`` true-sum recompute.  The clamp is elementwise,
    so a conservative precheck (one envelope over a whole lane stack)
    can only make the recompute run more often, never change a word.
    Every engine add, tree level and CSR fold chunk ends here.

    Returns ``(words, bounds)``.  ``bounds`` envelopes the words when
    the operand bounds pin them down, so a fold carries it to its next
    level instead of rescanning: for the exact adder it is the clipped
    true-sum interval; for an adder with a declared
    :attr:`~repro.hardware.adders.base.AdderModel.error_bound` ``E`` it
    is that interval widened by ``E`` on both sides, when the widened
    interval fits the word — neither the true sum nor the adder's word
    can then leave it, so nothing wraps or clamps.  Otherwise ``bounds``
    is ``None``.  ``proved`` says the caller has already shown that
    (:func:`_tree_proved`) and skips the precheck.  Replay passes
    ``out``, a buffer it owns (possibly ``qa`` itself): a proved add of
    an approximate adder then runs the adder's in-range kernel into it
    (:meth:`~repro.backends.base.KernelBackend.add_words_inrange`).
    """
    adder = engine.mode.adder
    bounds = clamp = None
    if not proved and engine.fmt.overflow == "saturate" and qa.size and qb.size:
        if bounds_a is None:
            bounds_a = (int(qa.min()), int(qa.max()))
        if bounds_b is None:
            bounds_b = (int(qb.min()), int(qb.max()))
        lo, hi = bounds_a[0] + bounds_b[0], bounds_a[1] + bounds_b[1]
        lo_w, hi_w = engine._signed_lo, engine._signed_hi
        err = adder.error_bound
        if adder.is_exact:
            bounds = (max(lo, lo_w), min(hi, hi_w))
        elif err is not None and lo - err >= lo_w and hi + err <= hi_w:
            bounds, proved = (lo - err, hi + err), True
        clamp = lo < lo_w or hi > hi_w
    if proved and out is not None:
        return engine.backend.add_words_inrange(qa, qb, adder, out=out), bounds
    words = engine.backend.add_signed(adder, qa, qb)
    if clamp:
        lo_w, hi_w = engine._signed_lo, engine._signed_hi
        true = np.add(qa, qb, dtype=np.int64)
        overflowed = (true < lo_w) | (true > hi_w)
        if np.any(overflowed):
            words = np.where(overflowed, np.clip(true, lo_w, hi_w), words)
    return words, bounds


def _tree_proved(engine, m: int, bounds) -> bool:
    """Whether a balanced tree over ``m`` words within ``bounds`` keeps
    every add in the word: each node over ``j <= m`` words lies within
    ``j·max(hi, 0) + (j-1)·E`` and ``j·min(lo, 0) - (j-1)·E``, ``E``
    the approximate adder's declared error bound, so neither its true
    sum nor its adder word leaves the word when the ``j = m`` ends fit.
    Exact adders and adders that declare no bound prove nothing here.
    """
    adder = engine.mode.adder
    err = adder.error_bound
    if adder.is_exact or err is None:
        return False
    return (
        m * min(bounds[0], 0) - (m - 1) * err >= engine._signed_lo
        and m * max(bounds[1], 0) + (m - 1) * err <= engine._signed_hi
    )


def _fold(
    engine, q: np.ndarray, bounds=None, owned: bool = False, inrange: bool = False
) -> np.ndarray:
    """Balanced-tree reduction of axis 0 down to one slice, charge-free.

    Walks :func:`~repro.hardware.bitops.reduction_levels` (the tree
    depends on the reduced length alone, so lane stacks fold alike),
    each level one :func:`_saturating_add` of ``cur[:half]`` and
    ``cur[half:2*half]``.  One min/max of ``q`` (or the caller's
    ``bounds`` on its words) bounds the first level.  Once
    :func:`_tree_proved` holds for the words left — at the first level
    when ``n·W + (n-1)·E`` fits the word, ``W`` bounding the words —
    no level checks or scans again.  Until then each level hands its
    output bounds to the next, and a level that could not bound its
    words (an approximate adder whose widened interval leaves the word,
    or one without a declared error bound) rescans them.

    ``owned`` says the fold may overwrite ``q`` (a tile or a fresh
    encode, never a resident's words): odd tails then carry inside it;
    otherwise one buffer is allocated at the first level that needs
    one.  ``inrange`` (replay) lets an approximate adder's in-range
    kernels run instead of the adder call: once the tree proves, the
    words left fold in closed form
    (:meth:`~repro.backends.base.KernelBackend.reduce_inrange`), and a
    level proved on its own adds into the lower half of the level's
    buffer.  The exact adder keeps the adder call: replay fuses its
    in-range trees whole before they get here (``_replay_reduce``).
    Callers charge ``half`` adds per reduced slot for each level.
    """
    cur = q
    if cur.shape[0] <= 1:
        return cur[0]
    if engine.fmt.overflow != "saturate":
        bounds = None
    elif bounds is None and cur.size:
        bounds = (int(cur.min()), int(cur.max()))
    levels = bitops.reduction_levels(cur.shape[0])
    last = len(levels) - 1
    proved = False
    buf = cur if owned else None
    for i, (half, odd) in enumerate(levels):
        if bounds is not None and not proved:
            proved = _tree_proved(engine, cur.shape[0], bounds)
            if proved and inrange:
                words = cur if buf is not None else cur.copy()
                return engine.backend.reduce_inrange(words, 0, engine.mode.adder)
        if inrange and buf is None:
            buf = np.empty((half + odd,) + cur.shape[1:], dtype=np.int64)
        target = buf[:half] if inrange else None
        folded, carried = _saturating_add(
            engine, cur[:half], cur[half : 2 * half], bounds, bounds, target, proved
        )
        if odd:
            if buf is None:
                buf = np.empty((half + 1,) + cur.shape[1:], dtype=np.int64)
            # After the add: with buf = cur, index half held the second
            # half's first word; 2*half sits above every write here.
            buf[half] = cur[2 * half]
            if folded is not target:
                buf[:half] = folded
            cur = buf[: half + 1]
        else:
            cur = folded
        buf = cur
        if bounds is not None and not proved and i < last:
            if carried is None:
                bounds = (int(cur.min()), int(cur.max()))
            elif odd:
                # The carried tail word keeps last level's bounds.
                bounds = (min(carried[0], bounds[0]), max(carried[1], bounds[1]))
            else:
                bounds = carried
    return cur[0]


#: Products per tile of :func:`_product_fold`: a tile's float products,
#: their words and its tree levels stay inside a 2 MiB L2.  Twice this
#: was faster in isolation, but in a long run each tile's 450 KiB encode
#: arrays page-faulted anew (the allocator handed the freed heap top
#: back), which cost the lane stacks more than the larger tiles saved.
_TILE_WORDS = 2 * _FOLD_CHUNK


def _product_operands(c: np.ndarray, v: np.ndarray):
    """``(outer, inner, swapped)``: the ``(n, A)`` and ``(n, B)``
    factors that lay a dense product fold out as ``(n, A, B)``.

    ``c`` is the constant ``(n, m)`` operand, reduced axis first; the
    varying ``(..., n)`` operand's ``G`` leading slots (lanes and/or
    weight rows) form an ``(n, G)`` block.  The longer kept axis goes
    innermost: ``(n, G, m)`` when ``m >= G`` (a Jacobi lane stack:
    columns, lanes, rows), else ``(n, m, G)`` (a GMM block: points,
    coordinates, lanes × components), ``swapped`` because the fold then
    comes out ``(m, G)``.
    """
    n, m = c.shape
    block = np.moveaxis(v, -1, 0).reshape(n, math.prod(v.shape[:-1]))
    if m < block.shape[1]:
        return c, block, True
    return block, c, False


def _product_fold(
    engine, c, v, fold=_fold, bound: int | None = None, bufs: dict | None = None
) -> np.ndarray:
    """``fold_i encode(c[i, :] * v[..., i])`` as ``(..., m)`` words,
    charge-free: the dense ``matvec`` (``c`` the transposed matrix) and
    ``weighted_sum`` (``c`` the points) of every engine.

    Products are laid out as :func:`_product_operands` says, reduced
    axis outermost, so every tree level adds two contiguous halves.
    Product, encode and fold run one tile of the kept axes at a time,
    at most :data:`_TILE_WORDS` products, so all three stay in L2.  An
    output word's tree depends on ``n`` alone and the adder and its
    output stage are elementwise, so the words equal one fold of the
    whole block, whatever the tiles.  ``fold`` reduces a tile's axis 0
    as ``fold(engine, words, bounds, True)``, the words its own
    (:func:`_fold`, or replay's route).  ``bound`` (replay) is a proved
    ``W >= |word|`` for every encoded product; it skips the encode's
    finiteness scan, and when it fits the word the encode's clip is a
    no-op too: each tile is then scaled, rounded and cast in place, in
    its own float buffer read as ``int64``, and folds from bounds
    ``(-W, W)`` without a scan.  ``bufs`` (a replay step's scratch)
    keeps that tile across calls, grown to the largest tile the step
    has met.  An empty reduced axis gives the zero word.
    """
    n, m = c.shape
    shape = v.shape[:-1] + (m,)
    fmt = engine.fmt
    if n == 0:
        return fmt.encode(np.zeros(shape))
    outer, inner, swapped = _product_operands(c, v)
    A, B = outer.shape[1], inner.shape[1]
    bt = max(1, min(B, _TILE_WORDS // n))
    at = max(1, min(A, _TILE_WORDS // (n * bt)))
    out = np.empty((A, B), dtype=np.int64)
    size = n * at * bt
    buf = None if bufs is None else bufs.get("tile")
    if buf is None or buf.size < size:
        buf = np.empty(size)
        if bufs is not None:
            bufs["tile"] = buf
    inplace = bound is not None and bound <= engine._signed_hi
    bounds = (-bound, bound) if inplace else None
    if inplace:
        # Scale the small varying block instead of every product: the
        # power-of-two multiply is exact, so fl(c·(v·scale)) equals
        # fl(c·v)·scale, but where c·v underflows, and there both round
        # to the zero word.
        if swapped:
            inner = inner * fmt.scale
        else:
            outer = outer * fmt.scale
    for a0 in range(0, A, at):
        a1 = min(a0 + at, A)
        for b0 in range(0, B, bt):
            b1 = min(b0 + bt, B)
            tile = buf[: n * (a1 - a0) * (b1 - b0)]
            prod = tile.reshape(n, a1 - a0, b1 - b0)
            np.multiply(outer[:, a0:a1, None], inner[:, None, b0:b1], out=prod)
            if inplace:
                # encode's float ops without its clip; a 1-D copyto
                # casts in place, where a 3-D one would copy the tile.
                np.rint(tile, out=tile)
                np.copyto(tile.view(np.int64), tile, casting="unsafe")
                words = tile.view(np.int64).reshape(prod.shape)
            else:
                words = fmt.encode(prod, assume_finite=bound is not None)
            out[a0:a1, b0:b1] = fold(engine, words, bounds, True)
    return (out.T if swapped else out).reshape(shape)


def _charge_folds(charge, mode, n: int, per_fold: int, folds: int = 1) -> None:
    """Charge ``folds`` balanced trees over ``n`` summands through the
    engine hook ``charge``, tree after tree in C order of the sums,
    each tree's levels root-ward with ``half * per_fold`` adds: the
    charges of ``folds`` separate calls."""
    levels = bitops.reduction_levels(n)
    for _ in range(folds):
        for half, _odd in levels:
            charge(mode.name, half * per_fold, mode.energy_per_add)


def _reduce_csr_rows(
    engine, plan: SparseReductionPlan, q: np.ndarray, bounds=None, inrange: bool = False
) -> np.ndarray:
    """Reduce every CSR row's tree, level by level, in L2-sized chunks.

    ``q`` holds the encoded products at their CSR positions on its last
    axis (``(nnz,)`` solo, ``(B, nnz)`` lane-stacked), ``bounds`` their
    range when the caller knows it.  Each level is one gather, then
    ``buf[:H] += buf[H:2H]`` through :func:`_saturating_add` in
    :data:`_FOLD_CHUNK`-word calls, then the finished rows' read-out.
    The adder and the saturating output stage are elementwise, so the
    words equal each row's own tree walk whichever pairs share a call.
    The bounds and the tree proof work as in :func:`_fold`, with the
    longest row's words left standing for ``n``: a level's bounds carry
    to the next, joined with the odd tails' (which keep theirs), and a
    level that could not bound its sums has the next one rescan its
    gathered words.  ``inrange`` (replay) lets a proved level of an
    approximate adder add in place.  Charges nothing: interpreted
    engines charge ``plan.counts``, replay steps their recorded
    charges.  Returns ``(..., n_rows)``.
    """
    lead = q.shape[:-1]
    lanes = lead[0] if lead else 1
    step = max(1, _FOLD_CHUNK // lanes)
    out = np.zeros(lead + (plan.n_rows,), dtype=np.int64)
    out[..., plan.single_rows] = q[..., plan.single_pos]
    bufs = plan.scratch(lanes)[1:]
    saturate = engine.fmt.overflow == "saturate"
    if not saturate:
        bounds = None
    proved = False
    for level, (gather, half, rows, pos, longest) in enumerate(plan.levels):
        buf = bufs[level % 2][: lanes * gather.size].reshape(lead + gather.shape)
        # mode="clip" (a no-op on valid maps) lets take write out unbuffered.
        q = np.take(q, gather, axis=-1, out=buf, mode="clip")
        if saturate and not proved:
            if bounds is None and q.size:
                bounds = (int(q.min()), int(q.max()))
            proved = bounds is not None and _tree_proved(engine, longest, bounds)
        carried = None
        for c in range(0, half, step):
            e = min(c + step, half)
            a = q[..., c:e]
            b = q[..., half + c : half + e]
            words, carried = _saturating_add(
                engine, a, b, bounds, bounds, a if inrange else None, proved
            )
            if words is not a:
                a[...] = words
        if not proved:
            # The odd tails keep their words, so their bounds join.
            if carried is None:
                bounds = None
            else:
                bounds = (min(carried[0], bounds[0]), max(carried[1], bounds[1]))
        out[..., rows] = q[..., pos]
    return out


def _csr_product_words(engine, sp: SparseResidentMatrix, x: np.ndarray):
    """The encoded products ``sp.data * x[..., sp.indices]``, CSR order,
    and their bounds.

    ``x`` is ``(n,)`` solo or ``(B, n)`` lane-stacked.  An ``O(n)`` scan
    of ``x`` replaces the encode's ``O(nnz)`` finiteness scan: a
    non-finite ``x`` raises the checked encode's error, and a finite
    bound ``abs_max * max|x|`` proves every product finite (global for
    a lane stack, which is sound per lane).  The words are identical
    with or without the trust.  The same bound, scaled and rounded,
    is ``W >= |word|`` (``fl`` and ``rint`` are monotone); the bounds
    are ``(-W, W)`` when ``W`` fits the word, else ``None``.  Products
    and encode run in :data:`_FOLD_CHUNK`-word blocks, so no nnz-sized
    temporary is allocated, into the row plan's reused words buffer:
    the result is a view of it, valid until the next call on that plan.
    """
    trusted, bounds = True, None
    if x.size:
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot encode non-finite values into fixed point")
        peak = sp.abs_max * float(np.abs(x).max())
        trusted = bool(np.isfinite(peak))
        scaled = peak * engine.fmt.scale
        w = int(np.rint(scaled)) if np.isfinite(scaled) else None
        if w is not None and w <= engine._signed_hi:
            bounds = (-w, w)
    lanes = x.shape[0] if x.ndim == 2 else 1
    words = sp.row_plan().scratch(lanes)[0][: lanes * sp.nnz].reshape(x.shape[:-1] + (sp.nnz,))
    step = max(1, _FOLD_CHUNK // lanes)
    for c in range(0, sp.nnz, step):
        products = np.take(x, sp.indices[c : c + step], axis=-1)
        products *= sp.data[c : c + step]
        words[..., c : c + step] = engine.fmt.encode(products, assume_finite=trusted)
    return words, bounds


class ApproxEngine:
    """Executes additive kernels through one approximation mode.

    Args:
        mode: the :class:`~repro.arith.modes.ApproxMode` to execute on.
        fmt: fixed-point format of the datapath.
        ledger: energy ledger to charge; a private one is created when
            omitted.  Several engines (one per mode) typically share a
            single ledger so a run's total energy lands in one place.
        approximate_multiplier: when ``True``, :meth:`mul` runs on an
            array multiplier *composed from the mode's adder* (so adder
            approximation propagates into products, as in silicon)
            instead of exact float multiplication.  Off by default —
            the paper's platform approximates adders only.
    """

    def __init__(
        self,
        mode: ApproxMode,
        fmt: FixedPointFormat,
        ledger: EnergyLedger | None = None,
        approximate_multiplier: bool = False,
    ):
        if mode.adder.width != fmt.width:
            raise ValueError(
                f"mode width {mode.adder.width} != format width {fmt.width}"
            )
        self.mode = mode
        self.fmt = fmt
        self.backend = KERNELS
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.approximate_multiplier = bool(approximate_multiplier)
        self._signed_lo, self._signed_hi = bitops.signed_range(fmt.width)
        self._multiplier = None
        self._mul_energy = None

    # ------------------------------------------------------------------
    # Elementary fixed-point plumbing
    # ------------------------------------------------------------------
    def _coerce(self, x) -> tuple[np.ndarray, tuple[int, int] | None]:
        """Operand → ``(words, bounds)``; floats are encoded, residents
        are taken as-is (their cached bounds ride along)."""
        if isinstance(x, ResidentVector):
            self._check_fmt(x)
            return x.words, x.bounds()
        return self.fmt.encode(np.asarray(x, dtype=np.float64)), None

    def _check_fmt(self, rv: ResidentVector) -> None:
        if rv.fmt != self.fmt:
            raise ValueError(
                f"resident vector format {rv.fmt.describe()} does not match "
                f"engine format {self.fmt.describe()}"
            )

    def _to_float(self, x) -> np.ndarray:
        """Operand → float array (decoding residents)."""
        if isinstance(x, ResidentVector):
            self._check_fmt(x)
            return x.decode()
        return np.asarray(x, dtype=np.float64)

    def _emit(self, words: np.ndarray, resident: bool):
        """Kernel output: resident words on request, decoded floats
        otherwise."""
        if resident:
            return ResidentVector(words, self.fmt)
        return self.fmt.decode(words)

    def _add_words(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        bounds_a: tuple[int, int] | None = None,
        bounds_b: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Add fixed-point words through the mode's adder and the
        saturating output stage (:func:`_saturating_add`), charging
        one addition per output word."""
        out, _ = _saturating_add(self, qa, qb, bounds_a, bounds_b)
        if qa.shape == qb.shape:
            n = int(qa.size)
        else:
            n = int(np.broadcast(qa, qb).size)
        self._charge(self.mode.name, n, self.mode.energy_per_add)
        return out

    def _charge(self, mode_name: str, n_adds: int, energy_per_add: float) -> None:
        """Ledger-charge hook for every kernel-issued charge.

        Plain engines forward straight to the ledger; the capture/replay
        engine (:class:`repro.arith.program.ProgramEngine`) overrides
        this to log charges while recording and to defer them to one
        ordered end-of-iteration flush while replaying.
        """
        self.ledger.charge(mode_name, n_adds, energy_per_add)

    def _reduce_words(self, q: np.ndarray) -> np.ndarray:
        """Balanced-tree reduction of axis 0 down to a single slice
        (:func:`_fold`), then one charge per tree level, root-ward —
        the reference engine's ``n - 1`` adds per reduced slot, in its
        order."""
        q = np.asarray(q, dtype=np.int64)
        out = _fold(self, q)
        _charge_folds(self._charge, self.mode, q.shape[0], math.prod(q.shape[1:]))
        return out

    # ------------------------------------------------------------------
    # Public kernels: floats in/out by default, fixed-point-resident
    # operands and outputs on request
    # ------------------------------------------------------------------
    def add(self, a, b, *, resident: bool = False):
        """Elementwise ``a + b`` through the approximate datapath."""
        qa, bounds_a = self._coerce(a)
        qb, bounds_b = self._coerce(b)
        qa, qb = np.broadcast_arrays(qa, qb)
        out = self._add_words(qa, qb, bounds_a=bounds_a, bounds_b=bounds_b)
        return self._emit(out, resident)

    def sub(self, a, b, *, resident: bool = False):
        """Elementwise ``a - b``: the subtrahend is encoded, then its word
        negated (free in two's complement), so a float and its resident
        words subtract alike."""
        qb, bounds = self._coerce(b)
        neg = self.fmt.handle_overflow(-qb)
        if bounds is not None and bounds[0] > self._signed_lo:
            # Negation flips the range; only the most-negative word
            # needs the overflow policy, so bounds stay exact here.
            bounds = (-bounds[1], -bounds[0])
        else:
            bounds = None
        return self.add(a, ResidentVector(neg, self.fmt, bounds), resident=resident)

    def scale_add(self, x, alpha: float, d, *, resident: bool = False):
        """The iterative-method update rule ``x + alpha * d`` (Eq. 2).

        The scaling multiply is exact (float); the update addition runs
        on the approximate adder — precisely the paper's "update error"
        injection point.
        """
        return self.add(x, alpha * self._to_float(d), resident=resident)

    def sum(self, x, axis: int | None = None, *, resident: bool = False):
        """Tree-reduce ``x`` along ``axis`` (flattened when ``None``).

        Scalar reductions (``axis=None``) always return a float.
        """
        scalar = axis is None
        if isinstance(x, ResidentVector):
            self._check_fmt(x)
            q = x.words
        else:
            q = self.fmt.encode(np.asarray(x, dtype=np.float64))
        if scalar:
            q = q.reshape(-1)
            axis = 0
        if q.shape[axis] == 0:
            out = np.zeros(np.delete(q.shape, axis))
            return float(out) if scalar else self._emit(self.fmt.encode(out), resident)
        reduced = self._reduce_words(np.moveaxis(q, axis, 0))
        if scalar:
            return float(self.fmt.decode(reduced))
        return self._emit(reduced, resident)

    def mean(self, x, axis: int | None = None) -> np.ndarray | float:
        """Approximate-sum mean (the division is exact float)."""
        arr = self._to_float(x)
        count = arr.size if axis is None else arr.shape[axis]
        if count == 0:
            raise ValueError("mean of an empty axis")
        return self.sum(arr, axis=axis) / count

    def dot(self, a, b) -> float:
        """Inner product: exact elementwise products, approximate
        accumulation."""
        a = self._to_float(a).reshape(-1)
        b = self._to_float(b).reshape(-1)
        if a.shape != b.shape:
            raise ValueError(f"dot shape mismatch: {a.shape} vs {b.shape}")
        return float(self.sum(a * b))

    def _sparse_matvec_words(
        self, sp: SparseResidentMatrix, vec: np.ndarray
    ) -> np.ndarray:
        """``sp @ vec`` as fixed-point words: exact nnz products, then
        one approximate tree-reduce per row over its own segment.

        Every row's tree folds through :func:`_reduce_csr_rows`, each
        tree level across all rows in L2-sized adder calls; the charges
        follow in the row plan's ledger order (ascending nnz length,
        levels root-ward).  Empty rows emit the zero word without
        touching the adder.
        """
        plan = sp.row_plan()
        out = _reduce_csr_rows(self, plan, *_csr_product_words(self, sp, vec))
        for n in plan.counts:
            self._charge(self.mode.name, n, self.mode.energy_per_add)
        return out

    def matvec(self, matrix, vector, *, resident: bool = False):
        """``matrix @ vector`` with approximate row accumulation.

        A :class:`SparseResidentMatrix` routes through the per-row
        segment reduction (``nnz_i - 1`` adds per row) instead of the
        dense ``cols - 1``.
        """
        if isinstance(matrix, SparseResidentMatrix):
            vec = self._to_float(vector).reshape(-1)
            if matrix.shape[1] != vec.shape[0]:
                raise ValueError(
                    f"matvec shape mismatch: {matrix.shape} vs {vec.shape}"
                )
            return self._emit(self._sparse_matvec_words(matrix, vec), resident)
        mat = np.asarray(matrix, dtype=np.float64)
        vector = self._to_float(vector).reshape(-1)
        if mat.ndim != 2 or mat.shape[1] != vector.shape[0]:
            raise ValueError(
                f"matvec shape mismatch: {mat.shape} vs {vector.shape}"
            )
        words = _product_fold(self, mat.T, vector)
        _charge_folds(self._charge, self.mode, mat.shape[1], mat.shape[0])
        return self._emit(words, resident)

    def weighted_sum(self, weights, points, *, resident: bool = False):
        """``sum_i weights[..., i] * points[i]`` over rows of ``points``.

        This is the M-step kernel of GMM/K-means mean updates — the
        computation the paper marks as the adder-impact site ("Mean
        Value" in Table 2).  Dense points take a ``(..., n)`` weight
        block, each leading index its own sum (GMM's k components in
        one call), charged in C order exactly as that many ``(n,)``
        calls charge.  A :class:`SparseResidentMatrix` takes ``(n,)``
        weights and reduces through its cached transpose (``sum_i w_i *
        S[i, :] == S.T @ w``), so each output component accumulates only
        the rows with a stored entry in that column.
        """
        if isinstance(points, SparseResidentMatrix):
            w = self._to_float(weights).reshape(-1)
            if points.shape[0] != w.shape[0]:
                raise ValueError(
                    f"weighted_sum shape mismatch: {w.shape} vs {points.shape}"
                )
            return self._emit(
                self._sparse_matvec_words(points.transpose(), w), resident
            )
        pts = self._to_float(points)
        w = self._to_float(weights)
        if pts.ndim != 2 or w.ndim < 1 or pts.shape[0] != w.shape[-1]:
            raise ValueError(
                f"weighted_sum shape mismatch: {w.shape} vs {pts.shape}"
            )
        words = _product_fold(self, pts, w)
        _charge_folds(self._charge, self.mode, *pts.shape, math.prod(w.shape[:-1]))
        return self._emit(words, resident)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product.

        Exact float by default (adders-only approximation, as in the
        paper); with ``approximate_multiplier=True`` the product runs on
        a fixed-point array multiplier whose partial products accumulate
        through the mode's adder, and the multiplier's energy is charged
        to the ledger under ``"<mode>:mul"``.

        Fixed-point caveat: a ``width``-bit multiplier cannot hold the
        ``2*width``-bit full product, so — as real narrow datapaths do —
        operands are re-encoded with ``frac_bits // 2`` fractional bits
        each (the product then carries ``frac_bits`` and fits the word
        whenever ``|a*b| <= max_value``), and products that would
        overflow saturate at the output stage.
        """
        if not self.approximate_multiplier:
            return np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if self._multiplier is None:
            from repro.hardware.energy import EnergyModel
            from repro.hardware.multipliers import ApproxArrayMultiplier

            self._multiplier = ApproxArrayMultiplier(self.mode.adder)
            model = EnergyModel()
            exact_add = model.cost_of_cells({"fa": self.fmt.width})
            self._mul_energy = (
                model.cost_of_cells(self._multiplier.cell_inventory()) / exact_add
            )
            self._half_fmt = FixedPointFormat(
                self.fmt.width, self.fmt.frac_bits // 2, overflow=self.fmt.overflow
            )
        qa = self._half_fmt.encode(a)
        qb = self._half_fmt.encode(b)
        qa, qb = np.broadcast_arrays(qa, qb)
        raw = self._multiplier.multiply_signed(qa, qb)
        n = int(np.broadcast(qa, qb).size)
        self._charge(f"{self.mode.name}:mul", n, self._mul_energy)
        product = np.asarray(raw, dtype=np.float64) / self._half_fmt.scale**2
        # Saturating output stage: the masked multiplier wraps when the
        # true product leaves the word; clamp those lanes instead.
        true = a * b
        overflow = np.abs(true) > self.fmt.max_value
        if np.any(overflow):
            product = np.where(
                overflow,
                np.clip(true, self.fmt.min_value, self.fmt.max_value),
                product,
            )
        return self.fmt.quantize(product)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip values through the datapath format (no energy)."""
        return self.fmt.quantize(np.asarray(x, dtype=np.float64))

    def describe(self) -> str:
        """One-line description of the engine configuration."""
        return (
            f"ApproxEngine(mode={self.mode.name}, adder={self.mode.adder.describe()}, "
            f"fmt={self.fmt.describe()})"
        )


# ----------------------------------------------------------------------
# Batched (lane-parallel) execution
# ----------------------------------------------------------------------
class BatchedEnergyLedger:
    """Exact per-lane energy accounting for lock-step batched execution.

    One batched kernel call performs the same elementary additions for
    every lane in the stack, so a single charge fans out to per-lane
    accumulators: ``adds`` and ``energy`` are length-``lanes`` arrays,
    and the per-mode breakdowns are dictionaries of such arrays.  The
    per-lane cost of a charge is computed exactly as
    :meth:`EnergyLedger.charge` computes it (``n_adds * energy_per_add``,
    one float multiply, then one accumulate per charge), so
    :meth:`lane_ledger` reconstructs an :class:`EnergyLedger` that is
    *exactly equal* — not approximately — to the ledger the same lane
    would have accumulated in a solo run.

    Args:
        lanes: number of lanes in the batch.
        observer: optional observability hook; each batched charge is
            forwarded once, aggregated over the charged lanes, to its
            ``on_charge`` (per-lane attribution lives in the trace
            events, not the metric counters).
    """

    __slots__ = (
        "lanes",
        "adds",
        "energy",
        "adds_by_mode",
        "energy_by_mode",
        "observer",
    )

    def __init__(self, lanes: int, observer: object | None = None):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.lanes = int(lanes)
        self.adds = np.zeros(self.lanes, dtype=np.int64)
        self.energy = np.zeros(self.lanes, dtype=np.float64)
        self.adds_by_mode: dict[str, np.ndarray] = {}
        self.energy_by_mode: dict[str, np.ndarray] = {}
        self.observer = observer

    def charge_lanes(
        self,
        mode_name: str,
        lane_ids: np.ndarray,
        adds_per_lane: int,
        energy_per_add: float,
    ) -> None:
        """Charge ``adds_per_lane`` additions to each lane in ``lane_ids``.

        The cost is ``adds_per_lane * energy_per_add`` per lane — the
        identical expression a solo :class:`EnergyLedger` evaluates —
        accumulated elementwise, so per-lane float accumulation order
        matches a solo run's charge sequence addition for addition.
        """
        if adds_per_lane < 0:
            raise ValueError(f"adds_per_lane must be >= 0, got {adds_per_lane}")
        ids = np.asarray(lane_ids, dtype=np.int64).reshape(-1)
        cost = adds_per_lane * energy_per_add
        self.adds[ids] += adds_per_lane
        self.energy[ids] += cost
        mode_adds = self.adds_by_mode.get(mode_name)
        if mode_adds is None:
            mode_adds = np.zeros(self.lanes, dtype=np.int64)
            self.adds_by_mode[mode_name] = mode_adds
            self.energy_by_mode[mode_name] = np.zeros(
                self.lanes, dtype=np.float64
            )
        mode_adds[ids] += adds_per_lane
        self.energy_by_mode[mode_name][ids] += cost
        if self.observer is not None:
            k = int(ids.size)
            self.observer.on_charge(mode_name, adds_per_lane * k, cost * k)

    def charge_many_lanes(
        self, lane_ids: np.ndarray, charges: list[tuple[str, int, float]]
    ) -> None:
        """Fan a deferred per-lane charge list out to ``lane_ids``.

        The batched analogue of :meth:`EnergyLedger.charge_many`, equal
        to one :meth:`charge_lanes` per ``(mode_name, adds_per_lane,
        energy_per_add)`` entry in list order, in one gather and one
        scatter: the selected lanes' ``energy`` and each touched mode's
        accumulators are gathered once, every cost is added to the
        gathered copies in list order — the float additions, in the
        order, each lane's live charges make — and the integer counts
        are summed, then everything is written back once.  A negative
        count raises after the entries before it are applied.  An
        observer sees each entry as :meth:`charge_lanes` forwards it.
        """
        observer = self.observer
        ids = np.asarray(lane_ids, dtype=np.int64).reshape(-1)
        k = int(ids.size)
        energy = self.energy[ids]
        adds = 0
        # mode -> [adds per lane, gathered energy]
        touched: dict[str, list] = {}
        try:
            for mode_name, adds_per_lane, energy_per_add in charges:
                if adds_per_lane < 0:
                    raise ValueError(f"adds_per_lane must be >= 0, got {adds_per_lane}")
                cost = adds_per_lane * energy_per_add
                energy += cost
                adds += adds_per_lane
                mode = touched.get(mode_name)
                if mode is None:
                    mode_energy = self.energy_by_mode.get(mode_name)
                    gathered = (
                        np.zeros(ids.size) if mode_energy is None else mode_energy[ids]
                    )
                    mode = touched[mode_name] = [0, gathered]
                mode[0] += adds_per_lane
                mode[1] += cost
                if observer is not None:
                    observer.on_charge(mode_name, adds_per_lane * k, cost * k)
        finally:
            self.adds[ids] += adds
            self.energy[ids] = energy
            for mode_name, (mode_adds, mode_energy) in touched.items():
                if mode_name not in self.adds_by_mode:
                    self.adds_by_mode[mode_name] = np.zeros(self.lanes, dtype=np.int64)
                    self.energy_by_mode[mode_name] = np.zeros(self.lanes, dtype=np.float64)
                self.adds_by_mode[mode_name][ids] += mode_adds
                self.energy_by_mode[mode_name][ids] = mode_energy

    def lane_ledger(self, lane: int) -> EnergyLedger:
        """The per-run :class:`EnergyLedger` one lane accumulated.

        Modes the lane never touched are omitted, matching a solo run
        (dict equality ignores insertion order, so the reconstructed
        ledger compares equal to the solo one even when the batch met
        the modes in a different order).
        """
        ledger = EnergyLedger(
            adds=int(self.adds[lane]), energy=float(self.energy[lane])
        )
        for mode_name, mode_adds in self.adds_by_mode.items():
            n = int(mode_adds[lane])
            if n > 0:
                ledger.adds_by_mode[mode_name] = n
                ledger.energy_by_mode[mode_name] = float(
                    self.energy_by_mode[mode_name][lane]
                )
        return ledger

    def totals(self) -> EnergyLedger:
        """Aggregate ledger over every lane (for reporting only — the
        float totals here sum per-lane accumulators, which is not the
        charge order a single shared solo ledger would have seen)."""
        ledger = EnergyLedger(
            adds=int(self.adds.sum()), energy=float(self.energy.sum())
        )
        for mode_name, mode_adds in self.adds_by_mode.items():
            ledger.adds_by_mode[mode_name] = int(mode_adds.sum())
            ledger.energy_by_mode[mode_name] = float(
                self.energy_by_mode[mode_name].sum()
            )
        return ledger


class LaneStack:
    """Per-lane fixed-point words resident between batched kernels.

    The batched analogue of :class:`ResidentVector`: an ``int64`` word
    array whose *leading* axis indexes lanes, plus the lazily cached
    ``(min, max)`` envelope of every lane's words, which feeds the
    saturation precheck as a resident's bounds do.  Each lane's slice
    holds exactly the words the solo engine would hold for that lane.
    """

    __slots__ = ("words", "fmt", "_bounds")

    def __init__(
        self,
        words: np.ndarray,
        fmt: FixedPointFormat,
        bounds: tuple[int, int] | None = None,
    ):
        self.words = np.asarray(words, dtype=np.int64)
        if self.words.ndim < 1:
            raise ValueError("LaneStack needs a leading lane axis")
        self.fmt = fmt
        self._bounds = bounds

    @property
    def lanes(self) -> int:
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.words.shape

    def bounds(self) -> tuple[int, int] | None:
        """Cached ``(min, max)`` over every lane; ``None`` when empty."""
        if self._bounds is None and self.words.size:
            self._bounds = (int(self.words.min()), int(self.words.max()))
        return self._bounds

    def decode(self) -> np.ndarray:
        """The float values these words represent (all lanes)."""
        return self.fmt.decode(self.words)

    def lane(self, i: int) -> np.ndarray:
        """Decoded floats of a single lane."""
        return self.fmt.decode(self.words[i])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError(
                "LaneStack cannot be converted to an array without "
                "copying (decode allocates); use copy=None or copy=True"
            )
        decoded = self.decode()
        return decoded if dtype is None else decoded.astype(dtype)

    def __repr__(self) -> str:
        return f"LaneStack(shape={self.words.shape}, fmt={self.fmt.describe()})"


class BatchedEngine:
    """Lock-step lane-parallel variant of :class:`ApproxEngine`.

    Executes the same additive kernels over a *stack* of independent
    lanes: elementwise kernels take ``(L, ...)`` operands with the lane
    axis leading, reductions fold a ``(n, L, ...)`` slab along axis 0 so
    every lane's balanced tree is walked in one vectorized pass.  The
    adders are elementwise bitwise operations and the tree geometry
    depends only on the reduced axis length, so each lane's output words
    are bit-identical to a solo :class:`ApproxEngine` run of that lane;
    the saturation precheck's one envelope over all lanes only decides
    whether the true-sum recompute executes, never what it produces.

    Shared operands — a :class:`ResidentVector` or a plain ``(N,)``
    array common to every lane — broadcast against the lane stacks via
    NumPy trailing-axis alignment.

    Call :meth:`select_lanes` before issuing kernels: charges go to the
    selected lane ids of the shared :class:`BatchedEnergyLedger`, which
    is how per-mode sub-batches of a larger run charge only their own
    lanes.

    Args:
        mode: the approximation mode to execute on.
        fmt: fixed-point format of the datapath.
        ledger: the shared per-lane ledger; a private one sized for
            ``lanes`` is created when omitted.
        lanes: lane count used only when ``ledger`` is omitted.
    """

    def __init__(
        self,
        mode: ApproxMode,
        fmt: FixedPointFormat,
        ledger: BatchedEnergyLedger | None = None,
        lanes: int | None = None,
    ):
        if mode.adder.width != fmt.width:
            raise ValueError(
                f"mode width {mode.adder.width} != format width {fmt.width}"
            )
        self.mode = mode
        self.fmt = fmt
        self.backend = KERNELS
        if ledger is None:
            ledger = BatchedEnergyLedger(lanes if lanes is not None else 1)
        self.ledger = ledger
        self._signed_lo, self._signed_hi = bitops.signed_range(fmt.width)
        self.lane_ids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lane selection
    # ------------------------------------------------------------------
    def select_lanes(self, lane_ids) -> None:
        """Set the ledger lanes subsequent kernel calls charge to.

        The order of ``lane_ids`` is the order of rows in every stacked
        operand: row ``r`` of an ``(L, ...)`` stack belongs to ledger
        lane ``lane_ids[r]``.

        Raises:
            ValueError: on an empty selection, or unless the ids are
                distinct and in ``[0, ledger.lanes)`` (a repeated id
                would be charged once, a negative one would wrap).
        """
        ids = np.asarray(lane_ids, dtype=np.int64).reshape(-1)
        if ids.size == 0:
            raise ValueError("select_lanes needs at least one lane")
        lanes = self.ledger.lanes
        if ids.min() < 0 or ids.max() >= lanes or np.unique(ids).size != ids.size:
            raise ValueError(
                f"select_lanes needs distinct lane ids in [0, {lanes}), "
                f"got {ids.tolist()}"
            )
        self.lane_ids = ids

    # ------------------------------------------------------------------
    # Fixed-point plumbing (lane-aware)
    # ------------------------------------------------------------------
    def _check_fmt(self, operand) -> None:
        if operand.fmt != self.fmt:
            raise ValueError(
                f"operand format {operand.fmt.describe()} does not match "
                f"engine format {self.fmt.describe()}"
            )

    def _coerce(self, x):
        """Operand → ``(words, bounds)``: a lane stack or a shared
        resident brings its cached ``(min, max)`` envelope along."""
        if isinstance(x, (LaneStack, ResidentVector)):
            self._check_fmt(x)
            return x.words, x.bounds()
        arr = np.asarray(x, dtype=np.float64)
        return self.fmt.encode(arr), None

    def _to_float(self, x) -> np.ndarray:
        if isinstance(x, (LaneStack, ResidentVector)):
            self._check_fmt(x)
            return x.decode()
        return np.asarray(x, dtype=np.float64)

    def _emit(self, words: np.ndarray, resident: bool):
        if resident:
            return LaneStack(words, self.fmt)
        return self.fmt.decode(words)

    def _add_words(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        bounds_a=None,
        bounds_b=None,
    ) -> np.ndarray:
        """Lane-stacked :meth:`ApproxEngine._add_words`: the adder and
        the saturating output stage are elementwise, so each lane's
        slice is bit-identical to a solo add; the charge fans out as
        ``size // lanes`` adds to every selected lane."""
        lanes = qa.shape[0]
        self._check_lanes(lanes)
        out, _ = _saturating_add(self, qa, qb, bounds_a, bounds_b)
        n_per_lane = int(qa.size) // lanes
        self._charge_lanes(
            self.mode.name, n_per_lane, self.mode.energy_per_add
        )
        return out

    def _check_lanes(self, lanes: int) -> None:
        """Charges go to the selected lanes: require a selection of the
        operand's lane count."""
        if self.lane_ids is None:
            raise RuntimeError("call select_lanes() before issuing kernels")
        if lanes != self.lane_ids.shape[0]:
            raise ValueError(
                f"operand has {lanes} lanes but {self.lane_ids.shape[0]} "
                "are selected"
            )

    def _charge_lanes(
        self, mode_name: str, adds_per_lane: int, energy_per_add: float
    ) -> None:
        """Ledger indirection, mirroring :meth:`ApproxEngine._charge`:
        the batched program engine overrides this to record charges while
        capturing and defer them while replaying."""
        self.ledger.charge_lanes(
            mode_name, self.lane_ids, adds_per_lane, energy_per_add
        )

    def _reduce_words(self, q: np.ndarray) -> np.ndarray:
        """Balanced-tree reduction of axis 0 of a ``(n, L, ...)`` slab:
        the solo tree (:func:`_fold`), then one per-lane charge per
        level, in the solo order."""
        q = np.asarray(q, dtype=np.int64)
        if q.shape[0] > 1:
            self._check_lanes(q.shape[1])
        out = _fold(self, q)
        _charge_folds(self._charge_lanes, self.mode, q.shape[0], math.prod(q.shape[2:]))
        return out

    # ------------------------------------------------------------------
    # Public kernels (lane axis leading)
    # ------------------------------------------------------------------
    def add(self, a, b, *, resident: bool = False):
        """Elementwise ``a + b`` per lane; shared operands broadcast."""
        qa, bounds_a = self._coerce(a)
        qb, bounds_b = self._coerce(b)
        if qa.shape != qb.shape:
            qa, qb = np.broadcast_arrays(qa, qb)
        out = self._add_words(qa, qb, bounds_a=bounds_a, bounds_b=bounds_b)
        return self._emit(out, resident)

    def sub(self, a, b, *, resident: bool = False):
        """Elementwise ``a - b`` per lane: as in the solo engine, every
        subtrahend form is encoded, then its words negated."""
        qb, bounds = self._coerce(b)
        neg = self.fmt.handle_overflow(-qb)
        if bounds is not None and bounds[0] > self._signed_lo:
            bounds = (-bounds[1], -bounds[0])
        else:
            bounds = None
        return self.add(a, ResidentVector(neg, self.fmt, bounds), resident=resident)

    def scale_add(self, x, alpha, d, *, resident: bool = False):
        """Per-lane update rule ``x + alpha * d``.

        ``alpha`` may be a scalar or a per-lane ``(L,)`` array; a lane's
        row is scaled by exactly the float multiply a solo run performs.
        """
        df = self._to_float(d)
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim == 1:
            alpha = alpha.reshape((-1,) + (1,) * (df.ndim - 1))
        return self.add(x, alpha * df, resident=resident)

    def sum(self, x, axis: int | None = None, *, resident: bool = False):
        """Per-lane tree reduction.

        ``axis`` indexes each lane's shape (the lane axis is implicit
        and always survives); ``axis=None`` flattens each lane and
        returns a per-lane float array of shape ``(L,)``.
        """
        scalar = axis is None
        if isinstance(x, LaneStack):
            self._check_fmt(x)
            q = x.words
        else:
            q = self.fmt.encode(np.asarray(x, dtype=np.float64))
        if self.lane_ids is None:
            raise RuntimeError("call select_lanes() before issuing kernels")
        if q.ndim < 2 or q.shape[0] != self.lane_ids.shape[0]:
            raise ValueError(
                f"batched sum needs a leading lane axis of "
                f"{self.lane_ids.shape[0]}, got shape {q.shape}"
            )
        if scalar:
            q = q.reshape(q.shape[0], -1)
            red_axis = 1
        else:
            if axis < 0:
                axis += q.ndim - 1
            red_axis = axis + 1
        if q.shape[red_axis] == 0:
            out = np.zeros(tuple(np.delete(q.shape, red_axis)))
            if scalar:
                return out.reshape(q.shape[0])
            return self._emit(self.fmt.encode(out), resident)
        reduced = self._reduce_words(np.moveaxis(q, red_axis, 0))
        if scalar:
            return self.fmt.decode(reduced)
        return self._emit(reduced, resident)

    def dot(self, a, b) -> np.ndarray:
        """Per-lane inner products → ``(L,)`` floats."""
        af = self._to_float(a)
        bf = self._to_float(b)
        af = af.reshape(af.shape[0], -1)
        bf = bf.reshape(bf.shape[0], -1)
        if af.shape != bf.shape:
            raise ValueError(f"dot shape mismatch: {af.shape} vs {bf.shape}")
        return self.sum(af * bf)

    def _sparse_matvec_words(
        self, sp: SparseResidentMatrix, xs: np.ndarray
    ) -> np.ndarray:
        """Lane-stacked ``sp @ xs[lane]`` as words: the batched twin of
        :meth:`ApproxEngine._sparse_matvec_words`.  The ``(B, nnz)``
        product stack folds through the same :func:`_reduce_csr_rows`
        (each adder call spanning every lane), so every lane slice walks
        the identical trees — and draws the identical charges, per
        selected lane — as a solo engine on that lane."""
        self._check_lanes(xs.shape[0])
        plan = sp.row_plan()
        out = _reduce_csr_rows(self, plan, *_csr_product_words(self, sp, xs))
        for n in plan.counts:
            self._charge_lanes(self.mode.name, n, self.mode.energy_per_add)
        return out

    def matvec(self, matrix, x, *, resident: bool = False):
        """Shared ``matrix @ x[lane]`` for every lane of a ``(L, N)``
        stack, with approximate row accumulation.  Sparse operands
        route through the per-row segment reduction, as in the solo
        engine."""
        if isinstance(matrix, SparseResidentMatrix):
            xs = self._to_float(x)
            if xs.ndim != 2 or matrix.shape[1] != xs.shape[1]:
                raise ValueError(
                    f"batched matvec shape mismatch: {matrix.shape} vs {xs.shape}"
                )
            return self._emit(self._sparse_matvec_words(matrix, xs), resident)
        mat = np.asarray(matrix, dtype=np.float64)
        xs = self._to_float(x)
        if xs.ndim != 2 or mat.ndim != 2 or mat.shape[1] != xs.shape[1]:
            raise ValueError(
                f"batched matvec shape mismatch: {mat.shape} vs {xs.shape}"
            )
        self._check_lanes(xs.shape[0])
        words = _product_fold(self, mat.T, xs)
        _charge_folds(self._charge_lanes, self.mode, mat.shape[1], mat.shape[0])
        return self._emit(words, resident)

    def weighted_sum(self, weights, points, *, resident: bool = False):
        """Per-lane ``sum_i weights[lane, ..., i] * points[i]`` over
        shared rows of ``points``: dense points take an ``(L, ..., n)``
        weight stack, each lane's leading indices their own sums,
        charged to every lane in C order as the solo engine charges
        them.  Sparse operands take ``(L, n)`` weights and reduce
        through the cached transpose, as in the solo engine."""
        if isinstance(points, SparseResidentMatrix):
            w = self._to_float(weights)
            if w.ndim != 2 or points.shape[0] != w.shape[1]:
                raise ValueError(
                    f"batched weighted_sum shape mismatch: {w.shape} vs {points.shape}"
                )
            return self._emit(
                self._sparse_matvec_words(points.transpose(), w), resident
            )
        pts = self._to_float(points)
        w = self._to_float(weights)
        if w.ndim < 2 or pts.ndim != 2 or pts.shape[0] != w.shape[-1]:
            raise ValueError(
                f"batched weighted_sum shape mismatch: {w.shape} vs {pts.shape}"
            )
        self._check_lanes(w.shape[0])
        words = _product_fold(self, pts, w)
        _charge_folds(
            self._charge_lanes, self.mode, *pts.shape, math.prod(w.shape[1:-1])
        )
        return self._emit(words, resident)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip values through the datapath format (no energy)."""
        return self.fmt.quantize(np.asarray(x, dtype=np.float64))

    def describe(self) -> str:
        """One-line description of the engine configuration."""
        return (
            f"BatchedEngine(mode={self.mode.name}, "
            f"adder={self.mode.adder.describe()}, fmt={self.fmt.describe()})"
        )
