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
energy accounting* — it only removes redundant conversions.  Setting
``fast_path=False`` (or flipping :attr:`ApproxEngine.default_fast_path`)
restores the literal pre-residency execution, which the perf benchmarks
use as their baseline.

Pinned (cached) operands
------------------------
Iterative methods feed the same constant operands — the system matrix,
the right-hand side, cluster points — into every iteration.
:meth:`ApproxEngine.pin` encodes an additive constant once per engine
(hence once per format) and returns the cached :class:`ResidentVector`
on every subsequent call with the same array; :meth:`ApproxEngine.pin_matrix`
validates and profiles a multiplicative constant once and returns a
:class:`ResidentMatrix` whose products can skip the per-call finiteness
scan.  Both caches key on the pin name plus array identity: pinning a
*different* array under an existing name re-encodes (the version bump),
in-place mutation of a pinned array requires re-pinning, and the caches
die with the engine, so a new format always starts cold.  Legacy engines
(``fast_path=False``) accept the same calls but re-encode every time —
the oracle stays literal.
"""

from __future__ import annotations

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


class ResidentMatrix:
    """A constant multiplicative operand validated and profiled once.

    Multiplicative constants (the system matrix in ``matvec``, the
    cluster points in ``weighted_sum``) are *not* encoded to fixed point
    — products are exact float and only the accumulation is approximate
    — so what repeats every iteration is the full finiteness scan of the
    ``rows × cols`` product array inside ``encode``.  Pinning checks the
    constant finite once and records its absolute maximum; each call
    then proves the product finite from ``abs_max`` times the iterate's
    absolute maximum (an ``O(n)`` scan instead of ``O(rows × cols)``)
    and encodes with the scan skipped.  The emitted words are identical
    either way.

    The wrapped array is treated as immutable: mutating it after
    pinning invalidates the cached ``abs_max`` — re-pin instead.

    Attributes:
        array: the validated float64 constant.
        abs_max: ``max(|array|)`` (``0.0`` when empty).
    """

    __slots__ = ("array", "abs_max")

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot pin non-finite values")
        self.array = arr
        self.abs_max = float(np.abs(arr).max()) if arr.size else 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    def __array__(self, dtype=None, copy=None):
        if copy:
            return self.array.astype(dtype, copy=True) if dtype else self.array.copy()
        return self.array if dtype is None else self.array.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"ResidentMatrix(shape={self.array.shape}, abs_max={self.abs_max:g})"


class SparseReductionPlan:
    """Per-row tree-reduce schedule over variable-length nnz segments.

    Pure CSR geometry, engine-independent: rows are grouped by nnz
    length, and each group carries a precomputed ``(g, L)`` gather-index
    slab into the flat product array.  A sparse matvec then reduces one
    contiguous ``(L, g)`` slab per group through the engine's ordinary
    balanced-tree :meth:`~ApproxEngine._reduce_words` — incremental
    saturation bounds, the dense plan cache, and the legacy concat twin
    all apply unchanged, which is what makes the sparse fast path and
    its slow twin bit-identical with float-equal ledgers by
    construction.

    Groups are visited in ascending segment length, rows within a group
    in row order; this ordering is part of the ledger contract (both
    engine paths and program replay follow it).

    Attributes:
        n_rows: number of matrix rows (empty rows included).
        buckets: list of ``(length, rows, gather)`` with ``rows`` the
            row indices of that nnz length and ``gather`` the ``(g, L)``
            int64 indices of their products; zero-length rows are
            omitted (their output word is the encoded zero).
    """

    __slots__ = ("n_rows", "buckets")

    def __init__(self, indptr: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        self.n_rows = int(indptr.size - 1)
        row_nnz = np.diff(indptr)
        self.buckets: list[tuple[int, np.ndarray, np.ndarray]] = []
        for length in np.unique(row_nnz):
            if length == 0:
                continue
            rows = np.nonzero(row_nnz == length)[0]
            gather = indptr[rows][:, None] + np.arange(int(length), dtype=np.int64)
            self.buckets.append((int(length), rows, gather))


class SparseResidentMatrix:
    """A constant CSR multiplicative operand validated and profiled once.

    The sparse sibling of :class:`ResidentMatrix`: products stay exact
    float over the stored entries only, and each output row accumulates
    its own nnz products through the approximate adder — ``nnz_i - 1``
    elementary additions per row, zero for empty or single-entry rows.
    The per-row abs-max finiteness/bound proofs transfer directly from
    the dense operand: ``abs_max`` is ``max(|data|)``, so the product
    bound ``abs_max * max|x|`` covers every stored product, and replay's
    fused-reduction proof specializes the dense ``n`` to ``nnz_max``.

    The arrays are treated as immutable after construction (like a
    pinned dense operand); the row plan and the transpose are built
    lazily and cached on the instance.

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
        "_exact_geom",
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
            raise ValueError("cannot pin non-finite values")
        self.abs_max = float(np.abs(self.data).max()) if self.data.size else 0.0
        nnz = np.diff(self.indptr)
        self.nnz_max = int(nnz.max()) if nnz.size else 0
        self._plan = None
        self._transpose = None
        self._exact_geom = None
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
        """Cached scipy CSR view of the pinned arrays (None w/o scipy)."""
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
        if self._exact_geom is None:
            nz = self.indptr[:-1] < self.indptr[1:]
            self._exact_geom = (nz, np.ascontiguousarray(self.indptr[:-1][nz]))
        nz, starts = self._exact_geom
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
        """The stored main diagonal (zeros where no entry is stored)."""
        n = min(self.shape)
        out = np.zeros(n, dtype=np.float64)
        for i in range(n):
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
            j = np.searchsorted(self.indices[lo:hi], i)
            if j < hi - lo and self.indices[lo + j] == i:
                out[i] = self.data[lo + j]
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
        was measurable); the accumulation order is untouched.
        """
        observer = self.observer
        if observer is not None:
            for mode_name, n_adds, energy_per_add in charges:
                self.charge(mode_name, n_adds, energy_per_add)
            return
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


class ReductionPlan:
    """Precomputed geometry for one tree-reduce input shape.

    The balanced-tree fold visits the same level splits for every input
    of a given shape, so the per-level ``n // 2`` / odd-tail bookkeeping
    and the tail carry buffer can be computed once and reused.  Plans
    are cached per engine keyed by input shape — and an engine is bound
    to one ``(fmt, mode)``, so the cache key of the issue
    (``(n, fmt, mode)``) falls out of engine identity.  A plan holds no
    data-dependent state: the fold still runs the identical sequence of
    adder calls with the identical per-level ledger charges.

    Attributes:
        levels: :func:`repro.hardware.bitops.reduction_levels` output.
        buf: preallocated tail-carry buffer sized for the first (widest)
            odd level, or ``None`` when no level is odd.
    """

    __slots__ = ("levels", "buf")

    def __init__(self, shape: tuple[int, ...]):
        self.levels = bitops.reduction_levels(shape[0])
        self.buf = None
        for half, odd in self.levels:
            if odd:
                # Widest odd level comes first (sizes only shrink).
                self.buf = np.empty((half + 1,) + shape[1:], dtype=np.int64)
                break


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
        fast_path: enables fixed-point residency and the saturation
            range precheck.  ``None`` (default) takes
            :attr:`default_fast_path`.  ``False`` reproduces the
            pre-residency execution exactly: every saturating add
            recomputes the true sum, reductions concatenate per level,
            and ``resident=True`` requests still return floats.
    """

    #: Class-wide default for ``fast_path`` — flipped to ``False`` by the
    #: perf benchmarks to measure the legacy execution on otherwise
    #: identical code paths.
    default_fast_path: bool = True

    def __init__(
        self,
        mode: ApproxMode,
        fmt: FixedPointFormat,
        ledger: EnergyLedger | None = None,
        approximate_multiplier: bool = False,
        fast_path: bool | None = None,
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
        self.fast_path = (
            self.default_fast_path if fast_path is None else bool(fast_path)
        )
        self._signed_lo, self._signed_hi = bitops.signed_range(fmt.width)
        self._multiplier = None
        self._mul_energy = None
        # Pinned-operand caches (fast path only; legacy engines stay
        # literal).  ``_pinned*`` key by name; ``_operand_cache`` keys by
        # ``id`` so raw arrays passed straight to kernels hit too.  Each
        # entry keeps a reference to the pinned array, both to validate
        # identity and to keep the id stable while cached.
        self._pinned: dict[str, tuple[np.ndarray, ResidentVector]] = {}
        self._pinned_matrices: dict[str, tuple[np.ndarray, ResidentMatrix]] = {}
        self._operand_cache: dict[int, tuple[np.ndarray, ResidentVector]] = {}
        self._reduce_plans: dict[tuple[int, ...], ReductionPlan] = {}
        self.encode_cache_hits = 0
        self.encode_cache_misses = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.mul_overflow_skips = 0

    # ------------------------------------------------------------------
    # Pinned (cached) constant operands
    # ------------------------------------------------------------------
    def pin(self, name: str, array: np.ndarray) -> ResidentVector:
        """Encode an additive constant once and cache it under ``name``.

        Returns the cached :class:`ResidentVector` (bounds pre-scanned)
        whenever called again with the *same array object*; a different
        array under an existing name re-encodes and replaces the entry.
        On legacy engines (``fast_path=False``) every call re-encodes —
        the oracle performs the literal per-iteration work.
        """
        arr = np.asarray(array, dtype=np.float64)
        if self.fast_path:
            entry = self._pinned.get(name)
            if entry is not None and entry[0] is arr:
                self.encode_cache_hits += 1
                return entry[1]
        rv = ResidentVector(self.fmt.encode(arr), self.fmt)
        rv.bounds()
        if self.fast_path:
            stale = self._pinned.get(name)
            if stale is not None:
                self._operand_cache.pop(id(stale[0]), None)
            self._pinned[name] = (arr, rv)
            self._operand_cache[id(arr)] = (arr, rv)
            self.encode_cache_misses += 1
        return rv

    def pin_matrix(self, name: str, matrix: np.ndarray) -> ResidentMatrix:
        """Validate a multiplicative constant once and cache it.

        The returned :class:`ResidentMatrix` lets :meth:`matvec` /
        :meth:`weighted_sum` skip the per-call product finiteness scan
        (see the class docstring).  Same keying and legacy semantics as
        :meth:`pin`.

        A :class:`SparseResidentMatrix` passes through unchanged (it is
        its own pin — validated and profiled at construction); a
        scipy-style sparse object (anything with ``tocsr()``) is adopted
        into one, cached under the same name/identity keying.
        """
        if isinstance(matrix, SparseResidentMatrix):
            return matrix
        if hasattr(matrix, "tocsr"):
            if self.fast_path:
                entry = self._pinned_matrices.get(name)
                if entry is not None and entry[0] is matrix:
                    self.encode_cache_hits += 1
                    return entry[1]
            sp = SparseResidentMatrix.from_csr_like(matrix)
            if self.fast_path:
                self._pinned_matrices[name] = (matrix, sp)
                self.encode_cache_misses += 1
            return sp
        arr = np.asarray(matrix, dtype=np.float64)
        if self.fast_path:
            entry = self._pinned_matrices.get(name)
            if entry is not None and entry[0] is arr:
                self.encode_cache_hits += 1
                return entry[1]
        rm = ResidentMatrix(arr)
        if self.fast_path:
            self._pinned_matrices[name] = (arr, rm)
            self.encode_cache_misses += 1
        return rm

    def unpin(self, name: str) -> None:
        """Drop a pinned operand (both vector and matrix namespaces)."""
        entry = self._pinned.pop(name, None)
        if entry is not None:
            self._operand_cache.pop(id(entry[0]), None)
        self._pinned_matrices.pop(name, None)

    def cache_stats(self) -> dict[str, int]:
        """Counters for the pin/encode and reduction-plan caches."""
        return {
            "encode_cache_hits": self.encode_cache_hits,
            "encode_cache_misses": self.encode_cache_misses,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "pinned_operands": len(self._pinned) + len(self._pinned_matrices),
            "reduce_plans": len(self._reduce_plans),
            "mul_overflow_skips": self.mul_overflow_skips,
        }

    # ------------------------------------------------------------------
    # Elementary fixed-point plumbing
    # ------------------------------------------------------------------
    def _coerce(self, x) -> tuple[np.ndarray, tuple[int, int] | None]:
        """Operand → ``(words, bounds)``; floats are encoded, residents
        are taken as-is (their cached bounds ride along)."""
        if isinstance(x, ResidentVector):
            self._check_fmt(x)
            return x.words, x.bounds()
        arr = np.asarray(x, dtype=np.float64)
        if self._operand_cache:
            entry = self._operand_cache.get(id(arr))
            if entry is not None and entry[0] is arr:
                self.encode_cache_hits += 1
                rv = entry[1]
                return rv.words, rv.bounds()
        return self.fmt.encode(arr), None

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
        """Kernel output: resident words on request (fast path only),
        decoded floats otherwise."""
        if resident and self.fast_path:
            return ResidentVector(words, self.fmt)
        return self.fmt.decode(words)

    def _saturation_needed(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        bounds_a: tuple[int, int] | None,
        bounds_b: tuple[int, int] | None,
    ) -> bool:
        """Whether the saturating output stage must recompute true sums.

        On the fast path a cheap range precheck (operand min/max, cached
        on residents) proves most adds cannot leave the representable
        range, skipping the int64 true-sum recompute entirely.  With
        ``fast_path=False`` this always answers ``True``, reproducing
        the unconditional pre-residency recompute.
        """
        if not self.fast_path:
            return True
        if qa.size == 0 or qb.size == 0:
            return False
        if bounds_a is None:
            bounds_a = (int(qa.min()), int(qa.max()))
        if bounds_b is None:
            bounds_b = (int(qb.min()), int(qb.max()))
        return (
            bounds_a[0] + bounds_b[0] < self._signed_lo
            or bounds_a[1] + bounds_b[1] > self._signed_hi
        )

    def _add_words(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        bounds_a: tuple[int, int] | None = None,
        bounds_b: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Add fixed-point words through the mode's adder, with overflow
        handling and energy charging."""
        out = self.backend.add_signed(self.mode.adder, qa, qb)
        if self.fmt.overflow == "saturate" and self._saturation_needed(
            qa, qb, bounds_a, bounds_b
        ):
            # A saturating output stage: when the *true* sum leaves the
            # representable range, clamp instead of trusting the wrapped
            # (sign-flipped) approximate word.
            true = qa.astype(np.int64) + qb.astype(np.int64)
            lo, hi = self._signed_lo, self._signed_hi
            overflowed = (true < lo) | (true > hi)
            if np.any(overflowed):
                out = np.where(overflowed, np.clip(true, lo, hi), out)
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
        """Balanced-tree reduction of axis 0 down to a single slice.

        The fast path folds the tree inside one preallocated buffer (no
        per-level ``np.concatenate``); the legacy layout is kept in
        :meth:`_reduce_words_concat`.  Both walk the *same* tree — the
        identical sequence of :meth:`_add_words` calls in the identical
        order — so results and the exact ``n - 1`` adds-per-lane energy
        accounting are unchanged.
        """
        if not self.fast_path:
            return self._reduce_words_concat(q)
        cur = np.asarray(q, dtype=np.int64)
        shape = cur.shape
        if shape[0] <= 1:
            return cur[0]
        plan = self._reduce_plans.get(shape)
        if plan is None:
            plan = ReductionPlan(shape)
            self._reduce_plans[shape] = plan
            self.plan_cache_misses += 1
        else:
            self.plan_cache_hits += 1
        saturating = self.fmt.overflow == "saturate"
        # One min/max over the level bounds both operand halves for the
        # saturation precheck; carried forward level to level.
        bounds = None
        if saturating and cur.size:
            bounds = (int(cur.min()), int(cur.max()))
        # With an exact adder and a saturating output stage every level
        # output equals clip(true sum), so interval arithmetic on the
        # operand bounds is a *sound* over-approximation and the
        # per-level min/max rescans can be skipped.  Approximate adders
        # can emit arbitrary width-bit words — their levels must rescan.
        exact = self.mode.adder.is_exact
        lo_w, hi_w = self._signed_lo, self._signed_hi
        last = len(plan.levels) - 1
        for i, (half, odd) in enumerate(plan.levels):
            folded = self._add_words(
                cur[:half], cur[half : 2 * half], bounds_a=bounds, bounds_b=bounds
            )
            if odd:
                nxt = plan.buf[: half + 1]
                # Tail first: buf may alias cur after an earlier odd
                # level, and index 2*half sits above every write here.
                nxt[half] = cur[2 * half]
                nxt[:half] = folded
                cur = nxt
            else:
                cur = folded
            if bounds is not None and i < last:
                if exact:
                    lo = max(bounds[0] + bounds[0], lo_w)
                    hi = min(bounds[1] + bounds[1], hi_w)
                    if odd:
                        # The carried tail word still has last level's
                        # bounds; widen to cover it.
                        lo = min(lo, bounds[0])
                        hi = max(hi, bounds[1])
                    bounds = (lo, hi)
                else:
                    bounds = (int(cur.min()), int(cur.max()))
        return cur[0]

    def _reduce_words_concat(self, q: np.ndarray) -> np.ndarray:
        """Pre-residency reduction layout: concatenate the folded half
        with the odd tail at every level.  Retained as the benchmark
        baseline and as an oracle for the fast layout's regression
        tests."""
        while q.shape[0] > 1:
            n = q.shape[0]
            half = n // 2
            folded = self._add_words(q[:half], q[half : 2 * half])
            if n % 2:
                q = np.concatenate([folded, q[2 * half :]], axis=0)
            else:
                q = folded
        return q[0]

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
        """Elementwise ``a - b`` (negation is free in two's complement)."""
        if isinstance(b, ResidentVector):
            self._check_fmt(b)
            neg = self.fmt.handle_overflow(-b.words)
            bounds = b.bounds()
            if bounds is not None and bounds[0] > self._signed_lo:
                # Negation flips the range; only the most-negative word
                # needs the overflow policy, so bounds stay exact here.
                bounds = (-bounds[1], -bounds[0])
            else:
                bounds = None
            return self.add(
                a, ResidentVector(neg, self.fmt, bounds), resident=resident
            )
        return self.add(a, -np.asarray(b, dtype=np.float64), resident=resident)

    def scale_add(self, x, alpha: float, d, *, resident: bool = False):
        """The iterative-method update rule ``x + alpha * d`` (Eq. 2).

        The scaling multiply is exact (float); the update addition runs
        on the approximate adder — precisely the paper's "update error"
        injection point.
        """
        return self.add(x, alpha * self._to_float(d), resident=resident)

    def sum(
        self,
        x,
        axis: int | None = None,
        *,
        resident: bool = False,
        assume_finite: bool = False,
    ):
        """Tree-reduce ``x`` along ``axis`` (flattened when ``None``).

        Scalar reductions (``axis=None``) always return a float.
        ``assume_finite=True`` skips the entry finiteness scan — only
        pass it when finiteness is already proved (the pinned-operand
        kernels do); the emitted words are identical either way.
        """
        scalar = axis is None
        if isinstance(x, ResidentVector):
            self._check_fmt(x)
            q = x.words
        else:
            q = self.fmt.encode(
                np.asarray(x, dtype=np.float64), assume_finite=assume_finite
            )
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

    def _trusted_product(
        self, constant: ResidentMatrix, varying: np.ndarray
    ) -> bool:
        """Whether ``constant * varying`` is provably finite.

        ``varying`` is scanned once (``O(n)`` instead of the product's
        ``O(rows × cols)``); a non-finite iterate raises the same error
        the checked encode would.  A product of two finite maxima can
        still overflow to ``inf``, so the proof also requires the bound
        itself to be finite — otherwise the caller falls back to the
        checked encode.  Legacy engines never trust (oracle stays
        literal).
        """
        if not self.fast_path:
            return False
        if varying.size == 0:
            return True
        if not np.all(np.isfinite(varying)):
            raise ValueError("cannot encode non-finite values into fixed point")
        bound = constant.abs_max * float(np.abs(varying).max())
        return bool(np.isfinite(bound))

    def _sparse_matvec_words(
        self, sp: SparseResidentMatrix, vec: np.ndarray
    ) -> np.ndarray:
        """``sp @ vec`` as fixed-point words: exact nnz products, then
        one approximate tree-reduce per row over its own segment.

        Execution is bucket-ordered by the row plan (ascending nnz
        length, rows in index order): each bucket gathers its products
        into an ``(L, g)`` slab and reduces it through
        :meth:`_reduce_words`, so per-level charge order, incremental
        saturation bounds, and the legacy concat twin (``fast_path
        =False``, which also rebuilds the plan per call — the literal
        dense-gather oracle) are all inherited from the dense reduction.
        Empty rows emit the encoded zero word without touching the
        adder.
        """
        products = sp.data * vec[sp.indices]
        trusted = self._trusted_product(sp, vec)
        q = self.fmt.encode(products, assume_finite=trusted)
        plan = sp.row_plan() if self.fast_path else SparseReductionPlan(sp.indptr)
        out = np.zeros(sp.shape[0], dtype=np.int64)
        for _length, rows, gather in plan.buckets:
            out[rows] = self._reduce_words(q[gather].T)
        return out

    def matvec(self, matrix, vector, *, resident: bool = False):
        """``matrix @ vector`` with approximate row accumulation.

        Pass a :class:`ResidentMatrix` (from :meth:`pin_matrix`) as
        ``matrix`` to skip the per-call product finiteness scan; results
        are bit-identical either way.  A :class:`SparseResidentMatrix`
        routes through the per-row segment reduction (``nnz_i - 1`` adds
        per row) instead of the dense ``cols - 1``.
        """
        trusted = False
        if isinstance(matrix, SparseResidentMatrix):
            vec = self._to_float(vector).reshape(-1)
            if matrix.shape[1] != vec.shape[0]:
                raise ValueError(
                    f"matvec shape mismatch: {matrix.shape} vs {vec.shape}"
                )
            return self._emit(self._sparse_matvec_words(matrix, vec), resident)
        if isinstance(matrix, ResidentMatrix):
            mat = matrix.array
            pinned = matrix
        else:
            mat = np.asarray(matrix, dtype=np.float64)
            pinned = None
        vector = self._to_float(vector).reshape(-1)
        if mat.ndim != 2 or mat.shape[1] != vector.shape[0]:
            raise ValueError(
                f"matvec shape mismatch: {mat.shape} vs {vector.shape}"
            )
        if pinned is not None:
            trusted = self._trusted_product(pinned, vector)
        return self.sum(
            mat * vector[np.newaxis, :],
            axis=1,
            resident=resident,
            assume_finite=trusted,
        )

    def weighted_sum(self, weights, points, *, resident: bool = False):
        """``sum_i weights[i] * points[i]`` over rows of ``points``.

        This is the M-step kernel of GMM/K-means mean updates — the
        computation the paper marks as the adder-impact site ("Mean
        Value" in Table 2).  Pass a :class:`ResidentMatrix` (from
        :meth:`pin_matrix`) as ``points`` to skip the per-call product
        finiteness scan; results are bit-identical either way.  A
        :class:`SparseResidentMatrix` reduces through its cached
        transpose (``sum_i w_i * S[i, :] == S.T @ w``), so each output
        component accumulates only the rows with a stored entry in that
        column.
        """
        trusted = False
        if isinstance(points, SparseResidentMatrix):
            w = self._to_float(weights).reshape(-1)
            if points.shape[0] != w.shape[0]:
                raise ValueError(
                    f"weighted_sum shape mismatch: {w.shape} vs {points.shape}"
                )
            return self._emit(
                self._sparse_matvec_words(points.transpose(), w), resident
            )
        if isinstance(points, ResidentMatrix):
            pts = points.array
            pinned = points
        else:
            pts = self._to_float(points)
            pinned = None
        weights = self._to_float(weights).reshape(-1)
        if pts.shape[0] != weights.shape[0]:
            raise ValueError(
                f"weighted_sum shape mismatch: {weights.shape} vs {pts.shape}"
            )
        if pinned is not None:
            trusted = self._trusted_product(pinned, weights)
        return self.sum(
            weights[:, np.newaxis] * pts,
            axis=0,
            resident=resident,
            assume_finite=trusted,
        )

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

        When an operand carries a cached absolute bound (a
        :class:`ResidentMatrix`, or a :class:`ResidentVector` whose word
        bounds are scanned) and the bound product provably fits the
        word, the full ``|a*b| > max_value`` overflow scan and the
        ``np.where`` clamp are skipped — the mask would have been
        all-``False``, so the emitted words are identical.
        """
        if not self.approximate_multiplier:
            return np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
        amax_a = self._cached_abs_max(a) if self.fast_path else None
        amax_b = self._cached_abs_max(b) if self.fast_path else None
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
        if (
            amax_a is not None
            and amax_b is not None
            and amax_a * amax_b <= self.fmt.max_value
        ):
            # The cached operand bounds prove |a*b| <= max_value
            # everywhere: the overflow mask below would be all-False, so
            # skip the full product scan and the clamp.
            self.mul_overflow_skips += 1
            return self.fmt.quantize(product)
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

    def _cached_abs_max(self, x) -> float | None:
        """A proven ``max(|x|)`` available without scanning the floats.

        :class:`ResidentMatrix` carries one from pinning;
        :class:`ResidentVector` word bounds convert exactly (words are
        ``value * scale``).  ``None`` for anything else — plain arrays
        would need the very scan the caller is trying to skip.
        """
        if isinstance(x, ResidentMatrix):
            return x.abs_max
        if isinstance(x, ResidentVector) and x.fmt == self.fmt:
            bounds = x.bounds()
            if bounds is None:
                return 0.0
            return max(abs(bounds[0]), abs(bounds[1])) / self.fmt.scale
        return None

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

        The batched analogue of :meth:`EnergyLedger.charge_many`: each
        ``(mode_name, adds_per_lane, energy_per_add)`` entry is applied
        through :meth:`charge_lanes` in list order, so every lane's
        float accumulation sequence is identical to charging the ops
        live — which is itself identical to a solo run's sequence.
        """
        for mode_name, adds_per_lane, energy_per_add in charges:
            self.charge_lanes(mode_name, lane_ids, adds_per_lane, energy_per_add)

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
    array whose *leading* axis indexes lanes, plus lazily cached
    per-lane ``(min, max)`` bound arrays feeding the batched saturation
    precheck.  Each lane's slice holds exactly the words the solo
    engine would hold for that lane.
    """

    __slots__ = ("words", "fmt", "_lo", "_hi")

    def __init__(
        self,
        words: np.ndarray,
        fmt: FixedPointFormat,
        lo: np.ndarray | None = None,
        hi: np.ndarray | None = None,
    ):
        self.words = np.asarray(words, dtype=np.int64)
        if self.words.ndim < 1:
            raise ValueError("LaneStack needs a leading lane axis")
        self.fmt = fmt
        self._lo = lo
        self._hi = hi

    @property
    def lanes(self) -> int:
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.words.shape

    def lane_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached per-lane ``(min, max)`` arrays; ``None`` when empty."""
        if self._lo is None and self.words.size:
            flat = self.words.reshape(self.words.shape[0], -1)
            self._lo = flat.min(axis=1)
            self._hi = flat.max(axis=1)
        if self._lo is None:
            return None
        return self._lo, self._hi

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


def _lane_minmax(
    q: np.ndarray, lane_axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane ``(min, max)`` over every non-lane axis (no copy)."""
    axes = tuple(i for i in range(q.ndim) if i != lane_axis)
    return q.min(axis=axes), q.max(axis=axes)


class BatchedEngine:
    """Lock-step lane-parallel variant of :class:`ApproxEngine`.

    Executes the same additive kernels over a *stack* of independent
    lanes: elementwise kernels take ``(L, ...)`` operands with the lane
    axis leading, reductions fold a ``(n, L, ...)`` slab along axis 0 so
    every lane's balanced tree is walked in one vectorized pass.  The
    adders are elementwise bitwise operations and the tree geometry
    depends only on the reduced axis length, so each lane's output words
    are bit-identical to a solo :class:`ApproxEngine` run of that lane;
    the per-lane saturation bounds only decide whether the true-sum
    recompute executes, never what it produces.

    Shared operands — a :class:`ResidentVector`, a
    :class:`ResidentMatrix`, or a plain ``(N,)`` array common to every
    lane — broadcast against the lane stacks via NumPy trailing-axis
    alignment.

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
        fast_path: saturation-precheck / residency toggle; ``None``
            takes :attr:`ApproxEngine.default_fast_path`.  Results are
            bit-identical either way.
    """

    def __init__(
        self,
        mode: ApproxMode,
        fmt: FixedPointFormat,
        ledger: BatchedEnergyLedger | None = None,
        lanes: int | None = None,
        fast_path: bool | None = None,
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
        self.fast_path = (
            ApproxEngine.default_fast_path if fast_path is None else bool(fast_path)
        )
        self._signed_lo, self._signed_hi = bitops.signed_range(fmt.width)
        self.lane_ids: np.ndarray | None = None
        self._pinned: dict[str, tuple[np.ndarray, ResidentVector]] = {}
        self._pinned_matrices: dict[str, tuple[np.ndarray, ResidentMatrix]] = {}
        self._reduce_plans: dict[tuple[int, ...], ReductionPlan] = {}
        self.encode_cache_hits = 0
        self.encode_cache_misses = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # Lane selection and pinned operands
    # ------------------------------------------------------------------
    def select_lanes(self, lane_ids) -> None:
        """Set the ledger lanes subsequent kernel calls charge to.

        The order of ``lane_ids`` is the order of rows in every stacked
        operand: row ``r`` of an ``(L, ...)`` stack belongs to ledger
        lane ``lane_ids[r]``.
        """
        ids = np.asarray(lane_ids, dtype=np.int64).reshape(-1)
        if ids.size == 0:
            raise ValueError("select_lanes needs at least one lane")
        self.lane_ids = ids

    def pin(self, name: str, array: np.ndarray) -> ResidentVector:
        """Encode a lane-shared additive constant once (see
        :meth:`ApproxEngine.pin`; encoding charges no energy, so pinning
        never perturbs parity with solo runs)."""
        arr = np.asarray(array, dtype=np.float64)
        entry = self._pinned.get(name)
        if entry is not None and entry[0] is arr:
            self.encode_cache_hits += 1
            return entry[1]
        rv = ResidentVector(self.fmt.encode(arr), self.fmt)
        rv.bounds()
        self._pinned[name] = (arr, rv)
        self.encode_cache_misses += 1
        return rv

    def pin_matrix(self, name: str, matrix: np.ndarray) -> ResidentMatrix:
        """Validate a lane-shared multiplicative constant once (see
        :meth:`ApproxEngine.pin_matrix`).  Sparse operands pass through
        (:class:`SparseResidentMatrix`) or are adopted (``tocsr()``
        duck-types), exactly as in the solo engine."""
        if isinstance(matrix, SparseResidentMatrix):
            return matrix
        if hasattr(matrix, "tocsr"):
            entry = self._pinned_matrices.get(name)
            if entry is not None and entry[0] is matrix:
                self.encode_cache_hits += 1
                return entry[1]
            sp = SparseResidentMatrix.from_csr_like(matrix)
            self._pinned_matrices[name] = (matrix, sp)
            self.encode_cache_misses += 1
            return sp
        arr = np.asarray(matrix, dtype=np.float64)
        entry = self._pinned_matrices.get(name)
        if entry is not None and entry[0] is arr:
            self.encode_cache_hits += 1
            return entry[1]
        rm = ResidentMatrix(arr)
        self._pinned_matrices[name] = (arr, rm)
        self.encode_cache_misses += 1
        return rm

    def cache_stats(self) -> dict[str, int]:
        """Counters for the pin/encode and reduction-plan caches."""
        return {
            "encode_cache_hits": self.encode_cache_hits,
            "encode_cache_misses": self.encode_cache_misses,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "pinned_operands": len(self._pinned) + len(self._pinned_matrices),
            "reduce_plans": len(self._reduce_plans),
        }

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
        """Operand → ``(words, bounds)``.

        Bounds are ``(lo, hi)`` where each side is a scalar (shared
        resident) or a per-lane array (lane stack); both broadcast in
        the precheck.
        """
        if isinstance(x, LaneStack):
            self._check_fmt(x)
            return x.words, x.lane_bounds()
        if isinstance(x, ResidentVector):
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
        if resident and self.fast_path:
            return LaneStack(words, self.fmt)
        return self.fmt.decode(words)

    def _saturation_needed(
        self, qa, qb, bounds_a, bounds_b, lane_axis: int
    ) -> bool:
        """Global (any-lane) version of the solo range precheck.

        The precheck only decides whether the true-sum recompute runs;
        the recompute itself is per-element, so a conservative global
        answer keeps per-lane results bit-identical.
        """
        if not self.fast_path:
            return True
        if qa.size == 0 or qb.size == 0:
            return False
        if bounds_a is None:
            bounds_a = _lane_minmax(qa, lane_axis)
        if bounds_b is None:
            bounds_b = _lane_minmax(qb, lane_axis)
        lo = np.asarray(bounds_a[0]) + np.asarray(bounds_b[0])
        hi = np.asarray(bounds_a[1]) + np.asarray(bounds_b[1])
        return bool(np.any(lo < self._signed_lo) or np.any(hi > self._signed_hi))

    def _add_words(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        bounds_a=None,
        bounds_b=None,
        lane_axis: int = 0,
    ) -> np.ndarray:
        """Lane-stacked :meth:`ApproxEngine._add_words`: the adder and
        the saturating output stage are elementwise, so each lane's
        slice is bit-identical to a solo add; the charge fans out as
        ``size // lanes`` adds to every selected lane."""
        if self.lane_ids is None:
            raise RuntimeError("call select_lanes() before issuing kernels")
        out = self.backend.add_signed(self.mode.adder, qa, qb)
        if self.fmt.overflow == "saturate" and self._saturation_needed(
            qa, qb, bounds_a, bounds_b, lane_axis
        ):
            true = qa.astype(np.int64) + qb.astype(np.int64)
            lo, hi = self._signed_lo, self._signed_hi
            overflowed = (true < lo) | (true > hi)
            if np.any(overflowed):
                out = np.where(overflowed, np.clip(true, lo, hi), out)
        lanes = qa.shape[lane_axis]
        if lanes != self.lane_ids.shape[0]:
            raise ValueError(
                f"operand has {lanes} lanes but {self.lane_ids.shape[0]} "
                "are selected"
            )
        n_per_lane = int(qa.size) // lanes
        self._charge_lanes(
            self.mode.name, n_per_lane, self.mode.energy_per_add
        )
        return out

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
        """Balanced-tree reduction of axis 0 of a ``(n, L, ...)`` slab.

        Walks the identical tree as :meth:`ApproxEngine._reduce_words`
        (the level splits depend only on ``n``), with the incremental
        saturation bounds kept per lane — exact adders propagate
        interval arithmetic elementwise, approximate adders rescan.
        """
        cur = np.asarray(q, dtype=np.int64)
        shape = cur.shape
        if shape[0] <= 1:
            return cur[0]
        plan = self._reduce_plans.get(shape)
        if plan is None:
            plan = ReductionPlan(shape)
            self._reduce_plans[shape] = plan
            self.plan_cache_misses += 1
        else:
            self.plan_cache_hits += 1
        saturating = self.fmt.overflow == "saturate"
        bounds = None
        if saturating and cur.size and self.fast_path:
            bounds = _lane_minmax(cur, lane_axis=1)
        exact = self.mode.adder.is_exact
        lo_w, hi_w = self._signed_lo, self._signed_hi
        last = len(plan.levels) - 1
        for i, (half, odd) in enumerate(plan.levels):
            folded = self._add_words(
                cur[:half],
                cur[half : 2 * half],
                bounds_a=bounds,
                bounds_b=bounds,
                lane_axis=1,
            )
            if odd:
                nxt = plan.buf[: half + 1]
                nxt[half] = cur[2 * half]
                nxt[:half] = folded
                cur = nxt
            else:
                cur = folded
            if bounds is not None and i < last:
                if exact:
                    lo = np.maximum(bounds[0] + bounds[0], lo_w)
                    hi = np.minimum(bounds[1] + bounds[1], hi_w)
                    if odd:
                        lo = np.minimum(lo, bounds[0])
                        hi = np.maximum(hi, bounds[1])
                    bounds = (lo, hi)
                else:
                    bounds = _lane_minmax(cur, lane_axis=1)
        return cur[0]

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
        """Elementwise ``a - b`` per lane (two's-complement negation)."""
        if isinstance(b, LaneStack):
            self._check_fmt(b)
            neg = self.fmt.handle_overflow(-b.words)
            bounds = b.lane_bounds()
            lo = hi = None
            if bounds is not None and bool(np.all(bounds[0] > self._signed_lo)):
                lo, hi = -bounds[1], -bounds[0]
            return self.add(
                a, LaneStack(neg, self.fmt, lo=lo, hi=hi), resident=resident
            )
        if isinstance(b, ResidentVector):
            self._check_fmt(b)
            neg = self.fmt.handle_overflow(-b.words)
            bounds = b.bounds()
            if bounds is not None and bounds[0] > self._signed_lo:
                bounds = (-bounds[1], -bounds[0])
            else:
                bounds = None
            return self.add(
                a, ResidentVector(neg, self.fmt, bounds), resident=resident
            )
        return self.add(a, -np.asarray(b, dtype=np.float64), resident=resident)

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

    def sum(
        self,
        x,
        axis: int | None = None,
        *,
        resident: bool = False,
        assume_finite: bool = False,
    ):
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
            q = self.fmt.encode(
                np.asarray(x, dtype=np.float64), assume_finite=assume_finite
            )
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

    def _trusted_product(
        self, constant: ResidentMatrix, varying: np.ndarray
    ) -> bool:
        """Any-lane version of :meth:`ApproxEngine._trusted_product`:
        one global bound over the whole stack (sound per lane, and the
        emitted words are identical with or without the trust)."""
        if not self.fast_path:
            return False
        if varying.size == 0:
            return True
        if not np.all(np.isfinite(varying)):
            raise ValueError("cannot encode non-finite values into fixed point")
        bound = constant.abs_max * float(np.abs(varying).max())
        return bool(np.isfinite(bound))

    def _sparse_matvec_words(
        self, sp: SparseResidentMatrix, xs: np.ndarray
    ) -> np.ndarray:
        """Lane-stacked ``sp @ xs[lane]`` as words: the batched twin of
        :meth:`ApproxEngine._sparse_matvec_words`.  Each bucket's
        ``(B, g, L)`` product gather is reduced as an ``(L, B, g)`` slab
        through the lane-aware :meth:`_reduce_words` (``lane_axis=1``
        inside), so every lane slice walks the identical tree — and
        draws the identical charges — as a solo engine on that lane."""
        products = sp.data[np.newaxis, :] * xs[:, sp.indices]
        trusted = self._trusted_product(sp, xs)
        q = self.fmt.encode(products, assume_finite=trusted)
        plan = sp.row_plan() if self.fast_path else SparseReductionPlan(sp.indptr)
        out = np.zeros((xs.shape[0], sp.shape[0]), dtype=np.int64)
        for _length, rows, gather in plan.buckets:
            out[:, rows] = self._reduce_words(np.moveaxis(q[:, gather], 2, 0))
        return out

    def matvec(self, matrix, x, *, resident: bool = False):
        """Shared ``matrix @ x[lane]`` for every lane of a ``(L, N)``
        stack, with approximate row accumulation.  Sparse operands
        route through the per-row segment reduction, as in the solo
        engine."""
        trusted = False
        if isinstance(matrix, SparseResidentMatrix):
            xs = self._to_float(x)
            if xs.ndim != 2 or matrix.shape[1] != xs.shape[1]:
                raise ValueError(
                    f"batched matvec shape mismatch: {matrix.shape} vs {xs.shape}"
                )
            return self._emit(self._sparse_matvec_words(matrix, xs), resident)
        if isinstance(matrix, ResidentMatrix):
            mat = matrix.array
            pinned = matrix
        else:
            mat = np.asarray(matrix, dtype=np.float64)
            pinned = None
        xs = self._to_float(x)
        if xs.ndim != 2 or mat.ndim != 2 or mat.shape[1] != xs.shape[1]:
            raise ValueError(
                f"batched matvec shape mismatch: {mat.shape} vs {xs.shape}"
            )
        if pinned is not None:
            trusted = self._trusted_product(pinned, xs)
        products = mat[np.newaxis, :, :] * xs[:, np.newaxis, :]
        return self.sum(products, axis=1, resident=resident, assume_finite=trusted)

    def weighted_sum(self, weights, points, *, resident: bool = False):
        """Per-lane ``sum_i weights[lane, i] * points[i]`` over shared
        rows of ``points``.  Sparse operands reduce through the cached
        transpose, as in the solo engine."""
        trusted = False
        if isinstance(points, SparseResidentMatrix):
            w = self._to_float(weights)
            if w.ndim != 2 or points.shape[0] != w.shape[1]:
                raise ValueError(
                    f"batched weighted_sum shape mismatch: {w.shape} vs {points.shape}"
                )
            return self._emit(
                self._sparse_matvec_words(points.transpose(), w), resident
            )
        if isinstance(points, ResidentMatrix):
            pts = points.array
            pinned = points
        else:
            pts = self._to_float(points)
            pinned = None
        w = self._to_float(weights)
        if w.ndim != 2 or pts.ndim != 2 or pts.shape[0] != w.shape[1]:
            raise ValueError(
                f"batched weighted_sum shape mismatch: {w.shape} vs {pts.shape}"
            )
        if pinned is not None:
            trusted = self._trusted_product(pinned, w)
        products = w[:, :, np.newaxis] * pts[np.newaxis, :, :]
        return self.sum(products, axis=0, resident=resident, assume_finite=trusted)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip values through the datapath format (no energy)."""
        return self.fmt.quantize(np.asarray(x, dtype=np.float64))

    def describe(self) -> str:
        """One-line description of the engine configuration."""
        return (
            f"BatchedEngine(mode={self.mode.name}, "
            f"adder={self.mode.adder.describe()}, fmt={self.fmt.describe()})"
        )
