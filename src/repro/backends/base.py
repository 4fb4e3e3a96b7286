"""The engine's elementary kernels.

A :class:`KernelBackend` holds every elementary operation the
approximate datapath performs below the engine: adder dispatch and the
fused in-range kernels the program-replay fast paths are built on.
Every engine dispatches through the one shared instance,
:data:`KERNELS`.  The kernels are plain NumPy (plus one SciPy
segment-sum); the bit-serial ``adders.reference`` suite and the fused
kernels' reference compositions are their oracles
(``tests/hardware/test_backend_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

try:  # SciPy is a declared dependency, but the kernels keep a pure-
    # NumPy fallback so a stripped environment still runs correctly.
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None


class KernelBackend:
    """Execution substrate for the engine's elementary kernels.

    Two method groups:

    * **adder dispatch** (:meth:`add_signed`) — the always-correct
      entry point the interpreted path calls for every addition;
    * **fused in-range kernels** (:meth:`add_words_inrange`,
      :meth:`sub_words_inrange`, :meth:`reduce_inrange`,
      :meth:`product_reduce_words`, :meth:`csr_matvec_words`,
      :meth:`scale_encode_inrange`) — called only by program replay
      *after* the caller has proved the operation cannot leave the
      representable range (exact adder, saturating format, interval
      proof), where the masked/clipped reference computation provably
      collapses to plain integer arithmetic.  Each is bit-identical to
      the reference under those preconditions.
    """

    # ------------------------------------------------------------------
    # Adder dispatch
    # ------------------------------------------------------------------
    def add_signed(self, adder, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """One elementary addition through ``adder`` (two's-complement,
        wraparound overflow) — the single adder entry point of
        :meth:`repro.arith.engine.ApproxEngine._add_words`."""
        return adder.add_signed(qa, qb)

    # ------------------------------------------------------------------
    # Fused in-range kernels (caller supplies the range proof)
    # ------------------------------------------------------------------
    def add_words_inrange(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Exact add of words whose sum provably stays in range: the
        masked two's-complement add collapses to plain ``+``."""
        return np.add(qa, qb)

    def sub_words_inrange(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Exact subtract under an in-range (and no-negation-clamp)
        proof: negation plus masked add collapses to plain ``-``."""
        return np.subtract(qa, qb)

    def reduce_inrange(self, q: np.ndarray, axis: int = 0) -> np.ndarray:
        """Tree-reduce along ``axis`` when every partial sum provably
        stays in range: in-range exact integer addition is associative,
        so a flat fold is bit-identical to the balanced tree."""
        return np.add.reduce(q, axis=axis)

    def product_reduce_words(
        self,
        a: np.ndarray,
        b: np.ndarray,
        scale: float,
        axis: int,
        bufs: dict,
    ) -> np.ndarray:
        """Fused product → encode → in-range reduce.

        Computes ``reduce(rint((a * b) * scale), axis)`` as int64 words
        with the encode clip *skipped* — callable only when the caller
        proved every encoded word and every partial sum in range *and*
        below ``2**53`` (see ``repro.arith.program._fused_product_ok``).
        ``a * b``
        broadcasts; ``bufs`` is per-call-site scratch storage keyed by
        broadcast shape, reused across iterations so the hot loop
        allocates only the reduced output.

        Bit-exactness argument: the reference path computes
        ``rint(product * scale).astype(int64)`` then clips then
        tree-reduces; with the clip proven a no-op and the tree proven
        in-range, the same float ops followed by a flat fold produce
        the identical words.  The fold itself runs in the float buffer:
        after ``rint`` every element is integer-valued, and the
        caller's ``n*W < 2**53`` proof bounds every partial sum (under
        *any* association, so NumPy's pairwise float summation is
        covered) below the float64 integer-exact range — the float
        reduce is therefore the exact integer sum, and the O(rows)
        result is the only value cast, skipping the O(rows*cols)
        ``int64`` conversion pass entirely.
        """
        shape = np.broadcast_shapes(a.shape, b.shape)
        fbuf = bufs.get(shape)
        if fbuf is None:
            fbuf = bufs[shape] = np.empty(shape, dtype=np.float64)
        np.multiply(a, b, out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        return np.add.reduce(fbuf, axis=axis).astype(np.int64)

    def csr_matvec_words(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        x: np.ndarray,
        scale: float,
        bufs: dict,
    ) -> np.ndarray:
        """Fused sparse product → encode → per-row in-range reduce.

        The CSR sibling of :meth:`product_reduce_words`: computes, per
        matrix row, ``sum_k rint((data[k] * x[indices[k]]) * scale)``
        as int64 words with the encode clip *skipped* — callable only
        under the caller's ``nnz_max``-specialized proof (``W <= hi``,
        ``nnz_max * W <= hi``, ``nnz_max * W < 2**53`` — see
        ``repro.arith.program._fused_product_ok``), which bounds every
        partial sum of every row's segment under *any* association.
        The fold therefore runs in the float buffer (every element is
        integer-valued after ``rint`` and every partial sum stays in
        float64's integer-exact range) and only the O(rows) result is
        cast.  ``x`` is ``(n,)`` for one lane or ``(B, n)``
        lane-stacked; the result is ``(rows,)`` / ``(B, rows)`` with
        empty rows emitting the zero word.  ``bufs`` is per-call-site
        scratch (row-partition geometry plus the product buffer),
        reused across iterations.
        """
        rows = indptr.shape[0] - 1
        batched = x.ndim == 2
        if data.size == 0:
            shape = (x.shape[0], rows) if batched else (rows,)
            return np.zeros(shape, dtype=np.int64)
        shape = (x.shape[0], data.shape[0]) if batched else data.shape
        fbuf = bufs.get(shape)
        if fbuf is None:
            fbuf = bufs[shape] = np.empty(shape, dtype=np.float64)
        if batched:
            np.multiply(data[np.newaxis, :], x[:, indices], out=fbuf)
        else:
            np.multiply(data, x[indices], out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        if _scipy_sparse is not None:
            # Segment-sum as one C-level CSR matvec against a cached
            # (rows, nnz) structure-only selector: row i's segment sums
            # fbuf[indptr[i]:indptr[i+1]].  The in-range proof covers
            # any association, so SciPy's sequential per-row fold is
            # the exact integer sum, empty rows included.
            sel = bufs.get("csr_segsum")
            if sel is None:
                sel = bufs["csr_segsum"] = _scipy_sparse.csr_matrix(
                    (
                        np.ones(data.shape[0], dtype=np.float64),
                        np.arange(data.shape[0], dtype=np.int64),
                        indptr,
                    ),
                    shape=(rows, data.shape[0]),
                )
            if batched:
                return (sel @ fbuf.T).T.astype(np.int64)
            return (sel @ fbuf).astype(np.int64)
        geom = bufs.get("csr_geom")
        if geom is None:
            nz = indptr[:-1] < indptr[1:]
            # Row starts of the non-empty rows partition the data array
            # exactly (empty rows occupy no space), so one reduceat
            # yields every non-empty row's segment sum.
            starts = np.ascontiguousarray(indptr[:-1][nz])
            geom = bufs["csr_geom"] = (nz, bool(nz.all()), starts)
        nz, all_full, starts = geom
        sums = np.add.reduceat(fbuf, starts, axis=-1).astype(np.int64)
        if all_full:
            return sums
        shape = (x.shape[0], rows) if batched else (rows,)
        out = np.zeros(shape, dtype=np.int64)
        out[..., nz] = sums
        return out

    def scale_encode_inrange(
        self,
        arr: np.ndarray,
        factor: float,
        scale: float,
        bufs: dict,
    ) -> np.ndarray:
        """Fused ``encode(factor * arr)`` with the clip *skipped*.

        Computes ``rint((arr * factor) * scale)`` as int64 words —
        callable only when the caller proved every encoded word in
        range (the ``scale_add`` replay's peak-bound proof), where the
        reference encode's finiteness scan and clip are both no-ops.
        ``bufs`` is per-call-site scratch keyed by shape, reused across
        iterations; the returned array is one of those buffers, so the
        caller must consume it before the next call.
        """
        pair = bufs.get(arr.shape)
        if pair is None:
            pair = (
                np.empty(arr.shape, dtype=np.float64),
                np.empty(arr.shape, dtype=np.int64),
            )
            bufs[arr.shape] = pair
        fbuf, qbuf = pair
        np.multiply(arr, factor, out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        np.copyto(qbuf, fbuf, casting="unsafe")
        return qbuf


#: The one kernel set every engine dispatches through.
KERNELS = KernelBackend()


def resolve_backend_name() -> str:
    """Name of the kernel set every engine runs.

    There is one, the NumPy kernels of :class:`KernelBackend`, so this
    is always ``"numpy"``; benchmark records carry it to say which
    kernels produced a measurement.
    """
    return "numpy"
