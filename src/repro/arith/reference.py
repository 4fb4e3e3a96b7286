"""The reference engine: the approximate datapath written as a spec.

:class:`ReferenceEngine` runs the solver-facing kernels one stage at a
time, as the paper states the datapath: quantize every operand with the
checked :meth:`~repro.arith.fixed.FixedPointFormat.encode`, add through
the mode's adder (one ``add_signed`` call per addition) behind a
saturating output stage, reduce in a balanced adder tree, and charge
every adder call to the ledger with its element count, so ``n``
summands cost ``n - 1`` additions.

It shares no kernel code with the production engines or the kernel
backend, caches nothing and always returns floats.  It is the oracle
their residency, saturation prechecks, program replay and fused kernels
are checked against (bit-identical words, float-equal ledgers)
and the baseline the perf benchmarks time them against.  Like
:mod:`repro.hardware.adders.reference`, no production path uses it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.arith.engine import EnergyLedger, SparseResidentMatrix
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ApproxMode
from repro.hardware import bitops


class ReferenceEngine:
    """The solo kernels through one mode, written as a spec.

    Takes the production engines' ``resident=`` keyword and ignores it.  A batched lane equals a solo run of that
    lane, so this engine is the batched oracle too.
    """

    def __init__(
        self, mode: ApproxMode, fmt: FixedPointFormat, ledger: EnergyLedger | None = None
    ):
        if mode.adder.width != fmt.width:
            raise ValueError(f"mode width {mode.adder.width} != format width {fmt.width}")
        self.mode = mode
        self.fmt = fmt
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self._lo, self._hi = bitops.signed_range(fmt.width)

    # ------------------------------------------------------------------
    # Datapath stages (words in, words out)
    # ------------------------------------------------------------------
    def _add(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """One adder call: elementwise addition with a saturating output
        stage, charged to the ledger."""
        if qa.shape != qb.shape:
            qa, qb = np.broadcast_arrays(qa, qb)
        out = self.mode.adder.add_signed(qa, qb)
        if self.fmt.overflow == "saturate":
            lo, hi = self._lo, self._hi
            true = qa.astype(np.int64) + qb.astype(np.int64)
            overflowed = (true < lo) | (true > hi)
            if np.any(overflowed):
                out = np.where(overflowed, np.clip(true, lo, hi), out)
        self.ledger.charge(self.mode.name, int(qa.size), self.mode.energy_per_add)
        return out

    def _reduce(self, q: np.ndarray) -> np.ndarray:
        """Balanced adder tree over axis 0, the odd tail carried up."""
        while q.shape[0] > 1:
            half = q.shape[0] // 2
            folded = self._add(q[:half], q[half : 2 * half])
            q = np.concatenate([folded, q[2 * half :]]) if q.shape[0] % 2 else folded
        return q[0]

    def _csr(self, sp: SparseResidentMatrix, vec: np.ndarray) -> np.ndarray:
        """``sp @ vec``: one tree per row over its stored products, the
        rows of each nnz length reduced together, lengths ascending (the
        ledger order)."""
        q = self.fmt.encode(sp.data * vec[sp.indices])
        lengths = np.diff(sp.indptr)
        out = np.zeros(sp.shape[0], dtype=np.int64)
        for length in np.unique(lengths[lengths > 0]):
            rows = np.flatnonzero(lengths == length)
            out[rows] = self._reduce(q[sp.indptr[rows, None] + np.arange(length)].T)
        return self.fmt.decode(out)

    # ------------------------------------------------------------------
    # Kernels (floats in, floats out)
    # ------------------------------------------------------------------
    def add(self, a, b, *, resident: bool = False) -> np.ndarray:
        qa = self.fmt.encode(np.asarray(a, dtype=np.float64))
        qb = self.fmt.encode(np.asarray(b, dtype=np.float64))
        return self.fmt.decode(self._add(qa, qb))

    def sub(self, a, b, *, resident: bool = False) -> np.ndarray:
        """``a - b``: the subtrahend is encoded, then its word negated."""
        qa = self.fmt.encode(np.asarray(a, dtype=np.float64))
        qb = self.fmt.encode(np.asarray(b, dtype=np.float64))
        return self.fmt.decode(self._add(qa, self.fmt.handle_overflow(-qb)))

    def scale_add(self, x, alpha, d, *, resident: bool = False) -> np.ndarray:
        return self.add(x, alpha * np.asarray(d, dtype=np.float64))

    def sum(self, x, axis=None, *, resident: bool = False):
        """Tree-reduce along ``axis``; a float when ``axis`` is ``None``."""
        q = self.fmt.encode(np.asarray(x, dtype=np.float64))
        scalar = axis is None
        if scalar:
            q, axis = q.reshape(-1), 0
        if q.shape[axis] == 0:
            out = np.zeros(np.delete(q.shape, axis))
        else:
            out = self.fmt.decode(self._reduce(np.moveaxis(q, axis, 0)))
        return float(out) if scalar else out

    def dot(self, a, b) -> float:
        a = np.asarray(a, dtype=np.float64).reshape(-1)
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if a.shape != b.shape:
            raise ValueError(f"dot shape mismatch: {a.shape} vs {b.shape}")
        return self.sum(a * b)

    def matvec(self, matrix, vector, *, resident: bool = False) -> np.ndarray:
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        sparse = isinstance(matrix, SparseResidentMatrix)
        mat = matrix if sparse else np.asarray(matrix, dtype=np.float64)
        if len(mat.shape) != 2 or mat.shape[1] != vec.shape[0]:
            raise ValueError(f"matvec shape mismatch: {mat.shape} vs {vec.shape}")
        if sparse:
            return self._csr(mat, vec)
        return self.sum(mat * vec[np.newaxis, :], axis=1)

    def weighted_sum(self, weights, points, *, resident: bool = False) -> np.ndarray:
        """Dense points take ``(..., n)`` weights: each leading index is
        its own sum, computed (and charged) one after another in C
        order.  CSR points take ``(n,)`` weights."""
        sparse = isinstance(points, SparseResidentMatrix)
        pts = points if sparse else np.asarray(points, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if sparse:
            w = w.reshape(-1)
        if len(pts.shape) != 2 or w.ndim < 1 or pts.shape[0] != w.shape[-1]:
            raise ValueError(f"weighted_sum shape mismatch: {w.shape} vs {pts.shape}")
        if sparse:
            return self._csr(pts.transpose(), w)
        rows = w.reshape(math.prod(w.shape[:-1]), pts.shape[0])
        sums = [self.sum(row[:, np.newaxis] * pts, axis=0) for row in rows]
        return np.reshape(sums, w.shape[:-1] + pts.shape[1:])
