"""Stationary iterative solvers for linear systems.

Jacobi, Gauss–Seidel and SOR are classic splitting methods
``x^{k+1} = x^k + M^{-1}(b − A x^k)``, which is exactly the paper's
direction/update form with ``d^k = M^{-1} r^k`` and ``alpha = 1`` (or
the relaxation factor ``omega`` for SOR).  The residual accumulation
runs through the approximate engine; the triangular/diagonal solve is
exact (it is cheap control logic compared to the ``O(n²)`` residual).

The objective reported to the framework is the squared residual norm
``‖b − A x‖²`` — monotone under any convergent splitting and zero at
the solution — so the reconfiguration schemes apply unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.arith.engine import ApproxEngine, SparseResidentMatrix
from repro.solvers.base import IterativeMethod, evaluate_into


class _SplittingSolver(IterativeMethod):
    """Shared machinery for Jacobi / Gauss–Seidel / SOR.

    ``matrix`` may be dense, a :class:`SparseResidentMatrix`, or any
    scipy-style sparse object (``tocsr()``) — but only solvers that set
    :attr:`supports_sparse` accept the sparse forms (Jacobi does; the
    triangular-splitting solvers slice/factor the dense array).
    """

    #: Whether this splitting can run on a CSR system matrix.
    supports_sparse = False

    def __init__(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if isinstance(matrix, SparseResidentMatrix) or hasattr(matrix, "tocsr"):
            if not self.supports_sparse:
                raise TypeError(
                    f"{type(self).__name__} needs a dense matrix; sparse "
                    "systems are supported by JacobiSolver"
                )
            if not isinstance(matrix, SparseResidentMatrix):
                matrix = SparseResidentMatrix.from_csr_like(matrix)
            diag = matrix.diagonal()
        else:
            matrix = np.asarray(matrix, dtype=np.float64)
            diag = None
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != rhs.shape[0]:
            raise ValueError(f"shape mismatch: {matrix.shape} vs {rhs.shape}")
        if diag is None:
            diag = np.diag(matrix).copy()
        if np.any(diag == 0):
            raise ValueError("splitting solvers need a zero-free diagonal")
        self.matrix = matrix
        self.rhs = rhs
        self._diag = diag
        self._x0 = (
            np.zeros(rhs.shape[0])
            if x0 is None
            else np.asarray(x0, dtype=np.float64).reshape(-1).copy()
        )

    def initial_state(self) -> np.ndarray:
        return self._x0.copy()

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Exact float ``A @ x`` for the objective/gradient hooks."""
        if isinstance(self.matrix, SparseResidentMatrix):
            return self.matrix.matvec_exact(x)
        return self.matrix @ x

    #: The objective and its exact residual ``"residual"``, ``b − A x``
    #: (the directions run their own on the engine; ``state`` is unread).
    evaluate = evaluate_into

    def objective(self, x: np.ndarray, state: dict | None = None) -> float:
        r = self.rhs - self._apply(np.asarray(x, dtype=np.float64))
        if state is not None:
            state["residual"] = r
        return float(r @ r)

    def gradient(self, x: np.ndarray, state: dict | None = None) -> np.ndarray:
        # Gradient of ‖b − A x‖²: −2 Aᵀ r.
        if state is None:
            state = evaluate_into(self, x)[1]
        r = state["residual"]
        if isinstance(self.matrix, SparseResidentMatrix):
            return -2.0 * self.matrix.rmatvec_exact(r)
        return -2.0 * self.matrix.T @ r

    def residual(self, x: np.ndarray, engine: ApproxEngine) -> np.ndarray:
        """``b − A x`` with approximate accumulation.

        The matvec result stays fixed-point resident into the subtract —
        one encode on entry, one decode on exit.
        """
        return engine.sub(self.rhs, engine.matvec(self.matrix, x, resident=True))

    def solution(self) -> np.ndarray:
        """Direct solution, for QEM references in tests (densifies a
        sparse system; test-scale only)."""
        if isinstance(self.matrix, SparseResidentMatrix):
            return np.linalg.solve(self.matrix.toarray(), self.rhs)
        return np.linalg.solve(self.matrix, self.rhs)


class JacobiSolver(_SplittingSolver):
    """Jacobi splitting: ``M = diag(A)``.

    Converges when ``A`` is strictly diagonally dominant.  Accepts a
    sparse system matrix (CSR): the residual matvec then accumulates
    each row's own nnz products through the approximate adder.
    """

    name = "jacobi"
    supports_sparse = True

    def direction(self, x: np.ndarray, engine: ApproxEngine, state=None) -> np.ndarray:
        return self.residual(x, engine) / self._diag


class GaussSeidelSolver(_SplittingSolver):
    """Gauss–Seidel splitting: ``M = D + L`` (lower triangle).

    Converges for SPD or strictly diagonally dominant systems, typically
    about twice as fast as Jacobi.
    """

    name = "gauss-seidel"

    def direction(self, x: np.ndarray, engine: ApproxEngine, state=None) -> np.ndarray:
        r = self.residual(x, engine)
        lower = np.tril(self.matrix)
        # Forward substitution is exact; the expensive O(n²) residual
        # above carried the approximation.
        from scipy.linalg import solve_triangular

        return solve_triangular(lower, r, lower=True)


class SorSolver(_SplittingSolver):
    """Successive over-relaxation: Gauss–Seidel scaled by ``omega``.

    Args:
        omega: relaxation factor in (0, 2); 1 reduces to Gauss–Seidel.
    """

    name = "sor"

    def __init__(self, matrix, rhs, omega: float = 1.5, **kwargs):
        super().__init__(matrix, rhs, **kwargs)
        if not 0 < omega < 2:
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        self.omega = float(omega)

    def direction(self, x: np.ndarray, engine: ApproxEngine, state=None) -> np.ndarray:
        r = self.residual(x, engine)
        diag = np.diag(np.diag(self.matrix))
        lower = np.tril(self.matrix, k=-1)
        m = diag / self.omega + lower
        from scipy.linalg import solve_triangular

        return solve_triangular(m, r, lower=True)


class _RedBlackSplittingSolver(_SplittingSolver):
    """Red-black (odd-even) reordered relaxation sweeps.

    One iteration is two *half sweeps*: relax every red (even-index)
    unknown against the current iterate, then every black (odd-index)
    unknown against the red-updated iterate.  Each half sweep is one
    rectangular residual ``b_c − A_c x`` through the approximate engine
    plus a relaxed diagonal scaling — no triangular solve, so the whole
    iteration is expressible as a fixed engine-op sequence and both
    lane-batches *and* compiles to an
    :class:`~repro.arith.program.IterationProgram` (two half-sweep
    programs per iteration), which classic lexicographic Gauss–Seidel's
    sequential forward substitution cannot.

    For matrices with *property A* under the parity coloring (no
    red–red or black–black coupling, e.g. tridiagonal systems) this is
    exactly Gauss–Seidel/SOR in the red-black ordering; for general
    diagonally dominant systems it is a convergent two-color block
    splitting (within-color Jacobi, across-color Gauss–Seidel).

    The engine calls are written against the polymorphic kernel API, so
    the same ``direction`` body drives a solo
    :class:`~repro.arith.engine.ApproxEngine` (``x`` of shape ``(n,)``)
    and a :class:`~repro.arith.engine.BatchedEngine` (``x`` of shape
    ``(L, n)``) — the batched adapter is a passthrough.
    """

    def __init__(self, matrix, rhs, omega: float = 1.0, **kwargs):
        super().__init__(matrix, rhs, **kwargs)
        if not 0 < omega < 2:
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        self.omega = float(omega)
        n = self.matrix.shape[0]
        self._red = np.arange(0, n, 2)
        self._black = np.arange(1, n, 2)
        # Materialized once: program replay resolves constant operands
        # by identity to their compile-time encodings, and a fresh
        # fancy-index slice per call would re-encode every iteration.
        self._color_rows = {"red": self._red, "black": self._black}
        self._color_rhs = {c: self.rhs[r].copy() for c, r in self._color_rows.items()}
        self._color_mat = {c: self.matrix[r].copy() for c, r in self._color_rows.items()}
        self._color_diag = {c: self._diag[r].copy() for c, r in self._color_rows.items()}

    def _half_sweep(self, x: np.ndarray, color: str, engine) -> np.ndarray:
        """Relax one color: ``x_c += omega * (b_c − A_c x) / diag_c``.

        The O(n²/2) rectangular residual carries the approximation; the
        diagonal scaling is exact, mirroring the full-sweep solvers.
        """
        rows = self._color_rows[color]
        r = engine.sub(
            self._color_rhs[color],
            engine.matvec(self._color_mat[color], x, resident=True),
        )
        new_rows = engine.scale_add(
            x[..., rows], self.omega, r / self._color_diag[color]
        )
        out = np.array(x, dtype=np.float64, copy=True)
        out[..., rows] = new_rows
        return out

    def direction(self, x: np.ndarray, engine, state=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        h = self._half_sweep(x, "red", engine)
        h = self._half_sweep(h, "black", engine)
        return h - x


class RedBlackGaussSeidelSolver(_RedBlackSplittingSolver):
    """Gauss–Seidel in red-black ordering (``omega = 1``).

    Batchable and program-replayable where the lexicographic
    :class:`GaussSeidelSolver` needs per-lane triangular solves.
    """

    name = "gauss-seidel-rb"

    def __init__(self, matrix, rhs, **kwargs):
        super().__init__(matrix, rhs, omega=1.0, **kwargs)


class RedBlackSorSolver(_RedBlackSplittingSolver):
    """SOR in red-black ordering.

    Args:
        omega: relaxation factor in (0, 2); 1 reduces to red-black
            Gauss–Seidel.
    """

    name = "sor-rb"

    def __init__(self, matrix, rhs, omega: float = 1.5, **kwargs):
        super().__init__(matrix, rhs, omega=omega, **kwargs)
