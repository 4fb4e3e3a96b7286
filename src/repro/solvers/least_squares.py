"""Batch gradient-descent least squares.

This is the numerical substrate of the AutoRegression benchmark: fit
``w`` minimizing ``(1/2n)‖X w − y‖²`` by steepest descent.  The gradient
``Xᵀ(X w − y)/n`` is a large data reduction, so its accumulation runs
through the approximate engine (direction error), and the parameter
update runs through :meth:`~repro.arith.ApproxEngine.scale_add`
(update error).
"""

from __future__ import annotations

import numpy as np

from repro.arith.engine import ApproxEngine, SparseResidentMatrix
from repro.solvers.base import IterativeMethod


class LeastSquaresGD(IterativeMethod):
    """Gradient descent on the normal-equations objective.

    Args:
        design: the ``n x p`` design matrix ``X`` — dense, a
            :class:`SparseResidentMatrix`, or any scipy-style sparse
            object (``tocsr()``).  A sparse design switches the engine
            direction to the residual form ``Xᵀ(X w − y)/n`` (the Gram
            matrix of a sparse design is dense and would forfeit the
            sparsity), exercising both the sparse ``matvec`` and the
            sparse ``weighted_sum`` kernels per iteration.
        targets: the length-``n`` target vector ``y``.
        x0: starting weights; zeros when omitted.
        learning_rate: step size; when ``None`` a safe
            ``1 / λ_max`` of the (regularized) Gram matrix is derived
            from the data (power iteration on the implicit Gram when
            the design is sparse).
        ridge: Tikhonov regularization weight λ; the objective becomes
            ``(1/2n)‖X w − y‖² + (λ/2)‖w‖²``.  Essential when the design
            columns are nearly collinear (the AR-on-prices benchmark),
            where it bounds the effective condition number and hence the
            iteration count.  With a sparse design the ridge term is
            applied exactly (outside the approximate datapath).
    """

    name = "least-squares-gd"

    def __init__(
        self,
        design: np.ndarray,
        targets: np.ndarray,
        x0: np.ndarray | None = None,
        learning_rate: float | None = None,
        ridge: float = 0.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if isinstance(design, SparseResidentMatrix) or hasattr(design, "tocsr"):
            if not isinstance(design, SparseResidentMatrix):
                design = SparseResidentMatrix.from_csr_like(design)
            self._sparse = True
        else:
            design = np.asarray(design, dtype=np.float64)
            self._sparse = False
        targets = np.asarray(targets, dtype=np.float64).reshape(-1)
        if design.ndim != 2 or design.shape[0] != targets.shape[0]:
            raise ValueError(
                f"design/targets mismatch: {design.shape} vs {targets.shape}"
            )
        if design.shape[0] < design.shape[1]:
            raise ValueError("need at least as many samples as parameters")
        if ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        self.design = design
        self.targets = targets
        self.ridge = float(ridge)
        self._n = design.shape[0]
        if self._sparse:
            self._gram = None
            self._xty = design.rmatvec_exact(targets) / self._n
        else:
            self._gram = (
                design.T @ design / self._n + ridge * np.eye(design.shape[1])
            )
            self._xty = design.T @ targets / self._n
        # Negated once: the gradient subtract becomes an add of a
        # constant, which program replay encodes once at compile time.
        self._neg_xty = -self._xty
        if learning_rate is None:
            if self._sparse:
                lam_max = self._power_lambda_max()
            else:
                lam_max = float(np.linalg.eigvalsh(self._gram).max())
            if lam_max <= 0:
                raise ValueError("design matrix has rank zero")
            learning_rate = 1.0 / lam_max
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self._x0 = (
            np.zeros(design.shape[1])
            if x0 is None
            else np.asarray(x0, dtype=np.float64).reshape(-1).copy()
        )
        if self._x0.shape[0] != design.shape[1]:
            raise ValueError(
                f"x0 has dim {self._x0.shape[0]}, expected {design.shape[1]}"
            )

    def _power_lambda_max(self, iters: int = 60) -> float:
        """λ_max of the implicit Gram ``XᵀX/n + ridge·I`` by power
        iteration on the exact sparse helpers (the Gram itself is never
        formed)."""
        p = self.design.shape[1]
        v = np.full(p, 1.0 / np.sqrt(p))
        lam = 0.0
        for _ in range(iters):
            g = self.design.rmatvec_exact(self.design.matvec_exact(v)) / self._n
            g += self.ridge * v
            lam = float(np.linalg.norm(g))
            if lam == 0.0:
                return 0.0
            v = g / lam
        return lam

    def initial_state(self) -> np.ndarray:
        return self._x0.copy()

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=np.float64)
        if self._sparse:
            r = self.design.matvec_exact(w) - self.targets
        else:
            r = self.design @ w - self.targets
        return float(r @ r / (2 * self._n) + 0.5 * self.ridge * w @ w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if self._sparse:
            grad = (
                self.design.rmatvec_exact(self.design.matvec_exact(w)) / self._n
                - self._xty
            )
            return grad + self.ridge * w
        return self._gram @ w - self._xty

    def direction(self, w: np.ndarray, engine: ApproxEngine) -> np.ndarray:
        if self._sparse:
            # Residual-form gradient: prediction matvec, residual
            # subtract, and the Xᵀr/n reduction all run on the engine
            # through the sparse kernels; the 1/n scaling and the ridge
            # term are exact (cheap O(n)/O(p) control logic).
            pred = engine.matvec(self.design, w, resident=True)
            r = engine.sub(pred, self.targets, resident=True)
            grad = engine.weighted_sum(np.asarray(r) / self._n, self.design)
            if self.ridge:
                grad = grad + self.ridge * np.asarray(w, dtype=np.float64)
            return -grad
        # Gram-form gradient: the p x p reduction runs on the engine.
        grad = engine.add(
            engine.matvec(self._gram, w, resident=True), self._neg_xty
        )
        return -grad

    def step_size(self, w: np.ndarray, d: np.ndarray, iteration: int) -> float:
        return self.learning_rate

    def solution(self) -> np.ndarray:
        """The exact least-squares solution (normal equations; the
        sparse design densifies its Gram here — test-scale only)."""
        if self._sparse:
            dense = self.design.toarray()
            gram = dense.T @ dense / self._n + self.ridge * np.eye(dense.shape[1])
            return np.linalg.solve(gram, self._xty)
        return np.linalg.solve(self._gram, self._xty)
