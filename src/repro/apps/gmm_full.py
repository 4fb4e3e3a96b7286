"""Full-covariance Gaussian mixture EM.

The paper's GMM benchmark came from Matlab, whose ``gmdistribution``
fits *full* covariance matrices.  The reproduction's main application
(:class:`~repro.apps.gmm.GaussianMixtureEM`) uses diagonal covariances —
sufficient for the isotropic Table-2 stand-ins and trivially PSD under
reconfiguration dynamics — so this class completes the family: full
covariance matrices with Cholesky-based likelihoods and an
eigenvalue-floor projection that keeps every iterate PSD no matter what
the approximate datapath or a rollback did to it.

The approximation sites are unchanged (Table 2, "Mean Value"): the
M-step's weighted coordinate sums and the mean block of the update run
on the approximate adder; responsibilities and covariances stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arith.engine import ApproxEngine
from repro.data.clusters import ClusterDataset
from repro.solvers.base import IterativeMethod

_LOG_2PI = float(np.log(2.0 * np.pi))
_WEIGHT_FLOOR = 1e-8
#: Eigenvalue floor of every covariance matrix.
_EIG_FLOOR = 1e-4


@dataclass(frozen=True)
class FullGmmParams:
    """Structured view of a full-covariance GMM state vector.

    Attributes:
        weights: ``(k,)`` mixing proportions.
        means: ``(k, d)`` component means.
        covariances: ``(k, d, d)`` PSD covariance matrices.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def pack(self) -> np.ndarray:
        """Flatten to the solver's state layout."""
        return np.concatenate(
            [self.weights, self.means.ravel(), self.covariances.ravel()]
        )

    @classmethod
    def unpack(cls, x: np.ndarray, n_clusters: int, dim: int) -> "FullGmmParams":
        """Rebuild the structured view from a flat state vector."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        expected = n_clusters * (1 + dim + dim * dim)
        if x.shape[0] != expected:
            raise ValueError(
                f"state has {x.shape[0]} entries, expected {expected} "
                f"for k={n_clusters}, d={dim} (full covariance)"
            )
        k = n_clusters
        weights = x[:k]
        means = x[k : k + k * dim].reshape(k, dim)
        covariances = x[k + k * dim :].reshape(k, dim, dim)
        return cls(weights=weights, means=means, covariances=covariances)


def project_psd(matrix: np.ndarray, floor: float = _EIG_FLOOR) -> np.ndarray:
    """Nearest-in-spirit PSD repair: symmetrize, floor the eigenvalues."""
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = np.maximum(eigvals, floor)
    return (eigvecs * eigvals) @ eigvecs.T


class FullCovarianceGMM(IterativeMethod):
    """EM for a full-covariance Gaussian mixture.

    Args:
        points: ``(n, d)`` data.
        n_clusters: mixture components.
        seed: deterministic initialization seed.
        max_iter / tolerance: budget; the tolerance applies to the
            total log-likelihood change, matching Table 2.
    """

    name = "gmm-em-full"

    def __init__(
        self,
        points: np.ndarray,
        n_clusters: int,
        seed: int = 0,
        max_iter: int = 500,
        tolerance: float = 1e-6,
    ):
        super().__init__(
            max_iter=max_iter, tolerance=tolerance, convergence_kind="abs"
        )
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got {points.shape}")
        if not 1 <= n_clusters <= points.shape[0]:
            raise ValueError(
                f"n_clusters {n_clusters} invalid for {points.shape[0]} samples"
            )
        self.points = points
        self.n_clusters = int(n_clusters)
        self.seed = int(seed)
        self._n, self._d = points.shape

    @classmethod
    def from_dataset(cls, dataset: ClusterDataset, seed: int = 0) -> "FullCovarianceGMM":
        return cls(
            dataset.points,
            dataset.n_clusters,
            seed=seed,
            max_iter=dataset.max_iter,
            tolerance=dataset.tolerance,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(self._n, size=self.n_clusters, replace=False)
        pooled = np.cov(self.points.T).reshape(self._d, self._d)
        pooled = project_psd(pooled)
        params = FullGmmParams(
            weights=np.full(self.n_clusters, 1.0 / self.n_clusters),
            means=self.points[idx].copy(),
            covariances=np.tile(pooled, (self.n_clusters, 1, 1)),
        )
        return params.pack()

    def params(self, x: np.ndarray) -> FullGmmParams:
        return FullGmmParams.unpack(x, self.n_clusters, self._d)

    # ------------------------------------------------------------------
    # Probabilistic kernels (exact)
    # ------------------------------------------------------------------
    def _log_joint(self, params: FullGmmParams) -> np.ndarray:
        weights = np.maximum(params.weights, _WEIGHT_FLOOR)
        log_w = np.log(weights / weights.sum())
        out = np.empty((self._n, self.n_clusters))
        from scipy.linalg import solve_triangular

        for k in range(self.n_clusters):
            cov = project_psd(params.covariances[k])
            chol = np.linalg.cholesky(cov)
            diff = self.points - params.means[k]
            z = solve_triangular(chol, diff.T, lower=True).T
            maha = np.sum(z**2, axis=1)
            log_det = 2.0 * np.log(np.diag(chol)).sum()
            out[:, k] = -0.5 * (maha + log_det + self._d * _LOG_2PI) + log_w[k]
        return out

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        log_joint = self._log_joint(self.params(x))
        log_joint -= log_joint.max(axis=1, keepdims=True)
        resp = np.exp(log_joint)
        return resp / resp.sum(axis=1, keepdims=True)

    def assignments(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self._log_joint(self.params(x)), axis=1)

    def objective(self, x: np.ndarray) -> float:
        log_joint = self._log_joint(self.params(x))
        peak = log_joint.max(axis=1, keepdims=True)
        log_lik = peak[:, 0] + np.log(np.exp(log_joint - peak).sum(axis=1))
        return float(-log_lik.mean())

    def converged(self, f_prev: float, f_new: float) -> bool:
        """Tolerance on the total log-likelihood change (Table 2)."""
        return abs(f_new - f_prev) * self._n <= self.tolerance

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic mean-block gradient; covariance/weight blocks zero
        (the schemes need a descent indicator, not the full gradient)."""
        params = self.params(x)
        resp = self.responsibilities(x)
        grad_means = np.zeros_like(params.means)
        for k in range(self.n_clusters):
            cov = project_psd(params.covariances[k])
            diff = self.points - params.means[k]
            grad_means[k] = -np.linalg.solve(cov, (resp[:, k][:, None] * diff).sum(
                axis=0
            )) / self._n
        return np.concatenate(
            [
                np.zeros(self.n_clusters),
                grad_means.ravel(),
                np.zeros(self.n_clusters * self._d * self._d),
            ]
        )

    # ------------------------------------------------------------------
    # EM step through the approximate datapath
    # ------------------------------------------------------------------
    def em_step(self, x: np.ndarray, engine: ApproxEngine) -> FullGmmParams:
        params = self.params(x)
        resp = self.responsibilities(x)
        counts = np.maximum(resp.sum(axis=0), _WEIGHT_FLOOR * self._n)

        new_means = engine.weighted_sum(resp.T, self.points) / counts[:, None]

        new_covs = np.empty_like(params.covariances)
        for k in range(self.n_clusters):
            diff = self.points - new_means[k]
            scatter = (resp[:, k][:, None] * diff).T @ diff / counts[k]
            new_covs[k] = project_psd(scatter)
        new_weights = counts / counts.sum()
        return FullGmmParams(
            weights=new_weights, means=new_means, covariances=new_covs
        )

    def direction(self, x: np.ndarray, engine: ApproxEngine) -> np.ndarray:
        return self.em_step(x, engine).pack() - np.asarray(x, dtype=np.float64)

    def update(
        self, x: np.ndarray, alpha: float, d: np.ndarray, engine: ApproxEngine
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        k, dim = self.n_clusters, self._d
        new = x + alpha * d
        mean_lo, mean_hi = k, k + k * dim
        new[mean_lo:mean_hi] = engine.scale_add(
            x[mean_lo:mean_hi], alpha, d[mean_lo:mean_hi]
        )
        return new

    def postprocess(self, x: np.ndarray) -> np.ndarray:
        params = self.params(x)
        weights = np.maximum(params.weights, _WEIGHT_FLOOR)
        covs = np.stack([project_psd(c) for c in params.covariances])
        return FullGmmParams(
            weights=weights / weights.sum(),
            means=params.means,
            covariances=covs,
        ).pack()
