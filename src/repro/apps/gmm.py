"""Gaussian mixture models fitted by EM, as an iterative method.

EM is a fixed-point iteration ``theta <- M(theta)``; in the paper's
direction/update language the direction is ``d^k = M(theta^k) - theta^k``
with unit step size.  Per Table 2 the approximate adders act on the
*mean-value* computation: the M-step's k weighted coordinate sums run
through the :class:`~repro.arith.ApproxEngine` as one ``(k, n)`` weight
block, charged as k separate sums (direction error), and
the mean block of the parameter update is added on the approximate
datapath (update error).  Responsibilities, weights and variances —
the numerically fragile parts — stay on the exact portion of the
platform, mirroring the offline resilience partition of Section 3.1.

The exact kernels run coordinate-major, over a ``(d, k, n)`` block
``points − means`` and ``(k, n)`` responsibilities, so every pass runs
along the contiguous points axis; their sums keep the order NumPy used
on the point-major ``(n, k, d)`` layout (see ``_log_joint``).

Covariances are diagonal: the synthetic Table-2 mixtures are isotropic,
and a diagonal model keeps the error-sensitive covariance math trivially
positive-definite under the rollback/reconfiguration dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.arith.engine import ApproxEngine
from repro.data.clusters import ClusterDataset
from repro.solvers.base import IterativeMethod, evaluate_into

_LOG_2PI = float(np.log(2.0 * np.pi))
#: Floor applied to mixture weights and variances after every update.
_WEIGHT_FLOOR = 1e-8
_VAR_FLOOR = 1e-4


def _point_sum(terms: np.ndarray) -> np.ndarray:
    """``0.0 + terms[..., 0] + terms[..., 1] + …``, overwriting ``terms``
    with its running sums: NumPy's sequential order over a leading
    points axis (``terms.sum(axis=-1)`` is pairwise).  The ``+ 0.0`` is
    NumPy's starting zero, which makes a sum of ``-0.0`` terms ``+0.0``."""
    return np.add.accumulate(terms, axis=-1, out=terms)[..., -1] + 0.0


@dataclass(frozen=True)
class GmmParams:
    """Structured view of a GMM state vector.

    Attributes:
        weights: ``(k,)`` mixing proportions (sum to 1).
        means: ``(k, d)`` component means.
        variances: ``(k, d)`` diagonal covariances.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def pack(self) -> np.ndarray:
        """Flatten to the solver's state vector layout."""
        return np.concatenate(
            [self.weights, self.means.ravel(), self.variances.ravel()]
        )

    @classmethod
    def unpack(cls, x: np.ndarray, n_clusters: int, dim: int) -> "GmmParams":
        """Rebuild the structured view from a flat state vector."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        expected = n_clusters * (1 + 2 * dim)
        if x.shape[0] != expected:
            raise ValueError(
                f"state has {x.shape[0]} entries, expected {expected} "
                f"for k={n_clusters}, d={dim}"
            )
        k = n_clusters
        weights = x[:k]
        means = x[k : k + k * dim].reshape(k, dim)
        variances = x[k + k * dim :].reshape(k, dim)
        return cls(weights=weights, means=means, variances=variances)


class GaussianMixtureEM(IterativeMethod):
    """EM for a diagonal-covariance Gaussian mixture.

    Args:
        points: ``(n, d)`` data.
        n_clusters: number of mixture components ``k``.
        seed: seed of the deterministic initialization (the paper uses
            the same initialization across configurations, which this
            reproduces: every run of the same instance starts
            identically).
        max_iter / tolerance: budget; the tolerance applies to the
            absolute change of mean negative log-likelihood, matching
            Table 2's "Convergence" column.
    """

    name = "gmm-em"

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
        #: Coordinate-major copy that the exact kernels stream over.
        self._points_t = np.ascontiguousarray(points.T)
        self.n_clusters = int(n_clusters)
        self.seed = int(seed)
        self._n, self._d = points.shape

    @classmethod
    def from_dataset(cls, dataset: ClusterDataset, seed: int = 0) -> "GaussianMixtureEM":
        """Build the solver for a Table-2 cluster dataset."""
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
        """Uniform weights, means on distinct random samples, pooled
        variance — deterministic for a given seed."""
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(self._n, size=self.n_clusters, replace=False)
        params = GmmParams(
            weights=np.full(self.n_clusters, 1.0 / self.n_clusters),
            means=self.points[idx].copy(),
            variances=np.tile(
                self.points.var(axis=0) + _VAR_FLOOR, (self.n_clusters, 1)
            ),
        )
        return params.pack()

    def params(self, x: np.ndarray) -> GmmParams:
        """Structured view of a state vector for this instance."""
        return GmmParams.unpack(x, self.n_clusters, self._d)

    # ------------------------------------------------------------------
    # Probabilistic kernels (exact)
    # ------------------------------------------------------------------
    def _log_joint(self, params: GmmParams) -> tuple[np.ndarray, np.ndarray]:
        """``log(w_k) + log N(x_i | mu_k, var_k)`` as a ``(k, n)`` array,
        with the ``(d, k, n)`` block ``points − means`` it was built from.

        ``d`` and ``k`` sums add rows left to right, as NumPy summed a
        point-major trailing axis shorter than 8.  NumPy summed pairwise
        for ``k ≥ 8``, ``d ≥ 8`` and ``k = d = 1`` (the ``(n, 1, 1)``
        block collapsed to 1-D), so there the bits differ from the
        point-major layout's; no registry dataset has such a shape.
        """
        weights = np.maximum(params.weights, _WEIGHT_FLOOR)
        variances = np.maximum(params.variances, _VAR_FLOOR)
        log_w = np.log(weights / weights.sum())
        diff = self._points_t[:, None, :] - params.means.T.copy()[:, :, None]
        maha = reduce(np.add, np.square(diff) / variances.T[:, :, None])
        log_det = np.sum(np.log(variances), axis=1)
        log_pdf = -0.5 * (maha + log_det[:, None] + self._d * _LOG_2PI)
        return log_pdf + log_w[:, None], diff

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """E-step posterior ``(n, k)`` (exact float, read-only)."""
        return evaluate_into(self, x)[1]["resp"].T

    def assignments(self, x: np.ndarray) -> np.ndarray:
        """Hard cluster labels (argmax responsibility)."""
        return np.argmax(self._log_joint(self.params(x))[0], axis=0)

    #: The objective and its E-step: ``(k, n)`` responsibilities
    #: ``"resp"`` and the ``(d, k, n)`` ``points − means`` block ``"diff"``.
    evaluate = evaluate_into

    def objective(self, x: np.ndarray, state: dict | None = None) -> float:
        """Mean negative log-likelihood (exact); fills ``state`` if given."""
        log_joint, diff = self._log_joint(self.params(x))
        peak = np.maximum.reduce(log_joint, axis=0)
        joint = np.exp(log_joint - peak)
        total = reduce(np.add, joint)
        if state is not None:
            state["resp"] = joint / total
            state["diff"] = diff
        log_lik = peak + np.log(total)
        return float(-log_lik.mean())

    def converged(self, f_prev: float, f_new: float) -> bool:
        """Tolerance on the *total* negative log-likelihood change.

        The objective is the mean NLL (well-scaled for the fixed-point
        datapath), but Table 2's convergence thresholds apply to the
        total log-likelihood — the Matlab convention — so the mean
        change is rescaled by the sample count before comparison.
        """
        return abs(f_new - f_prev) * self._n <= self.tolerance

    def gradient(self, x: np.ndarray, state: dict | None = None) -> np.ndarray:
        """Analytic gradient of the mean NLL w.r.t. means and variances.

        The weight block is reported as zero: weights live on a simplex
        and the reconfiguration schemes only need a descent indicator on
        the unconstrained blocks.
        """
        if state is None:
            state = evaluate_into(self, x)[1]
        resp, diff = state["resp"], state["diff"]
        variances = np.maximum(self.params(x).variances, _VAR_FLOOR).T[:, :, None]
        grad_means = -_point_sum(resp * diff / variances) / self._n
        grad_vars = -_point_sum(
            resp * 0.5 * (diff**2 / variances**2 - 1.0 / variances)
        ) / self._n
        return np.concatenate(
            [np.zeros(self.n_clusters), grad_means.T.ravel(), grad_vars.T.ravel()]
        )

    # ------------------------------------------------------------------
    # EM step through the approximate datapath
    # ------------------------------------------------------------------
    def em_step(self, x: np.ndarray, engine: ApproxEngine, state: dict | None = None) -> GmmParams:
        """One full EM update; mean sums run on the approximate adder.
        The E-step comes from ``state`` (:meth:`evaluate`'s at ``x``)."""
        if state is None:
            state = evaluate_into(self, x)[1]
        resp = state["resp"]
        counts = np.maximum(_point_sum(resp.copy()), _WEIGHT_FLOOR * self._n)

        # Table 2 "Adder Impact: Mean Value" — the k weighted coordinate
        # sums are the approximate kernel, issued as one (k, n) block.
        new_means = engine.weighted_sum(resp, self.points) / counts[:, None]
        new_weights, new_vars = self._m_step_tail(resp, new_means, counts)
        return GmmParams(weights=new_weights, means=new_means, variances=new_vars)

    def _m_step_tail(self, resp: np.ndarray, means: np.ndarray, counts: np.ndarray):
        """The M-step's exact weights and floored variances from
        ``(…, k, n)`` responsibilities, ``(…, k, d)`` means and ``(…, k)``
        counts; with leading lane axes, each lane's bytes are its solo
        call's.  One ``(…, d, k, n)`` buffer is reused in place."""
        sq = self._points_t[:, None, :] - means.swapaxes(-1, -2).copy()[..., None]
        np.square(sq, out=sq)
        sq *= resp[..., None, :, :]
        variances = np.swapaxes(_point_sum(sq), -1, -2) / counts[..., None]
        weights = counts / counts.sum(axis=-1, keepdims=True)
        return weights, np.maximum(variances, _VAR_FLOOR)

    def direction(self, x: np.ndarray, engine: ApproxEngine, state=None) -> np.ndarray:
        return self.em_step(x, engine, state).pack() - np.asarray(x, dtype=np.float64)

    def update(
        self, x: np.ndarray, alpha: float, d: np.ndarray, engine: ApproxEngine
    ) -> np.ndarray:
        """Mean block updated on the approximate adder, rest exact; also
        a lane group's ``(L, N)`` update with ``(L,)`` step sizes."""
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        means = slice(self.n_clusters, self.n_clusters * (1 + self._d))
        new = x + np.asarray(alpha)[..., None] * d
        new[..., means] = engine.scale_add(x[..., means], alpha, d[..., means])
        return new

    def postprocess(self, x: np.ndarray) -> np.ndarray:
        """Re-project weights onto the simplex and floor the variances."""
        params = self.params(x)
        weights = np.maximum(params.weights, _WEIGHT_FLOOR)
        cleaned = GmmParams(
            weights=weights / weights.sum(),
            means=params.means,
            variances=np.maximum(params.variances, _VAR_FLOOR),
        )
        return cleaned.pack()
