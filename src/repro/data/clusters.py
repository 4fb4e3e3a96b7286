"""Gaussian-mixture cluster datasets.

Generators for the three GMM benchmarks of Table 2:

==============  ========  ====  ==========
Name            Samples   Dim   Clusters
==============  ========  ====  ==========
``3cluster``    1000       2    3
``3d3cluster``  1900       3    3
``4cluster``    2350       2    4
==============  ========  ====  ==========

Cluster separations are chosen so the mixture is clearly resolvable by
an exact EM run yet close enough that heavy approximation can merge
clusters — the failure mode Figure 3(e) of the paper shows for
``level1`` on ``3cluster``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterDataset:
    """A labelled mixture sample.

    Attributes:
        name: dataset identifier.
        points: ``(n, d)`` sample coordinates.
        labels: ``(n,)`` ground-truth component of each sample.
        n_clusters: number of mixture components.
        true_means: ``(k, d)`` generating component means.
        max_iter: the paper's ``MAX_ITER`` budget for this dataset.
        tolerance: the paper's convergence threshold.
    """

    name: str
    points: np.ndarray
    labels: np.ndarray
    n_clusters: int
    true_means: np.ndarray
    max_iter: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {self.points.shape}")
        if self.labels.shape != (self.points.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.points.shape[0]} points"
            )
        if self.true_means.shape != (self.n_clusters, self.points.shape[1]):
            raise ValueError(
                f"true_means shape {self.true_means.shape} inconsistent with "
                f"{self.n_clusters} clusters of dim {self.points.shape[1]}"
            )

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def make_cluster_dataset(
    name: str,
    sizes: list[int],
    means: np.ndarray,
    spreads: list[float],
    seed: int,
    max_iter: int = 500,
    tolerance: float = 1e-6,
) -> ClusterDataset:
    """Sample an isotropic Gaussian mixture.

    Args:
        name: dataset identifier.
        sizes: samples per component.
        means: ``(k, d)`` component means.
        spreads: per-component standard deviation.
        seed: RNG seed — generation is fully deterministic.
        max_iter / tolerance: solver budget recorded with the data.
    """
    means = np.asarray(means, dtype=np.float64)
    if len(sizes) != means.shape[0] or len(spreads) != means.shape[0]:
        raise ValueError(
            f"sizes ({len(sizes)}), spreads ({len(spreads)}) and means "
            f"({means.shape[0]}) must agree"
        )
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for idx, (size, mean, spread) in enumerate(zip(sizes, means, spreads)):
        chunks.append(rng.normal(loc=mean, scale=spread, size=(size, means.shape[1])))
        labels.append(np.full(size, idx, dtype=np.int64))
    points = np.concatenate(chunks, axis=0)
    label_arr = np.concatenate(labels)
    order = rng.permutation(points.shape[0])
    return ClusterDataset(
        name=name,
        points=points[order],
        labels=label_arr[order],
        n_clusters=means.shape[0],
        true_means=means,
        max_iter=max_iter,
        tolerance=tolerance,
    )


def make_three_clusters(seed: int = 7) -> ClusterDataset:
    """``3cluster``: 1000 2-D samples, 3 components, tol 1e-10.

    Component separation is ~2.5 standard deviations: resolvable by an
    exact EM run, but slow enough to converge (tens of iterations) that
    dynamic effort scaling has room to save energy — mirroring the
    paper's 81-iteration Truth run.
    """
    means = np.array([[0.0, 0.0], [3.4, 2.3], [-2.2, 3.4]])
    return make_cluster_dataset(
        "3cluster",
        sizes=[400, 350, 250],
        means=means,
        spreads=[1.3, 1.2, 1.1],
        seed=seed,
        max_iter=500,
        tolerance=1e-10,
    )


def make_three_clusters_3d(seed: int = 11) -> ClusterDataset:
    """``3d3cluster``: 1900 3-D samples, 3 components, tol 1e-6."""
    means = np.array([[0.0, 0.0, 0.0], [3.4, 2.8, -2.4], [-2.6, 3.6, 2.8]])
    return make_cluster_dataset(
        "3d3cluster",
        sizes=[700, 650, 550],
        means=means,
        spreads=[1.5, 1.3, 1.4],
        seed=seed,
        max_iter=500,
        tolerance=1e-6,
    )


def make_four_clusters(seed: int = 13) -> ClusterDataset:
    """``4cluster``: 2350 2-D samples, 4 components, tol 1e-6."""
    means = np.array([[0.0, 0.0], [4.1, 1.0], [0.7, 4.4], [-3.6, -2.9]])
    return make_cluster_dataset(
        "4cluster",
        sizes=[700, 600, 550, 500],
        means=means,
        spreads=[1.4, 1.2, 1.3, 1.1],
        seed=seed,
        max_iter=500,
        tolerance=1e-6,
    )
