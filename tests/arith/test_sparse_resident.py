"""Geometry helpers of :class:`~repro.arith.engine.SparseResidentMatrix`."""

import numpy as np
import pytest

from repro.arith.engine import SparseResidentMatrix


@pytest.mark.parametrize("shape", [(30, 30), (20, 35), (35, 20)])
@pytest.mark.parametrize("seed", range(4))
def test_diagonal_matches_dense(shape, seed):
    """Random CSR with empty rows and missing diagonal entries, square
    and not: the stored diagonal equals the dense one."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.uniform(size=shape) < 0.3, rng.uniform(-1.0, 1.0, shape), 0.0)
    dense[rng.integers(0, shape[0], 5), :] = 0.0
    sp = SparseResidentMatrix.from_dense(dense)
    assert np.any(np.diff(sp.indptr) == 0)
    diag = sp.diagonal()
    assert diag.shape == (min(shape),) and np.any(diag == 0.0)
    np.testing.assert_array_equal(diag, sp.toarray().diagonal())
    np.testing.assert_array_equal(diag, dense.diagonal())


def test_diagonal_repeated_entry_reads_first():
    """Row 1 stores its diagonal column twice, row 2 not at all."""
    sp = SparseResidentMatrix(
        [5.0, 2.0, 3.0, 7.0], [0, 1, 1, 0], [0, 1, 3, 4], (3, 3)
    )
    np.testing.assert_array_equal(sp.diagonal(), [5.0, 2.0, 0.0])
