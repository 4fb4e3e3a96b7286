"""``evaluate``'s state is a cache of exact work, never a new input.

For every method whose ``evaluate`` returns a state (GMM, PageRank and
the splitting solvers), each hook handed that state must return exactly
what it returns without one: the same objective, the same gradient
bytes, the same direction bytes with the same energy ledger on every
mode.  The state's arrays must come back unchanged and read-only, and
``evaluate`` must call ``objective`` once, so a profiler that wraps
``objective`` still sees the exact work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.gmm import _VAR_FLOOR, _WEIGHT_FLOOR, GaussianMixtureEM
from repro.apps.pagerank import PageRank
from repro.arith.engine import ApproxEngine, EnergyLedger, SparseResidentMatrix
from repro.core.framework import ApproxIt
from repro.solvers.linear import (
    GaussSeidelSolver,
    JacobiSolver,
    RedBlackGaussSeidelSolver,
    RedBlackSorSolver,
    SorSolver,
)


def _spy_objective(method):
    """Count ``method.objective`` calls through an instance attribute."""
    calls = []
    original = method.objective

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    method.objective = spy
    return calls


def assert_state_is_transparent(method, x):
    """Every hook with ``evaluate``'s state equals the hook without it."""
    framework = ApproxIt(method)
    calls = _spy_objective(method)
    try:
        f, state = method.evaluate(x)
    finally:
        del method.objective
    assert len(calls) == 1
    assert isinstance(state, dict) and state
    before = {key: value.copy() for key, value in state.items()}

    assert f.hex() == method.objective(x).hex()
    assert method.gradient(x, state=state).tobytes() == method.gradient(x).tobytes()
    for mode in framework.bank:
        stated = ApproxEngine(mode, framework.fmt, EnergyLedger())
        plain = ApproxEngine(mode, framework.fmt, EnergyLedger())
        d_stated = method.direction(x, stated, state=state)
        d_plain = method.direction(x, plain)
        assert d_stated.tobytes() == d_plain.tobytes(), mode.name
        assert stated.ledger == plain.ledger, mode.name

    for key, value in state.items():
        assert not value.flags.writeable, key
        assert value.tobytes() == before[key].tobytes(), key
    return state


# ----------------------------------------------------------------------
# Gaussian mixture EM
# ----------------------------------------------------------------------
_K, _D = 3, 2
_GMM = GaussianMixtureEM(
    np.concatenate(
        [
            np.random.default_rng(5).normal(center, 0.4, (15, _D))
            for center in (-2.0, 0.0, 2.5)
        ]
    ),
    n_clusters=_K,
)

#: Weights straddle ``_WEIGHT_FLOOR`` (exact zeros included) and
#: variances straddle ``_VAR_FLOOR``, so the floors inside the
#: log-joint are exercised on both sides.
_weights = st.one_of(
    st.just(0.0),
    st.floats(1e-14, 0.5 * _WEIGHT_FLOOR),
    st.floats(1e-3, 1.0),
)
_means = st.floats(-4.0, 4.0, allow_nan=False)
_variances = st.one_of(
    st.floats(1e-9, 0.5 * _VAR_FLOOR),
    st.floats(1e-2, 4.0),
)


@given(
    st.lists(_weights, min_size=_K, max_size=_K),
    st.lists(_means, min_size=_K * _D, max_size=_K * _D),
    st.lists(_variances, min_size=_K * _D, max_size=_K * _D),
)
@example([0.0, 1e-12, 1.0], [0.0] * (_K * _D), [1e-6, 1e-2] * _K)
@example([1e-9, 1e-9, 1e-9], [-1.0, 1.0] * _K, [1e-5] * (_K * _D))
@settings(max_examples=30, deadline=None)
def test_gmm_state_is_transparent(weights, means, variances):
    x = np.array(weights + means + variances)
    state = assert_state_is_transparent(_GMM, x)
    # The state holds the (k, n) transpose of the (n, k) posterior.
    assert state["resp"].T.tobytes() == _GMM.responsibilities(x).tobytes()


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
_WEB = PageRank.random_web_csr(n_nodes=40, seed=2, out_degree=1.5)


def test_web_has_dangling_nodes():
    assert _WEB._dangling.size > 0


@given(st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40))
@example([0.0] * 39 + [1.0])
@settings(max_examples=30, deadline=None)
def test_pagerank_state_is_transparent(mass):
    x = np.array(mass)
    assert_state_is_transparent(_WEB, x)
    assert_state_is_transparent(_WEB, _WEB.postprocess(x))


# ----------------------------------------------------------------------
# Splitting solvers
# ----------------------------------------------------------------------
def _system(n=7, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    A += np.eye(n) * (np.abs(A).sum(axis=1).max() + 1.0)
    return A, rng.uniform(-2.0, 2.0, n)


_A, _B = _system()
_SPLITTING = {
    "jacobi": JacobiSolver(_A, _B),
    "jacobi-csr": JacobiSolver(SparseResidentMatrix.from_dense(_A), _B),
    "gauss-seidel": GaussSeidelSolver(_A, _B),
    "sor": SorSolver(_A, _B, omega=1.3),
    "gauss-seidel-rb": RedBlackGaussSeidelSolver(_A, _B),
    "sor-rb": RedBlackSorSolver(_A, _B, omega=1.2),
}


@pytest.mark.parametrize("name", sorted(_SPLITTING))
@given(st.lists(st.floats(-10.0, 10.0), min_size=7, max_size=7))
@settings(max_examples=20, deadline=None)
def test_splitting_state_is_transparent(name, values):
    assert_state_is_transparent(_SPLITTING[name], np.array(values))
