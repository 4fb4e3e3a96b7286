"""Fused-replay parity: the program executor's fast paths (in-range
product-encode-reduce, deferred-negation sub, fused scale-add, chain
speculation) against the interpreted oracle.

The capture/replay contract is *bit-identical words and float-equal
ledgers* — the fused paths are admissible only because each carries an
interval proof that the reference clip/mask/scan it skips is a no-op.
These tests run full solves on the one kernel set and compare against
``program_capture=False`` (the interpreted op-by-op executor), which is
itself contract-checked against the legacy engine elsewhere.
"""

import numpy as np
import pytest

from repro.backends import KERNELS, resolve_backend_name
from repro.core.framework import ApproxIt
from repro.solvers.linear import JacobiSolver

#: The one kernel set, its test ids tagged with the kernels' name.
KERNEL_SET = pytest.mark.parametrize(
    "kernels", [KERNELS], ids=[resolve_backend_name()]
)
FUSED_KERNELS = (
    "add_words_inrange",
    "sub_words_inrange",
    "reduce_inrange",
    "product_reduce_words",
    "csr_matvec_words",
    "scale_encode_inrange",
)


def _jacobi(n=48, max_iter=80):
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return ApproxIt(JacobiSolver(matrix, rhs, max_iter=max_iter, tolerance=1e-9))


def _assert_run_parity(fused, oracle):
    np.testing.assert_array_equal(fused.x, oracle.x)
    assert fused.iterations == oracle.iterations
    assert fused.rollbacks == oracle.rollbacks
    assert fused.energy == oracle.energy
    assert fused.energy_by_mode == oracle.energy_by_mode


def _fused_vs_interpreted(strategy, kernels, monkeypatch):
    """Solve once with program replay and once interpreted, assert
    parity, and return how many fused kernels of ``kernels`` the replayed
    solve called.  The interpreted oracle must call none, or the parity
    would compare a fused path with itself."""
    calls = []
    for name in FUSED_KERNELS:
        orig = getattr(type(kernels), name)

        def spy(self, *args, _orig=orig, **kwargs):
            calls.append(self)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(type(kernels), name, spy)
    framework = _jacobi()
    fused = framework.run(strategy=strategy)
    n_fused = len(calls)
    oracle = framework.run(strategy=strategy, program_capture=False)
    assert len(calls) == n_fused, "the interpreted oracle called a fused kernel"
    assert all(backend is kernels for backend in calls)
    _assert_run_parity(fused, oracle)
    return n_fused


@KERNEL_SET
def test_jacobi_exact_mode_fused_replay_matches_interpreted(kernels, monkeypatch):
    """``static:acc`` is where every fused path fires: the exact adder
    admits the matvec product-reduce, the residual sub's in-range
    shortcut, the scale-add encode fusion and the matvec→sub chain
    speculation.  One full solve must be bit-identical to the
    interpreted oracle anyway."""
    assert _fused_vs_interpreted("static:acc", kernels, monkeypatch) > 0


@KERNEL_SET
def test_jacobi_adaptive_fused_replay_matches_interpreted(kernels, monkeypatch):
    """The adaptive strategy crosses approximate modes (where the fused
    proofs must *decline*) and mode switches (where programs re-record);
    parity must hold across every transition."""
    _fused_vs_interpreted("adaptive", kernels, monkeypatch)


@KERNEL_SET
def test_jacobi_incremental_fused_replay_matches_interpreted(kernels, monkeypatch):
    _fused_vs_interpreted("incremental", kernels, monkeypatch)


def test_repeated_replay_is_deterministic():
    """Speculation memoization and reused encode buffers must not leak
    state between runs: three consecutive solves agree bit-for-bit."""
    framework = _jacobi()
    runs = [framework.run(strategy="static:acc") for _ in range(3)]
    for run in runs[1:]:
        _assert_run_parity(run, runs[0])
