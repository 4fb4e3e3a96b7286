"""Fused-replay parity: the program executor's fast paths (in-range
product-encode-reduce, deferred-negation sub, fused scale-add) against
the interpreted oracle.

The capture/replay contract is *bit-identical words and float-equal
ledgers* — the fused paths are admissible only because each carries an
interval proof that the reference clip/mask/scan it skips is a no-op.
These tests run full solves on the one kernel set and compare against
``program_capture=False`` (the interpreted op-by-op executor), which is
itself contract-checked against the reference engine elsewhere.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps.gmm import GaussianMixtureEM
from repro.arith.engine import SparseResidentMatrix
from repro.backends import KERNELS, resolve_backend_name
from repro.core.framework import ApproxIt
from repro.data.registry import load_dataset
from repro.obs import TraceRecorder
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


def _jacobi(n=48, max_iter=80, sparse=False):
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if sparse:
        matrix = SparseResidentMatrix.from_dense(matrix)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return ApproxIt(JacobiSolver(matrix, rhs, max_iter=max_iter, tolerance=1e-9))


def _assert_run_parity(fused, oracle):
    np.testing.assert_array_equal(fused.x, oracle.x)
    assert fused.iterations == oracle.iterations
    assert fused.rollbacks == oracle.rollbacks
    assert fused.energy == oracle.energy
    assert fused.energy_by_mode == oracle.energy_by_mode


def _fused_vs_interpreted(strategy, kernels, monkeypatch, framework=None, observer=None):
    """Solve once with program replay and once interpreted, assert
    parity, and count the fused kernels of ``kernels`` the replayed
    solve called, by kernel name.  The interpreted oracle must call
    none, or the parity would compare a fused path with itself."""
    calls = Counter()
    owners = []
    for name in FUSED_KERNELS:
        orig = getattr(type(kernels), name)

        def spy(self, *args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            owners.append(self)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(type(kernels), name, spy)
    framework = _jacobi() if framework is None else framework
    fused = framework.run(strategy=strategy, observer=observer)
    n_fused = Counter(calls)
    oracle = framework.run(strategy=strategy, program_capture=False)
    assert calls == n_fused, "the interpreted oracle called a fused kernel"
    assert all(backend is kernels for backend in owners)
    _assert_run_parity(fused, oracle)
    return n_fused


@KERNEL_SET
def test_jacobi_exact_mode_fused_replay_matches_interpreted(kernels, monkeypatch):
    """``static:acc`` is where every fused path fires: the exact adder
    admits the matvec product-reduce, the residual sub's in-range
    shortcut and the scale-add encode fusion.  Replay resolves the raw
    constant matrix by identity to the ``abs_max`` it proved at compile
    time, so every replayed iteration fuses its matvec.  One full solve
    must be bit-identical to the interpreted oracle anyway."""
    recorder = TraceRecorder(label="fusion")
    calls = _fused_vs_interpreted(
        "static:acc", kernels, monkeypatch, observer=recorder
    )
    replays = recorder.metrics.counters["program.replays"]
    assert replays > 0
    assert calls["product_reduce_words"] == replays


@KERNEL_SET
def test_gmm_exact_mode_fuses_every_component_sum(kernels, monkeypatch):
    """GMM hands its raw data points to ``weighted_sum`` once, with a
    ``(k, n)`` weight block; every replayed ``static:acc`` M-step fuses
    all k component sums in one call."""
    framework = ApproxIt(GaussianMixtureEM.from_dataset(load_dataset("3cluster")))
    shapes = set()
    fused = type(KERNELS).product_reduce_words

    def spy(self, a, b, *args, **kwargs):
        shapes.add(np.broadcast_shapes(a.shape, b.shape))
        return fused(self, a, b, *args, **kwargs)

    monkeypatch.setattr(type(KERNELS), "product_reduce_words", spy)
    recorder = TraceRecorder(label="fusion")
    calls = _fused_vs_interpreted(
        "static:acc", kernels, monkeypatch, framework, observer=recorder
    )
    replays = recorder.metrics.counters["program.replays"]
    assert replays > 0
    assert calls["product_reduce_words"] == replays
    points = framework.method.points
    k = framework.method.n_clusters
    assert shapes == {(k, points.shape[1], points.shape[0])}


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
    """Reused encode buffers must not leak state between runs: three
    consecutive solves agree bit-for-bit."""
    framework = _jacobi()
    runs = [framework.run(strategy="static:acc") for _ in range(3)]
    for run in runs[1:]:
        _assert_run_parity(run, runs[0])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_capture_off_never_reaches_a_fused_kernel(sparse, monkeypatch, reference_run):
    """``program_capture=False`` means the plain engines, which call
    only ``add_signed``: with every fused kernel raising, solo and
    lane-group solves still finish, equal to the reference engine.
    The capture-off oracle therefore stays independent of the replay
    kernels it checks."""

    def refuse(*args, **kwargs):
        raise AssertionError("a capture-off solve reached a fused kernel")

    framework = _jacobi(n=24, max_iter=40, sparse=sparse)
    specs = ["static:acc", "incremental"]
    want = [reference_run(framework, spec) for spec in specs]
    for name in FUSED_KERNELS:
        monkeypatch.setattr(type(KERNELS), name, refuse)
    for spec, ref in zip(specs, want):
        _assert_run_parity(framework.run(strategy=spec, program_capture=False), ref)
    for lane, ref in zip(framework.run_batch(specs, program_capture=False), want):
        _assert_run_parity(lane, ref)
