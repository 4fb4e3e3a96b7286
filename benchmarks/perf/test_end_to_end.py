"""End-to-end ApproxIt runs: the shipped configuration vs its baselines.

One Jacobi system under the incremental strategy, executed three ways:

* the shipped engine vs :class:`~repro.arith.reference.ReferenceEngine`
  (the spec engine, offline characterization included) — identical
  results and energy, only the wall clock may differ;
* the shipped engine with a *warm* disk-backed characterization cache vs
  without one — the offline stage dominates a fresh run (it probes every
  mode of the bank), so a cache hit is where the end-to-end win lives.
"""

import numpy as np
import pytest

from repro.core.characterize import CharacterizationCache
from repro.core.framework import ApproxIt
from repro.solvers.linear import JacobiSolver


def _framework(char_cache=None):
    rng = np.random.default_rng(17)
    n = 80
    matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
    rhs = rng.uniform(-5.0, 5.0, size=n)
    return ApproxIt(JacobiSolver(matrix, rhs, max_iter=120), char_cache=char_cache)


def _run_incremental(char_cache=None):
    return _framework(char_cache).run(strategy="incremental")


def test_incremental_jacobi_fast_vs_legacy(perf, reference_run):
    def legacy():
        return reference_run(_framework(), "incremental")

    fast_run = _run_incremental()
    legacy_run = legacy()
    # Alternating pairs: two separate best-of blocks read 0.77-1.27x on
    # unchanged code, because machine state drifted between the blocks.
    t_fast, t_legacy = perf.time_pair(_run_incremental, legacy, repeats=7)

    np.testing.assert_array_equal(fast_run.x, legacy_run.x)
    assert fast_run.iterations == legacy_run.iterations
    assert fast_run.energy == pytest.approx(legacy_run.energy)

    speedup = t_legacy / t_fast
    perf.record(
        "e2e/jacobi80_incremental",
        iterations=fast_run.iterations,
        fast_s=round(t_fast, 4),
        legacy_s=round(t_legacy, 4),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_incremental_jacobi_warm_char_cache(perf, tmp_path):
    """The full sweep-cell configuration: fast path + warm disk cache.

    A fresh run recharacterizes the whole mode bank before iterating;
    with the content-addressed cache warm, the table deserializes
    instead.  Results are bit-identical either way — the cached table
    round-trips through JSON exactly.
    """
    cache = CharacterizationCache(tmp_path / "char")
    uncached_run = _run_incremental()
    cached_run = _run_incremental(char_cache=cache)  # cold: characterizes + stores
    warm_run = _run_incremental(char_cache=cache)

    np.testing.assert_array_equal(warm_run.x, uncached_run.x)
    np.testing.assert_array_equal(cached_run.x, uncached_run.x)
    assert warm_run.iterations == uncached_run.iterations
    assert warm_run.energy == pytest.approx(uncached_run.energy)
    assert cache.hits >= 1

    t_uncached = perf.time(_run_incremental, repeats=7)
    t_warm = perf.time(lambda: _run_incremental(char_cache=cache), repeats=7)
    speedup = t_uncached / t_warm
    perf.record(
        "e2e/jacobi80_warm_char_cache",
        iterations=warm_run.iterations,
        uncached_s=round(t_uncached, 4),
        warm_s=round(t_warm, 4),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0
