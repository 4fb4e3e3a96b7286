"""The PR-3 caching layers, benchmarked one at a time.

Three caches sit between the solvers and the arithmetic: pinned operand
encodings (constant matrices/vectors encode once per engine), per-shape
reduction plans (tree shape and odd-tail buffers computed once), and the
disk-backed characterization cache (the offline stage runs once per
content address).  Each benchmark times warm against cold — or cached
against the uncached engine or the reference engine — and asserts the
results stay bit-identical, because every cache here is a pure memo.
"""

import numpy as np
import pytest

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.reference import ReferenceEngine


@pytest.fixture(scope="module")
def bank():
    return default_mode_bank(32)


def _engine(bank):
    return ApproxEngine(
        bank.by_name("level2"), FixedPointFormat(32, 16), EnergyLedger()
    )


def test_pinned_matvec_iteration(perf, bank):
    """A solver iteration's residual chain with the constants pinned.

    Pinning moves the matrix/rhs encodes (and the finiteness scan of the
    per-row products) out of the loop; only the iterate still encodes.
    """
    rng = np.random.default_rng(42)
    n = 200
    matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    rhs = rng.uniform(-5.0, 5.0, size=n)
    x = rng.uniform(-5.0, 5.0, size=n)

    plain = _engine(bank)
    pinned_engine = _engine(bank)
    pinned_a = pinned_engine.pin_matrix("A", matrix)
    pinned_rhs = pinned_engine.pin("rhs", rhs)

    def chain_plain():
        return plain.sub(rhs, plain.matvec(matrix, x, resident=True))

    def chain_pinned():
        return pinned_engine.sub(
            pinned_rhs, pinned_engine.matvec(pinned_a, x, resident=True)
        )

    np.testing.assert_array_equal(chain_pinned(), chain_plain())
    t_plain = perf.time(chain_plain, repeats=11)
    t_pinned = perf.time(chain_pinned, repeats=11)
    speedup = t_plain / t_pinned
    perf.record(
        "engine/pinned_matvec_200",
        plain_s=round(t_plain, 6),
        pinned_s=round(t_pinned, 6),
        speedup=round(speedup, 2),
    )
    # Same 10% noise allowance as check_bench's default floor: at n=200
    # the pinned win is a few percent, inside shared-runner jitter.
    assert speedup > 0.9


def test_planned_reduce_reuse(perf, bank):
    """Repeated reductions of one shape: the plan amortizes the
    per-call tree-shape/odd-tail bookkeeping.

    Small-ish rows × many lanes is the regime where that Python-level
    overhead is visible at all; the plan also keeps the odd-tail buffer
    alive across calls.
    """
    fast = _engine(bank)
    legacy = ReferenceEngine(fast.mode, fast.fmt, EnergyLedger())
    rng = np.random.default_rng(8)
    q = fast.fmt.encode(rng.uniform(-10.0, 10.0, size=(101, 32)))

    np.testing.assert_array_equal(fast._reduce_words(q), legacy._reduce(q))
    fast._reduce_words(q)  # plan built; time the steady state

    t_fast = perf.time(lambda: fast._reduce_words(q), repeats=15, number=10)
    t_legacy = perf.time(lambda: legacy._reduce(q), repeats=15, number=10)
    speedup = t_legacy / t_fast
    perf.record(
        "engine/planned_reduce_101x32",
        fast_s=round(t_fast, 6),
        legacy_s=round(t_legacy, 6),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_characterization_cache_warm_vs_cold(perf, bank, tmp_path):
    """The offline stage through the disk cache: cold characterizes and
    stores, warm deserializes — same table, bit for bit."""
    from repro.core.characterize import (
        CharacterizationCache,
        characterize,
        characterize_cached,
    )
    from repro.solvers.functions import QuadraticFunction
    from repro.solvers.gradient_descent import GradientDescent

    fmt = FixedPointFormat(32, 16)
    fn = QuadraticFunction.random_spd(dim=24, seed=5, condition=30.0)
    method = GradientDescent(
        fn, x0=np.full(24, 2.0), learning_rate=0.02, max_iter=500, tolerance=1e-12
    )

    t_cold = perf.time(lambda: characterize(method, bank, fmt), repeats=3)

    cache = CharacterizationCache(tmp_path / "char")
    characterize_cached(method, bank, fmt, cache=cache)  # populate

    def warm():
        return characterize_cached(method, bank, fmt, cache=cache)

    table = warm()
    reference = characterize(method, bank, fmt)
    assert table.epsilons() == reference.epsilons()
    assert table.energies() == reference.energies()

    t_warm = perf.time(warm, repeats=5)
    speedup = t_cold / t_warm
    perf.record(
        "sweep/char_cache_warm_vs_cold",
        cold_s=round(t_cold, 5),
        warm_s=round(t_warm, 5),
        speedup=round(speedup, 1),
    )
    assert speedup > 1.0
