"""The characterization cache, benchmarked warm against cold.

The disk-backed characterization cache runs the offline stage once per
content address.  The benchmark asserts the cached table stays
bit-identical to a fresh characterization, because the cache is a pure
memo.  Constant operands need no engine cache: iteration-program replay
encodes them once at compile time (see ``test_program_replay.py``).
"""

import numpy as np
import pytest

from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank


@pytest.fixture(scope="module")
def bank():
    return default_mode_bank(32)


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
