"""The production engine vs the reference engine on isolated kernels.

Times the fixed-point-resident chain (matvec feeding sub, the solvers'
residual shape) and the in-place tree reduction against
:class:`~repro.arith.reference.ReferenceEngine`, asserting bit-identical
outputs and recording the wall-clock ratios.  Each ratio's two sides
are timed in alternation (``perf.time_pair``).
"""

import numpy as np
import pytest

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.reference import ReferenceEngine


@pytest.fixture(scope="module")
def engines():
    bank = default_mode_bank(32)
    fmt = FixedPointFormat(32, 16)
    fast = ApproxEngine(bank.by_name("level2"), fmt, EnergyLedger())
    legacy = ReferenceEngine(bank.by_name("level2"), fmt, EnergyLedger())
    return fast, legacy


def test_resident_residual_chain(perf, engines):
    fast, legacy = engines
    rng = np.random.default_rng(99)
    n = 200
    matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    rhs = rng.uniform(-5.0, 5.0, size=n)
    x = rng.uniform(-5.0, 5.0, size=n)

    def chain_fast():
        return fast.sub(rhs, fast.matvec(matrix, x, resident=True))

    def chain_legacy():
        return legacy.sub(rhs, legacy.matvec(matrix, x))

    np.testing.assert_array_equal(chain_fast(), chain_legacy())
    t_legacy, t_fast = perf.time_pair(chain_legacy, chain_fast, repeats=11)
    speedup = t_legacy / t_fast
    perf.record(
        "engine/residual_chain_200",
        fast_s=round(t_fast, 6),
        legacy_s=round(t_legacy, 6),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0


def test_tree_reduce_layout(perf, engines):
    fast, legacy = engines
    rng = np.random.default_rng(7)
    # Time the word-domain reductions head to head; the shared float
    # encode would only dilute the layout comparison.
    q = fast.fmt.encode(rng.uniform(-10.0, 10.0, size=(1001, 64)))

    np.testing.assert_array_equal(
        fast._reduce_words(q), legacy._reduce(q)
    )
    t_legacy, t_fast = perf.time_pair(
        lambda: legacy._reduce(q), lambda: fast._reduce_words(q), repeats=15
    )
    speedup = t_legacy / t_fast
    perf.record(
        "engine/tree_reduce_1001x64",
        fast_s=round(t_fast, 6),
        legacy_s=round(t_legacy, 6),
        speedup=round(speedup, 2),
    )
    assert speedup > 1.0
