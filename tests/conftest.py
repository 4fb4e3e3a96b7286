"""Shared fixtures for the ApproxIt test suite."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import default_mode_bank
from repro.arith.reference import ReferenceEngine


@pytest.fixture(scope="session")
def bank32():
    """The default four-level LOA ladder at width 32."""
    return default_mode_bank(32)


@pytest.fixture()
def fmt32():
    """Q15.16 datapath format."""
    return FixedPointFormat(width=32, frac_bits=16)


@pytest.fixture()
def exact_engine(bank32, fmt32):
    """An engine on the accurate mode with a fresh ledger."""
    return ApproxEngine(bank32.accurate, fmt32, EnergyLedger())


@pytest.fixture()
def rng():
    """Deterministic RNG for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture()
def reference_run():
    """``reference_run(framework, strategy)``: one solve with every
    engine on :class:`ReferenceEngine` — the online loop and any offline
    characterization it runs — and program capture off."""

    def run(framework, strategy):
        with pytest.MonkeyPatch.context() as patch:
            for name in ("repro.core.framework", "repro.core.characterize"):
                # importlib: ``repro.core.characterize`` as an attribute
                # of ``repro.core`` is the re-exported function.
                module = importlib.import_module(name)
                patch.setattr(module, "ApproxEngine", ReferenceEngine)
            return framework.run(strategy, program_capture=False)

    return run
