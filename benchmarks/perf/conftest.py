"""Microbenchmark harness for the bit-parallel kernels and fast paths.

Unlike the reproduction benchmarks one directory up (which assert the
paper's claims), this suite times the *implementation*: vectorized adder
kernels against their bit-serial references, the fixed-point-resident
engine against the legacy float-round-trip execution, and one end-to-end
ApproxIt run.  Every measurement is appended to ``BENCH_perf.json`` at
the repo root when the session ends, so perf changes leave a tracked
artifact next to the code that caused them.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_perf.json"


class PerfRecorder:
    """Collects named measurements and writes the JSON artifact."""

    def __init__(self):
        self.entries: dict[str, dict] = {}

    def time(self, fn, repeats: int = 5, number: int = 1) -> float:
        """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
        fn()  # warm caches, JIT-free but first-touch effects are real
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best = min(best, (time.perf_counter() - start) / number)
        return best

    def time_pair(self, fn_a, fn_b, repeats: int = 5) -> tuple[float, float]:
        """Best-of wall-clock for two competing implementations, taken
        in strict alternation.  Two sequential ``time`` blocks skew the
        a/b ratio whenever machine state (thermal throttle, background
        load) drifts between them; alternating exposes both sides to
        the same drift, so the *ratio* — which is what the speedup
        gates check — stays stable even when absolute times move."""
        fn_a()
        fn_b()
        best_a = best_b = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn_a()
            best_a = min(best_a, time.perf_counter() - start)
            start = time.perf_counter()
            fn_b()
            best_b = min(best_b, time.perf_counter() - start)
        return best_a, best_b

    def record(self, name: str, **fields) -> None:
        self.entries[name] = fields

    def write(self) -> None:
        # Merge into the existing artifact instead of overwriting it, so
        # running a subset of the suite (one file, `-k` selection)
        # refreshes only the entries it measured and a partial run can
        # never silently drop the other benchmarks from the record.
        benchmarks: dict[str, dict] = {}
        if BENCH_PATH.exists():
            try:
                benchmarks = json.loads(BENCH_PATH.read_text())["benchmarks"]
            except (OSError, ValueError, KeyError):
                benchmarks = {}
        benchmarks.update(self.entries)
        payload = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
            "benchmarks": benchmarks,
        }
        BENCH_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture(scope="session")
def perf():
    recorder = PerfRecorder()
    yield recorder
    if recorder.entries:
        recorder.write()
