"""The benchmark's own test.

Runs a reduced-size measurement with a traced pass twice per workload
and asserts that every count and every simulated metric repeats exactly,
that every solve checks out, that the traced pass is bit-identical and
covers its wall time, and that metric names and units agree with
``BENCHMARK.json``.  The reduced sizes serve only this test.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._load_program()

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Per-layer units whose values are counts (or ratios of counts).
COUNT_UNITS = {"count", "words", "bytes", "lanes", "ratio"}


def _repeatable(record: dict) -> dict:
    counts = {
        name: value
        for name, value in record["per_layer"].items()
        if PER_LAYER[name][0] in COUNT_UNITS
    }
    counts.update(record["simulated"])
    for key in ("executed_iterations", "adds", "solves_per_pass"):
        counts[key] = record[key]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_traced_pass_repeats_exactly(workload):
    first = run.measure(workload, seed=0, seconds=0, trace=True, size="reduced")
    second = run.measure(workload, seed=0, seconds=0, trace=True, size="reduced")
    for record in (first, second):
        assert record["correct"], record["failed_ids"]
        assert record["failed"] == 0
        assert not record["trace_checks"]["mismatched"]
        assert record["trace_checks"]["coverage_ok"]
        assert list(record["per_layer"]) == list(PER_LAYER)
        for name in [*record["per_layer"], *record["end_to_end"]]:
            assert NAME.fullmatch(name), name
    assert _repeatable(first) == _repeatable(second)
    assert first["per_layer"]["core.framework.iters"] == first["executed_iterations"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]:
        assert NAME.fullmatch(name), name
