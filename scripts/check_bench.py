"""Gate a fresh ``BENCH_perf.json`` against speedup regressions.

Usage::

    python scripts/check_bench.py [BENCH_perf.json] [--min-speedup 0.9]

Every benchmark entry records a ``speedup`` of the optimized path over
its baseline (legacy engine, bit-serial reference adder, cold cache).
An optimization that drops below parity means the fast path lost to the
code it was meant to beat; the CI perf-smoke job runs the harness on a
small size and fails the build when that happens.  The floor defaults
to 0.9 rather than 1.0 so shared-runner timing noise does not flap the
gate — a real regression lands well below it.

Exit codes: 0 all entries pass, 1 regression found, 2 artifact missing
or malformed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: Entries that must be present in every complete artifact.  A bench
#: module that silently fails to run (import error, skipped test) would
#: otherwise leave a stale-but-passing artifact; requiring the names
#: turns "benchmark never ran" into a gate failure instead of a pass.
REQUIRED_ENTRIES = (
    "batched/jacobi_b8",
    "batched/jacobi_b64",
    "batched/mixed_mode_b32",
    "batched/replay_jacobi_b64",
    "batched/replay_gs_rb32",
    "batched/replay_gmm_b16",
    "e2e/jacobi80_adaptive",
    "e2e/replay_jacobi80",
    "e2e/replay_jacobi240",
    "e2e/replay_cg64",
    "e2e/replay_lsq120",
    "sparse/jacobi240_vs_dense",
    "sparse/replay_pagerank100k",
)

#: Per-entry floors overriding ``--min-speedup`` where an optimization
#: carries a stronger promise than "not a regression".  The program
#: capture/replay executor must at least double the legacy solo path on
#: its headline workload (ROADMAP's solo e2e gap), and the lane-group
#: replay path must beat the solo interpreted loop by the batched
#: contract's margins (its ``speedup`` field; the tighter
#: vs-interpreted-batch gate is asserted inside the benchmark itself,
#: where the two batched paths run back to back).
#:
#: The jacobi240 floor is the fused-replay promise: program fusion
#: (in-range product-encode-reduce plus chain speculation) must hold a
#: >= 5x end-to-end win over the legacy engine at a size where the
#: O(n^2) matvec dominates.
#: The sparse headline carries the PR's tentpole promise: one replayed
#: CSR-matvec iteration (fused ``csr_matvec_words``) must beat the
#: dense-gather slow twin by >= 10x on the 100k-node web — measured on
#: the datapath iteration itself, since both sides share the exact
#: control loop by the parity contract.  The jacobi240 sparse/dense
#: pair promises that routing the same system through CSR instead of
#: the dense resident path is a strict win, not a wash.
ENTRY_FLOORS = {
    "e2e/replay_jacobi80": 2.0,
    "e2e/replay_jacobi240": 5.0,
    "batched/replay_jacobi_b64": 7.0,
    "batched/replay_gs_rb32": 4.0,
    "batched/replay_gmm_b16": 1.6,
    "sparse/jacobi240_vs_dense": 1.3,
    "sparse/replay_pagerank100k": 10.0,
}


def floor_for(name: str, min_speedup: float) -> float:
    """The gate floor for one entry."""
    return max(ENTRY_FLOORS.get(name, min_speedup), min_speedup)


def check(path: Path, min_speedup: float) -> int:
    try:
        payload = json.loads(path.read_text())
        benchmarks = payload["benchmarks"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read benchmark artifact {path}: {exc}")
        return 2
    if not benchmarks:
        print(f"error: {path} contains no benchmark entries")
        return 2

    failures = []
    for name in REQUIRED_ENTRIES:
        if name not in benchmarks:
            failures.append(f"{name}: required entry missing from artifact")
    for name in sorted(benchmarks):
        entry = benchmarks[name]
        speedup = entry.get("speedup")
        if speedup is None:
            failures.append(f"{name}: entry has no 'speedup' field")
            continue
        floor = floor_for(name, min_speedup)
        marker = "ok " if speedup >= floor else "REG"
        suffix = f" (floor {floor}x)" if name in ENTRY_FLOORS else ""
        print(f"  {marker} {name}: {speedup}x{suffix}")
        if speedup < floor:
            failures.append(f"{name}: speedup {speedup} < floor {floor}")

    if failures:
        print(f"\n{len(failures)} failure(s) (missing or below the {min_speedup}x floor):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {len(benchmarks)} benchmarks at or above {min_speedup}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact",
        nargs="?",
        default="BENCH_perf.json",
        help="path to the benchmark artifact (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.9,
        help="fail when any entry's speedup is below this (default: 0.9)",
    )
    args = parser.parse_args(argv)
    return check(Path(args.artifact), args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
