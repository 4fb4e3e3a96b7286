#!/usr/bin/env python3
"""The repository benchmark.

Runs one workload (``paper_matrix``, ``pagerank_web``, ``ablation_lanes``
or ``all``) through the public :class:`repro.ApproxIt` API, checks every
solve's output, prints every end-to-end metric by name and unit, and
ends with one JSON line::

    python3 perfbench/run.py --workload paper_matrix --seed 0 --seconds 20 --trace 0

Load shape: a closed loop with one caller.  Each *pass* is one user
session — fresh inputs from the seed, a fresh ``ApproxIt`` per problem
(default bank, no disk cache) and its cold characterization
(``setup_s``), then the workload's solves back to back (``wall_s``).
Passes repeat until another one would overrun ``--seconds`` (at least
two).  Observers are off in every timed pass.

Output check: the first pass must match the digests pinned for seed 0
on this machine key (``digests_seed0.json``), or, for any other seed or
machine, an untimed interpreted-oracle pass run afterwards; every later
pass must match the first.  A solve that raises or mismatches counts as
failed and the other solves still run.

``--trace 1`` adds one traced pass (see ``tracer.py``) after the timed
ones and reports the per-layer metrics instead of the end-to-end ones;
the traced pass must reproduce the untimed passes bit for bit and its
layer self times must cover its wall time to within 10%.  Spans and a
full result record go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINNED = HERE / "digests_seed0.json"

MIN_PASSES = 2
#: Set-ups measured per run (the passes' own plus set-up-only repeats):
#: at least this many, and at least this many seconds of them.
SETUP_SAMPLES = 5
SETUP_SECONDS = 2.0
#: Largest share of the traced wall time the layer self times may leave
#: unattributed.
COVERAGE_TOLERANCE = 0.10

#: ``name -> unit`` of the end-to-end metrics reported with ``--trace 0``.
#: The simulated metrics (energy against truth, quality error) and
#: ``fail_frac`` are printed beside them; see README.md for why they are
#: not in the result line.
END_TO_END = {
    "setup_s": "s",
    "per_iter_ms": "ms",
    "adds_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _load_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def machine_key() -> str:
    return f"python{platform.python_version()}-numpy{np.__version__}-{platform.machine()}"


#: Seconds one :class:`SpeedProbe` reading takes at the reference speed.
PROBE_REF_S = 0.035


class SpeedProbe:
    """A fixed NumPy + interpreter loop, timed between solves.

    The shared sandbox drifts between speed states for minutes at a time,
    which moves every host time of a run together.  Each pass's times are
    scaled by ``PROBE_REF_S`` over the median of its readings, so the
    reported times are at the reference speed and runs taken in different
    states compare.  One reading times a small-array loop heavy on the
    interpreter (like the solo paths) and a lane-stacked array loop (like
    the batched ones); it runs no program code, so a change to the
    program never moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 2**31, (2, 2048))
        self._lanes = rng.integers(0, 2**31, (2, 16, 4096))

    def __call__(self) -> float:
        (a, b), (la, lb) = self._small, self._lanes
        acc = 0
        start = time.perf_counter()
        for i in range(1000):
            s = (a + b) & 0xFFFFFFFF
            s ^= (a & b) << 1
            acc += int(s[i]) + sum(range(20))
        for _ in range(60):
            s = (la + lb) & 0xFFFFFFFF
            s ^= (la & lb) << 1
            np.rint(s * 0.5).astype(np.int64)
        return time.perf_counter() - start


def scale(p) -> float:
    """Reference probe time over the median reading of a probed pass."""
    return PROBE_REF_S / statistics.median(p.probes)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def tail_percentile(samples) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    q = math.floor(100 * (n - 10) / n)
    return q, ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def pinned_digests(workload: str, seed: int, size: str):
    if seed != 0 or size != "full" or not PINNED.is_file():
        return None
    table = json.loads(PINNED.read_text())
    return table.get(machine_key(), {}).get(workload)


def oracle_digests(workload: str, seed: int, size: str) -> dict[str, str | None]:
    from workloads import run_pass

    oracle = run_pass(workload, seed, size, program_capture=False)
    digests = {lid: None for lid in oracle.failed_lanes()}
    digests.update({lid: lane.digest for lid, lane in oracle.lanes().items()})
    return digests


def check_pass(p, reference: dict) -> list[str]:
    """Lane ids of ``p`` that raised or do not reproduce ``reference``."""
    lanes = p.lanes()
    bad = set(p.failed_lanes())
    for lid in reference:
        lane = lanes.get(lid)
        if lane is None or reference[lid] is None or lane.digest != reference[lid]:
            bad.add(lid)
    bad.update(lid for lid in lanes if lid not in reference)
    return sorted(bad)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def pass_rates(p, scaled: bool = True) -> tuple[float, float]:
    """``(per_iter_ms, adds_per_s)`` of one pass: geometric means over
    its solves, so a seed that shifts iterations between cheap and dear
    solves does not move them; at the reference speed unless ``scaled``
    is false."""
    k = scale(p) if scaled else 1.0
    ok = [s for s in p.solves if not s.error and s.executed]
    per_iter = geomean(1e3 * s.seconds * k / s.executed for s in ok)
    adds_rate = geomean(s.adds / (s.seconds * k) for s in ok if s.adds)
    return per_iter, adds_rate


def simulated(p, workload: str) -> dict[str, float]:
    """Energy ratios against truth and the Definition-1 quality error."""
    lanes = p.lanes()
    problems = sorted({s.problem for s in p.solves})
    adaptive = "adaptive-f1" if workload == "ablation_lanes" else "adaptive"
    ratios = {"incremental": [], adaptive: []}
    errors = []
    for prob in problems:
        truth = lanes.get(f"{prob}/truth")
        if truth is None:
            continue
        for label in ratios:
            lane = lanes.get(f"{prob}/{label}")
            if lane is not None:
                ratios[label].append(lane.energy / truth.energy)
        for lid, lane in lanes.items():
            label = lid.split("/", 1)[1]
            if lid.startswith(prob + "/") and label.startswith(("incremental", "adaptive")):
                scale = abs(truth.objective) or 1.0
                errors.append(abs(lane.objective - truth.objective) / scale)
    mean = statistics.fmean
    inc, ada = ratios["incremental"], ratios[adaptive]
    return {
        "energy_ratio_incremental": mean(inc) if inc else math.nan,
        "energy_ratio_adaptive": mean(ada) if ada else math.nan,
        "quality_err_max": max(errors) if errors else math.nan,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Timed passes, set-up repeats, the output check and (with
    ``trace``) the traced pass of one workload, as one result record."""
    import repro.backends
    from workloads import run_pass

    probe = SpeedProbe()
    passes = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(workload, seed, size, probe=probe))
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p.setup_s + p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    setup_runs = list(passes)
    while len(setup_runs) < SETUP_SAMPLES or sum(p.setup_s for p in setup_runs) < SETUP_SECONDS:
        gc.collect()
        setup_runs.append(run_pass(workload, seed, size, setup_only=True, probe=probe))
    setups = [p.setup_s for p in setup_runs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = pinned_digests(workload, seed, size)
    source = "pinned"
    if reference is None:
        reference, source = oracle_digests(workload, seed, size), "oracle"
    first = {lid: lane.digest for lid, lane in passes[0].lanes().items()}
    first.update({lid: None for lid in passes[0].failed_lanes()})
    failed = check_pass(passes[0], reference)
    for p in passes[1:]:
        failed += check_pass(p, first)
    attempted = sum(len(first) for _ in passes)

    rates = [pass_rates(p) for p in passes]
    raw_rates = [pass_rates(p, scaled=False) for p in passes]
    walls = [p.wall_s for p in passes]
    solve_secs = [s.seconds for p in passes for s in p.solves]
    executed = sum(s.executed for s in passes[0].solves)
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "backend": repro.backends.resolve_backend_name(),
        "machine": machine_key(),
        "reference": source,
        "passes": len(passes),
        "solves_per_pass": len(first),
        "executed_iterations": executed,
        "adds": sum(s.adds for s in passes[0].solves),
        "wall_s": {"p50": statistics.median(walls), "max": max(walls), "n": len(walls)},
        "solve_s": {"p50": statistics.median(solve_secs), "n": len(solve_secs)},
        "per_iter_pooled_ms": (
            statistics.median(1e3 * w / executed for w in walls) if executed else 0.0
        ),
        "failed_ids": sorted(set(failed)),
        "solves": {
            s.id: {
                "executed": s.executed,
                "seconds": statistics.median(p.solves[i].seconds for p in passes),
            }
            for i, s in enumerate(passes[0].solves)
        },
    }
    tail = tail_percentile(solve_secs)
    if tail is not None:
        record["solve_s"][f"p{tail[0]}"] = tail[1]
    record["end_to_end"] = {
        "setup_s": statistics.median(p.setup_s * scale(p) for p in setup_runs),
        "per_iter_ms": statistics.median(r[0] for r in rates),
        "adds_per_s": statistics.median(r[1] for r in rates),
        "peak_rss_mb": peak_rss_mb,
    }
    record["raw"] = {
        "setup_s": statistics.median(setups),
        "per_iter_ms": statistics.median(r[0] for r in raw_rates),
        "adds_per_s": statistics.median(r[1] for r in raw_rates),
    }
    record["probe_ms"] = 1e3 * statistics.median(x for p in setup_runs for x in p.probes)
    record["setup_samples"] = len(setups)
    record["per_pass"] = [list(r) for r in rates]
    record["simulated"] = simulated(passes[0], workload)
    record["fail_frac"] = len(failed) / attempted
    correct = not failed
    if trace:
        layers, checks, table = traced(workload, seed, size, statistics.median(walls), first)
        record["per_layer"] = layers
        record["trace_checks"] = checks
        record["layer_table"] = table
        attempted += len(first)
        failed += checks["mismatched"]
        correct = correct and not checks["mismatched"] and checks["coverage_ok"]
    record["correct"] = correct
    record["attempted"] = attempted
    record["failed"] = len(failed)
    return record


def traced(workload, seed, size, untraced_wall_s, first):
    from tracer import Tracer, layer_metrics
    from workloads import run_pass

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        p = run_pass(workload, seed, size, hooks=tracer)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    mismatched = check_pass(p, first)
    lanes = p.lanes().values()
    executed = sum(lane.executed for lane in lanes)
    table = tracer.table()
    layers = layer_metrics(
        tracer,
        table,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall_s,
        traced_solve_wall_s=p.wall_s,
        iters=executed,
        accepted=sum(lane.accepted for lane in lanes),
        rollbacks=sum(lane.rollbacks for lane in lanes),
    )
    unattributed = layers["trace.unattributed_s"]
    checks = {
        "mismatched": mismatched,
        "traced_wall_s": traced_wall,
        "coverage_ok": abs(unattributed) <= COVERAGE_TOLERANCE * traced_wall,
        "spans": len(tracer.spans),
    }
    tracer.save(OUT / f"spans_{workload}.npz", [s.id for s in p.solves])
    return layers, checks, table


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict) -> None:
    r = record
    print(
        f"# perfbench {r['workload']} seed={r['seed']} size={r['size']} "
        f"backend={r['backend']} machine={r['machine']} reference={r['reference']}"
    )
    wall = r["wall_s"]
    print(f"#   {r['passes']} passes x {r['solves_per_pass']} solves "
          f"({r['setup_samples']} set-ups), "
          f"{r['executed_iterations']} executed iterations and {r['adds']} simulated adds per pass")
    rows = [(name, e, END_TO_END[name]) for name, e in r["end_to_end"].items()]
    sim = r["simulated"]
    raw = r["raw"]
    rows += [
        ("probe_ms", r["probe_ms"], f"ms (speed probe; reference {1e3 * PROBE_REF_S:g} ms)"),
        ("setup_s.raw", raw["setup_s"], "s (as measured)"),
        ("per_iter_ms.raw", raw["per_iter_ms"], "ms (as measured)"),
        ("adds_per_s.raw", raw["adds_per_s"], "1/s (as measured)"),
        ("wall_s.p50", wall["p50"], f"s (n={wall['n']} passes; max {wall['max']:.4g})"),
        ("per_iter_pooled_ms", r["per_iter_pooled_ms"], "ms (wall_s / executed iterations)"),
        ("energy_ratio_incremental", sim["energy_ratio_incremental"], "E/E_truth (simulated)"),
        ("energy_ratio_adaptive", sim["energy_ratio_adaptive"], "E/E_truth (simulated)"),
        ("saving_incremental_pct", 100 * (1 - sim["energy_ratio_incremental"]), "% (simulated)"),
        ("saving_adaptive_pct", 100 * (1 - sim["energy_ratio_adaptive"]), "% (simulated)"),
        ("quality_err_max", sim["quality_err_max"], "1 (simulated)"),
        ("fail_frac", r["fail_frac"], "1"),
    ]
    for key, value in r["solve_s"].items():
        if key.startswith("p"):
            rows.append((f"solve_s.{key}", value, f"s (n={r['solve_s']['n']} solves)"))
    print("# end-to-end")
    for name, value, unit in rows:
        print(f"#   {name:<28} {_fmt(value):>14}  {unit}")
    if "per_layer" in r:
        checks = r["trace_checks"]
        print(f"# traced pass: {checks['spans']} spans, wall {checks['traced_wall_s']:.4g} s, "
              f"bit-identical={not checks['mismatched']}, coverage_ok={checks['coverage_ok']}")
        print(f"#   {'span':<34} {'calls':>10} {'total_s':>10} {'self_s':>10}")
        table = sorted(r["layer_table"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in table:
            print(f"#   {name:<34} {int(row['calls']):>10} {row['s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        print("# per-layer")
        for name, value in r["per_layer"].items():
            print(f"#   {name:<40} {_fmt(value):>14}")
    if r["failed_ids"]:
        print(f"# FAILED solves: {', '.join(r['failed_ids'])}")


def result_line(record: dict, units: dict) -> str:
    key = "per_layer" if "per_layer" in record else "end_to_end"
    metrics = {n: {"value": v, "unit": units[n]} for n, v in record[key].items()}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    from workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        child = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and child["correct"]
        totals["attempted"] += child["attempted"]
        totals["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(totals))
    return 0


def pin(workload: str) -> None:
    """Regenerate this machine key's seed-0 digests from the oracle."""
    table = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    digests = oracle_digests(workload, 0, "full")
    if any(d is None for d in digests.values()):
        sys.exit(f"perfbench: oracle pass of {workload} raised; nothing pinned")
    table.setdefault(machine_key(), {})[workload] = dict(sorted(digests.items()))
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests for {workload} under {machine_key()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_matrix", "pagerank_web", "ablation_lanes", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="regenerate the seed-0 digests for this machine and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _load_program()
    if args.pin_digests:
        if args.workload == "all":
            parser.error("--pin-digests takes one workload")
        pin(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    from tracer import PER_LAYER

    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    OUT.mkdir(exist_ok=True)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record)
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
