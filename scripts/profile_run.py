"""cProfile an ApproxIt run (solo or batched) and print the hot sites.

Usage::

    PYTHONPATH=src python scripts/profile_run.py \
        [--solver jacobi] [--n 80] [--strategy incremental] \
        [--max-iter 150] [--repeats 3] [--top 20] [--out profile.pstats] \
        [--no-capture] [--batch-size 0] [--sparse]

With ``--batch-size B`` (B >= 1) the profiled region is one
``run_batch`` call advancing B identical lanes lock-step — the region
the ``batched/replay_*`` benchmarks time; the default 0 profiles the
solo ``run`` loop.  The offline characterization is warmed (and one
full run executed) before profiling, so the numbers describe the
steady-state iteration loop; ``--sparse`` also prints the minor page
faults per iteration of one unprofiled run.  The CI perf-smoke job
uploads the ``--out`` dump next to ``BENCH_perf.json``; load it locally
with ``python -m pstats profile.pstats`` to attribute an end-to-end
regression to the call site that caused it.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import resource
import sys
from pathlib import Path

import numpy as np

from repro.apps import GaussianMixtureEM
from repro.apps.pagerank import PageRank
from repro.core.framework import ApproxIt
from repro.solvers import (
    ConjugateGradient,
    GaussSeidelSolver,
    JacobiSolver,
    LeastSquaresGD,
    RedBlackGaussSeidelSolver,
    RedBlackSorSolver,
    SorSolver,
)


def _laplacian(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Weakly dominant 1D Laplacian: slow convergence keeps the loop
    # busy for the whole iteration budget (see the replay benchmarks).
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return matrix, rhs


def build_sparse_framework(n: int, max_iter: int) -> ApproxIt:
    """The sparse flagship: PageRank over a synthetic n-node web whose
    CSR transition matrix rides the sparse resident-operand datapath
    (the region the ``sparse/replay_pagerank100k`` benchmark gates)."""
    app = PageRank.random_web_csr(
        n_nodes=n, seed=11, out_degree=8.0, max_iter=max_iter, tolerance=1e-300
    )
    return ApproxIt(app)


def build_framework(solver: str, n: int, max_iter: int) -> ApproxIt:
    if solver in (
        "jacobi",
        "gauss-seidel",
        "sor",
        "gauss-seidel-rb",
        "sor-rb",
    ):
        matrix, rhs = _laplacian(n)
        cls = {
            "jacobi": JacobiSolver,
            "gauss-seidel": GaussSeidelSolver,
            "sor": SorSolver,
            "gauss-seidel-rb": RedBlackGaussSeidelSolver,
            "sor-rb": RedBlackSorSolver,
        }[solver]
        return ApproxIt(cls(matrix, rhs, max_iter=max_iter, tolerance=1e-9))
    if solver == "gmm":
        rng = np.random.default_rng(31)
        points = np.concatenate(
            [
                rng.normal(-0.5, 1.0, (max(n, 8), 2)),
                rng.normal(0.5, 1.0, (max(n, 8), 2)),
            ]
        )
        return ApproxIt(
            GaussianMixtureEM(
                points, n_clusters=3, max_iter=max_iter, tolerance=1e-300
            )
        )
    if solver == "cg":
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-1.0, 1.0, (n, n))
        matrix = matrix @ matrix.T + 2.0 * np.eye(n)
        rhs = rng.uniform(-3.0, 3.0, n)
        return ApproxIt(
            ConjugateGradient(matrix, rhs, max_iter=max_iter, tolerance=1e-300)
        )
    if solver == "lsq":
        rng = np.random.default_rng(21)
        design = rng.uniform(-1.0, 1.0, (max(2 * n, 16), 8))
        weights = rng.uniform(-2.0, 2.0, 8)
        targets = design @ weights + rng.normal(0, 0.01, design.shape[0])
        return ApproxIt(
            LeastSquaresGD(
                design,
                targets,
                learning_rate=0.02,
                max_iter=max_iter,
                tolerance=1e-300,
            )
        )
    raise SystemExit(f"unknown solver {solver!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--solver",
        default="jacobi",
        choices=(
            "jacobi",
            "gauss-seidel",
            "sor",
            "gauss-seidel-rb",
            "sor-rb",
            "cg",
            "lsq",
            "gmm",
        ),
    )
    parser.add_argument("--n", type=int, default=80, help="problem size")
    parser.add_argument("--strategy", default="incremental")
    parser.add_argument("--max-iter", type=int, default=150)
    parser.add_argument(
        "--repeats", type=int, default=3, help="profiled run count"
    )
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--out", default=None, help="write pstats dump here")
    parser.add_argument(
        "--no-capture",
        action="store_true",
        help="profile the interpreted path (program_capture=False)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="profile one run_batch over this many lock-step lanes "
        "instead of the solo loop (default: 0, solo)",
    )
    parser.add_argument(
        "--sparse",
        action="store_true",
        help="profile the sparse PageRank workload instead of --solver "
        "(--n becomes the node count; the CSR operand goes through the "
        "sparse resident datapath)",
    )
    args = parser.parse_args(argv)

    if args.sparse:
        if args.batch_size > 0:
            raise SystemExit(
                "--sparse profiles the solo sparse loop; it cannot be "
                "combined with --batch-size"
            )
        framework = build_sparse_framework(args.n, args.max_iter)
    else:
        framework = build_framework(args.solver, args.n, args.max_iter)
    framework.characterization()
    capture = not args.no_capture

    if args.batch_size > 0:
        specs = [args.strategy] * args.batch_size
        support = framework.batching_support()
        if not support:
            raise SystemExit(
                f"--batch-size: {args.solver} refuses the batched path "
                f"[{support.reason.value}] {support.message}"
            )

        def profiled():
            return framework.run_batch(list(specs), program_capture=capture)

        run = profiled()[0]
        region = f"batch of {args.batch_size} lanes"
    else:

        def profiled():
            return framework.run(strategy=args.strategy, program_capture=capture)

        run = profiled()
        region = "solo run"
    workload = "pagerank-csr" if args.sparse else args.solver
    print(
        f"{workload} n={args.n} strategy={args.strategy} "
        f"{region} "
        f"capture={'on' if capture else 'off'}: {run.iterations} iterations, "
        f"{run.rollbacks} rollbacks, energy {run.energy:.3g}"
    )
    if args.sparse:
        # Web-scale temporaries that page-fault every call show here
        # (counted over one unprofiled run after the warm-up above).
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run = profiled()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(
            f"minor page faults: {faults / run.iterations:.1f} per iteration "
            f"({faults} over {run.iterations} iterations)"
        )

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.repeats):
        profiled()
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    if args.out:
        # Label a sparse-workload artifact so the CI upload keeps the
        # sparse and dense dumps apart.
        out = Path(args.out)
        if args.sparse and "sparse" not in out.stem:
            out = out.with_name(f"{out.stem}.sparse{out.suffix}")
        stats.dump_stats(out)
        print(f"profile written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
