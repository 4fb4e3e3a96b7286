"""``approxit`` command-line interface.

One verb per artifact; each prints a plain-text report (``--out PATH``
writes it to a file instead).  The paper's tables and figures::

    approxit suite       # Tables 1 and 2
    approxit figure1     # framework block diagram
    approxit table3      # Table 3(a) + 3(b)
    approxit table4      # Table 4(a) + 4(b)
    approxit figure2     # manifold-angle trace
    approxit figure3     # clustering scatter panel
    approxit figure4     # energy comparison
    approxit all         # everything, in paper order

Beyond the paper's artifacts::

    approxit characterize --dataset 3cluster   # offline mode impacts
    approxit resilience --dataset 3cluster     # §3.1 block analysis
    approxit run --dataset sp500 --strategy adaptive --save run.json
    approxit motivation | extensions

``--parallel N`` prewarms the experiment matrix over ``N`` worker
processes (``0`` = all cores) before rendering table3/table4/figure4/all;
``--batch-size B`` additionally groups up to ``B`` compatible cells per
dataset into one lane-parallel ``run_batch`` shard per worker (results
stay bit-identical — see ``docs/performance.md``).  ``--trace DIR``
exports JSONL run traces (see ``docs/observability.md``) for the
``run`` artifact and for every cell of a ``--parallel`` prewarm.

Offline characterization is cached on disk by default (content
addressed, so stale entries are impossible — see
``docs/performance.md``).  The directory resolves as ``--cache-dir`` >
``$REPRO_CHAR_CACHE`` > ``~/.cache/approxit/characterization``;
``--no-cache`` disables the cache entirely.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxit",
        description="Regenerate the tables and figures of the ApproxIt paper.",
    )
    parser.add_argument(
        "artifact",
        choices=[
            "suite",
            "table3",
            "table4",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "all",
            "characterize",
            "resilience",
            "extensions",
            "motivation",
            "run",
        ],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--dataset",
        default="3cluster",
        help="dataset key for figure3/characterize/resilience/run "
        "(default: 3cluster)",
    )
    parser.add_argument(
        "--strategy",
        default="incremental",
        help="strategy spec for the run artifact (default: incremental)",
    )
    parser.add_argument(
        "--save",
        default=None,
        help="for run: also persist the run as JSON to this path",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="fan experiment sweep cells out over N worker processes "
        "before rendering (table3/table4/figure4/all; 0 = all cores)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help="lane-parallel batching for --parallel prewarms: group up "
        "to B compatible sweep cells per dataset into one lock-step "
        "run_batch shard (bit-identical results; methods that refuse "
        "the batched path fall back to solo cells, with the refusal "
        "reason printed on stderr)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="export JSONL run traces to this directory (run artifact "
        "and --parallel prewarms; one file per run, safe under "
        "--parallel)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="characterization-cache directory (default: $REPRO_CHAR_CACHE "
        "or ~/.cache/approxit/characterization)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk characterization cache",
    )
    parser.add_argument(
        "--out", default=None, help="write the report to this file instead of stdout"
    )
    return parser


def resolve_cache_dir(
    cache_dir: str | None = None, no_cache: bool = False
) -> str | None:
    """The characterization-cache directory the CLI should use.

    Resolution order: ``--no-cache`` (→ ``None``) > ``--cache-dir`` >
    ``$REPRO_CHAR_CACHE`` (empty disables) > the user cache directory.
    """
    if no_cache:
        return None
    if cache_dir:
        return cache_dir
    env = os.environ.get("REPRO_CHAR_CACHE")
    if env is not None:
        return env or None
    return os.path.join(
        os.path.expanduser("~"), ".cache", "approxit", "characterization"
    )


#: Artifacts whose underlying experiment matrix can be prewarmed in
#: parallel before the (serial, cache-hitting) rendering pass.
_PARALLEL_ARTIFACTS = {
    "table3": ("3cluster", "3d3cluster", "4cluster"),
    "figure4": None,  # all datasets
    "table4": ("hangseng", "nasdaq", "sp500"),
    "all": None,
}


def _prewarm(
    artifact: str,
    workers: int,
    trace_dir: str | None = None,
    batch_size: int | None = None,
) -> None:
    from repro.experiments.parallel import SweepPool
    from repro.experiments.runner import run_experiments_parallel

    # One persistent pool for the whole prewarm: workers spawn once and
    # keep their warmed imports/memo caches across every sweep cell.
    with SweepPool(max_workers=workers if workers > 0 else None) as pool:
        run_experiments_parallel(
            dataset_keys=_PARALLEL_ARTIFACTS[artifact],
            trace_dir=trace_dir,
            pool=pool,
            batch_size=batch_size,
        )


def _generate(
    artifact: str,
    dataset: str,
    strategy: str = "incremental",
    save: str | None = None,
    trace_dir: str | None = None,
) -> str:
    # Imports are local so `approxit --help` stays fast.
    from repro.experiments.figure1 import figure1
    from repro.experiments.figure2 import figure2
    from repro.experiments.figure3 import figure3
    from repro.experiments.figure4 import figure4
    from repro.experiments.suite import describe_benchmarks, describe_datasets
    from repro.experiments.table3 import table3a, table3b
    from repro.experiments.table4 import table4a, table4b

    if artifact == "figure1":
        return figure1()
    if artifact == "run":
        return _run_report(dataset, strategy, save, trace_dir)
    if artifact == "suite":
        return describe_benchmarks() + "\n\n" + describe_datasets()
    if artifact == "table3":
        return table3a() + "\n\n" + table3b()
    if artifact == "table4":
        return table4a() + "\n\n" + table4b()
    if artifact == "figure2":
        return figure2()
    if artifact == "figure3":
        return figure3(dataset)
    if artifact == "figure4":
        return figure4()
    if artifact == "characterize":
        return _characterization_report(dataset)
    if artifact == "resilience":
        return _resilience_report(dataset)
    if artifact == "motivation":
        from repro.experiments.motivation import motivation_table

        return motivation_table(dataset)
    if artifact == "extensions":
        from repro.experiments.extensions import (
            pagerank_table,
            reconfiguration_cost_table,
            seed_robustness_table,
        )

        return "\n\n".join(
            [
                pagerank_table(),
                reconfiguration_cost_table(),
                seed_robustness_table(),
            ]
        )
    parts = [
        describe_benchmarks(),
        describe_datasets(),
        figure1(),
        table3a(),
        table3b(),
        figure3(dataset),
        table4a(),
        table4b(),
        figure2(),
        figure4(),
    ]
    return "\n\n".join(parts)


def _build_method(dataset_key: str):
    from repro.apps.autoregression import AutoRegression
    from repro.apps.gmm import GaussianMixtureEM
    from repro.data.registry import DATASETS, load_dataset

    spec = DATASETS[dataset_key]
    dataset = load_dataset(dataset_key)
    if spec.application == "gmm":
        return GaussianMixtureEM.from_dataset(dataset)
    return AutoRegression.from_dataset(dataset)


def _characterization_report(dataset_key: str) -> str:
    from repro.experiments.render import format_number, format_table
    from repro.experiments.runner import build_framework

    framework, _ = build_framework(dataset_key)
    table = framework.characterization()
    rows = [
        [
            name,
            format_number(impact.quality_error),
            format_number(impact.energy_per_iteration),
            impact.probes,
        ]
        for name, impact in table.impacts.items()
    ]
    return format_table(
        ["Mode", "Quality error (Def. 1)", "Energy / iteration", "Probes"],
        rows,
        title=f"Offline characterization on {dataset_key}",
    )


def _resilience_report(dataset_key: str) -> str:
    from repro.apps.gmm import GaussianMixtureEM
    from repro.core.resilience import analyze_resilience, gmm_blocks
    from repro.experiments.render import format_number, format_table

    method = _build_method(dataset_key)
    if isinstance(method, GaussianMixtureEM):
        blocks = gmm_blocks(method)
    else:
        import numpy as np

        blocks = {"coefficients": np.arange(method.initial_state().size)}
    rows = []
    for scale in (1e-3, 1e-2, 1e-1):
        results = analyze_resilience(method, blocks, noise_scale=scale, trials=2)
        for name, impact in results.items():
            rows.append(
                [
                    name,
                    f"{scale:g}",
                    format_number(impact.mean_quality_error),
                    impact.crashed,
                    "resilient" if impact.resilient else "SENSITIVE",
                ]
            )
    return format_table(
        ["Block", "Noise scale", "Quality error", "Crashes", "Verdict"],
        rows,
        title=f"Section-3.1 resilience analysis on {dataset_key}",
    )


def _run_report(
    dataset_key: str,
    strategy: str,
    save: str | None,
    trace_dir: str | None = None,
) -> str:
    from pathlib import Path

    from repro.core.reporting import comparison_report, save_run
    from repro.obs import TraceRecorder, render_trace
    from repro.experiments.runner import build_framework

    framework, _ = build_framework(dataset_key)
    recorder = None
    if trace_dir is not None:
        recorder = TraceRecorder(label=f"{dataset_key}:{strategy}")
    truth = framework.run_truth()
    run = framework.run(strategy=strategy, observer=recorder)
    extra = ""
    if recorder is not None:
        path = Path(trace_dir) / f"{dataset_key}_{strategy}.jsonl"
        recorder.save(
            path,
            meta={
                "dataset": dataset_key,
                "run_label": strategy,
                "strategy": run.strategy_name,
            },
        )
        run.trace_path = str(path)
        extra = (
            f"\n\n{render_trace(recorder.events, mode_order=framework.bank.names()[::-1])}"
            f"\ntrace written to {path}"
        )
    if save:
        save_run(run, save)
    report = comparison_report({"truth": truth, strategy: run}, reference="truth")
    return report + extra


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject flags the chosen artifact would silently ignore (exit 2)."""
    prewarm = args.parallel is not None
    if prewarm and (args.parallel < 0 or args.artifact not in _PARALLEL_ARTIFACTS):
        parser.error(f"--parallel takes N >= 0 and one of {', '.join(_PARALLEL_ARTIFACTS)}")
    if args.batch_size is not None and (not prewarm or args.batch_size < 1):
        parser.error("--batch-size takes B >= 1 and needs --parallel")
    if args.trace is not None and args.artifact != "run" and not prewarm:
        parser.error("--trace applies to the run artifact or a --parallel prewarm")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_flags(parser, args)
    from repro.experiments.runner import set_default_cache_dir

    # Installed process-wide so the serial renderers, the run/
    # characterize artifacts and every prewarm worker share one cache.
    set_default_cache_dir(resolve_cache_dir(args.cache_dir, args.no_cache))
    if args.parallel is not None:
        _prewarm(args.artifact, args.parallel, args.trace, args.batch_size)
    report = _generate(args.artifact, args.dataset, args.strategy, args.save, args.trace)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    else:
        sys.stdout.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
