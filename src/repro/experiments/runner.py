"""Shared experiment execution for the table/figure regenerators.

One :class:`ApplicationResult` per (application, dataset) bundles the
Truth run, the four single-mode runs (Table 3(a)/4(a)) and the two
online-reconfiguration runs (Table 3(b)/4(b)), with QEM and normalized
energy computed against the Truth — the exact quantities the paper's
tables print.  Results are memoized per process so that e.g. Figure 4
reuses Table 3's runs instead of recomputing them.

The experiment matrix is embarrassingly parallel: every ``(dataset,
run-label)`` sweep cell is an independent, deterministic computation.
:func:`run_experiment_cells` / :func:`run_experiments_parallel` fan the
cells out over a process pool (:mod:`repro.experiments.parallel`) and
seed the per-process memo caches with the assembled results, so the
serial table/figure code downstream reuses them transparently.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.apps.autoregression import AutoRegression
from repro.apps.gmm import GaussianMixtureEM
from repro.apps.qem import cluster_assignment_hamming, weight_l2_error
from repro.core.characterize import CharacterizationCache
from repro.core.framework import ApproxIt, RunResult
from repro.data.registry import DATASETS, load_dataset
from repro.experiments.parallel import SweepPool, process_map
from repro.obs import TraceRecorder

#: Single-mode configurations of the first experiment, ladder order.
SINGLE_MODES = ("level1", "level2", "level3", "level4")
#: Online strategies of the second experiment.
ONLINE_STRATEGIES = ("incremental", "adaptive")

#: Keys of the GMM datasets, Table 3 row order.
GMM_DATASETS = ("3cluster", "3d3cluster", "4cluster")
#: Keys of the AR datasets, Table 4 row order.
AR_DATASETS = ("hangseng", "nasdaq", "sp500")

#: Every run of one experiment cell's matrix, in serial execution order.
CELL_LABELS = ("truth", *SINGLE_MODES, *ONLINE_STRATEGIES)


def _memoized(fn):
    """Per-process memo keyed on the single positional argument.

    Like ``functools.lru_cache(maxsize=None)`` but with a seedable cache
    so parallel runs can deposit precomputed results:

    * ``fn.cache_clear()`` — drop everything (test isolation);
    * ``fn.cache_seed(key, value)`` — install a result as if ``fn(key)``
      had been called.
    """
    cache: dict = {}

    @functools.wraps(fn)
    def wrapper(key):
        if key not in cache:
            cache[key] = fn(key)
        return cache[key]

    def cache_seed(key, value):
        cache[key] = value

    wrapper.cache_clear = cache.clear
    wrapper.cache_seed = cache_seed
    return wrapper


@dataclass
class ApplicationResult:
    """All runs of one application on one dataset.

    Attributes:
        dataset_key: registry key.
        display_name: the paper's dataset name.
        truth: fully accurate reference run.
        single_mode: mode name → run (the Table a experiments).
        online: strategy name → run (the Table b experiments).
        qem: run label (mode or strategy name) → quality vs Truth.
        framework: the ApproxIt instance (exposes method and bank for
            downstream figures).
    """

    dataset_key: str
    display_name: str
    truth: RunResult
    single_mode: dict[str, RunResult]
    online: dict[str, RunResult]
    qem: dict[str, float]
    framework: ApproxIt

    def energy_of(self, label: str) -> float:
        """Normalized energy (Truth = 1) of a single-mode or online run."""
        run = self.run_of(label)
        return run.energy_relative_to(self.truth)

    def run_of(self, label: str) -> RunResult:
        """Look up a run by mode name, strategy name, or ``"truth"``."""
        if label == "truth":
            return self.truth
        if label in self.single_mode:
            return self.single_mode[label]
        if label in self.online:
            return self.online[label]
        known = ["truth", *self.single_mode, *self.online]
        raise KeyError(f"unknown run label {label!r}; known: {known}")

    def savings_of(self, label: str) -> float:
        """Energy saving vs Truth in percent (positive = cheaper)."""
        return (1.0 - self.energy_of(label)) * 100.0


#: Process-wide default characterization cache directory, set once by
#: the CLI so *every* framework this module builds — serial table
#: renderers included — shares one disk cache.  ``None`` = no cache.
_default_cache_dir: str | None = None


def set_default_cache_dir(cache_dir: str | Path | None) -> None:
    """Install (or clear, with ``None``) the process-wide cache dir."""
    global _default_cache_dir
    _default_cache_dir = None if cache_dir is None else str(cache_dir)


def build_framework(
    dataset_key: str, cache_dir: str | None = None
) -> tuple[ApproxIt, object]:
    """Construct the framework (and its method) for one dataset.

    ``cache_dir`` (explicit, or the process-wide default installed via
    :func:`set_default_cache_dir`) attaches a disk-backed
    characterization cache to the framework.  This is the one
    registry-dataset → framework constructor; the sweep workers and the
    CLI artifacts both build through it, so a sweep cell and a CLI run
    of the same dataset are the same computation.
    """
    if cache_dir is None:
        cache_dir = _default_cache_dir
    spec = DATASETS[dataset_key]
    dataset = load_dataset(dataset_key)
    if spec.application == "gmm":
        method = GaussianMixtureEM.from_dataset(dataset)
    else:
        method = AutoRegression.from_dataset(dataset)
    char_cache = CharacterizationCache(cache_dir) if cache_dir else None
    return ApproxIt(method, char_cache=char_cache), method


def _qem_fn(dataset_key: str, method):
    """The dataset's quality-error metric against a Truth run."""
    if DATASETS[dataset_key].application == "gmm":

        def qem_fn(run: RunResult, truth: RunResult) -> float:
            return float(
                cluster_assignment_hamming(
                    method.assignments(run.x),
                    method.assignments(truth.x),
                    method.n_clusters,
                )
            )

        return qem_fn

    def qem_fn(run: RunResult, truth: RunResult) -> float:
        return weight_l2_error(run.x, truth.x)

    return qem_fn


def _run_cell(
    framework: ApproxIt,
    label: str,
    trace_dir: str | None = None,
    dataset_key: str = "",
) -> RunResult:
    """Execute one sweep cell (a single run) on a framework.

    With ``trace_dir`` set the run is observed by a
    :class:`~repro.obs.TraceRecorder` and exported to
    ``<trace_dir>/<dataset>_<label>.jsonl`` (``<label>.jsonl`` without a
    dataset key); the written path lands in ``RunResult.trace_path``.
    Tracing is passive — the run itself is bit-identical either way.
    """
    observer = None
    if trace_dir is not None:
        tag = f"{dataset_key}:{label}" if dataset_key else label
        observer = TraceRecorder(label=tag)
    if label == "truth":
        run = framework.run_truth(observer=observer)
    elif label in SINGLE_MODES:
        run = framework.run(strategy=f"static:{label}", observer=observer)
    elif label in ONLINE_STRATEGIES:
        run = framework.run(strategy=label, observer=observer)
    else:
        raise KeyError(f"unknown cell label {label!r}; known: {CELL_LABELS}")
    if observer is not None:
        stem = f"{dataset_key}_{label}" if dataset_key else label
        path = Path(trace_dir) / f"{stem}.jsonl"
        observer.save(
            path,
            meta={
                "dataset": dataset_key,
                "run_label": label,
                "strategy": run.strategy_name,
            },
        )
        run.trace_path = str(path)
    return run


def _label_spec(label: str) -> str:
    """The ``run``/``run_batch`` strategy spec of one cell label."""
    if label == "truth":
        return "truth"
    if label in SINGLE_MODES:
        return f"static:{label}"
    if label in ONLINE_STRATEGIES:
        return label
    raise KeyError(f"unknown cell label {label!r}; known: {CELL_LABELS}")


def _run_shard(
    framework: ApproxIt,
    labels: tuple[str, ...],
    trace_dir: str | None = None,
    dataset_key: str = "",
) -> list[RunResult]:
    """Execute one batched shard: one ``run_batch`` lane per cell label.

    All lanes share the dataset's method, number format and adder bank,
    so they are compatible by construction, and per-lane results are
    bit-identical to the solo :func:`_run_cell` path (the parity
    guarantee of :meth:`~repro.core.framework.ApproxIt.run_batch`).
    With ``trace_dir`` set the whole shard records into one lane-tagged
    trace file, ``<dataset>_batch_<first>_<last>.jsonl``, every lane's
    ``trace_path`` points at it, and single-lane views come back via
    ``summarize_trace(path, lane=i)``.
    """
    specs = [_label_spec(label) for label in labels]
    observer = None
    if trace_dir is not None:
        tag = f"{dataset_key}:batch" if dataset_key else "batch"
        observer = TraceRecorder(label=tag)
    runs = framework.run_batch(specs, observer=observer)
    if observer is not None:
        stem = f"batch_{labels[0]}_{labels[-1]}"
        if dataset_key:
            stem = f"{dataset_key}_{stem}"
        path = Path(trace_dir) / f"{stem}.jsonl"
        observer.save(
            path,
            meta={
                "dataset": dataset_key,
                "run_labels": list(labels),
                "lanes": len(labels),
            },
        )
        for run in runs:
            run.trace_path = str(path)
    return runs


def _shard_worker(
    shard: tuple[str, tuple[str, ...], str | None, str | None],
) -> tuple[list[tuple[str, str, RunResult]], str | None]:
    """Process-pool entry point: run one ``(dataset, labels, trace_dir,
    cache_dir)`` shard of compatible cells.

    The framework is rebuilt in-worker exactly as :func:`_cell_worker`
    does.  Shards whose method refuses the batched path (see
    :func:`repro.solvers.batched.batching_support`) fall back to the
    solo per-cell loop, so routing through shards never changes
    results — only the execution schedule.  The second return element
    is the structured refusal notice (``None`` when the shard batched
    or was single-lane), surfaced by the parent on stderr.
    """
    dataset_key, labels, trace_dir, cache_dir = shard
    framework, _ = build_framework(dataset_key, cache_dir=cache_dir)
    support = framework.batching_support()
    fallback = None
    if len(labels) > 1 and support:
        runs = _run_shard(framework, labels, trace_dir, dataset_key)
    else:
        if len(labels) > 1 and not support:
            fallback = f"[{support.reason.value}] {support.message}"
        runs = [
            _run_cell(framework, label, trace_dir, dataset_key)
            for label in labels
        ]
    rows = [(dataset_key, label, run) for label, run in zip(labels, runs)]
    return rows, fallback


def _shard_cells(
    dataset_keys,
    batch_size: int,
    trace_dir: str | None,
    cache_dir: str | None,
) -> list[tuple[str, tuple[str, ...], str | None, str | None]]:
    """Split every dataset's cell labels into shards of ``<= batch_size``
    lanes.  Shards never cross datasets — lanes of one ``run_batch``
    must share a method, format and adder bank."""
    return [
        (key, CELL_LABELS[start : start + batch_size], trace_dir, cache_dir)
        for key in dataset_keys
        for start in range(0, len(CELL_LABELS), batch_size)
    ]


def _cell_worker(
    cell: tuple[str, str, str | None, str | None],
) -> tuple[str, str, RunResult]:
    """Process-pool entry point: run one ``(dataset, label, trace_dir,
    cache_dir)`` cell.

    Every worker rebuilds the framework from the dataset registry —
    methods are deterministic (fresh, seeded RNGs per call), so a cell
    run in a fresh process is bit-identical to the same cell run
    serially on a shared framework.  Each traced cell writes its own
    per-process recorder to its own file, so tracing stays safe under
    ``--parallel``; the paths come back merged into the results at
    join.  The cache dir rides in the cell tuple because workers are
    fresh processes: the parent's process-wide default does not reach
    them, and the disk cache (atomic writes, content-addressed) is the
    one store they can all share.
    """
    dataset_key, label, trace_dir, cache_dir = cell
    framework, _ = build_framework(dataset_key, cache_dir=cache_dir)
    return dataset_key, label, _run_cell(framework, label, trace_dir, dataset_key)


def _assemble(dataset_key: str, runs: dict[str, RunResult]) -> ApplicationResult:
    """Bundle one dataset's cell runs into an :class:`ApplicationResult`."""
    spec = DATASETS[dataset_key]
    framework, method = build_framework(dataset_key)
    qem_fn = _qem_fn(dataset_key, method)
    truth = runs["truth"]
    qem = {"truth": 0.0}
    for label in (*SINGLE_MODES, *ONLINE_STRATEGIES):
        qem[label] = qem_fn(runs[label], truth)
    return ApplicationResult(
        dataset_key=dataset_key,
        display_name=spec.display_name,
        truth=truth,
        single_mode={m: runs[m] for m in SINGLE_MODES},
        online={s: runs[s] for s in ONLINE_STRATEGIES},
        qem=qem,
        framework=framework,
    )


def _run_matrix(dataset_key: str) -> ApplicationResult:
    """Serial execution of one dataset's full experiment matrix."""
    framework, _ = build_framework(dataset_key)
    runs = {label: _run_cell(framework, label) for label in CELL_LABELS}
    return _assemble(dataset_key, runs)


@_memoized
def run_gmm_experiment(dataset_key: str) -> ApplicationResult:
    """Run the full GMM experiment matrix on one Table-2 dataset."""
    if DATASETS[dataset_key].application != "gmm":
        raise ValueError(f"{dataset_key!r} is not a GMM dataset")
    return _run_matrix(dataset_key)


@_memoized
def run_ar_experiment(dataset_key: str) -> ApplicationResult:
    """Run the full AutoRegression experiment matrix on one dataset."""
    if DATASETS[dataset_key].application != "autoregression":
        raise ValueError(f"{dataset_key!r} is not an AR dataset")
    return _run_matrix(dataset_key)


def run_experiment(dataset_key: str) -> ApplicationResult:
    """Dispatch on the dataset's registered application."""
    spec = DATASETS[dataset_key]
    if spec.application == "gmm":
        return run_gmm_experiment(dataset_key)
    return run_ar_experiment(dataset_key)


def _seed_cache(dataset_key: str, result: ApplicationResult) -> None:
    if DATASETS[dataset_key].application == "gmm":
        run_gmm_experiment.cache_seed(dataset_key, result)
    else:
        run_ar_experiment.cache_seed(dataset_key, result)


def _prepare_trace_dir(trace_dir: str | Path | None) -> str | None:
    """Normalize and create the trace directory (picklable str or None)."""
    if trace_dir is None:
        return None
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def _normalize_cache_dir(cache_dir: str | Path | None) -> str | None:
    """Explicit cache dir, or the process-wide default (picklable)."""
    if cache_dir is None:
        return _default_cache_dir
    return str(cache_dir)


def _map_cells(cells, max_workers, pool: SweepPool | None, fn=_cell_worker):
    """Fan the cells out over the supplied persistent pool, or a
    one-shot :func:`process_map` when the caller holds none."""
    if pool is not None:
        return pool.map(fn, cells)
    return process_map(fn, cells, max_workers=max_workers)


def _collect_shard_rows(
    results,
) -> tuple[list[tuple[str, str, RunResult]], dict[str, list[str]]]:
    """Flatten shard results into rows, aggregating refusal notices.

    Every *distinct* refusal notice of a dataset's shards is kept, in
    first-seen order — different shards of one dataset can refuse for
    different reasons (e.g. after a mid-sweep registry change, or when
    shards route through differently-configured workers), and dropping
    all but the first would hide the extra causes from the operator.
    Duplicate notices (the common case: every shard refuses identically)
    collapse to one.
    """
    rows: list[tuple[str, str, RunResult]] = []
    fallbacks: dict[str, list[str]] = {}
    for group, fallback in results:
        rows.extend(group)
        if fallback is not None:
            notices = fallbacks.setdefault(group[0][0], [])
            if fallback not in notices:
                notices.append(fallback)
    return rows, fallbacks


def _map_rows(
    dataset_keys,
    max_workers,
    trace_dir: str | None,
    cache_dir: str | None,
    pool: SweepPool | None,
    batch_size: int | None,
) -> list[tuple[str, str, RunResult]]:
    """All ``(dataset, label, run)`` rows of the requested datasets.

    ``batch_size > 1`` routes each dataset's cells through batched
    shards (:func:`_shard_worker`); otherwise one solo cell per task.
    Shards that refused to batch surface every distinct structured
    refusal per dataset on stderr
    (``batch fallback: <dataset>: [<reason>] …``).
    """
    if batch_size and int(batch_size) > 1:
        shards = _shard_cells(dataset_keys, int(batch_size), trace_dir, cache_dir)
        results = _map_cells(shards, max_workers, pool, fn=_shard_worker)
        rows, fallbacks = _collect_shard_rows(results)
        for key in sorted(fallbacks):
            for notice in fallbacks[key]:
                sys.stderr.write(f"batch fallback: {key}: {notice}\n")
        return rows
    cells = [
        (key, label, trace_dir, cache_dir)
        for key in dataset_keys
        for label in CELL_LABELS
    ]
    return _map_cells(cells, max_workers, pool)


def run_experiment_cells(
    dataset_key: str,
    max_workers: int | None = None,
    trace_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    pool: SweepPool | None = None,
    batch_size: int | None = None,
) -> ApplicationResult:
    """One dataset's experiment matrix, sweep cells fanned out.

    Equivalent to :func:`run_experiment` — cell runs are deterministic —
    but the seven runs (truth, four static modes, two online strategies)
    execute concurrently across processes.  The assembled result is
    seeded into the memo cache for downstream reuse.  With ``trace_dir``
    every cell exports its JSONL trace there (one file per cell, written
    by the worker that ran it).  ``cache_dir`` attaches the disk-backed
    characterization cache in every worker (and in the serial
    fallback); ``pool`` reuses a caller-held :class:`SweepPool` instead
    of spinning one up per call.  ``batch_size > 1`` groups the cells
    into lane-parallel shards of at most that many lanes, each advanced
    lock-step by :meth:`~repro.core.framework.ApproxIt.run_batch` —
    results are bit-identical to solo cells (methods that refuse the
    batched path fall back to solo execution inside the shard, with the
    structured refusal reported on stderr), and traced shards export
    one lane-tagged ``<dataset>_batch_*.jsonl`` per shard instead of
    per-cell files.
    """
    trace_dir = _prepare_trace_dir(trace_dir)
    cache_dir = _normalize_cache_dir(cache_dir)
    rows = _map_rows(
        (dataset_key,), max_workers, trace_dir, cache_dir, pool, batch_size
    )
    result = _assemble(dataset_key, {label: run for _, label, run in rows})
    _seed_cache(dataset_key, result)
    return result


def run_experiments_parallel(
    dataset_keys: tuple[str, ...] | None = None,
    max_workers: int | None = None,
    trace_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    pool: SweepPool | None = None,
    batch_size: int | None = None,
) -> dict[str, ApplicationResult]:
    """Fan the whole (dataset × run-label) sweep out over a process pool.

    Args:
        dataset_keys: datasets to run; all six paper datasets when
            ``None``.
        max_workers: pool size (``None`` = all cores; ``<= 1`` = serial).
        trace_dir: when set, every cell run is traced and exported to
            ``<trace_dir>/<dataset>_<label>.jsonl``; per-cell files are
            written by per-process recorders, so this is safe under the
            pool, and each ``RunResult.trace_path`` points at its file.
        cache_dir: characterization-cache directory for every cell
            (workers included); ``None`` takes the process-wide default
            installed via :func:`set_default_cache_dir`.
        pool: a caller-held persistent :class:`SweepPool` to submit to;
            ``None`` creates a one-shot pool for this call.
        batch_size: lanes per batched shard.  ``> 1`` groups each
            dataset's compatible cells (same method, number format and
            adder bank) into shards of at most this many lanes and
            advances each shard lock-step through
            :meth:`~repro.core.framework.ApproxIt.run_batch`; each pool
            worker executes one whole shard.  Per-lane results are
            bit-identical to solo cells; methods that refuse the
            batched path fall back to solo execution inside their
            shard, with the structured refusal reported once per
            dataset on stderr.  Traced shards export one lane-tagged
            ``<dataset>_batch_*.jsonl`` per shard (filter per lane with
            ``summarize_trace(path, lane=i)``).  ``None``/``0``/``1``
            keeps the one-cell-per-task solo path.

    Returns:
        ``dataset_key -> ApplicationResult`` for every requested key,
        with the per-process memo caches seeded so that the serial
        table/figure generators reuse these runs.
    """
    if dataset_keys is None:
        dataset_keys = (*GMM_DATASETS, *AR_DATASETS)
    trace_dir = _prepare_trace_dir(trace_dir)
    cache_dir = _normalize_cache_dir(cache_dir)
    rows = _map_rows(
        dataset_keys, max_workers, trace_dir, cache_dir, pool, batch_size
    )
    by_key: dict[str, dict[str, RunResult]] = {}
    for key, label, run in rows:
        by_key.setdefault(key, {})[label] = run
    results = {}
    for key in dataset_keys:
        result = _assemble(key, by_key[key])
        _seed_cache(key, result)
        results[key] = result
    return results


def iteration_cell(run: RunResult) -> str:
    """The paper's iteration cell: the count, or ``MAX_ITER``."""
    return "MAX_ITER" if run.hit_max_iter else str(run.iterations)


def steps_row(run: RunResult, bank_names: list[str]) -> list[int]:
    """Per-mode accepted step counts in ladder order."""
    return [run.steps_by_mode.get(name, 0) for name in bank_names]
