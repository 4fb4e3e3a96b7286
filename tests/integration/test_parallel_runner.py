"""The parallel experiment runner: same results, different schedule.

``process_map`` must behave exactly like a serial list comprehension
(ordering, exceptions, fallback), and the cell-level fan-out of
``run_experiment_cells`` / ``run_experiments_parallel`` must assemble
``ApplicationResult``s indistinguishable from the serial
``run_experiment`` path — cell runs are deterministic, so this is an
equality check, not a tolerance check.

The mini-registry tests pin ``max_workers=1``: the monkeypatched
dataset registry only exists in this process, so they exercise the
serial branch; the pool branch is exercised with a picklable pure
function instead.
"""

import warnings

import numpy as np
import pytest

import repro.data.registry as registry_module
import repro.experiments.runner as runner_module
from repro.data.clusters import make_cluster_dataset
from repro.data.registry import DATASETS, DatasetSpec
from repro.experiments.parallel import SweepPool, default_workers, process_map
from repro.experiments.runner import (
    CELL_LABELS,
    run_experiment,
    run_experiment_cells,
    run_experiments_parallel,
    run_gmm_experiment,
)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _os_boom(x):
    raise OSError(f"fn-level os failure {x}")


class _InProcessPool:
    """``ProcessPoolExecutor`` stand-in that maps in the test process.

    Lets the pool-path tests observe call counts and raise from ``fn``
    deterministically, without depending on fork working in the test
    environment.
    """

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]

    def shutdown(self, wait=True):
        return None


class TestProcessMap:
    def test_serial_path(self):
        assert process_map(_square, [1, 2, 3], max_workers=1) == [1, 4, 9]

    def test_empty_and_single(self):
        assert process_map(_square, [], max_workers=4) == []
        assert process_map(_square, [5], max_workers=4) == [25]

    def test_pool_path_preserves_order(self):
        # Falls back serially (with a warning) where pools are blocked;
        # results are identical either way.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert process_map(_square, list(range(20)), max_workers=2) == [
                x * x for x in range(20)
            ]

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            process_map(_boom, [1], max_workers=1)

    def test_worker_oserror_is_not_a_pool_failure(self, monkeypatch):
        """Regression: an ``OSError`` raised *inside* ``fn`` used to be
        mistaken for "process pool unavailable" and silently retried
        serially — duplicating every cell's side effects.  It must
        propagate as the caller's error, with no warning and no rerun."""
        import repro.experiments.parallel as parallel_module

        calls = []

        def counting_os_boom(x):
            calls.append(x)
            raise OSError(f"fn-level os failure {x}")

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", _InProcessPool
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails the test
            with pytest.raises(OSError, match="fn-level os failure"):
                process_map(counting_os_boom, [1, 2, 3], max_workers=2)
        assert calls == [1, 2, 3]  # one pass over the work list, no serial rerun

    def test_worker_exception_propagates_from_real_pool(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(OSError, match="fn-level os failure"):
                process_map(_os_boom, [1, 2], max_workers=2)

    def test_pool_construction_failure_falls_back_serially(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        def exploding_pool(*args, **kwargs):
            raise OSError("fork blocked")

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", exploding_pool
        )
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert process_map(_square, [1, 2, 3], max_workers=2) == [1, 4, 9]


class TestDefaultWorkers:
    def test_prefers_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert default_workers() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def no_affinity(pid):
            raise AttributeError("no sched_getaffinity here")

        monkeypatch.setattr("os.sched_getaffinity", no_affinity, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert default_workers() == 6

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(), raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert default_workers() == 1


class TestSweepPool:
    def test_pool_is_reused_across_maps(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        built = []

        def tracking_pool(*args, **kwargs):
            built.append(kwargs)
            return _InProcessPool(**kwargs)

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", tracking_pool)
        with SweepPool(max_workers=2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.map(_square, [4, 5]) == [16, 25]
        assert len(built) == 1  # one executor for both maps

    def test_serial_inputs_never_touch_multiprocessing(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        def exploding_pool(*args, **kwargs):
            raise AssertionError("pool must not be created")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", exploding_pool)
        with SweepPool(max_workers=1) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        with SweepPool(max_workers=4) as pool:
            assert pool.map(_square, [7]) == [49]
            assert pool.map(_square, []) == []

    def test_fallback_is_sticky(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        attempts = []

        def exploding_pool(*args, **kwargs):
            attempts.append(1)
            raise OSError("fork blocked")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", exploding_pool)
        with SweepPool(max_workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                assert pool.map(_square, [1, 2]) == [1, 4]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second map: no retry, no warning
                assert pool.map(_square, [3, 4]) == [9, 16]
        assert len(attempts) == 1

    def test_worker_exception_reraised_not_retried(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        calls = []

        def counting_boom(x):
            calls.append(x)
            raise OSError(f"fn-level os failure {x}")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _InProcessPool)
        with SweepPool(max_workers=2) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OSError, match="fn-level os failure"):
                    pool.map(counting_boom, [1, 2, 3])
            assert not pool._serial_fallback  # fn's error is not a pool failure
        assert calls == [1, 2, 3]

    def test_close_is_idempotent(self):
        pool = SweepPool(max_workers=2)
        pool.close()
        pool.close()
        with SweepPool(max_workers=2) as ctx_pool:
            pass
        ctx_pool.close()

    def test_explicit_chunk_size_balances_chunks(self, monkeypatch):
        """``chunk_size`` fixes the chunk *count*; items spread evenly.

        12 items at ``chunk_size=5`` used to ship as ``[5, 5, 2]`` —
        one worker finished early while another held a full chunk.  The
        balanced split is ``[4, 4, 4]``: same chunk count, sizes
        differing by at most one.
        """
        import repro.experiments.parallel as parallel_module

        seen = []

        class ChunkRecordingPool(_InProcessPool):
            def map(self, fn, items, chunksize=1):
                seen.extend(len(chunk) for chunk in items)
                return super().map(fn, items, chunksize)

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", ChunkRecordingPool
        )
        with SweepPool(max_workers=2, chunk_size=5) as pool:
            assert pool.map(_square, list(range(12))) == [
                x * x for x in range(12)
            ]
        assert seen == [4, 4, 4]

    def test_uneven_chunks_stay_balanced_and_ordered(self, monkeypatch):
        """When the work list does not divide evenly, chunk sizes differ
        by at most one and flattened results keep submission order."""
        import repro.experiments.parallel as parallel_module

        seen = []

        class ChunkRecordingPool(_InProcessPool):
            def map(self, fn, items, chunksize=1):
                seen.extend(len(chunk) for chunk in items)
                return super().map(fn, items, chunksize)

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", ChunkRecordingPool
        )
        with SweepPool(max_workers=3, chunk_size=4) as pool:
            assert pool.map(_square, list(range(11))) == [
                x * x for x in range(11)
            ]
        assert seen == [4, 4, 3]  # ceil(11/4)=3 chunks, sizes differ by <= 1
        assert max(seen) - min(seen) <= 1

    def test_default_chunking_covers_all_items_in_order(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _InProcessPool)
        for n in (2, 3, 7, 9, 17, 40):
            with SweepPool(max_workers=2) as pool:
                assert pool.map(_square, list(range(n))) == [
                    x * x for x in range(n)
                ]

    def test_process_map_matches_pool_map(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _InProcessPool)
        items = list(range(10))
        with SweepPool(max_workers=3) as pool:
            assert pool.map(_square, items) == process_map(
                _square, items, max_workers=3
            )


@pytest.fixture()
def mini_gmm_registry(monkeypatch):
    def mini_clusters():
        return make_cluster_dataset(
            "miniP",
            sizes=[40, 40, 40],
            means=np.array([[0.0, 0.0], [4.0, 3.0], [-3.0, 4.0]]),
            spreads=[1.0, 1.0, 1.0],
            seed=41,
            max_iter=200,
            tolerance=1e-7,
        )

    registry = dict(DATASETS)
    registry["minip"] = DatasetSpec(
        key="minip",
        display_name="miniP",
        application="gmm",
        shape="120*2",
        source="test",
        max_iter=200,
        tolerance=1e-7,
        adder_impact="Mean Value",
        factory=mini_clusters,
    )
    monkeypatch.setattr(runner_module, "DATASETS", registry)
    monkeypatch.setattr(registry_module, "DATASETS", registry)
    run_gmm_experiment.cache_clear()
    yield registry
    run_gmm_experiment.cache_clear()


def _assert_same_result(got, want):
    assert got.dataset_key == want.dataset_key
    np.testing.assert_array_equal(got.truth.x, want.truth.x)
    assert got.truth.energy == pytest.approx(want.truth.energy)
    assert set(got.single_mode) == set(want.single_mode)
    assert set(got.online) == set(want.online)
    for label in (*got.single_mode, *got.online):
        g, w = got.run_of(label), want.run_of(label)
        np.testing.assert_array_equal(g.x, w.x)
        assert g.iterations == w.iterations
        assert g.energy == pytest.approx(w.energy)
        assert g.steps_by_mode == w.steps_by_mode
    assert got.qem == pytest.approx(want.qem)


class TestCellRunner:
    def test_cells_match_serial_experiment(self, mini_gmm_registry):
        serial = run_experiment("minip")
        run_gmm_experiment.cache_clear()
        celled = run_experiment_cells("minip", max_workers=1)
        _assert_same_result(celled, serial)

    def test_cells_seed_the_memo_cache(self, mini_gmm_registry):
        result = run_experiment_cells("minip", max_workers=1)
        assert run_experiment("minip") is result

    def test_run_experiments_parallel_covers_requested_keys(
        self, mini_gmm_registry
    ):
        results = run_experiments_parallel(
            dataset_keys=("minip",), max_workers=1
        )
        assert set(results) == {"minip"}
        assert set(results["minip"].single_mode) | set(
            results["minip"].online
        ) | {"truth"} == set(CELL_LABELS)
        assert run_gmm_experiment("minip") is results["minip"]

    def test_unknown_label_rejected(self, mini_gmm_registry):
        framework, _ = runner_module.build_framework("minip")
        with pytest.raises(KeyError, match="unknown cell label"):
            runner_module._run_cell(framework, "nonsense")

    def test_traced_cells_export_jsonl_and_stay_identical(
        self, mini_gmm_registry, tmp_path
    ):
        from repro.obs import load_trace, summarize_trace

        plain = run_experiment_cells("minip", max_workers=1)
        run_gmm_experiment.cache_clear()
        traced = run_experiment_cells(
            "minip", max_workers=1, trace_dir=tmp_path / "traces"
        )
        _assert_same_result(traced, plain)
        for label in CELL_LABELS:
            run = traced.run_of(label)
            assert run.trace_path is not None
            assert run.trace_path.endswith(f"minip_{label}.jsonl")
            trace = load_trace(run.trace_path)
            assert trace.meta["dataset"] == "minip"
            summary = summarize_trace(trace)
            assert summary.iterations == run.iterations
            assert summary.rollbacks == run.rollbacks
            assert summary.mode_switches == run.mode_switches
        # The untraced assembly left no paths behind.
        assert plain.run_of("incremental").trace_path is None

    def test_cache_dir_populates_and_stays_identical(
        self, mini_gmm_registry, tmp_path
    ):
        plain = run_experiment_cells("minip", max_workers=1)
        run_gmm_experiment.cache_clear()
        cache_root = tmp_path / "char"
        cold = run_experiment_cells("minip", max_workers=1, cache_dir=cache_root)
        assert list(cache_root.glob("*.json")), "cache dir not populated"
        run_gmm_experiment.cache_clear()
        warm = run_experiment_cells("minip", max_workers=1, cache_dir=cache_root)
        _assert_same_result(cold, plain)
        _assert_same_result(warm, plain)

    def test_default_cache_dir_reaches_serial_cells(
        self, mini_gmm_registry, tmp_path
    ):
        from repro.experiments.runner import set_default_cache_dir

        cache_root = tmp_path / "default-char"
        set_default_cache_dir(cache_root)
        try:
            run_experiment_cells("minip", max_workers=1)
        finally:
            set_default_cache_dir(None)
        assert list(cache_root.glob("*.json")), "default cache dir not honored"

    def test_unbatchable_dataset_falls_back_to_solo_cells(
        self, mini_gmm_registry, monkeypatch, capsys
    ):
        """A method that refuses the batched path (GMM batches natively
        now, so the refusal is injected) must fall back to per-cell
        solo runs inside the shard, never call run_batch, produce
        identical results, and surface the structured refusal on
        stderr."""
        from repro.core.framework import ApproxIt
        from repro.solvers.batched import BatchRefusal, BatchSupport

        plain = run_experiment_cells("minip", max_workers=1)
        run_gmm_experiment.cache_clear()

        def exploding_run_batch(self, *args, **kwargs):
            raise AssertionError("run_batch must not be called when refused")

        def refusing_support(self):
            return BatchSupport(
                False, BatchRefusal.NO_ADAPTER, "injected refusal"
            )

        monkeypatch.setattr(ApproxIt, "run_batch", exploding_run_batch)
        monkeypatch.setattr(ApproxIt, "batching_support", refusing_support)
        sharded = run_experiment_cells("minip", max_workers=1, batch_size=7)
        _assert_same_result(sharded, plain)
        err = capsys.readouterr().err
        assert "batch fallback: minip: [no-adapter] injected refusal" in err

    def test_batched_shards_match_solo_cells_exactly(
        self, tmp_path, monkeypatch
    ):
        """An AR dataset routes through run_batch: bit-identical runs,
        exactly equal energy, and one lane-tagged trace per shard."""
        from repro.core.framework import ApproxIt
        from repro.experiments.runner import run_ar_experiment
        from repro.obs import load_trace, summarize_trace

        run_ar_experiment.cache_clear()
        try:
            plain = run_experiment_cells("hangseng", max_workers=1)
            run_ar_experiment.cache_clear()

            calls = []
            solo_run_batch = ApproxIt.run_batch

            def counting_run_batch(self, strategies, *args, **kwargs):
                calls.append(len(list(strategies)))
                return solo_run_batch(self, strategies, *args, **kwargs)

            monkeypatch.setattr(ApproxIt, "run_batch", counting_run_batch)
            sharded = run_experiment_cells(
                "hangseng",
                max_workers=1,
                batch_size=7,
                trace_dir=tmp_path / "traces",
            )
            assert calls == [7]  # one shard, all seven cells as lanes
            _assert_same_result(sharded, plain)
            for label in CELL_LABELS:
                # The parity contract is exact equality, not approx.
                assert sharded.run_of(label).energy == plain.run_of(label).energy
                assert (
                    sharded.run_of(label).energy_by_mode
                    == plain.run_of(label).energy_by_mode
                )

            path = sharded.run_of("incremental").trace_path
            assert path.endswith("hangseng_batch_truth_adaptive.jsonl")
            trace = load_trace(path)
            assert trace.meta["lanes"] == 7
            assert trace.meta["run_labels"] == list(CELL_LABELS)
            lane = CELL_LABELS.index("incremental")
            summary = summarize_trace(trace, lane=lane)
            assert summary.iterations == sharded.run_of("incremental").iterations
            assert summary.rollbacks == sharded.run_of("incremental").rollbacks

            # A batch size that does not divide the seven cells leaves a
            # remainder shard — both shards (full and partial) must still
            # match the solo oracle exactly.
            run_ar_experiment.cache_clear()
            calls.clear()
            remainder = run_experiment_cells(
                "hangseng", max_workers=1, batch_size=4
            )
            assert calls == [4, 3]  # full shard + remainder shard
            _assert_same_result(remainder, plain)
        finally:
            run_ar_experiment.cache_clear()

    def test_caller_held_pool_is_used(self, mini_gmm_registry, tmp_path):
        class RecordingPool(SweepPool):
            def __init__(self):
                super().__init__(max_workers=1)
                self.mapped = 0

            def map(self, fn, items):
                self.mapped += 1
                return super().map(fn, items)

        plain = run_experiment_cells("minip", max_workers=1)
        run_gmm_experiment.cache_clear()
        with RecordingPool() as pool:
            pooled = run_experiment_cells("minip", pool=pool)
        assert pool.mapped == 1
        _assert_same_result(pooled, plain)


class TestShardFallbackAggregation:
    """Regression: `_collect_shard_rows` must keep *every* distinct
    refusal notice per dataset.  The pre-fix code used
    ``fallbacks.setdefault(key, fallback)``, which silently dropped all
    but the first shard's reason — a dataset whose shards refused for
    different causes reported only one of them."""

    @staticmethod
    def _shard(dataset, labels, fallback):
        return ([(dataset, label, object()) for label in labels], fallback)

    def test_all_distinct_notices_survive(self):
        from repro.experiments.runner import _collect_shard_rows

        results = [
            self._shard("alpha", ["t", "inc"], "[no-adapter] first reason"),
            self._shard("alpha", ["ada"], "[lut-refresh] second reason"),
            self._shard("beta", ["t"], None),
        ]
        rows, fallbacks = _collect_shard_rows(results)
        assert len(rows) == 4
        assert fallbacks == {
            "alpha": [
                "[no-adapter] first reason",
                "[lut-refresh] second reason",
            ]
        }

    def test_identical_notices_dedupe(self):
        from repro.experiments.runner import _collect_shard_rows

        results = [
            self._shard("alpha", ["t"], "[no-adapter] same"),
            self._shard("alpha", ["inc"], "[no-adapter] same"),
        ]
        _, fallbacks = _collect_shard_rows(results)
        assert fallbacks == {"alpha": ["[no-adapter] same"]}

    def test_no_fallbacks_yields_empty_mapping(self):
        from repro.experiments.runner import _collect_shard_rows

        results = [self._shard("alpha", ["t", "inc"], None)]
        rows, fallbacks = _collect_shard_rows(results)
        assert len(rows) == 2
        assert fallbacks == {}

    def test_rows_preserve_shard_order(self):
        from repro.experiments.runner import _collect_shard_rows

        results = [
            self._shard("alpha", ["t", "inc"], None),
            self._shard("beta", ["t"], "[no-adapter] reason"),
        ]
        rows, _ = _collect_shard_rows(results)
        assert [(dataset, label) for dataset, label, _ in rows] == [
            ("alpha", "t"),
            ("alpha", "inc"),
            ("beta", "t"),
        ]
