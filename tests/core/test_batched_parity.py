"""Full-run parity: ``run_batch`` vs B solo ``run`` calls.

The batched lane-parallel engine promises *exact* equivalence, not
approximate: per-lane iterates bit-identical (``assert_array_equal``,
no tolerance), per-lane energy ledgers equal as floats (``==``), and
identical decision traces.  Solo runs are the regression oracle — every
assertion here compares against a fresh ``framework.run(spec)``.

Coverage crosses the incremental strategy with mixed convergence times
(a ``static:level2`` CG lane hits MAX_ITER while its neighbours
converge and freeze) and at least two adder modes per batch, plus the
lane-tagged trace events (`detail["lane"]`) that let
``summarize_trace(..., lane=i)`` reconstruct a single lane's counters.
"""

import numpy as np
import pytest

from repro.apps import GaussianMixtureEM
from repro.core.framework import ApproxIt
from repro.core.strategies import IncrementalStrategy
from repro.obs import TraceRecorder, render_trace, summarize_trace
from repro.solvers import (
    ConjugateGradient,
    GaussSeidelSolver,
    GradientDescent,
    JacobiSolver,
    LeastSquaresGD,
    QuadraticFunction,
    RedBlackGaussSeidelSolver,
    RedBlackSorSolver,
    RosenbrockFunction,
    SorSolver,
)

#: Lane specs crossing both online strategies, Truth, and a static
#: approximate mode — at least two adder modes active in every batch,
#: with "incremental" appearing twice to exercise distinct policy
#: instances of the same spec.
SPECS = ("incremental", "truth", "static:level2", "adaptive", "incremental")


def _jacobi_framework(**kwargs):
    rng = np.random.default_rng(11)
    n = 28
    A = rng.uniform(-1.0, 1.0, (n, n))
    A += n * np.eye(n)
    b = rng.uniform(-5.0, 5.0, n)
    return ApproxIt(JacobiSolver(A, b, max_iter=150), **kwargs)


def _cg_framework():
    rng = np.random.default_rng(5)
    n = 20
    A = rng.uniform(-1.0, 1.0, (n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.uniform(-3.0, 3.0, n)
    return ApproxIt(ConjugateGradient(A, b, max_iter=80))


def _gd_quadratic_framework():
    rng = np.random.default_rng(9)
    n = 12
    A = rng.uniform(-0.5, 0.5, (n, n))
    A = A @ A.T + n * np.eye(n)
    return ApproxIt(
        GradientDescent(
            QuadraticFunction(A, rng.uniform(-2.0, 2.0, n)),
            learning_rate=0.02,
            max_iter=120,
        )
    )


def _gd_rosenbrock_framework():
    return ApproxIt(
        GradientDescent(
            RosenbrockFunction(dim=4),
            x0=np.full(4, 0.3),
            learning_rate=0.002,
            max_iter=100,
        )
    )


def _lsq_framework():
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, (60, 6))
    w = rng.uniform(-2.0, 2.0, 6)
    y = X @ w + rng.normal(0, 0.01, 60)
    return ApproxIt(LeastSquaresGD(X, y, max_iter=200))


def assert_lane_matches_solo(batch_run, solo_run):
    np.testing.assert_array_equal(batch_run.x, solo_run.x)
    assert batch_run.objective == solo_run.objective
    assert batch_run.iterations == solo_run.iterations
    assert batch_run.rollbacks == solo_run.rollbacks
    assert batch_run.converged == solo_run.converged
    assert batch_run.hit_max_iter == solo_run.hit_max_iter
    assert batch_run.steps_by_mode == solo_run.steps_by_mode
    # Energy is exact float equality, not approx — the ledger contract.
    assert batch_run.energy == solo_run.energy
    assert batch_run.energy_by_mode == solo_run.energy_by_mode
    assert batch_run.strategy_name == solo_run.strategy_name
    assert batch_run.mode_trace == solo_run.mode_trace
    assert batch_run.objective_trace == solo_run.objective_trace


@pytest.mark.parametrize(
    "make_framework",
    [
        _jacobi_framework,
        _cg_framework,
        _gd_quadratic_framework,
        _gd_rosenbrock_framework,
        _lsq_framework,
    ],
    ids=["jacobi", "cg", "gd-quadratic", "gd-rosenbrock", "least-squares"],
)
def test_run_batch_matches_solo_runs_exactly(make_framework):
    framework = make_framework()
    batch = framework.run_batch(list(SPECS))
    assert len(batch) == len(SPECS)
    for spec, batch_run in zip(SPECS, batch):
        assert_lane_matches_solo(batch_run, framework.run(strategy=spec))


def test_parity_with_reconfiguration_energy():
    """Mode switches charge reconfiguration energy per lane, exactly as
    a solo run charges it."""
    framework = _jacobi_framework(switch_energy=0.5)
    batch = framework.run_batch(list(SPECS))
    for spec, batch_run in zip(SPECS, batch):
        assert_lane_matches_solo(batch_run, framework.run(strategy=spec))


def test_mixed_convergence_freezes_finished_lanes():
    """Lanes converging at different steps: under a tight budget the
    incremental CG lane runs to MAX_ITER while Truth converges early,
    freezes, and stops being charged — every lane still matches its
    solo run exactly."""
    framework = _cg_framework()
    batch = framework.run_batch(list(SPECS), max_iter=10)
    by_spec = dict(zip(SPECS, batch))
    assert by_spec["incremental"].hit_max_iter
    assert by_spec["truth"].converged
    assert (
        by_spec["truth"].executed_iterations
        < by_spec["incremental"].executed_iterations
    )
    for spec, batch_run in zip(SPECS, batch):
        assert_lane_matches_solo(
            batch_run, framework.run(strategy=spec, max_iter=10)
        )


def test_history_collection_matches_solo():
    framework = _jacobi_framework()
    batch = framework.run_batch(["incremental", "truth"], collect_history=True)
    for spec, batch_run in zip(("incremental", "truth"), batch):
        solo = framework.run(strategy=spec, collect_history=True)
        assert len(batch_run.history) == len(solo.history)
        for got, want in zip(batch_run.history, solo.history):
            np.testing.assert_array_equal(got.x, want.x)
            assert got.mode_name == want.mode_name


class TestBatchTracing:
    def test_events_carry_lane_ids(self):
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="batch")
        batch = framework.run_batch(list(SPECS), observer=recorder)
        lanes_seen = {
            event.detail.get("lane")
            for event in recorder.events
            if event.kind == "iteration"
        }
        assert lanes_seen == set(range(len(SPECS)))
        assert len(batch) == len(SPECS)

    def test_summarize_trace_reconstructs_each_lane(self):
        framework = _jacobi_framework(switch_energy=0.25)
        recorder = TraceRecorder(label="batch")
        batch = framework.run_batch(list(SPECS), observer=recorder)
        for lane, run in enumerate(batch):
            summary = summarize_trace(recorder.events, lane=lane)
            assert summary.iterations == run.iterations
            assert summary.rollbacks == run.rollbacks
            assert summary.mode_switches == run.mode_switches
            # summarize_trace only sees modes that accepted iterations;
            # RunResult carries zero entries for the whole bank.
            assert summary.steps_by_mode == {
                m: c for m, c in run.steps_by_mode.items() if c
            }
            # A final rolled-back-on-accurate iteration is executed but
            # counted in neither RunResult.iterations nor .rollbacks
            # (solo runs trace the same way), so the event count may
            # exceed the RunResult total by at most one.
            assert (
                run.executed_iterations
                <= summary.executed_iterations
                <= run.executed_iterations + 1
            )

    def test_lane_filtered_summary_matches_solo_trace(self):
        """Filtering the batch trace to one lane yields the same
        counters as tracing that lane's solo run.  Both runs are
        interpreted (capture off) so neither side carries program_*
        events; capture-on parity is covered by
        ``TestBatchedReplayParity``."""
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="batch")
        framework.run_batch(list(SPECS), observer=recorder, program_capture=False)
        solo_recorder = TraceRecorder(label="solo")
        framework.run(
            strategy="incremental",
            observer=solo_recorder,
            program_capture=False,
        )
        batch_summary = summarize_trace(recorder.events, lane=0)
        solo_summary = summarize_trace(solo_recorder.events)
        assert batch_summary == solo_summary

    @pytest.mark.parametrize("capture", [False, True])
    def test_lane_event_stream_equals_solo_event_stream(self, capture):
        """Each lane's events, with the lane tag dropped, are exactly
        the events of that lane's solo run.  The lanes cover every
        control event kind; with capture on, program events and
        execution tags are dropped because a lane group captures and
        replays on a different schedule than a solo run."""
        rng = np.random.default_rng(0)
        n = 16
        A = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        b = rng.uniform(-5.0, 5.0, n)
        framework = ApproxIt(JacobiSolver(A, b, max_iter=150), switch_energy=0.25)
        lane_specs = [
            lambda: "incremental",
            lambda: IncrementalStrategy(use_quality_scheme=False),
            lambda: "truth",
            lambda: "static:level2",
            lambda: "adaptive",
        ]

        def stream(events, lane=None):
            out = []
            for event in events:
                if capture and event.kind.startswith("program_"):
                    continue
                payload = event.to_dict()
                detail = payload.get("detail", {})
                if lane is not None:
                    if detail.get("lane") != lane:
                        continue
                    del detail["lane"]
                if capture:
                    detail.pop("execution", None)
                    detail.pop("lanes", None)
                out.append(payload)
            return out

        recorder = TraceRecorder(label="batch")
        framework.run_batch(
            [make() for make in lane_specs],
            observer=recorder,
            program_capture=capture,
        )
        kinds = set()
        for lane, make in enumerate(lane_specs):
            solo = TraceRecorder(label="solo")
            framework.run(make(), observer=solo, program_capture=capture)
            expected = stream(solo.events)
            assert stream(recorder.events, lane) == expected
            kinds.update(payload["kind"] for payload in expected)
        assert kinds == {
            "iteration",
            "scheme_fired",
            "mode_switch",
            "reconfig_charge",
            "lut_refresh",
            "rollback",
            "convergence_handover",
        }

    def test_render_trace_lane_filter(self):
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="batch")
        batch = framework.run_batch(["incremental", "truth"], observer=recorder)
        text = render_trace(recorder.events, lane=1)
        assert f"{batch[1].executed_iterations} executed iterations" in text

    def test_observed_run_is_bit_identical_to_unobserved(self):
        framework = _jacobi_framework()
        plain = framework.run_batch(list(SPECS))
        observed = framework.run_batch(
            list(SPECS), observer=TraceRecorder(label="x")
        )
        for p, o in zip(plain, observed):
            np.testing.assert_array_equal(p.x, o.x)
            assert p.energy == o.energy
            assert p.energy_by_mode == o.energy_by_mode


class TestRunBatchValidation:
    def test_supports_batching_reflects_method(self):
        assert _jacobi_framework().supports_batching()
        rng = np.random.default_rng(2)
        n = 10
        A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        b = rng.uniform(-1, 1, n)

        # Lexicographic Gauss–Seidel is batchable since the per-lane
        # triangular-solve adapter landed; an unknown subclass that
        # overrides a loop hook is the canonical refusal.
        assert ApproxIt(GaussSeidelSolver(A, b)).supports_batching()

        class DampedJacobi(JacobiSolver):
            def direction(self, x, engine):
                return 0.5 * super().direction(x, engine)

        damped = ApproxIt(DampedJacobi(A, b))
        assert not damped.supports_batching()
        support = damped.batching_support()
        assert not support
        assert support.reason is not None
        assert support.reason.value == "overridden-hooks"
        assert "direction" in support.message
        with pytest.raises(ValueError, match="no batched kernels"):
            damped.run_batch(["incremental"])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            _jacobi_framework().run_batch([])

    def test_repeated_strategy_instance_rejected(self):
        framework = _jacobi_framework()
        policy = framework.resolve_strategy("incremental")
        with pytest.raises(ValueError, match="same strategy instance"):
            framework.run_batch([policy, policy])

    def test_max_iter_override_matches_solo(self):
        framework = _jacobi_framework()
        batch = framework.run_batch(["static:level4"], max_iter=7)
        solo = framework.run(strategy="static:level4", max_iter=7)
        assert_lane_matches_solo(batch[0], solo)

    def test_single_lane_batch(self):
        framework = _lsq_framework()
        batch = framework.run_batch(["incremental"])
        assert_lane_matches_solo(
            batch[0], framework.run(strategy="incremental")
        )


# ----------------------------------------------------------------------
# Batched program capture & replay (the perf path over run_batch)
# ----------------------------------------------------------------------


def _linear_system(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    A += n * np.eye(n)
    b = rng.uniform(-5.0, 5.0, n)
    return A, b


def _gs_framework():
    A, b = _linear_system(3, 16)
    return ApproxIt(GaussSeidelSolver(A, b, max_iter=80))


def _sor_framework():
    A, b = _linear_system(7, 16)
    return ApproxIt(SorSolver(A, b, omega=1.2, max_iter=80))


def _gs_rb_framework():
    A, b = _linear_system(3, 16)
    return ApproxIt(RedBlackGaussSeidelSolver(A, b, max_iter=80))


def _sor_rb_framework():
    A, b = _linear_system(7, 17)
    return ApproxIt(RedBlackSorSolver(A, b, omega=1.3, max_iter=80))


def _gmm_framework():
    rng = np.random.default_rng(31)
    points = np.concatenate(
        [
            rng.normal(-2.0, 0.4, (40, 2)),
            rng.normal(2.0, 0.5, (40, 2)),
        ]
    )
    return ApproxIt(GaussianMixtureEM(points, n_clusters=2, max_iter=30))


#: Every batchable solver family (the newly admitted GS/SOR/red-black/
#: GMM included) that also takes the replay path.
REPLAY_FACTORIES = {
    "jacobi": _jacobi_framework,
    "gauss-seidel": _gs_framework,
    "sor": _sor_framework,
    "gauss-seidel-rb": _gs_rb_framework,
    "sor-rb": _sor_rb_framework,
    "gd-quadratic": _gd_quadratic_framework,
    "least-squares": _lsq_framework,
    "gmm": _gmm_framework,
}


class TestBatchedReplayParity:
    """Capture-on ``run_batch`` vs the solo *interpreted* oracle.

    The replay engine's contract is the strongest in the repo: per-lane
    results bit-identical to a solo ``run(program_capture=False)`` and
    per-lane energy ledgers equal as floats — capture and replay must be
    perfectly invisible, across mode switches, lane-group regrouping,
    and rollback invalidation."""

    @pytest.mark.parametrize("strategy", ["incremental", "adaptive"])
    @pytest.mark.parametrize(
        "solver", sorted(REPLAY_FACTORIES), ids=sorted(REPLAY_FACTORIES)
    )
    def test_every_batchable_solver_matches_interpreted_solo(
        self, solver, strategy
    ):
        framework = REPLAY_FACTORIES[solver]()
        specs = [strategy, "truth", "static:level2"]
        batch = framework.run_batch(specs, program_capture=True)
        for spec, batch_run in zip(specs, batch):
            solo = framework.run(strategy=spec, program_capture=False)
            assert_lane_matches_solo(batch_run, solo)

    def test_full_spec_cross_matches_interpreted_solo(self):
        """The five-spec mixed batch (two adder modes, duplicate
        incremental lanes) under capture, vs interpreted solo lanes."""
        for make in (_jacobi_framework, _gs_rb_framework):
            framework = make()
            batch = framework.run_batch(list(SPECS), program_capture=True)
            for spec, batch_run in zip(SPECS, batch):
                assert_lane_matches_solo(
                    batch_run,
                    framework.run(strategy=spec, program_capture=False),
                )

    def test_replays_actually_happen_per_mode_group(self):
        """Vacuous-parity guard: the lock-step loop must capture once
        per (mode) lane-group and drive later iterations by replay."""
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="replay")
        framework.run_batch(list(SPECS), observer=recorder, program_capture=True)
        counters = recorder.metrics.counters
        assert counters.get("program.captures", 0) >= 1
        assert counters.get("program.replays", 0) >= counters["program.captures"]
        group_captures = {
            name: count
            for name, count in counters.items()
            if name.startswith("program.group.") and name.endswith(".captures")
        }
        group_replays = {
            name: count
            for name, count in counters.items()
            if name.startswith("program.group.") and name.endswith(".replays")
        }
        assert group_captures, "expected per-lane-group capture counters"
        assert sum(group_captures.values()) == counters["program.captures"]
        assert sum(group_replays.values()) == counters["program.replays"]

    def test_mode_switches_under_capture_stay_exact(self):
        """Mid-run reconfigurations (switch energy charged) regroup the
        lanes across per-mode programs without breaking parity."""
        framework = _jacobi_framework(switch_energy=0.5)
        batch = framework.run_batch(list(SPECS), program_capture=True)
        switched = [run for run in batch if run.mode_switches >= 1]
        assert switched, "expected at least one lane to reconfigure"
        for spec, batch_run in zip(SPECS, batch):
            assert_lane_matches_solo(
                batch_run, framework.run(strategy=spec, program_capture=False)
            )

    def test_rollback_re_records_under_batching(self):
        """A lane-group rollback invalidates every engine's program; the
        next iteration on any mode re-records instead of replaying a
        stale program, and parity holds through the rollback."""
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="rb")
        batch = framework.run_batch(
            list(SPECS), observer=recorder, program_capture=True
        )
        assert any(run.rollbacks >= 1 for run in batch), (
            "workload must roll back naturally"
        )
        assert recorder.metrics.counters.get("program.captures", 0) >= 2, (
            "post-rollback iterations must re-record, not replay stale "
            "programs"
        )
        for spec, batch_run in zip(SPECS, batch):
            assert_lane_matches_solo(
                batch_run, framework.run(strategy=spec, program_capture=False)
            )

    def test_remainder_lane_group_reuses_program(self):
        """Satellite: when a lane-group's membership changes — lanes
        join as the incremental lane climbs onto the accurate mode,
        lanes leave as they converge and freeze — the remaining
        (partial) group keeps replaying the program captured at the
        original group size.  The program's charges are lane-count
        independent, so no re-capture is needed."""
        framework = _lsq_framework()
        recorder = TraceRecorder(label="remainder")
        specs = ["truth", "incremental"]
        batch = framework.run_batch(
            specs, observer=recorder, program_capture=True
        )
        assert all(run.rollbacks == 0 for run in batch), (
            "workload must not roll back (rollbacks legitimately "
            "invalidate programs)"
        )
        executed = {run.executed_iterations for run in batch}
        assert len(executed) > 1, "lanes must converge at different times"
        counters = recorder.metrics.counters
        # The accurate mode's group gains the incremental lane mid-run
        # and loses the truth lane when it freezes, yet the mode's
        # program is captured exactly once for the whole run.
        assert counters.get("program.group.acc.captures", 0) == 1
        assert counters.get("program.group.acc.replays", 0) >= 10
        for spec, batch_run in zip(specs, batch):
            assert_lane_matches_solo(
                batch_run, framework.run(strategy=spec, program_capture=False)
            )

    def test_cg_stays_interpreted_under_capture(self):
        """CG's mid-iteration lane sub-selection makes its kernels
        non-replayable: a capture-on batch must run interpreted (no
        program events) and still match solo exactly."""
        framework = _cg_framework()
        recorder = TraceRecorder(label="cg")
        batch = framework.run_batch(
            list(SPECS), observer=recorder, program_capture=True
        )
        assert recorder.metrics.counters.get("program.captures", 0) == 0
        for spec, batch_run in zip(SPECS, batch):
            assert_lane_matches_solo(
                batch_run, framework.run(strategy=spec, program_capture=False)
            )

    def test_lane_trace_carries_program_events(self):
        """Batched program events are lane-tagged: each lane of a
        capturing group records a program_capture event carrying the
        group size, and summarize_trace folds them per lane."""
        framework = _jacobi_framework()
        recorder = TraceRecorder(label="events")
        batch = framework.run_batch(
            ["static:level2", "static:level2"], observer=recorder,
            program_capture=True,
        )
        for lane in range(2):
            summary = summarize_trace(recorder.events, lane=lane)
            assert summary.program_captures >= 1
            assert summary.program_replays >= 1
        captures = [
            e for e in recorder.events if e.kind == "program_capture"
        ]
        assert captures and all(
            e.detail.get("lanes") == 2 and e.detail.get("steps", 0) > 0
            for e in captures
        )
        assert len(batch) == 2
