"""The online loop's state rule, against stateless twins.

A method whose ``evaluate`` returns a state gets that state back in
``gradient`` and the next ``direction``.  The rule: an accepted
iterate's state replaces the lane's, a rolled-back candidate's is
dropped, and the retry reads the accepted iterate's.  A twin that keeps
the base class's stateless ``evaluate`` recomputes everything from
``x``, so any state the loop mishandles shows up as a difference in the
run.  Every configuration here rolls back at least once.
"""

from __future__ import annotations

import pytest

from repro.apps.gmm import GaussianMixtureEM
from repro.apps.pagerank import PageRank
from repro.core.framework import ApproxIt
from repro.data.registry import load_dataset
from repro.obs.observer import TraceRecorder
from repro.solvers.base import IterativeMethod
from repro.solvers.batched import _BatchedGmm


class _StatelessGmm(GaussianMixtureEM):
    evaluate = IterativeMethod.evaluate


class _StatelessPageRank(PageRank):
    evaluate = IterativeMethod.evaluate


def _gmm_pair():
    dataset = load_dataset("3cluster")
    return (
        GaussianMixtureEM.from_dataset(dataset),
        _StatelessGmm.from_dataset(dataset),
    )


def _web_pair():
    web = dict(n_nodes=300, seed=0, out_degree=4.0)
    return PageRank.random_web_csr(**web), _StatelessPageRank.random_web_csr(**web)


PAIRS = {"gmm-3cluster": _gmm_pair, "pagerank-300": _web_pair}


def _hex_table(table):
    return {
        "f_x0": table.f_x0.hex(),
        "f_x1": table.f_x1.hex(),
        "impacts": {
            name: (imp.quality_error.hex(), imp.energy_per_iteration.hex())
            for name, imp in table.impacts.items()
        },
    }


def assert_same_run(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.objective.hex() == want.objective.hex()
    assert got.iterations == want.iterations
    assert got.rollbacks == want.rollbacks
    assert got.converged == want.converged
    assert got.hit_max_iter == want.hit_max_iter
    assert got.steps_by_mode == want.steps_by_mode
    assert got.energy == want.energy
    assert got.energy_by_mode == want.energy_by_mode
    assert got.strategy_name == want.strategy_name
    assert got.mode_trace == want.mode_trace
    assert [f.hex() for f in got.objective_trace] == [
        f.hex() for f in want.objective_trace
    ]


def test_twins_are_stateless():
    for make in PAIRS.values():
        stateful, twin = make()
        x0 = stateful.initial_state()
        assert stateful.evaluate(x0)[1] is not None
        assert twin.evaluate(x0)[1] is None


@pytest.mark.parametrize("problem", sorted(PAIRS))
def test_characterization_matches_twin(problem):
    stateful, twin = PAIRS[problem]()
    got = ApproxIt(stateful).characterization()
    want = ApproxIt(twin).characterization()
    assert _hex_table(got) == _hex_table(want)


@pytest.mark.parametrize("capture", [True, False], ids=["capture", "interpreted"])
@pytest.mark.parametrize("strategy", ["incremental", "adaptive"])
@pytest.mark.parametrize("problem", sorted(PAIRS))
def test_run_matches_twin(problem, strategy, capture):
    stateful, twin = PAIRS[problem]()
    recorders = TraceRecorder(), TraceRecorder()
    got, want = (
        ApproxIt(method).run(strategy, program_capture=capture, observer=recorder)
        for method, recorder in zip((stateful, twin), recorders)
    )
    assert got.rollbacks >= 1
    assert_same_run(got, want)
    streams = [[event.to_dict() for event in r.events] for r in recorders]
    assert streams[0] == streams[1]


@pytest.mark.parametrize("capture", [True, False], ids=["capture", "interpreted"])
def test_gmm_batch_matches_twin_solo_runs(capture):
    stateful, twin = _gmm_pair()
    strategies = ["incremental", "adaptive", "truth", "static:level2", "adaptive:f=3"]
    batch = ApproxIt(stateful).run_batch(strategies, program_capture=capture)
    solo = ApproxIt(twin)
    assert sum(run.rollbacks for run in batch) >= 1
    for strategy, lane in zip(strategies, batch):
        assert_same_run(lane, solo.run(strategy, program_capture=capture))


def test_batch_lanes_share_the_initial_state(monkeypatch):
    """At x0 one read-only state serves every lane of a group; later
    iterates are evaluated per lane."""
    seen = []
    original = _BatchedGmm.direction

    def spy(self, X, lane_ids, engine, states=None):
        seen.append(states)
        return original(self, X, lane_ids, engine, states=states)

    monkeypatch.setattr(_BatchedGmm, "direction", spy)
    stateful, _ = _gmm_pair()
    ApproxIt(stateful).run_batch(["static:level2", "static:level2"], max_iter=2)
    first, second = seen
    assert first[0] is first[1]
    assert second[0] is not second[1]
    for states in seen:
        for state in states:
            assert not any(array.flags.writeable for array in state.values())
