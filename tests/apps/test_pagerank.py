"""Tests for the PageRank application."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.arith.engine import SparseResidentMatrix


@pytest.fixture(scope="module")
def web():
    return PageRank.random_web(n_nodes=120, seed=7)


class TestConstruction:
    def test_rejects_tiny_graph(self):
        g = nx.DiGraph()
        g.add_node(0)
        with pytest.raises(ValueError, match="two nodes"):
            PageRank(g)

    def test_rejects_bad_damping(self):
        g = nx.DiGraph([(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="damping"):
            PageRank(g, damping=1.0)

    def test_google_matrix_is_stochastic(self, web):
        cols = web.google_dense().sum(axis=0)
        assert np.allclose(cols, 1.0)

    def test_dangling_nodes_jump_uniformly(self):
        g = nx.DiGraph()
        g.add_edge(0, 1)
        g.add_node(2)  # dangling
        pr = PageRank(g)
        col = pr.google_dense()[:, pr.nodes.index(2)]
        assert np.allclose(col, col[0])

    def test_csr_construction_matches_graph(self, web):
        """A prebuilt CSR transition matrix yields the same operator as
        the graph build (dangling fix and teleport included)."""
        nx_google = web.google_dense()
        transition = (nx_google - (1 - web.damping) / len(web.nodes)) / web.damping
        transition[:, web._dangling] = 0.0
        pr = PageRank(transition, damping=web.damping)
        assert pr.graph is None
        assert np.allclose(pr.google_dense(), nx_google)
        assert np.array_equal(pr._dangling, web._dangling)

    def test_rejects_non_stochastic_columns(self):
        bad = np.array([[0.0, 0.5], [0.7, 0.0]])
        with pytest.raises(ValueError, match="columns must sum"):
            PageRank(bad)

    def test_random_web_csr_is_sparse_and_valid(self):
        pr = PageRank.random_web_csr(n_nodes=300, seed=3)
        assert pr.graph is None
        assert pr._link.nnz < 300 * 300 // 4
        ref = pr.exact_reference()
        assert pr.objective(ref) < 1e-9
        assert ref.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "n_nodes, seed, hub_bias, out_degree",
        [(300, 3, 0.5, 8.0), (200, 7, 0.0, 4.0), (500, 1, 0.9, 0.5), (2000, 11, 0.5, 8.0)],
    )
    def test_random_web_csr_matches_unique_dedupe(self, n_nodes, seed, hub_bias, out_degree):
        """The sorted-run edge dedupe builds the web ``np.unique`` built."""
        rng = np.random.default_rng(seed)
        deg = rng.poisson(out_degree, n_nodes)
        src = np.repeat(np.arange(n_nodes, dtype=np.int64), deg)
        dst = (n_nodes * rng.random(src.size) ** (1.0 / (1.0 - hub_bias))).astype(np.int64)
        keep = src != dst
        eid = np.unique(src[keep] * np.int64(n_nodes) + dst[keep])
        src, dst = eid // n_nodes, eid % n_nodes
        weight = 1.0 / np.bincount(src, minlength=n_nodes)[src]
        want = PageRank(SparseResidentMatrix.from_coo(dst, src, weight, (n_nodes, n_nodes)))

        got = PageRank.random_web_csr(
            n_nodes=n_nodes, seed=seed, out_degree=out_degree, hub_bias=hub_bias
        )
        for part in ("indptr", "indices", "data"):
            assert getattr(got._link, part).tobytes() == getattr(want._link, part).tobytes()
        assert got._dangling.tobytes() == want._dangling.tobytes()


class TestIteration:
    def test_initial_state_is_uniform(self, web):
        x = web.initial_state()
        assert np.allclose(x, x[0])
        assert x.sum() == pytest.approx(1.0)

    def test_objective_zero_at_fixed_point(self, web):
        ref = web.exact_reference()
        assert web.objective(ref) < 1e-8

    def test_postprocess_projects_to_simplex(self, web):
        dirty = np.linspace(-0.1, 0.4, len(web.nodes))
        clean = web.postprocess(dirty)
        assert clean.min() >= 0
        assert clean.sum() == pytest.approx(1.0)

    def test_postprocess_handles_all_zero(self, web):
        clean = web.postprocess(np.zeros(len(web.nodes)))
        assert clean.sum() == pytest.approx(1.0)

    def test_exact_iteration_converges_to_networkx(self, web, exact_engine):
        from repro.arith.engine import ApproxEngine
        from repro.arith.fixed import FixedPointFormat

        engine = ApproxEngine(
            exact_engine.mode, FixedPointFormat(32, 24), exact_engine.ledger
        )
        x = web.initial_state()
        for k in range(100):
            d = web.direction(x, engine)
            x = web.postprocess(web.update(x, 1.0, d, engine))
        ref = web.exact_reference()
        assert web.top_k_overlap(x, ref, k=10) == 1.0


class TestRankingMetrics:
    def test_ranking_orders_by_mass(self, web):
        x = np.zeros(len(web.nodes))
        x[5] = 0.5
        x[17] = 0.3
        x[2] = 0.2
        order = web.ranking(x)
        assert list(order[:3]) == [5, 17, 2]

    def test_top_k_overlap_bounds(self, web):
        x = web.initial_state()
        assert web.top_k_overlap(x, x, k=10) == 1.0

    def test_top_k_overlap_rejects_bad_k(self, web):
        x = web.initial_state()
        with pytest.raises(ValueError, match="k must"):
            web.top_k_overlap(x, x, k=0)


class TestWithFramework:
    def test_online_strategy_preserves_top10(self, web):
        from repro.core.framework import ApproxIt

        fw = ApproxIt(web)
        truth = fw.run_truth()
        run = fw.run(strategy="incremental")
        assert run.converged
        assert web.top_k_overlap(run.x, truth.x, k=10) == 1.0
        assert run.energy_relative_to(truth) < 1.0
