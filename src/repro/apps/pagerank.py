"""PageRank as an ApproxIt application.

PageRank is the textbook "recognition/mining" iterative method: a
power iteration on the Google matrix ``G = d P + (d/n) 1 eᵀ_D +
((1-d)/n) 1 1ᵀ`` whose fixed point ranks the nodes of a graph.  It
extends the benchmark suite beyond the paper with a workload whose
*output of interest is a ranking* — the natural QEM is therefore rank
agreement (fraction of top-k overlap plus exact-order agreement), not
a numeric distance, which exercises the framework's application-level
quality story from a third angle.

The transition kernel is sparse: only the link matrix ``d P`` is
stored (CSR, one entry per edge, as a
:class:`~repro.arith.SparseResidentMatrix` whose per-row products run
through the approximate datapath), while the dangling-node fix and the
teleport term — both rank-one — are folded into a single scalar
``(d·mass_D(x) + (1-d)·mass(x)) / n`` added to every component.  The
Google matrix is never densified, so web graphs of 10^5–10^6 nodes
are practical; :meth:`google_dense` materializes it on demand for
test-scale cross-checks only.
"""

from __future__ import annotations

import numpy as np

from repro.arith.engine import ApproxEngine, SparseResidentMatrix
from repro.solvers.base import IterativeMethod, evaluate_into

#: Column sums of a substochastic transition matrix are 1 (linked
#: node) or 0 (dangling node); anything in between is malformed.
#: The split threshold sits midway, far from both clusters.
_DANGLING_CUT = 0.5


def _networkx():
    """Lazy networkx import: only graph-object construction and the
    networkx cross-validation reference need it — CSR-built instances
    never touch it."""
    try:
        import networkx as nx
    except ImportError as exc:  # pragma: no cover - nx ships in CI
        raise ImportError(
            "networkx is required to build PageRank from a graph object; "
            "install it or construct from a CSR transition matrix "
            "(e.g. PageRank.random_web_csr)"
        ) from exc
    return nx


class PageRank(IterativeMethod):
    """Damped power iteration on a directed graph.

    The state is the rank vector (a probability distribution).  The
    direction is ``G x − x`` with unit step — the fixed-point map in
    the paper's direction/update form — and the objective is the l1
    residual ``‖G x − x‖₁`` (zero exactly at the PageRank vector).

    Per iteration the engine runs the sparse link matvec ``(d P) x``
    (the per-edge accumulation is the approximate work), the dangling
    rank mass reduction, and the teleport broadcast add; the dangling /
    teleport corrections stay rank-one scalars and are never expanded
    into a dense matrix.

    Args:
        graph: the web to rank — either a directed networkx graph
            (isolated/dangling nodes are handled with the standard
            uniform-jump fix) or a prebuilt **column-stochastic**
            transition matrix ``P`` with ``P[j, i]`` the probability of
            following a link from node ``i`` to node ``j`` (columns of
            dangling nodes all zero): a
            :class:`~repro.arith.SparseResidentMatrix`, any scipy-style
            sparse object (``tocsr()``), or a dense array (converted to
            CSR).  networkx is only imported when a graph object is
            passed.
        damping: the usual 0.85.
        max_iter / tolerance: budget; tolerance applies to the change of
            the residual (absolute).  The default tolerance sits above
            the Q7.24 datapath's quantization floor of the l1 residual,
            so the exact run terminates instead of orbiting the floor.
    """

    name = "pagerank"
    #: Rank mass per node is tiny (1/n); give the datapath extra
    #: fractional resolution.
    preferred_frac_bits = 24

    def __init__(
        self,
        graph,
        damping: float = 0.85,
        max_iter: int = 500,
        tolerance: float = 1e-7,
    ):
        super().__init__(
            max_iter=max_iter, tolerance=tolerance, convergence_kind="abs"
        )
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        self.damping = float(damping)
        if hasattr(graph, "number_of_nodes") and hasattr(graph, "successors"):
            self.graph = graph
            self.nodes = list(graph.nodes())
            transition = self._transition_from_graph(graph)
        else:
            self.graph = None
            transition = self._coerce_transition(graph)
            self.nodes = list(range(transition.shape[0]))
        n = transition.shape[0]
        if n < 2:
            raise ValueError("PageRank needs at least two nodes")
        col_sum = np.bincount(
            transition.indices, weights=transition.data, minlength=n
        )
        linked = np.abs(col_sum - 1.0) <= 1e-9
        empty = np.abs(col_sum) <= 1e-9
        if not np.all(linked | empty):
            bad = int(np.flatnonzero(~(linked | empty))[0])
            raise ValueError(
                "transition matrix columns must sum to 1 (or 0 for "
                f"dangling nodes); column {bad} sums to {col_sum[bad]!r}"
            )
        #: Dangling columns, fixed by a uniform jump (rank-one, never
        #: materialized).
        self._dangling = np.flatnonzero(col_sum < _DANGLING_CUT)
        #: The damped link matrix ``d P`` — the only stored operand.
        self._link = SparseResidentMatrix(
            self.damping * transition.data,
            transition.indices,
            transition.indptr,
            transition.shape,
        )
        self._n = n

    @staticmethod
    def _coerce_transition(matrix) -> SparseResidentMatrix:
        """A prebuilt transition operand → CSR, without densifying."""
        if isinstance(matrix, SparseResidentMatrix):
            sp = matrix
        elif hasattr(matrix, "tocsr"):
            sp = SparseResidentMatrix.from_csr_like(matrix)
        else:
            arr = np.asarray(matrix, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(
                    f"transition matrix must be 2-D, got shape {arr.shape}"
                )
            sp = SparseResidentMatrix.from_dense(arr)
        if sp.shape[0] != sp.shape[1]:
            raise ValueError(
                f"transition matrix must be square, got {sp.shape}"
            )
        if sp.data.size and sp.data.min() < 0:
            raise ValueError("transition probabilities must be non-negative")
        return sp

    @staticmethod
    def _transition_from_graph(graph) -> SparseResidentMatrix:
        """Column-stochastic CSR (rows = destination) from a digraph."""
        nodes = list(graph.nodes())
        n = len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        src: list[int] = []
        dst: list[int] = []
        val: list[float] = []
        for node in nodes:
            out = list(graph.successors(node))
            if not out:
                continue
            i = index[node]
            p = 1.0 / len(out)
            for succ in out:
                src.append(i)
                dst.append(index[succ])
                val.append(p)
        return SparseResidentMatrix.from_coo(dst, src, val, (n, n))

    @classmethod
    def random_web(
        cls, n_nodes: int = 200, seed: int = 0, out_degree: float = 4.0, **kwargs
    ) -> "PageRank":
        """A seeded scale-free-ish random web graph (via networkx)."""
        nx = _networkx()
        rng = np.random.default_rng(seed)
        graph = nx.gnp_random_graph(
            n_nodes, out_degree / n_nodes, seed=int(rng.integers(2**31)), directed=True
        )
        return cls(nx.DiGraph(graph), **kwargs)

    @classmethod
    def random_web_csr(
        cls,
        n_nodes: int = 100_000,
        seed: int = 0,
        out_degree: float = 8.0,
        hub_bias: float = 0.5,
        **kwargs,
    ) -> "PageRank":
        """A seeded random web built directly as CSR — no graph object,
        no networkx, no densification — for web-scale benchmarks.

        Out-degrees are Poisson(``out_degree``); self-links are dropped
        and parallel edges merged.  Nodes whose degree draws zero (or
        whose only link was a self-link) are dangling.  Link *targets*
        follow a power law: node ``i`` attracts mass ``∝ (i+1)**-hub_bias``
        (inverse-CDF sampling), reproducing the heavy-tailed in-degree
        of real webs — a few hub pages collect thousands of in-links
        while the bulk stay near the mean.  ``hub_bias=0`` recovers
        uniform targets; the default 0.5 gives hubs without letting any
        row outgrow the replay fusion proof at benchmark scale.
        """
        if not 0.0 <= hub_bias < 1.0:
            raise ValueError(f"hub_bias must be in [0, 1), got {hub_bias}")
        rng = np.random.default_rng(seed)
        deg = rng.poisson(out_degree, n_nodes)
        src = np.repeat(np.arange(n_nodes, dtype=np.int64), deg)
        dst = (
            n_nodes * rng.random(src.size) ** (1.0 / (1.0 - hub_bias))
        ).astype(np.int64)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # The edge list np.unique gives, ~50x faster than its hash path.
        eid = np.sort(src * np.int64(n_nodes) + dst)
        first = np.ones(eid.size, dtype=bool)
        first[1:] = eid[1:] != eid[:-1]
        eid = eid[first]
        src, dst = eid // n_nodes, eid % n_nodes
        out_deg = np.bincount(src, minlength=n_nodes)
        weight = 1.0 / out_deg[src]
        transition = SparseResidentMatrix.from_coo(
            dst, src, weight, (n_nodes, n_nodes)
        )
        return cls(transition, **kwargs)

    # ------------------------------------------------------------------
    # Rank-one corrections (exact scalar helpers)
    # ------------------------------------------------------------------
    def _teleport(self, x: np.ndarray) -> float:
        """The uniform per-component correction ``(d·mass_D + (1-d)·mass)/n``
        — the dangling fix plus teleport, folded into one scalar."""
        mass_d = float(x[self._dangling].sum()) if self._dangling.size else 0.0
        return (
            self.damping * mass_d + (1.0 - self.damping) * float(x.sum())
        ) / self._n

    def _google_exact(self, x: np.ndarray) -> np.ndarray:
        """Exact float64 ``G x`` (sparse matvec + rank-one scalar)."""
        return self._link.matvec_exact(x) + self._teleport(x)

    def google_dense(self) -> np.ndarray:
        """The dense Google matrix, materialized for test-scale
        cross-checks only (the solver itself never forms it)."""
        dense = self._link.toarray() + (1.0 - self.damping) / self._n
        if self._dangling.size:
            dense[:, self._dangling] += self.damping / self._n
        return dense

    # ------------------------------------------------------------------
    # Iterative-method interface
    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        return np.full(self._n, 1.0 / self._n)

    #: The objective and its exact residual ``"residual"``, ``G x − x``.
    evaluate = evaluate_into

    def objective(self, x: np.ndarray, state: dict | None = None) -> float:
        x = np.asarray(x, dtype=np.float64)
        residual = self._google_exact(x) - x
        if state is not None:
            state["residual"] = residual
        return float(np.abs(residual).sum())

    def gradient(self, x: np.ndarray, state: dict | None = None) -> np.ndarray:
        # Subgradient of ||Gx - x||_1: (G - I)^T sign(Gx - x), with the
        # rank-one columns applied as scalar corrections.
        if state is None:
            state = evaluate_into(self, x)[1]
        s = np.sign(state["residual"])
        t = float(s.sum())
        g = self._link.rmatvec_exact(s)
        if self._dangling.size:
            g[self._dangling] += self.damping / self._n * t
        g += (1.0 - self.damping) / self._n * t
        return g - s

    def direction(self, x: np.ndarray, engine: ApproxEngine, state=None) -> np.ndarray:
        # The per-edge rank mass accumulation (the O(nnz) work) and the
        # dangling-mass reduction run on the approximate adder; the
        # rank-one teleport scalar is exact control logic broadcast back
        # through one approximate add per component.  ``state`` is unread.
        xs = np.asarray(x, dtype=np.float64)
        base = engine.matvec(self._link, x, resident=True)
        if self._dangling.size:
            mass_d = engine.sum(xs[self._dangling])
        else:
            mass_d = 0.0
        c = (
            self.damping * mass_d + (1.0 - self.damping) * float(xs.sum())
        ) / self._n
        return engine.add(base, c) - xs

    def postprocess(self, x: np.ndarray) -> np.ndarray:
        """Re-project onto the probability simplex (rank mass is
        conserved by exact arithmetic but not by approximate sums)."""
        x = np.maximum(np.asarray(x, dtype=np.float64), 0.0)
        total = x.sum()
        return np.full(self._n, 1.0 / self._n) if total == 0 else x / total

    # ------------------------------------------------------------------
    # Ranking-oriented quality metrics
    # ------------------------------------------------------------------
    def ranking(self, x: np.ndarray) -> np.ndarray:
        """Node indices ordered best-first (ties broken by index)."""
        x = np.asarray(x, dtype=np.float64)
        return np.lexsort((np.arange(self._n), -x))

    def top_k_overlap(self, x: np.ndarray, reference: np.ndarray, k: int = 10) -> float:
        """Fraction of the reference top-k recovered by ``x``."""
        if not 1 <= k <= self._n:
            raise ValueError(f"k must be in [1, {self._n}], got {k}")
        ours = set(self.ranking(x)[:k].tolist())
        theirs = set(self.ranking(reference)[:k].tolist())
        return len(ours & theirs) / k

    def exact_reference(self) -> np.ndarray:
        """Float64 PageRank for cross-validation: networkx when the
        instance was built from a graph object, otherwise an exact
        power iteration on the sparse Google map."""
        if self.graph is not None:
            nx = _networkx()
            pr = nx.pagerank(self.graph, alpha=self.damping, tol=1e-12)
            return np.array([pr[node] for node in self.nodes])
        x = self.initial_state()
        for _ in range(10_000):
            nxt = self._google_exact(x)
            nxt /= nxt.sum()
            if np.abs(nxt - x).sum() < 1e-13:
                return nxt
            x = nxt
        return x
