"""Batched (lane-parallel) kernels for the supported iterative methods.

``ApproxIt.run_batch`` advances B independent lanes lock-step: one
stacked ``(L, N)`` iterate array per vectorized adder call instead of L
separate Python loops.  Of the :class:`~repro.solvers.base.IterativeMethod`
hooks only ``direction`` and ``update`` route through the approximate
engine — everything else (``evaluate``, ``objective``, ``gradient``,
``step_size``, ``postprocess``, ``converged``) is exact float and runs
per lane unchanged — so a *batched kernel adapter* only has to restate
those two hooks over a :class:`~repro.arith.engine.BatchedEngine`.  When
the method's ``evaluate`` returns a state, ``direction`` receives each
row's state as ``states=[...]``, in row order.

Every adapter performs, per lane, the identical sequence of engine
kernel calls the solo method performs (same operands, same order), so
per-lane iterates are bit-identical to solo runs and per-lane energy
ledgers exactly equal.  The covered methods:

* Jacobi, least squares (dense and CSR designs) and red-black
  Gauss–Seidel / SOR
  (:class:`~repro.solvers.linear.RedBlackGaussSeidelSolver` /
  :class:`~repro.solvers.linear.RedBlackSorSolver`) — the method's own
  ``direction`` is written against the polymorphic kernel API, so the
  passthrough adapter hands it the lane stack unchanged;
* gradient descent (quadratic / Rosenbrock / default-gradient
  functions) — stacked directly;
* conjugate gradient — stacked, with per-lane direction caches (its
  mid-iteration lane sub-selection keeps it off the program-replay fast
  path: ``replayable = False``);
* Gauss–Seidel and SOR — the O(n²) residual accumulation is stacked
  through the engine; the exact triangular solve runs per lane with
  byte-identical inputs, so per-lane outputs match solo runs exactly;
* Gaussian-mixture EM — responsibilities come from the lane states
  (each lane's exact E-step, done once by its ``evaluate``) and the
  variance/weight tail is exact per lane; the k per-component weighted
  mean sums of every lane run as one batched ``weighted_sum`` over an
  ``(L, k, n)`` weight stack, charged in solo order.

A method that cannot be batched gets a structured
:class:`BatchSupport` refusal from :func:`batching_support` saying
*why* (no adapter registered, loop hooks overridden, unsupported
objective function); :func:`supports_batching` stays as the
bool-returning wrapper.

Adapters are stateful per batch (CG carries per-lane direction caches)
— create one per ``run_batch`` call via :func:`batched_kernels_for`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.apps.gmm import _VAR_FLOOR, _WEIGHT_FLOOR, GaussianMixtureEM, GmmParams
from repro.arith.engine import BatchedEngine
from repro.solvers.base import IterativeMethod, evaluate_into
from repro.solvers.conjugate_gradient import ConjugateGradient
from repro.solvers.functions import (
    ObjectiveFunction,
    QuadraticFunction,
    RosenbrockFunction,
)
from repro.solvers.gradient_descent import GradientDescent
from repro.solvers.least_squares import LeastSquaresGD
from repro.solvers.linear import (
    GaussSeidelSolver,
    JacobiSolver,
    SorSolver,
    _RedBlackSplittingSolver,
)

#: The hooks the framework's iteration loop calls.  A method may be
#: batched only when it inherits every one of these from the base class
#: its adapter was written against — a subclass overriding any loop
#: hook changes semantics the adapter does not know about.
_LOOP_HOOKS = (
    "initial_state",
    "evaluate",
    "objective",
    "gradient",
    "direction",
    "step_size",
    "update",
    "converged",
    "postprocess",
)


def _inherits_loop_hooks(method: IterativeMethod, base: type) -> bool:
    return all(
        getattr(type(method), hook) is getattr(base, hook)
        for hook in _LOOP_HOOKS
    )


class BatchRefusal(enum.Enum):
    """Why a method cannot take the batched path."""

    #: No batched kernel adapter is registered for the method's class.
    NO_ADAPTER = "no-adapter"
    #: An adapter exists for a base class, but the method overrides loop
    #: hooks the adapter was written against.
    OVERRIDDEN_HOOKS = "overridden-hooks"
    #: The adapter refused this particular configuration (e.g. a
    #: gradient-descent objective function with a custom approximate
    #: gradient the stacked kernels cannot reproduce bit-exactly).
    UNSUPPORTED_FUNCTION = "unsupported-function"


@dataclass(frozen=True)
class BatchSupport:
    """Structured batchability verdict for one method instance.

    Truthy exactly when ``supported`` — existing ``if
    framework.supports_batching():`` call sites keep working, while
    sweep/CLI fallbacks surface ``reason`` / ``message`` instead of
    silently running solo.
    """

    supported: bool
    reason: BatchRefusal | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.supported


class BatchedKernels:
    """Engine-facing hooks of one method, restated over a lane stack.

    ``direction`` / ``update`` take the stacked iterates ``X`` of shape
    ``(rows, N)`` plus ``lane_ids`` — the ledger lane each row belongs
    to (rows regroup across steps as lanes converge or switch modes, so
    stateful adapters key their state by lane id, never by row).  The
    engine passed in already has ``lane_ids`` selected.

    ``states`` (when the method's ``evaluate`` returns one) holds each
    row's exact state at ``X[row]``; adapters that need none ignore it.

    ``replayable`` declares the iteration *uniform*: every lane issues
    the identical engine-op sequence over the full selected lane set,
    with no mid-iteration ``select_lanes``.  Only uniform adapters may
    drive a :class:`~repro.arith.program.BatchedProgramEngine`;
    ``replay_slots`` lets an adapter declare extra iteration-varying
    operands (beyond the stacked ``X`` and ``D`` the framework binds)
    for program capture.
    """

    #: Safe default: the four original adapters and all new ones are
    #: uniform; CG opts out below.
    replayable = True

    def __init__(self, method: IterativeMethod, lanes: int):
        self.method = method
        self.lanes = int(lanes)

    def replay_slots(self, X: np.ndarray) -> dict[str, object]:
        """Iteration-varying operands to declare at program capture."""
        return {}

    def direction(
        self,
        X: np.ndarray,
        lane_ids: np.ndarray,
        engine: BatchedEngine,
        states: list | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def update(
        self,
        X: np.ndarray,
        alphas: np.ndarray,
        D: np.ndarray,
        lane_ids: np.ndarray,
        engine: BatchedEngine,
    ) -> np.ndarray:
        """Default Eq. 2 update, ``X[r] + alphas[r] * D[r]`` per row."""
        return engine.scale_add(X, alphas, D)


class _Passthrough(BatchedKernels):
    """The method's own ``direction`` over the ``(L, n)`` stack.

    For methods whose ``direction`` is written against the polymorphic
    kernel API — Jacobi's residual, least squares' Gram-form or CSR
    residual-form gradient (the AutoRegression application inherits
    it), the red-black half sweeps (see
    :class:`~repro.solvers.linear._RedBlackSplittingSolver`) — so the
    solo code runs the lane stack unchanged.  Their states, when any,
    go unread."""

    def direction(self, X, lane_ids, engine, states=None):
        return self.method.direction(X, engine)


class _BatchedGaussSeidel(BatchedKernels):
    """Stacked residual + per-lane exact forward substitution.

    The residual rows are bit-identical to solo residuals (the batched
    engine contract), and each lane's ``solve_triangular`` call then
    receives byte-identical inputs to its solo counterpart — the solve
    is exact float control logic, so per-lane directions match solo
    bit for bit.  One rectangular residual is the O(n²) bulk; the L
    small solves are the cheap tail.
    """

    def direction(self, X, lane_ids, engine, states=None):
        m = self.method
        R = m.residual(X, engine)
        lower = np.tril(m.matrix)
        from scipy.linalg import solve_triangular

        return np.stack(
            [
                solve_triangular(lower, R[row], lower=True)
                for row in range(R.shape[0])
            ]
        )


class _BatchedSor(BatchedKernels):
    """SOR analogue of :class:`_BatchedGaussSeidel`."""

    def direction(self, X, lane_ids, engine, states=None):
        m = self.method
        R = m.residual(X, engine)
        diag = np.diag(np.diag(m.matrix))
        lower = np.tril(m.matrix, k=-1)
        mm = diag / m.omega + lower
        from scipy.linalg import solve_triangular

        return np.stack(
            [
                solve_triangular(mm, R[row], lower=True)
                for row in range(R.shape[0])
            ]
        )


class _BatchedCG(BatchedKernels):
    """Hestenes–Stiefel CG with the direction cache kept *per lane*.

    The solo method keys its previous-direction cache by iterate bytes
    inside one per-run dictionary; here each lane owns such a
    dictionary (indexed by ledger lane id), so lanes that happen to
    visit identical iterates can never observe each other's state.

    Not ``replayable``: the previous-direction correction below runs an
    engine call over a *sub-selection* of lanes that varies iteration
    to iteration, which a fixed per-group program cannot express.
    """

    replayable = False

    def __init__(self, method, lanes):
        super().__init__(method, lanes)
        self._prev: list[dict[bytes, np.ndarray]] = [{} for _ in range(lanes)]

    def direction(self, X, lane_ids, engine):
        m = self.method
        R = engine.sub(m.rhs, engine.matvec(m.matrix, X, resident=True))
        D = np.array(R, dtype=np.float64, copy=True)
        sub_rows: list[int] = []
        scaled: list[np.ndarray] = []
        for row, lane in enumerate(lane_ids):
            prev = self._prev[lane].get(
                np.asarray(X[row], dtype=np.float64).tobytes()
            )
            if prev is None:
                continue
            denom = float(prev @ m.matrix @ prev)
            beta = float(R[row] @ m.matrix @ prev) / denom if denom > 0 else 0.0
            sub_rows.append(row)
            scaled.append(beta * prev)
        if sub_rows:
            # One engine call for the rows that carry a previous
            # direction — exactly the rows a solo run would charge.
            engine.select_lanes(lane_ids[sub_rows])
            D[sub_rows] = engine.sub(R[sub_rows], np.stack(scaled))
            engine.select_lanes(lane_ids)
        return D

    def update(self, X, alphas, D, lane_ids, engine):
        X_new = engine.scale_add(X, alphas, D)
        for row, lane in enumerate(lane_ids):
            cache = self._prev[lane]
            if len(cache) > 8:
                cache.clear()
            cache[np.asarray(X_new[row], dtype=np.float64).tobytes()] = D[row]
        return X_new


class _BatchedGD(BatchedKernels):
    """Steepest descent; the gradient kernel dispatches on the function."""

    @staticmethod
    def supports_function(function: ObjectiveFunction) -> bool:
        if type(function) in (QuadraticFunction, RosenbrockFunction):
            return True
        # Any function using the conservative default approximate
        # gradient (quantize-the-exact-gradient) batches trivially.
        return (
            type(function).gradient_approx is ObjectiveFunction.gradient_approx
        )

    def direction(self, X, lane_ids, engine):
        fn = self.method.function
        if type(fn) is QuadraticFunction:
            grad = engine.sub(
                engine.matvec(fn.matrix, X, resident=True), fn.rhs
            )
        elif type(fn) is RosenbrockFunction:
            head, tail = X[:, :-1], X[:, 1:]
            left = np.zeros_like(X)
            right = np.zeros_like(X)
            left[:, :-1] = -4 * fn.a * head * (tail - head**2) - 2 * (1 - head)
            right[:, 1:] = 2 * fn.a * (tail - head**2)
            grad = engine.add(left, right)
        else:
            G = np.stack([fn.gradient(X[row]) for row in range(X.shape[0])])
            grad = engine.add(G, np.zeros_like(G))
        return -grad


class _BatchedGmm(BatchedKernels):
    """EM over a lane-stacked component block.

    The E-step (responsibilities) comes from each lane's state, and the
    M-step's variance/weight tail is exact float and runs per lane with
    the identical expressions of
    :meth:`~repro.apps.gmm.GaussianMixtureEM.em_step`; only the k
    weighted mean sums touch the approximate datapath, as one batched
    ``weighted_sum`` over the ``(L, k, n)`` weight stack — per lane,
    the charge sequence (component 0, 1, …, then the mean-block
    ``scale_add`` of the update) is exactly the solo order.  Components
    stack inside each lane's row, never across ledger rows, so no lane
    id is ever selected twice in one call (``charge_lanes`` is
    fancy-indexed and would drop duplicate charges).
    """

    def direction(self, X, lane_ids, engine, states=None):
        m = self.method
        L = X.shape[0]
        if states is None:
            states = [evaluate_into(m, X[row])[1] for row in range(L)]
        resps = [state["resp"] for state in states]
        counts = [
            np.maximum(resp.sum(axis=0), _WEIGHT_FLOOR * m._n) for resp in resps
        ]
        # One (L, k, n) weight block: every lane's k component sums.
        weights = np.stack([resp.T for resp in resps])
        new_means = engine.weighted_sum(weights, m.points) / np.stack(counts)[:, :, None]
        D = np.empty_like(X)
        for row in range(L):
            diff = m.points[:, None, :] - new_means[row][None, :, :]
            new_vars = (resps[row][:, :, None] * diff**2).sum(axis=0) / counts[
                row
            ][:, None]
            new_vars = np.maximum(new_vars, _VAR_FLOOR)
            new_weights = counts[row] / counts[row].sum()
            packed = GmmParams(
                weights=new_weights,
                means=new_means[row],
                variances=new_vars,
            ).pack()
            D[row] = packed - X[row]
        return D

    def update(self, X, alphas, D, lane_ids, engine):
        m = self.method
        k, dim = m.n_clusters, m._d
        X = np.asarray(X, dtype=np.float64)
        D = np.asarray(D, dtype=np.float64)
        new = X + alphas[:, None] * D
        mean_lo, mean_hi = k, k + k * dim
        new[:, mean_lo:mean_hi] = engine.scale_add(
            X[:, mean_lo:mean_hi], alphas, D[:, mean_lo:mean_hi]
        )
        return new


def _make_gd(method: GradientDescent, lanes: int) -> BatchedKernels | None:
    if not _BatchedGD.supports_function(method.function):
        return None
    return _BatchedGD(method, lanes)


#: Adapter registry, matched by ``isinstance`` in order — subclasses
#: with their own entry (none today) must precede their base.
_REGISTRY: tuple = (
    (JacobiSolver, _Passthrough),
    (_RedBlackSplittingSolver, _Passthrough),
    (GaussSeidelSolver, _BatchedGaussSeidel),
    (SorSolver, _BatchedSor),
    (ConjugateGradient, _BatchedCG),
    (GradientDescent, _make_gd),
    (LeastSquaresGD, _Passthrough),
    (GaussianMixtureEM, _BatchedGmm),
)


def batched_kernels_for(
    method: IterativeMethod, lanes: int
) -> BatchedKernels | None:
    """A fresh batched adapter for ``method``, or ``None`` if the method
    cannot be batched bit-exactly."""
    for base, factory in _REGISTRY:
        if isinstance(method, base) and _inherits_loop_hooks(method, base):
            return factory(method, lanes)
    return None


def batching_support(method: IterativeMethod) -> BatchSupport:
    """Structured batchability verdict (see :class:`BatchSupport`)."""
    for base, factory in _REGISTRY:
        if not isinstance(method, base):
            continue
        if not _inherits_loop_hooks(method, base):
            overridden = sorted(
                hook
                for hook in _LOOP_HOOKS
                if getattr(type(method), hook) is not getattr(base, hook)
            )
            return BatchSupport(
                False,
                BatchRefusal.OVERRIDDEN_HOOKS,
                f"{type(method).__name__} overrides loop hooks "
                f"({', '.join(overridden)}) the {base.__name__} adapter "
                "was written against",
            )
        if factory(method, 1) is None:
            fn = getattr(method, "function", None)
            what = type(fn).__name__ if fn is not None else "configuration"
            return BatchSupport(
                False,
                BatchRefusal.UNSUPPORTED_FUNCTION,
                f"{type(method).__name__} over {what} is not "
                "lane-vectorizable bit-exactly (custom approximate "
                "gradient)",
            )
        return BatchSupport(True)
    return BatchSupport(
        False,
        BatchRefusal.NO_ADAPTER,
        f"no batched kernel adapter registered for {type(method).__name__}",
    )


def supports_batching(method: IterativeMethod) -> bool:
    """Whether ``run_batch`` can drive this method (see module docs)."""
    return bool(batching_support(method))
