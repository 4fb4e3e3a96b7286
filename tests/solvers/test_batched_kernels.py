"""Gating and adapter mechanics of the batched solver kernels.

``supports_batching`` must admit exactly the methods whose engine-facing
hooks are restated bit-exactly by an adapter — and refuse everything
else (stateful momentum, subclasses that override loop hooks, functions
with bespoke approximate gradients).  A false positive here would
silently change results under ``run_batch``; a false negative only
costs speed, so the gate errs conservative.  Refusals come back as a
structured :class:`~repro.solvers.batched.BatchSupport` naming the
reason, so sweep callers can report *why* a method fell back to solo.
"""

import numpy as np

from repro.solvers import (
    BatchRefusal,
    ConjugateGradient,
    GaussSeidelSolver,
    GradientDescent,
    JacobiSolver,
    LeastSquaresGD,
    MomentumGradientDescent,
    QuadraticFunction,
    RedBlackGaussSeidelSolver,
    RedBlackSorSolver,
    RosenbrockFunction,
    SorSolver,
    batched_kernels_for,
    batching_support,
    supports_batching,
)
from repro.solvers.base import IterativeMethod
from repro.solvers.batched import (
    _BatchedCG,
    _BatchedGaussSeidel,
    _BatchedGD,
    _BatchedGmm,
    _BatchedSor,
    _Passthrough,
)
from repro.solvers.functions import ObjectiveFunction


def _spd(n=8, seed=7):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.uniform(-2, 2, n)
    return A, b


def _quadratic(n=6, seed=3):
    A, b = _spd(n, seed)
    return QuadraticFunction(A, b)


class TestSupportsBatching:
    def test_supported_methods(self):
        A, b = _spd()
        assert supports_batching(JacobiSolver(A, b))
        assert supports_batching(ConjugateGradient(A, b))
        assert supports_batching(GradientDescent(_quadratic()))
        assert supports_batching(
            GradientDescent(RosenbrockFunction(dim=4))
        )
        X = np.random.default_rng(0).uniform(-1, 1, (20, 5))
        y = X @ np.arange(1.0, 6.0)
        assert supports_batching(LeastSquaresGD(X, y))

    def test_autoregression_is_batchable(self):
        """The AR application inherits every loop hook from
        LeastSquaresGD, so real sweep datasets route through the
        batched path."""
        from repro.apps.autoregression import AutoRegression
        from repro.data.registry import load_dataset

        method = AutoRegression.from_dataset(load_dataset("hangseng"))
        assert supports_batching(method)
        kernels = batched_kernels_for(method, 4)
        assert isinstance(kernels, _Passthrough)

    def test_triangular_solve_splittings_admitted(self):
        """GS/SOR batch via a per-lane exact triangular solve on the
        batched approximate residual."""
        A, b = _spd()
        assert supports_batching(GaussSeidelSolver(A, b))
        assert supports_batching(SorSolver(A, b))
        assert isinstance(
            batched_kernels_for(GaussSeidelSolver(A, b), 3), _BatchedGaussSeidel
        )
        assert isinstance(batched_kernels_for(SorSolver(A, b), 3), _BatchedSor)

    def test_red_black_splittings_admitted(self):
        A, b = _spd()
        assert supports_batching(RedBlackGaussSeidelSolver(A, b))
        assert supports_batching(RedBlackSorSolver(A, b))
        kernels = batched_kernels_for(RedBlackGaussSeidelSolver(A, b), 4)
        assert isinstance(kernels, _Passthrough)
        assert kernels.replayable

    def test_momentum_refused(self):
        assert not supports_batching(
            MomentumGradientDescent(_quadratic())
        )

    def test_gmm_admitted(self):
        from repro.apps.gmm import GaussianMixtureEM
        from repro.data.registry import load_dataset

        method = GaussianMixtureEM.from_dataset(load_dataset("3cluster"))
        assert supports_batching(method)
        assert isinstance(batched_kernels_for(method, 2), _BatchedGmm)

    def test_subclass_overriding_a_loop_hook_refused(self):
        A, b = _spd()

        class DampedJacobi(JacobiSolver):
            def direction(self, x, engine):
                return 0.5 * super().direction(x, engine)

        class RescaledJacobi(JacobiSolver):
            def postprocess(self, x):
                return np.asarray(x) * 1.0

        class StatelessJacobi(JacobiSolver):
            evaluate = IterativeMethod.evaluate

        assert not supports_batching(DampedJacobi(A, b))
        assert not supports_batching(RescaledJacobi(A, b))
        support = batching_support(StatelessJacobi(A, b))
        assert support.reason is BatchRefusal.OVERRIDDEN_HOOKS
        assert "(evaluate)" in support.message
        # A subclass adding only non-loop members stays batchable.

        class TaggedJacobi(JacobiSolver):
            note = "no hook overridden"

        assert supports_batching(TaggedJacobi(A, b))

    def test_custom_gradient_approx_function_refused(self):
        class Noisy(ObjectiveFunction):
            def value(self, x):
                return float(np.sum(np.asarray(x) ** 2))

            def gradient(self, x):
                return 2.0 * np.asarray(x, dtype=np.float64)

            def gradient_approx(self, x, engine):
                return engine.quantize(self.gradient(x)) * 0.99

        assert not supports_batching(GradientDescent(Noisy(dim=3)))

    def test_default_gradient_approx_function_admitted(self):
        class Plain(ObjectiveFunction):
            def value(self, x):
                return float(np.sum(np.asarray(x) ** 2))

            def gradient(self, x):
                return 2.0 * np.asarray(x, dtype=np.float64)

        method = GradientDescent(Plain(dim=3))
        assert supports_batching(method)
        assert isinstance(batched_kernels_for(method, 2), _BatchedGD)


class TestBatchingSupportReasons:
    """Structured refusals: every ``False`` carries a reason enum and a
    human-readable message, and every admission carries neither."""

    def test_admitted_support_is_truthy_and_reasonless(self):
        A, b = _spd()
        support = batching_support(JacobiSolver(A, b))
        assert support
        assert support.supported
        assert support.reason is None
        assert support.message == ""

    def test_no_adapter_reason(self):
        support = batching_support(MomentumGradientDescent(_quadratic()))
        assert not support
        assert support.reason is BatchRefusal.NO_ADAPTER
        assert "MomentumGradientDescent" in support.message

    def test_overridden_hooks_reason_names_the_hooks(self):
        A, b = _spd()

        class DampedJacobi(JacobiSolver):
            def direction(self, x, engine):
                return 0.5 * super().direction(x, engine)

            def update(self, x, alpha, d, engine):
                return super().update(x, alpha, d, engine)

        support = batching_support(DampedJacobi(A, b))
        assert not support
        assert support.reason is BatchRefusal.OVERRIDDEN_HOOKS
        assert "direction" in support.message
        assert "update" in support.message

    def test_unsupported_function_reason(self):
        class Noisy(ObjectiveFunction):
            def value(self, x):
                return float(np.sum(np.asarray(x) ** 2))

            def gradient(self, x):
                return 2.0 * np.asarray(x, dtype=np.float64)

            def gradient_approx(self, x, engine):
                return engine.quantize(self.gradient(x)) * 0.99

        support = batching_support(GradientDescent(Noisy(dim=3)))
        assert not support
        assert support.reason is BatchRefusal.UNSUPPORTED_FUNCTION
        assert "Noisy" in support.message

    def test_bool_wrapper_agrees_with_structured_gate(self):
        A, b = _spd()
        for method in (
            JacobiSolver(A, b),
            SorSolver(A, b),
            MomentumGradientDescent(_quadratic()),
        ):
            assert supports_batching(method) == bool(batching_support(method))


class TestAdapterConstruction:
    def test_registry_picks_the_matching_adapter(self):
        A, b = _spd()
        assert isinstance(
            batched_kernels_for(JacobiSolver(A, b), 3), _Passthrough
        )
        assert isinstance(
            batched_kernels_for(ConjugateGradient(A, b), 3), _BatchedCG
        )
        assert isinstance(
            batched_kernels_for(GradientDescent(_quadratic()), 3), _BatchedGD
        )

    def test_unsupported_returns_none(self):
        assert batched_kernels_for(MomentumGradientDescent(_quadratic()), 2) is None

    def test_adapters_are_fresh_and_sized_per_call(self):
        A, b = _spd()
        method = ConjugateGradient(A, b)
        k1 = batched_kernels_for(method, 3)
        k2 = batched_kernels_for(method, 5)
        assert k1 is not k2
        assert len(k1._prev) == 3 and len(k2._prev) == 5
        # CG's per-lane caches start empty and independent.
        k1._prev[0][b"x"] = np.zeros(2)
        assert k1._prev[1] == {} and k2._prev[0] == {}
