"""The iterative-method abstraction ApproxIt operates on.

An :class:`IterativeMethod` owns the problem data and exposes the
direction / update split of Section 2.1 of the paper.  The state vector
``x`` is always a flat float64 array; methods with structured parameters
(e.g. the GMM application) pack and unpack internally.

Every hook that can involve approximate arithmetic takes the
:class:`~repro.arith.ApproxEngine` for the currently selected mode; the
hooks that feed the reconfiguration schemes (:meth:`objective`,
:meth:`gradient`) are exact, matching the paper's premise that those
runtime quantities "are already available along with conducting IMs" on
the error-sensitive (exact) portion of the platform.

Each iterate is evaluated once: :meth:`IterativeMethod.evaluate` returns
the objective plus a read-only *state*, the exact work that
:meth:`gradient` and the next :meth:`direction` would redo at that ``x``.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.arith.engine import ApproxEngine, SparseResidentMatrix

_CONVERGENCE_KINDS = ("abs", "rel")

#: Recursion ceiling for :func:`_hash_into`; instances nest problem data
#: a couple of levels deep (method → dataset → arrays), never this deep.
_FINGERPRINT_MAX_DEPTH = 8


def _hash_into(h, value, depth: int = 0) -> None:
    """Feed one value into a hash, structurally and type-tagged.

    Covers everything an :class:`IterativeMethod` instance holds:
    numpy arrays (dtype + shape + bytes), scalars, strings, containers,
    and nested plain objects (recursed through ``__dict__``).  Type tags
    and length prefixes keep distinct structures from colliding.
    """
    if depth > _FINGERPRINT_MAX_DEPTH:
        raise ValueError(
            "fingerprint recursion exceeded depth "
            f"{_FINGERPRINT_MAX_DEPTH}: cyclic or pathological method state"
        )
    if isinstance(value, np.ndarray):
        h.update(b"nd")
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, int, float, complex, str, bytes, type(None))):
        h.update(type(value).__name__.encode())
        h.update(repr(value).encode())
    elif isinstance(value, (np.bool_, np.integer, np.floating)):
        h.update(b"np-scalar")
        h.update(repr(value.item()).encode())
    elif isinstance(value, SparseResidentMatrix):
        # Slots-only (no __dict__) and carries lazily-built caches, so
        # neither the __dict__ recursion nor the repr fallback below
        # would hash its content: feed the CSR triplet explicitly.
        h.update(b"csr")
        h.update(repr(value.shape).encode())
        h.update(value.indptr.tobytes())
        h.update(value.indices.tobytes())
        h.update(value.data.tobytes())
    elif isinstance(value, dict):
        h.update(b"dict" + str(len(value)).encode())
        for key in sorted(value, key=repr):
            _hash_into(h, key, depth + 1)
            _hash_into(h, value[key], depth + 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = (
            sorted(value, key=repr)
            if isinstance(value, (set, frozenset))
            else value
        )
        h.update(type(value).__name__.encode() + str(len(items)).encode())
        for item in items:
            _hash_into(h, item, depth + 1)
    elif hasattr(value, "__dict__"):
        h.update(b"obj")
        h.update(
            f"{type(value).__module__}.{type(value).__qualname__}".encode()
        )
        _hash_into(h, vars(value), depth + 1)
    else:
        # Slots-only helpers and other leaves: fall back to repr, which
        # is stable for everything the solvers actually store.
        h.update(b"repr")
        h.update(repr(value).encode())


@dataclass
class IterationState:
    """Everything the framework tracks about one accepted iteration.

    Attributes:
        iteration: 0-based index of the iteration that produced ``x``.
        x: the iterate after the update.
        objective: exact objective value at ``x``.
        mode_name: approximation mode the iteration ran on.
    """

    iteration: int
    x: np.ndarray
    objective: float
    mode_name: str


class IterativeMethod(ABC):
    """Base class for solvers driven by the ApproxIt framework.

    Attributes:
        name: short identifier used in reports.
        max_iter: iteration budget (the paper's ``MAX_ITER``).
        tolerance: convergence threshold on the objective change.
        convergence_kind: ``"abs"`` compares ``|f_new - f_prev|`` to the
            tolerance directly; ``"rel"`` scales by ``max(1, |f_prev|)``.
    """

    name: str = "iterative-method"
    #: Fractional bits the application's operand scale calls for; the
    #: framework uses it when no explicit format is supplied.  ``None``
    #: keeps the platform default (Q15.16 at width 32).
    preferred_frac_bits: int | None = None

    def __init__(
        self,
        max_iter: int = 500,
        tolerance: float = 1e-8,
        convergence_kind: str = "rel",
    ):
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        if convergence_kind not in _CONVERGENCE_KINDS:
            raise ValueError(
                f"convergence_kind must be one of {_CONVERGENCE_KINDS}, "
                f"got {convergence_kind!r}"
            )
        self.max_iter = int(max_iter)
        self.tolerance = float(tolerance)
        self.convergence_kind = convergence_kind

    # ------------------------------------------------------------------
    # Problem definition (must be implemented)
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_state(self) -> np.ndarray:
        """The starting iterate ``x^0`` (deterministic per instance, so
        different modes/strategies compare from identical starts)."""

    @abstractmethod
    def objective(self, x: np.ndarray) -> float:
        """Exact objective ``f(x)`` — the quantity being minimized."""

    @abstractmethod
    def direction(self, x: np.ndarray, engine: ApproxEngine) -> np.ndarray:
        """The search direction ``d^k`` at ``x``, computed through
        ``engine`` (direction-error injection point)."""

    # ------------------------------------------------------------------
    # Hooks with sensible defaults
    # ------------------------------------------------------------------
    def evaluate(self, x: np.ndarray) -> tuple[float, object]:
        """``(objective(x), state)``; the default shares nothing (``None``).

        ``state`` is a pure function of ``x`` with read-only arrays.  When
        it is not ``None`` the online loop passes it as ``state=`` to
        :meth:`gradient` and the next :meth:`direction` at that ``x``, so
        those hooks (and subclass overrides of them) must accept it.
        """
        return self.objective(x), None

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient, used by the reconfiguration schemes.

        The default is a central finite difference; applications should
        override with an analytic gradient whenever one exists.
        """
        x = np.asarray(x, dtype=np.float64)
        grad = np.empty_like(x)
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            grad[i] = (self.objective(x + e) - self.objective(x - e)) / (2 * h)
        return grad

    def step_size(self, x: np.ndarray, d: np.ndarray, iteration: int) -> float:
        """Step length ``alpha^k``; constant 1 unless overridden."""
        return 1.0

    def update(
        self, x: np.ndarray, alpha: float, d: np.ndarray, engine: ApproxEngine
    ) -> np.ndarray:
        """Apply Eq. 2, ``x + alpha d``, through the approximate datapath
        (update-error injection point)."""
        return engine.scale_add(x, alpha, d)

    def converged(self, f_prev: float, f_new: float) -> bool:
        """Whether the objective change is below the tolerance."""
        change = abs(f_new - f_prev)
        if self.convergence_kind == "rel":
            return change <= self.tolerance * max(1.0, abs(f_prev))
        return change <= self.tolerance

    def postprocess(self, x: np.ndarray) -> np.ndarray:
        """Clean an iterate after the update (e.g. re-project structured
        parameters).  Identity by default."""
        return x

    def replay_operands(self, x: np.ndarray) -> dict[str, object]:
        """Iteration-varying operands for program capture/replay.

        The capture layer (:mod:`repro.arith.program`) classifies an
        engine operand it saw during recording as *constant* when the
        very same object shows up again at replay — sound for the
        ``pin``-style convention that arrays handed to the engine are
        immutable.  A method that keeps a mutable scratch array across
        iterations and feeds it to the engine (e.g. a direction buffer
        updated in place) must declare it here so the recorder treats it
        as varying and re-encodes it every replay.  The framework always
        declares the iterate ``x`` and the direction ``d``; the default
        declares nothing extra.
        """
        return {}

    def fingerprint(self) -> str:
        """Stable content hash of this method instance.

        Hashes the concrete class plus everything the instance holds
        (problem data included), so two instances fingerprint equal
        exactly when they would characterize identically — the key the
        disk-backed characterization cache is addressed by.  Mutating
        problem data changes the fingerprint; no manual invalidation.
        """
        h = hashlib.sha256()
        h.update(f"{type(self).__module__}.{type(self).__qualname__}".encode())
        _hash_into(h, vars(self))
        return h.hexdigest()

    def describe(self) -> str:
        """One-line description for reports."""
        return (
            f"{type(self).__name__}(max_iter={self.max_iter}, "
            f"tol={self.tolerance:g}, kind={self.convergence_kind})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def evaluate_into(method: IterativeMethod, x: np.ndarray) -> tuple[float, dict]:
    """``evaluate`` (assign it as the class attribute) for a method whose
    ``objective(x, state)`` fills the ``state`` dict it is given, inside
    ``objective`` where profilers look.

    The stored arrays are made read-only.  Such a method's stateless
    ``gradient(x)`` and ``direction(x, engine)`` build their state here
    too, so the exact work has one code path; a subclass overriding
    ``objective`` must keep its ``state`` parameter.
    """
    state: dict = {}
    f = method.objective(x, state)
    for value in state.values():
        value.flags.writeable = False
    return f, state


def state_kwargs(state) -> dict:
    """The ``state=`` keyword for a hook, or none for a stateless method."""
    return {} if state is None else {"state": state}
