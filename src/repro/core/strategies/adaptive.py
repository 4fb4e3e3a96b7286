"""Adaptive angle-based reconfiguration strategy (Section 4.2).

The strategy measures the steepness of the objective manifold at the
current iterate as an angle ``alpha in [0°, 90°]`` — steep (large
``alpha``) means the algorithm tolerates more approximation error, flat
(small ``alpha``) means it is close to convergence and error-sensitive.
A lookup table partitions the angle range among the approximation
modes; each iteration reads its angle and runs on the mode owning that
range, so reconfiguration can move in *both* directions, unlike the
incremental strategy.

**Offline initialization (Eq. 5).**  The angle shares
``Omega = (omega_0, ...)`` are chosen by minimizing expected energy
subject to an error budget::

    min  Omegaᵀ J
    s.t. sum(omega_i) = 1,  omega_i >= omega_min,
         Omegaᵀ eps <= E

with ``J`` the characterized per-iteration energies, ``eps`` the
characterized quality errors and ``E = |f(x¹) − f(x⁰)|`` (relative form,
see :func:`relative_budget`).  The LP has one coupling constraint over
the simplex, so an optimal vertex mixes at most two modes: it is solved
exactly in closed form by enumerating those vertices (the tests check
it against ``scipy``'s HiGHS solver as the oracle).

**Online f-step update.**  Every ``update_period`` iterations the budget
is refreshed to the latest observed decrease and the LP re-solved —
``update_period=1`` (the paper's ``f=1``) greedily re-optimizes each
iteration.

Because the angle LUT reconfigures in both directions, runs under this
strategy bounce between modes more than incremental ones; program
capture/replay (:mod:`repro.arith.program`) caches one iteration
program *per mode*, so revisiting a mode — after a rollback too —
replays its existing program rather than re-recording, and LUT
refreshes never touch the cache.

The function scheme's rollback is retained as the recovery safety net,
and premature convergence in an approximate mode hands over to the
accurate mode, preserving the quality guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arith.modes import ApproxMode, ModeBank
from repro.core.characterize import CharacterizationTable
from repro.core.schemes import (
    function_scheme_violated,
    quality_scheme_violated,
    windowed_quality_violated,
)
from repro.core.strategies.base import Decision, Observation, ReconfigurationStrategy

#: Guard for relative error budgets near perfectly flat objectives.
_TINY = 1e-300


def relative_budget(f_prev: float, f_new: float) -> float:
    """Error budget ``E`` in the dimensionless units of Definition 1.

    The paper sets ``E = f(x^k) − f(x^{k-1})``; since the characterized
    epsilons are *relative* quality errors, the budget is normalized by
    the objective magnitude so both sides of ``Omegaᵀ eps <= E``
    carry the same units.
    """
    return abs(f_new - f_prev) / max(abs(f_prev), _TINY)


def solve_energy_lp(
    energies: np.ndarray,
    epsilons: np.ndarray,
    budget: float,
    min_weight: float = 1e-3,
) -> np.ndarray:
    """Solve the Eq.-5 allocation problem exactly.

    With a single coupling constraint over the simplex, an optimal
    vertex assigns the free mass to at most two modes, so enumerating
    every pure allocation and every budget-active pair and keeping the
    cheapest feasible one is exact.

    Args:
        energies: per-mode energy cost ``J`` (ladder order).
        epsilons: per-mode quality error ``eps`` (ladder order).
        budget: tolerated error ``E`` (same units as ``epsilons``).
        min_weight: strict-positivity floor for every share (the paper
            requires ``omega_i > 0``).

    Returns:
        The share vector ``Omega`` (sums to 1).  When even the
        all-accurate allocation violates the budget, the minimum-error
        allocation is returned — the strategy then leans maximally on
        accurate hardware.
    """
    energies = np.asarray(energies, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    n = energies.shape[0]
    if epsilons.shape[0] != n:
        raise ValueError(f"J and eps lengths differ: {n} vs {epsilons.shape[0]}")
    _check_min_weight(min_weight)
    if n * min_weight >= 1.0:
        raise ValueError(f"min_weight {min_weight} infeasible for {n} modes")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    floor = np.full(n, min_weight)
    free = 1.0 - n * min_weight
    # Infeasible budgets (and, as a guard, an empty enumeration) put all
    # free mass on the least-error mode.
    least_error = floor.copy()
    least_error[int(np.argmin(epsilons))] += free
    floor_error = float(epsilons @ floor)
    if budget < floor_error + free * float(epsilons.min()):
        return least_error
    remaining = budget - floor_error

    best_omega = least_error
    best_cost = np.inf

    def consider(omega: np.ndarray) -> None:
        nonlocal best_omega, best_cost
        if float(omega @ epsilons) <= budget + 1e-15:
            cost = float(omega @ energies)
            if cost < best_cost:
                best_cost = cost
                best_omega = omega

    for i in range(n):
        pure = floor.copy()
        pure[i] += free
        consider(pure)
        for j in range(n):
            if i == j:
                continue
            denom = epsilons[i] - epsilons[j]
            if denom == 0:
                continue
            # share_i * eps_i + (free - share_i) * eps_j = remaining
            share = (remaining - epsilons[j] * free) / denom
            if 0 <= share <= free:
                mixed = floor.copy()
                mixed[i] += share
                mixed[j] += free - share
                consider(mixed)
    return best_omega


def _check_min_weight(min_weight: float) -> None:
    if not (math.isfinite(min_weight) and min_weight >= 0):
        raise ValueError(f"min_weight must be finite and >= 0, got {min_weight}")


@dataclass
class AngleLookupTable:
    """Partition of the angle range ``[0°, 90°]`` among modes.

    Flat angles (near 0°, close to convergence) belong to the most
    accurate mode; steep angles to the least accurate.  ``thresholds``
    holds the *upper* angle bound of each mode in ladder order (least
    accurate last at 90°).

    Built from a share vector via :meth:`from_shares`.
    """

    thresholds: np.ndarray  # ladder order: entry i = upper bound of mode i
    shares: np.ndarray

    @classmethod
    def from_shares(cls, shares: np.ndarray) -> "AngleLookupTable":
        """Allocate angle spans proportional to ``shares``.

        ``shares`` is in ladder order (least accurate first).  The most
        accurate mode owns ``[0, 90*share_acc)``, the next one the span
        above it, and so on; the least accurate mode's span ends at 90°.
        """
        shares = np.asarray(shares, dtype=np.float64)
        if np.any(shares < 0) or not math.isclose(float(shares.sum()), 1.0, rel_tol=1e-6):
            raise ValueError(f"shares must be a distribution, got {shares}")
        # Spans from the accurate end (last ladder entry) upward.
        spans_from_flat = shares[::-1] * 90.0
        upper_from_flat = np.cumsum(spans_from_flat)
        thresholds = upper_from_flat[::-1].copy()
        thresholds[0] = 90.0  # guard against cumulative rounding
        return cls(thresholds=thresholds, shares=shares.copy())

    def lookup(self, angle_deg: float) -> int:
        """Ladder index of the mode owning ``angle_deg``.

        Angles are clipped into ``[0, 90]``.
        """
        angle = min(max(float(angle_deg), 0.0), 90.0)
        n = self.thresholds.shape[0]
        # Most accurate mode first: find the innermost span containing
        # the angle.  thresholds decrease with ladder index reversed.
        for idx in range(n - 1, -1, -1):
            if angle <= self.thresholds[idx] + 1e-12:
                return idx
        return 0


class AdaptiveAngleStrategy(ReconfigurationStrategy):
    """Angle-LUT mode selection with f-step LP refresh.

    Args:
        update_period: the paper's ``f`` — LUT refresh period in
            iterations (1 re-optimizes every step).
        min_weight: strict-positivity floor of the LP shares.
        angle_decades: orders of magnitude of gradient-norm attenuation
            mapped onto the 90°→0° angle range (see
            :meth:`manifold_angle`).
        quality_window: window length of the sustained-stagnation check
            (see :func:`~repro.core.schemes.windowed_quality_violated`);
            0 disables it.
        use_function_scheme: keep the rollback recovery net (on by
            default; disable only for ablation).
    """

    name = "adaptive"

    def __init__(
        self,
        update_period: int = 1,
        min_weight: float = 1e-6,
        angle_decades: float = 6.0,
        failure_cooldown: int = 10,
        budget_smoothing: float = 0.5,
        quality_window: int = 8,
        use_function_scheme: bool = True,
    ):
        if update_period < 1:
            raise ValueError(f"update_period must be >= 1, got {update_period}")
        if angle_decades <= 0:
            raise ValueError(f"angle_decades must be > 0, got {angle_decades}")
        if failure_cooldown < 0:
            raise ValueError(
                f"failure_cooldown must be >= 0, got {failure_cooldown}"
            )
        if not 0 <= budget_smoothing < 1:
            raise ValueError(
                f"budget_smoothing must be in [0, 1), got {budget_smoothing}"
            )
        if quality_window < 0:
            raise ValueError(f"quality_window must be >= 0, got {quality_window}")
        _check_min_weight(min_weight)
        self.quality_window = int(quality_window)
        self.update_period = int(update_period)
        self.min_weight = float(min_weight)
        self.angle_decades = float(angle_decades)
        self.failure_cooldown = int(failure_cooldown)
        self.budget_smoothing = float(budget_smoothing)
        self.use_function_scheme = use_function_scheme

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self, bank: ModeBank, characterization: CharacterizationTable
    ) -> ApproxMode:
        self._bind(bank, characterization)
        self._energies = np.array(
            [characterization.energies()[m.name] for m in bank]
        )
        self._epsilons = np.array(
            [characterization.epsilons()[m.name] for m in bank]
        )
        self._budget = relative_budget(
            characterization.f_x0, characterization.f_x1
        )
        self._lut = self._build_lut(self._budget)
        # Offline LUT initialization, tagged iteration -1 in traces.
        self._emit_lut_refresh(-1)
        self._grad_ref: float | None = None
        self._floor_index = 0
        self._floor_until = -1
        self._recent_f: list[float] = []
        self._mode = bank.lowest
        return self._mode

    def _build_lut(self, budget: float) -> AngleLookupTable:
        shares = solve_energy_lp(
            self._energies, self._epsilons, budget, self.min_weight
        )
        return AngleLookupTable.from_shares(shares)

    def _emit_lut_refresh(self, iteration: int) -> None:
        self.emit_event(
            "lut_refresh",
            iteration,
            budget=float(self._budget),
            shares=[float(s) for s in self._lut.shares],
        )

    # ------------------------------------------------------------------
    # Angle measurement
    # ------------------------------------------------------------------
    def manifold_angle(self, grad_norm: float) -> float:
        """Steepness angle of the objective manifold, in degrees.

        For a surface ``z = f(x)`` the tangent plane makes an angle
        ``atan(‖∇f‖)`` with the base plane (Figure 2).  Two practical
        adjustments make the raw angle usable as a selector:

        * **self-calibration** — gradient magnitudes vary by orders of
          magnitude across applications, so norms are measured relative
          to the first observed gradient (defined to be the 90° end);
        * **log rescaling** — along a converging run the gradient decays
          geometrically, so the raw ``atan`` collapses almost the whole
          run onto fractions of a degree.  The angle is therefore taken
          through the gradient's *log-attenuation*: a decay of
          ``angle_decades`` orders of magnitude spans the full 90°→0°
          range linearly in decades, keeping the LUT's spans meaningful
          over the entire trajectory.
        """
        if grad_norm < 0:
            raise ValueError(f"grad_norm must be >= 0, got {grad_norm}")
        if self._grad_ref is None:
            self._grad_ref = max(grad_norm, _TINY)
        attenuation = math.log10(max(grad_norm, _TINY) / self._grad_ref)
        fraction = 1.0 + attenuation / self.angle_decades
        return 90.0 * min(max(fraction, 0.0), 1.0)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(self, obs: Observation) -> Decision:
        angle = self.manifold_angle(float(np.linalg.norm(obs.grad_new)))

        if self.use_function_scheme and function_scheme_violated(
            obs.f_prev, obs.f_new
        ):
            # Recovery: roll back, and open a cooldown window during
            # which no mode below one level above the failed mode may be
            # selected — a repeat offender would otherwise ping-pong
            # between failing cheaply and rolling back.
            self.emit_event(
                "scheme_fired", obs.iteration, obs.mode.name, scheme="function"
            )
            floor = self._bank.escalate(obs.mode)
            self._floor_index = max(self._floor_index, floor.index)
            self._floor_until = obs.iteration + self.failure_cooldown
            chosen_index = max(self._lut.lookup(angle), self._floor_index)
            self._mode = self._bank[chosen_index]
            return Decision(mode=self._mode, rollback=True, reason="function")

        # Accepted step: refresh the smoothed error budget and, on the
        # f-step schedule, re-solve the LP and rebuild the LUT.  The raw
        # decrease is deflated by the active mode's characterized error
        # floor: progress at a mode's own noise level is indistinguishable
        # from its error and must not be counted as budget, or the mode
        # would keep re-electing itself forever.
        observed = max(relative_budget(obs.f_prev, obs.f_new) - obs.epsilon, 0.0)
        self._budget = (
            self.budget_smoothing * self._budget
            + (1.0 - self.budget_smoothing) * observed
        )
        if (obs.iteration + 1) % self.update_period == 0:
            self._lut = self._build_lut(self._budget)
            self._emit_lut_refresh(obs.iteration)

        chosen_index = self._lut.lookup(angle)
        if obs.iteration < self._floor_until:
            chosen_index = max(chosen_index, self._floor_index)
        else:
            self._floor_index = 0
        reason = f"angle:{angle:.1f}"
        if quality_scheme_violated(
            obs.epsilon, obs.x_prev, obs.x_new, obs.f_prev, obs.f_new
        ):
            # Progress has sunk to the active mode's error floor; bouncing
            # there re-inflates the measured budget with pure noise, so the
            # quality scheme overrides the LUT toward higher accuracy.
            self.emit_event(
                "scheme_fired", obs.iteration, obs.mode.name, scheme="quality"
            )
            chosen_index = max(chosen_index, obs.mode.index + 1)
            reason = "quality"
        elif self.quality_window:
            window = self._recent_f[-self.quality_window :]
            if len(window) >= self.quality_window and windowed_quality_violated(
                obs.epsilon, window, obs.f_new
            ):
                # Sustained stagnation: the mode's noise is masquerading
                # as per-step progress.
                self.emit_event(
                    "scheme_fired",
                    obs.iteration,
                    obs.mode.name,
                    scheme="quality-window",
                )
                chosen_index = max(chosen_index, obs.mode.index + 1)
                reason = "quality-window"
                self._recent_f = []
            else:
                self._recent_f.append(obs.f_new)
        chosen_index = min(chosen_index, len(self._bank) - 1)
        self._mode = self._bank[chosen_index]
        return Decision(mode=self._mode, rollback=False, reason=reason)

    def describe(self) -> str:
        return (
            f"AdaptiveAngleStrategy(f={self.update_period}, "
            f"min_weight={self.min_weight})"
        )
