"""Tests for the Eq.-5 LP solver and the angle lookup table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core.strategies.adaptive import (
    AngleLookupTable,
    relative_budget,
    solve_energy_lp,
)

ENERGIES = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
EPSILONS = np.array([1e-1, 1e-3, 1e-5, 1e-7, 0.0])


@st.composite
def lp_problems(draw):
    """An Eq.-5 problem: a 2-6 mode ladder with increasing energies and
    errors in [0, 0.2] (ties and an error-free mode included), a share
    floor, and a budget that is either drawn from [0, 2 max eps] or sits
    exactly on a boundary (the floor error or a pure mode's error)."""
    n = draw(st.integers(min_value=2, max_value=6))
    steps = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    energies = np.cumsum(steps)
    pool = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=0.2)),
            min_size=1,
            max_size=n,
        )
    )
    epsilons = np.array([draw(st.sampled_from(pool)) for _ in range(n)])
    if draw(st.booleans()):
        epsilons[draw(st.integers(min_value=0, max_value=n - 1))] = 0.0
    min_weight = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.05]))
    floor = np.full(n, min_weight)
    free = 1.0 - n * min_weight
    boundaries = [float(epsilons @ floor) + free * float(epsilons.min())]
    for i in range(n):
        pure = floor.copy()
        pure[i] += free
        boundaries.append(float(pure @ epsilons))
    budget = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=2 * float(epsilons.max())),
            st.sampled_from(boundaries),
        )
    )
    return energies, epsilons, budget, min_weight, boundaries[0]


class TestSolveEnergyLp:
    def test_loose_budget_prefers_cheapest(self):
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=1.0)
        assert omega.argmax() == 0
        assert omega[0] > 0.9

    def test_tight_budget_prefers_accurate(self):
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=1e-12)
        assert omega.argmax() == len(ENERGIES) - 1

    def test_shares_form_distribution(self):
        for budget in (1e-12, 1e-6, 1e-3, 0.5):
            omega = solve_energy_lp(ENERGIES, EPSILONS, budget)
            assert omega.sum() == pytest.approx(1.0)
            assert (omega > 0).all()

    def test_error_constraint_respected(self):
        for budget in (1e-6, 1e-4, 1e-2):
            omega = solve_energy_lp(ENERGIES, EPSILONS, budget, min_weight=1e-9)
            assert float(omega @ EPSILONS) <= budget * (1 + 1e-6)

    def test_intermediate_budget_uses_intermediate_mode(self):
        # Budget below eps2 but above eps3: level3-heavy allocation.
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=5e-5, min_weight=1e-9)
        assert omega.argmax() == 2

    @given(lp_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_highs_oracle(self, problem):
        energies, epsilons, budget, min_weight, min_error = problem
        omega = solve_energy_lp(energies, epsilons, budget, min_weight)
        assert float(omega.sum()) == pytest.approx(1.0, abs=1e-12)
        assert (omega >= min_weight).all()
        n = len(energies)
        if budget < min_error:
            # Infeasible: all free mass goes to the least-error mode.
            least_error = np.full(n, min_weight)
            least_error[int(np.argmin(epsilons))] += 1.0 - n * min_weight
            assert np.array_equal(omega, least_error)
            return
        assert float(omega @ epsilons) <= budget + 1e-15
        oracle = linprog(
            c=energies,
            A_ub=epsilons[np.newaxis, :],
            b_ub=[budget],
            A_eq=np.ones((1, n)),
            b_eq=[1.0],
            bounds=[(min_weight, 1.0)] * n,
            method="highs",
            # HiGHS's default 1e-7 feasibility tolerance would let it
            # undercut a share floor of 1e-9 outright.
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if oracle.success:
            assert float(omega @ energies) <= oracle.fun * (1 + 1e-9) + 1e-12

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            solve_energy_lp(ENERGIES, EPSILONS[:3], 0.1)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            solve_energy_lp(ENERGIES, EPSILONS, -0.1)

    def test_rejects_infeasible_min_weight(self):
        with pytest.raises(ValueError, match="min_weight"):
            solve_energy_lp(ENERGIES, EPSILONS, 0.1, min_weight=0.5)

    def test_rejects_negative_or_non_finite_min_weight(self):
        for bad in (-0.05, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="min_weight"):
                solve_energy_lp(ENERGIES, EPSILONS, 0.1, min_weight=bad)
        omega = solve_energy_lp(ENERGIES, EPSILONS, 0.1, min_weight=0.0)
        assert float(omega.sum()) == pytest.approx(1.0)

    @given(st.floats(min_value=0, max_value=1.0))
    @settings(max_examples=100)
    def test_monotone_budget_monotone_energy(self, budget):
        # More budget can only reduce (or keep) the optimal energy.
        omega_loose = solve_energy_lp(ENERGIES, EPSILONS, budget + 0.01)
        omega_tight = solve_energy_lp(ENERGIES, EPSILONS, budget)
        assert float(omega_loose @ ENERGIES) <= float(omega_tight @ ENERGIES) + 1e-9


class TestAngleLut:
    def test_spans_cover_range(self):
        lut = AngleLookupTable.from_shares(np.array([0.5, 0.3, 0.2]))
        # Spans from flat to steep: mode2 [0,18), mode1 [18,45), mode0 [45,90].
        assert lut.lookup(89.0) == 0
        assert lut.lookup(30.0) == 1
        assert lut.lookup(5.0) == 2

    def test_boundaries_clip(self):
        lut = AngleLookupTable.from_shares(np.array([0.5, 0.5]))
        assert lut.lookup(-10.0) == 1  # below 0 -> flattest -> accurate
        assert lut.lookup(200.0) == 0

    def test_zero_angle_most_accurate(self):
        lut = AngleLookupTable.from_shares(np.array([0.9, 0.05, 0.05]))
        assert lut.lookup(0.0) == 2

    def test_degenerate_share_still_lookupable(self):
        lut = AngleLookupTable.from_shares(np.array([1.0, 0.0]))
        assert lut.lookup(45.0) == 0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            AngleLookupTable.from_shares(np.array([0.5, 0.2]))


class TestRelativeBudget:
    def test_normalizes_by_previous(self):
        assert relative_budget(2.0, 1.0) == pytest.approx(0.5)

    def test_absolute_value(self):
        assert relative_budget(1.0, 2.0) == pytest.approx(1.0)

    def test_guards_zero_objective(self):
        assert np.isfinite(relative_budget(0.0, 1e-8))
