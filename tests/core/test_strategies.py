"""Behavioural tests for the reconfiguration strategies.

A scripted fake observation stream lets each rule be pinned without
running a full solver.
"""

import numpy as np
import pytest

from repro.core.characterize import CharacterizationTable, ModeImpact
from repro.core.strategies.adaptive import AdaptiveAngleStrategy
from repro.core.strategies.base import Observation
from repro.core.strategies.incremental import IncrementalStrategy
from repro.core.strategies.static_mode import StaticModeStrategy


def fake_characterization(bank):
    eps = {"level1": 1e-1, "level2": 1e-3, "level3": 1e-5, "level4": 1e-7, "acc": 0.0}
    impacts = {
        m.name: ModeImpact(
            mode_name=m.name,
            quality_error=eps[m.name],
            energy_per_iteration=m.energy_per_add * 100,
            probes=3,
        )
        for m in bank
    }
    return CharacterizationTable(impacts=impacts, f_x0=10.0, f_x1=9.0)


def make_obs(
    bank,
    mode,
    iteration=0,
    f_prev=10.0,
    f_new=9.0,
    x_prev=None,
    x_new=None,
    grad_prev=None,
    grad_new=None,
    epsilon=None,
    converged=False,
):
    x_prev = np.array([1.0, 1.0]) if x_prev is None else x_prev
    x_new = np.array([0.5, 0.5]) if x_new is None else x_new
    grad_prev = np.array([1.0, 1.0]) if grad_prev is None else grad_prev
    grad_new = np.array([0.5, 0.5]) if grad_new is None else grad_new
    eps_table = {
        "level1": 1e-1,
        "level2": 1e-3,
        "level3": 1e-5,
        "level4": 1e-7,
        "acc": 0.0,
    }
    return Observation(
        iteration=iteration,
        x_prev=x_prev,
        x_new=x_new,
        f_prev=f_prev,
        f_new=f_new,
        grad_prev=grad_prev,
        grad_new=grad_new,
        mode=mode,
        epsilon=eps_table[mode.name] if epsilon is None else epsilon,
        converged=converged,
    )


class TestStaticStrategy:
    def test_pins_mode_forever(self, bank32):
        strat = StaticModeStrategy("level2")
        mode = strat.start(bank32, fake_characterization(bank32))
        assert mode.name == "level2"
        for i in range(5):
            decision = strat.decide(make_obs(bank32, mode, iteration=i, f_new=20.0))
            assert decision.mode.name == "level2"
            assert not decision.rollback

    def test_does_not_verify_convergence(self):
        assert StaticModeStrategy("level1").verify_convergence is False

    def test_unknown_mode_raises_at_start(self, bank32):
        strat = StaticModeStrategy("level17")
        with pytest.raises(KeyError):
            strat.start(bank32, fake_characterization(bank32))


class TestIncrementalStrategy:
    def test_starts_at_lowest(self, bank32):
        strat = IncrementalStrategy()
        assert strat.start(bank32, fake_characterization(bank32)).name == "level1"

    def test_steady_descent_keeps_mode(self, bank32):
        strat = IncrementalStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        # Good step: descending, aligned with -gradient, big step norm.
        decision = strat.decide(
            make_obs(
                bank32,
                mode,
                f_prev=10.0,
                f_new=5.0,
                x_prev=np.array([2.0, 2.0]),
                x_new=np.array([0.5, 0.5]),
                grad_prev=np.array([1.0, 1.0]),
            )
        )
        assert decision.mode.name == "level1"
        assert decision.reason == "steady"

    def test_function_scheme_escalates_and_rolls_back(self, bank32):
        strat = IncrementalStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        decision = strat.decide(make_obs(bank32, mode, f_prev=5.0, f_new=6.0))
        assert decision.rollback
        assert decision.mode.name == "level2"
        assert decision.reason == "function"

    def test_gradient_scheme_escalates_without_rollback(self, bank32):
        strat = IncrementalStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        decision = strat.decide(
            make_obs(
                bank32,
                mode,
                f_prev=10.0,
                f_new=9.0,
                x_prev=np.array([0.0, 0.0]),
                x_new=np.array([1.0, 1.0]),
                grad_prev=np.array([1.0, 1.0]),  # moved uphill
            )
        )
        assert not decision.rollback
        assert decision.mode.name == "level2"
        assert decision.reason == "gradient"

    def test_quality_scheme_escalates(self, bank32):
        strat = IncrementalStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        decision = strat.decide(
            make_obs(
                bank32,
                mode,
                f_prev=10.0,
                f_new=9.999,  # decrease below level1's 0.1 floor
                x_prev=np.array([10.0, 10.0]),
                x_new=np.array([10.0, 10.0 - 1e-6]),
                grad_prev=np.array([1.0, 1.0]),
            )
        )
        assert decision.mode.name == "level2"
        assert decision.reason == "quality"

    def test_escalation_saturates_at_accurate(self, bank32):
        strat = IncrementalStrategy()
        strat.start(bank32, fake_characterization(bank32))
        mode = bank32.accurate
        strat._mode = mode
        decision = strat.decide(make_obs(bank32, mode, f_prev=5.0, f_new=6.0))
        assert decision.mode.name == "acc"

    def test_premature_convergence_escalates_one_level(self, bank32):
        strat = IncrementalStrategy()
        strat.start(bank32, fake_characterization(bank32))
        nxt = strat.on_premature_convergence(bank32.by_name("level2"))
        assert nxt.name == "level3"

    def test_scheme_toggles(self, bank32):
        strat = IncrementalStrategy(
            use_gradient_scheme=False,
            use_quality_scheme=False,
            use_function_scheme=False,
        )
        mode = strat.start(bank32, fake_characterization(bank32))
        # Even a terrible step changes nothing with all schemes off.
        decision = strat.decide(make_obs(bank32, mode, f_prev=1.0, f_new=99.0))
        assert decision.mode.name == "level1"
        assert not decision.rollback


class TestAdaptiveStrategy:
    def test_starts_at_lowest(self, bank32):
        strat = AdaptiveAngleStrategy()
        assert strat.start(bank32, fake_characterization(bank32)).name == "level1"

    def test_angle_self_calibrates_to_90(self, bank32):
        strat = AdaptiveAngleStrategy()
        strat.start(bank32, fake_characterization(bank32))
        assert strat.manifold_angle(5.0) == pytest.approx(90.0)

    def test_angle_decays_with_gradient_decades(self, bank32):
        strat = AdaptiveAngleStrategy(angle_decades=6.0)
        strat.start(bank32, fake_characterization(bank32))
        a0 = strat.manifold_angle(1.0)
        a3 = strat.manifold_angle(1e-3)
        a6 = strat.manifold_angle(1e-6)
        assert a0 == pytest.approx(90.0)
        assert a3 == pytest.approx(45.0)
        assert a6 == pytest.approx(0.0)
        assert strat.manifold_angle(1e-9) == 0.0  # clamped

    def test_function_scheme_rolls_back_with_floor(self, bank32):
        strat = AdaptiveAngleStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        decision = strat.decide(make_obs(bank32, mode, f_prev=5.0, f_new=6.0))
        assert decision.rollback
        assert decision.mode.index >= bank32.by_name("level2").index

    def test_cooldown_floor_expires(self, bank32):
        strat = AdaptiveAngleStrategy(failure_cooldown=2)
        mode = strat.start(bank32, fake_characterization(bank32))
        strat.decide(make_obs(bank32, mode, iteration=0, f_prev=5.0, f_new=6.0))
        assert strat._floor_index >= 1
        # After the cooldown window the floor resets on a good step.
        strat.decide(
            make_obs(
                bank32,
                bank32.by_name("level2"),
                iteration=5,
                f_prev=5.0,
                f_new=1.0,
                x_prev=np.array([3.0, 3.0]),
                x_new=np.array([0.1, 0.1]),
            )
        )
        assert strat._floor_index == 0

    def test_quality_override_escalates(self, bank32):
        strat = AdaptiveAngleStrategy()
        mode = strat.start(bank32, fake_characterization(bank32))
        decision = strat.decide(
            make_obs(
                bank32,
                mode,
                f_prev=10.0,
                f_new=9.9999,  # below level1's floor
                x_prev=np.array([10.0, 10.0]),
                x_new=np.array([10.0, 10.0 - 1e-9]),
                grad_new=np.array([5.0, 5.0]),  # steep: LUT would stay low
            )
        )
        assert decision.reason == "quality"
        assert decision.mode.index >= 1

    def test_premature_convergence_jumps_to_accurate(self, bank32):
        strat = AdaptiveAngleStrategy()
        strat.start(bank32, fake_characterization(bank32))
        assert strat.on_premature_convergence(bank32.by_name("level2")).name == "acc"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveAngleStrategy(update_period=0)
        with pytest.raises(ValueError):
            AdaptiveAngleStrategy(angle_decades=0)
        with pytest.raises(ValueError):
            AdaptiveAngleStrategy(failure_cooldown=-1)
        with pytest.raises(ValueError):
            AdaptiveAngleStrategy(budget_smoothing=1.0)

    def test_rejects_negative_or_non_finite_min_weight(self):
        for bad in (-0.05, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="min_weight"):
                AdaptiveAngleStrategy(min_weight=bad)
        assert AdaptiveAngleStrategy(min_weight=0.0).min_weight == 0.0

    def test_update_period_controls_lut_refresh(self, bank32):
        strat = AdaptiveAngleStrategy(update_period=10)
        mode = strat.start(bank32, fake_characterization(bank32))
        lut_before = strat._lut
        strat.decide(
            make_obs(
                bank32,
                mode,
                iteration=0,
                f_prev=10.0,
                f_new=5.0,
                x_prev=np.array([3.0, 3.0]),
                x_new=np.array([0.1, 0.1]),
            )
        )
        assert strat._lut is lut_before  # iteration 0: (0+1) % 10 != 0
        strat.decide(
            make_obs(
                bank32,
                mode,
                iteration=9,
                f_prev=5.0,
                f_new=2.0,
                x_prev=np.array([3.0, 3.0]),
                x_new=np.array([0.1, 0.1]),
            )
        )
        assert strat._lut is not lut_before
