"""Eavesdropper statistic, sign calibration and decision rule."""

import math

import numpy as np
import pytest

from kljnsim.attack import DecisionSign, decide, signs_from_calibration, window_stats
from kljnsim.line import TrialWaveforms
from kljnsim.montecarlo import run_experiment, trial_waveforms
from kljnsim.protocol import PhysicalConfig, ScenarioKind, SearchParams

CFG = PhysicalConfig()
FAST = SearchParams(record_len=2**18)
D = CFG.dt_divisor


def _wf(v_a, v_b=None, i_a=None, i_b=None, dt=CFG.dt):
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.zeros_like(v_a) if v_b is None else np.asarray(v_b, dtype=float)
    i_a = v_a / CFG.z0 if i_a is None else np.asarray(i_a, dtype=float)
    i_b = v_b / CFG.z0 if i_b is None else np.asarray(i_b, dtype=float)
    return TrialWaveforms(dt, np.zeros_like(v_a), np.zeros_like(v_b), v_a, v_b, i_a, i_b)


def _rho_u(series, steps):
    """Voltage statistic of one window with a silent Bob end: the mean square."""
    return window_stats(_wf(series), (steps,))[0][0]


class TestMeanSquareWindow:
    def test_constant_series(self):
        assert _rho_u(np.full(100, 3.0), 50) == 9.0

    def test_alternating_full_window(self):
        assert _rho_u(np.array([1.0, -1.0, 1.0, -1.0]), 4) == 1.0

    def test_alternating_zero_and_a(self):
        assert _rho_u(np.tile([0.0, 2.0], 500), 1000) == pytest.approx(2.0)

    def test_window_is_half_open(self):
        assert _rho_u(np.array([1.0, 1.0, 100.0]), 2) == 1.0

    def test_window_longer_than_series_raises(self):
        with pytest.raises(ValueError):
            _rho_u(np.zeros(10), 11)

    def test_sub_sample_window_raises(self):
        with pytest.raises(ValueError):
            _rho_u(np.zeros(10), 0)


class TestImbalances:
    def test_identical_ends_give_zero(self):
        x = np.random.default_rng(1).normal(size=300)
        rho_u, rho_i = window_stats(_wf(x, x), (D, 2 * D))
        assert np.all(rho_u == 0.0) and np.all(rho_i == 0.0)

    def test_swapping_ends_negates_exactly(self):
        rng = np.random.default_rng(2)
        va, vb = rng.normal(size=300), rng.normal(size=300)
        fwd = window_stats(_wf(va, vb), (D, 2 * D, 3 * D))
        rev = window_stats(_wf(vb, va), (D, 2 * D, 3 * D))
        assert np.array_equal(rev[0], -fwd[0])
        assert np.array_equal(rev[1], -fwd[1])

    def test_first_fly_time_sign_agreement_on_trials(self):
        # v = z0*i at both ends before the first arrival, so the two
        # statistics are exact scalar multiples within that window
        for trial in range(5):
            wf = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, trial, 1, 2, FAST)
            rho_u, rho_i = window_stats(wf, (D,))
            assert rho_u[0] == pytest.approx(CFG.z0**2 * rho_i[0], rel=1e-12)

    def test_attack_stat_window_count(self):
        # a one-fly-time window averages exactly dt_divisor samples
        series = np.concatenate([np.ones(D), np.full(D, 100.0)])
        assert window_stats(_wf(series), (D,))[0][0] == 1.0
        assert window_stats(_wf(series), (D + 1,))[0][0] > 1.0


class TestSignsFromCalibration:
    def test_strong_mean_is_informative(self):
        rho = np.full(100, 2.0) + np.random.default_rng(0).normal(0, 0.1, 100)
        sign = signs_from_calibration(rho, -rho)
        assert sign.sign_u == 1 and sign.sign_i == -1

    def test_near_zero_mean_is_uninformative(self):
        rho = np.random.default_rng(1).normal(0, 1.0, 400)
        sign = signs_from_calibration(rho, rho)
        assert sign.sign_u == 0 and sign.sign_i == 0

    @pytest.mark.parametrize("value", [0.0, math.nan], ids=["zero", "nan"])
    def test_zero_or_nan_mean_names_no_sign(self, value):
        rho = np.full(50, value)
        assert signs_from_calibration(rho, rho) == DecisionSign(0, 0)

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            signs_from_calibration(np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_signs_do_not_depend_on_the_scale(self, exponent):
        # at 2^1000 the squared deviations overflow and at 2^-1000 they
        # underflow, unless the calibration rescales them first
        rng = np.random.default_rng(2)
        for mean in (-0.3, -0.1, 0.0, 0.1, 0.3):
            rho_u, rho_i = rng.normal(mean, 1.0, 50), rng.normal(-mean, 0.5, 50)
            scaled = signs_from_calibration(np.ldexp(rho_u, exponent), np.ldexp(rho_i, exponent))
            assert scaled == signs_from_calibration(rho_u, rho_i)


class TestCalibrateSign:
    """Sign calibration on labeled HL rehearsal trials, inside run_experiment."""

    def _signs(self, master_seed):
        return run_experiment(CFG, ScenarioKind.NO_DEFENSE, [1], 1, master_seed, n_cal=50,
                              params=FAST).signs

    def test_rejects_small_n_cal(self):
        with pytest.raises(ValueError, match="n_cal >= 50"):
            run_experiment(CFG, ScenarioKind.NO_DEFENSE, [1], 1, 1, n_cal=10, params=FAST)

    def test_no_defense_signs_informative_and_equal(self):
        (sign,) = self._signs(1)
        assert sign.sign_u != 0
        assert sign.sign_u == sign.sign_i

    def test_deterministic(self):
        assert self._signs(2) == self._signs(2)


class TestEveDecide:
    def test_positive_rho_positive_sign(self):
        # an informative guess ignores the coin, which here says LH
        assert decide(1, 1.0, 0.9)

    def test_negative_rho_positive_sign(self):
        assert not decide(1, -1.0, 0.1)

    def test_zero_rho_is_fair_coin(self):
        coins = np.random.default_rng(7).random(10_000)
        hl = decide(1, 0.0, coins)
        assert np.array_equal(hl, coins < 0.5)
        # 0.5 within 3 binomial standard errors
        assert abs(hl.mean() - 0.5) < 3 * 0.5 / len(coins) ** 0.5

    def test_uninformative_sign_is_fair_coin(self):
        coins = np.random.default_rng(8).random(10_000)
        hl = decide(0, 5.0, coins)
        assert np.array_equal(hl, coins < 0.5)
        assert abs(hl.mean() - 0.5) < 3 * 0.5 / len(coins) ** 0.5


class TestDecidePair:
    def test_shares_one_coin_when_undecidable(self):
        coins = np.random.default_rng(9).random(200)
        assert np.array_equal(decide(0, 1.0, coins), decide(0, -3.0, coins))

    def test_informative_signs_use_statistics(self):
        # one trial, two windows: sign * rho decides each cell on its own
        guess = decide([1, -1], np.array([[2.0, 2.0]]), np.array([[0.1, 0.1]]))
        assert guess.tolist() == [[True, False]]

    def test_mirrored_trial_flips_decisions(self):
        rng = np.random.default_rng(3)
        va, vb = rng.normal(size=200), rng.normal(size=200)
        steps = (D, 2 * D)
        rho_u, rho_i = window_stats(_wf(va, vb), steps)
        mirror_u, mirror_i = window_stats(_wf(vb, va), steps)
        assert np.array_equal(mirror_u, -rho_u) and np.array_equal(mirror_i, -rho_i)
        coins = np.zeros(len(steps))
        assert np.array_equal(decide(1, mirror_u, coins), ~decide(1, rho_u, coins))
        assert np.array_equal(decide(1, mirror_i, coins), ~decide(1, rho_i, coins))
