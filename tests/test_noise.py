"""Noise synthesis and start-point search tests.

Expected values marked as oracle-derived are computed in place by an
independent route (high-precision arithmetic, numerical quadrature of the
band spectrum, or direct counting) rather than copied from the
implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from kljnsim.noise import (
    BOLTZMANN,
    NoiseRecord,
    estimate_slope,
    find_start_point,
    johnson_rms,
    slope_rms,
    synthesize_record,
)

T, B = 7e15, 5e3
R_H, R_L = 11e3, 2e3
DT = 1e-7
N = 2**20


def _mp_johnson(t, r, b):
    return float(mpmath.sqrt(4 * mpmath.mpf("1.380649e-23") * t * r * b))


class TestJohnsonRms:
    def test_value_high_resistor(self):
        assert johnson_rms(T, R_H, B) == pytest.approx(_mp_johnson(T, R_H, B), rel=1e-12)
        assert johnson_rms(T, R_H, B) == pytest.approx(4.611, abs=5e-4)

    def test_value_low_resistor(self):
        assert johnson_rms(T, R_L, B) == pytest.approx(_mp_johnson(T, R_L, B), rel=1e-12)
        assert johnson_rms(T, R_L, B) == pytest.approx(1.9662, abs=5e-5)

    def test_temperature_scaling_exact(self):
        # sqrt(4x) = 2*sqrt(x) holds bit-for-bit in binary floating point
        assert johnson_rms(4 * T, R_H, B) == 2.0 * johnson_rms(T, R_H, B)

    @pytest.mark.parametrize("bad", [(0, R_H, B), (T, 0, B), (T, R_H, 0), (-T, R_H, B)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            johnson_rms(*bad)


class TestSlopeRms:
    def test_matches_spectral_moment_quadrature(self):
        # flat one-sided band: <x'^2> = sigma^2/B * int_0^B (2 pi f)^2 df
        sigma = 1.9661681515068847
        moment, _ = quad(lambda f: (2 * math.pi * f) ** 2, 0.0, B)
        expected = sigma * math.sqrt(moment / B)
        assert slope_rms(B, sigma) == pytest.approx(expected, rel=1e-10)
        assert slope_rms(B, sigma) == pytest.approx(3.567e4, rel=1e-3)

    def test_zero_sigma(self):
        assert slope_rms(B, 0.0) == 0.0

    def test_linear_in_bandwidth(self):
        assert slope_rms(2 * B, 1.0) == pytest.approx(2 * slope_rms(B, 1.0), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            slope_rms(0.0, 1.0)
        with pytest.raises(ValueError):
            slope_rms(B, -1.0)


@pytest.fixture(scope="module")
def record():
    return synthesize_record(np.random.SeedSequence(7), N, DT, B, 1.9661681515068847)


class TestSynthesizeRecord:
    def test_zero_sigma_gives_zero_record(self):
        rec = synthesize_record(3, 2**15, DT, B, 0.0)
        assert not rec.samples.any()

    def test_deterministic_given_seed(self):
        a = synthesize_record(42, 2**15, DT, B, 1.0)
        b = synthesize_record(42, 2**15, DT, B, 1.0)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_rms_matches_target(self, record):
        rms = math.sqrt(np.mean(record.samples**2))
        assert rms == pytest.approx(record.target_rms, rel=1e-12)

    def test_out_of_band_power_is_zero(self, record):
        spectrum = np.fft.rfft(record.samples)
        n_band = int(math.floor(B * N * DT))
        in_band = np.sum(np.abs(spectrum[1 : n_band + 1]) ** 2)
        out_band = np.sum(np.abs(spectrum[n_band + 1 :]) ** 2) + abs(spectrum[0]) ** 2
        assert out_band / in_band < 1e-24

    def test_gaussian_excess_kurtosis(self):
        # a single 2^20 record holds only ~1600 effective dof for 4th moments
        # (samples are correlated over ~1/(2B)), so the estimate is averaged
        # over independent records to push its standard error well below 0.1
        estimates = []
        for seed in range(8):
            x = synthesize_record(np.random.SeedSequence(seed), N, DT, B, 1.0).samples
            estimates.append(np.mean(x**4) / np.mean(x**2) ** 2 - 3.0)
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean) < 0.1, f"excess kurtosis {mean:+.4f} +- {se:.4f}"

    def test_autocorrelation_against_band_quadrature(self, record):
        # oracle: normalized autocovariance of a flat band (0, B] by quadrature
        def acf(lag):
            val, _ = quad(lambda f: math.cos(2 * math.pi * f * lag), 0.0, B)
            return val / B

        lag_1e = brentq(lambda lag: acf(lag) - 1.0 / math.e, 1e-6, 0.5 / B)
        spectrum = np.fft.rfft(record.samples)
        r = np.fft.irfft(np.abs(spectrum) ** 2, N)
        r /= r[0]
        measured_1e = np.argmax(r < 1.0 / math.e) * DT
        measured_zero = np.argmax(r <= 0.0) * DT
        assert measured_1e == pytest.approx(lag_1e, rel=0.2)
        # first zero sits at 1/(2B): the correlation scale, ten fly times here
        assert measured_zero == pytest.approx(1.0 / (2.0 * B), rel=0.2)

    def test_rejects_band_at_or_above_nyquist(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 2**15, DT, 0.5 / DT, 1.0)

    def test_rejects_too_few_inband_bins(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 2**10, DT, B, 1.0)  # n*dt*B ~ 0.5

    def test_rejects_tiny_record(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 1, DT, B, 1.0)


class TestEstimateSlope:
    def test_constant_record(self):
        rec = NoiseRecord(np.full(64, 2.5), DT, 1.0)
        assert estimate_slope(rec, 10) == 0.0

    def test_linear_ramp_exact(self):
        a = 3.7e4
        t = np.arange(256) * DT
        rec = NoiseRecord(a * t, DT, 1.0)
        for idx in (1, 100, 254):
            assert estimate_slope(rec, idx) == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("idx", [0, 255, 400])
    def test_rejects_out_of_range(self, idx):
        rec = NoiseRecord(np.zeros(256), DT, 1.0)
        with pytest.raises(IndexError):
            estimate_slope(rec, idx)

    def test_rms_slope_of_noise_matches_prediction(self):
        sigma = 1.9661681515068847
        predicted = slope_rms(B, sigma)
        ratios = []
        for seed in range(6):
            rec = synthesize_record(np.random.SeedSequence(seed), 2**19, DT, B, sigma)
            s = rec.samples
            slopes = (s[2:] - s[:-2]) / (2 * DT)
            ratios.append(math.sqrt(np.mean(slopes**2)) / predicted)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.02)


class TestFindStartPoint:
    def test_first_zero_crossing_mode(self, record):
        # slope-free search: earliest interior sample within the zero window
        start = find_start_point(record, 0.0, 1e-3, None, math.inf)
        s = record.samples
        window = 1e-3 * record.target_rms
        assert abs(s[start.index]) <= window
        assert not np.any(np.abs(s[1 : start.index]) <= window)
        assert not start.negate
        assert math.isnan(start.achieved_slope_tol)

    def test_pure_ramp_matches_near_origin(self):
        a = 2.0e4
        t = np.arange(4096) * DT
        rec = NoiseRecord(a * (t - 5 * DT), DT, 1.0)
        start = find_start_point(rec, 0.0, 2 * a * DT, a, 0.01)
        assert start.index == pytest.approx(5, abs=2)
        assert start.slope == pytest.approx(a, rel=1e-9)

    def test_deterministic_and_earliest(self, record):
        target = slope_rms(B, record.target_rms)
        a = find_start_point(record, 0.0, 1e-3, target, 0.05)
        b = find_start_point(record, 0.0, 1e-3, target, 0.05)
        assert a == b
        # a looser value window can only move the match earlier
        c = find_start_point(record, 0.0, 2e-3, target, 0.05)
        assert c.index <= a.index

    def test_negation_satisfies_tolerances_verbatim(self, record):
        target_slope = slope_rms(B, record.target_rms)
        value_tol, slope_tol = 1e-3, 0.02
        start = find_start_point(
            record, 0.0, value_tol, target_slope, slope_tol, allow_negation=True
        )
        drive = -record.samples if start.negate else record.samples
        i = start.index
        assert abs(drive[i]) <= value_tol * record.target_rms
        slope = (drive[i + 1] - drive[i - 1]) / (2 * DT)
        assert abs(slope / target_slope - 1.0) <= slope_tol
        assert start.value == drive[i]
        assert start.achieved_value_tol <= value_tol
        assert start.achieved_slope_tol <= slope_tol

    def test_negation_finds_mirrored_target(self):
        ramp = np.linspace(-1.0, -2.0, 128)  # strictly negative, slope < 0
        rec = NoiseRecord(ramp, DT, 1.0)
        step = ramp[1] - ramp[0]
        target_v, target_m = 1.5, -step / DT
        assert find_start_point(rec, target_v, 0.01, target_m, 0.05) is None
        start = find_start_point(rec, target_v, 0.01, target_m, 0.05, allow_negation=True)
        assert start is not None and start.negate
        assert start.value == pytest.approx(target_v, abs=0.01)

    def test_not_found_returns_none(self, record):
        assert find_start_point(record, 100.0 * record.target_rms, 1e-6, None, math.inf) is None

    def test_max_index_respected(self, record):
        free = find_start_point(record, 0.0, 1e-3, None, math.inf)
        capped = find_start_point(record, 0.0, 1e-3, None, math.inf, max_index=free.index - 1)
        assert capped is None or capped.index < free.index

    def test_rejects_bad_tolerances(self, record):
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 0.0, None, math.inf)
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 1e-3, 0.0, 0.01)
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 1e-3, 1.0, 0.0)

    def test_zero_crossing_rate_near_rice_prediction(self):
        # Rice rate for a flat band: slope_rms/(pi*sigma) = 2B/sqrt(3) crossings/s
        rate = 2.0 * B / math.sqrt(3.0)
        counts = []
        for seed in (11, 12, 13, 14, 15):
            rec = synthesize_record(np.random.SeedSequence(seed), 2**19, DT, B, 1.0)
            x = rec.samples
            counts.append(np.sum(np.signbit(x[:-1]) != np.signbit(x[1:])))
        expected = rate * 2**19 * DT
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)


def test_boltzmann_constant_is_exact_si():
    assert BOLTZMANN == 1.380649e-23


def test_record_validation():
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(1), DT, 1.0)
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(16), -DT, 1.0)
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(16), DT, -1.0)
