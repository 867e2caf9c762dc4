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
    SEARCH_BLOCK,
    NoiseRecord,
    estimate_slope,
    find_start_point,
    johnson_rms,
    slope_rms,
    synthesize_record,
    synthesize_window,
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

    def test_linear_in_bandwidth(self):
        assert slope_rms(2 * B, 1.0) == pytest.approx(2 * slope_rms(B, 1.0), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            slope_rms(0.0, 1.0)
        with pytest.raises(ValueError):
            slope_rms(B, -1.0)
        with pytest.raises(ValueError):
            slope_rms(B, 0.0)


@pytest.fixture(scope="module")
def record():
    return synthesize_record(np.random.SeedSequence(7), N, DT, B, 1.9661681515068847)


class TestSynthesizeRecord:
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

    @pytest.mark.parametrize("n", [2**16, 2**20])
    def test_normalization_is_the_parseval_value(self, n):
        # with the DC and Nyquist bins zero, the mean square of irfft(X, n)
        # is 2*sum|X_k|^2/n^2, so the scale needs no samples
        sigma = 1.9661681515068847
        n_bins = int(math.floor(B * n * DT))
        for seed in range(10):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            spectrum = np.zeros(n // 2 + 1, dtype=complex)
            spectrum[1 : n_bins + 1] = (
                rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
            )
            raw = np.fft.irfft(spectrum, n)
            parseval = 2.0 * np.sum(np.abs(spectrum) ** 2) / n**2
            assert np.mean(raw * raw) == pytest.approx(parseval, rel=1e-12)
            rec = synthesize_record(np.random.SeedSequence(seed), n, DT, B, sigma)
            expected = raw * (sigma / math.sqrt(parseval))
            assert np.max(np.abs(rec.samples - expected)) <= 1e-12 * sigma

    def test_rejects_band_at_or_above_nyquist(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 2**15, DT, 0.5 / DT, 1.0)

    def test_rejects_too_few_inband_bins(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 2**10, DT, B, 1.0)  # n*dt*B ~ 0.5

    def test_rejects_tiny_record(self):
        with pytest.raises(ValueError):
            synthesize_record(0, 1, DT, B, 1.0)


class TestSynthesizeWindow:
    """synthesize_window against the slice of the full inverse-FFT record."""

    N_STEPS = 400

    @pytest.mark.parametrize("n", [2**16, 2**20])
    def test_matches_record_slice(self, n):
        count = self.N_STEPS + 2
        sigmas = (johnson_rms(T, R_H, B), johnson_rms(T, R_L, B))
        worst = 0.0
        for seed in range(50):
            sigma = sigmas[seed % 2]
            record = synthesize_record(np.random.SeedSequence(seed), n, DT, B, sigma).samples
            random_start = int(np.random.default_rng(seed).integers(1, n - count))
            for start in (1, random_start, n - 1 - self.N_STEPS):
                window = synthesize_window(
                    np.random.SeedSequence(seed), n, DT, B, sigma, start - 1, count
                )
                assert window.shape == (count,)
                deviation = np.max(np.abs(window - record[start - 1 : start - 1 + count]))
                worst = max(worst, deviation / sigma)
        assert worst <= 1e-12

    def test_long_window_is_the_record_slice_bitwise(self):
        # 2^16 samples hold 32 in-band bins, so 2100 samples would cost more
        # than the inverse FFT of the whole record
        n, sigma = 2**16, 1.9661681515068847
        record = synthesize_record(np.random.SeedSequence(5), n, DT, B, sigma).samples
        for start, count in ((1, n - 2), (700, 2100)):
            window = synthesize_window(np.random.SeedSequence(5), n, DT, B, sigma, start, count)
            assert window.tobytes() == record[start : start + count].tobytes()

    @pytest.mark.parametrize("args", [
        (0, 2**15, DT, 0.5 / DT, 1.0),  # band at Nyquist
        (0, 2**10, DT, B, 1.0),  # too few in-band bins
        (0, 1, DT, B, 1.0),  # tiny record
        (0, 2**15, -DT, B, 1.0),
        (0, 2**15, DT, B, -1.0),
        (0, 2**15, DT, B, 0.0),
        (0, 2**15, DT, B, math.inf),
    ])
    def test_rejects_what_synthesize_record_rejects(self, args):
        with pytest.raises(ValueError) as record_error:
            synthesize_record(*args)
        with pytest.raises(ValueError) as window_error:
            synthesize_window(*args, 0, 2)
        assert str(window_error.value) == str(record_error.value)

    @pytest.mark.parametrize("start, count", [(-1, 10), (0, 0), (2**15 - 9, 10)])
    def test_rejects_window_outside_record(self, start, count):
        with pytest.raises(ValueError, match="not inside"):
            synthesize_window(0, 2**15, DT, B, 1.0, start, count)


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
        with pytest.raises(IndexError):
            estimate_slope(rec, np.array([1, idx, 2]))

    def test_index_array_matches_each_index(self, record):
        idx = np.array([1, 17, 5000, N - 2])
        slopes = estimate_slope(record, idx)
        assert [float(x) for x in slopes] == [float(estimate_slope(record, i)) for i in idx]

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
        start = find_start_point(record, 0.0, 1e-3, None, math.inf, N - 2)
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
        start = find_start_point(rec, 0.0, 2 * a * DT, a, 0.01, 4094)
        assert start.index == pytest.approx(5, abs=2)
        assert start.slope == pytest.approx(a, rel=1e-9)

    def test_deterministic_and_earliest(self, record):
        target = slope_rms(B, record.target_rms)
        a = find_start_point(record, 0.0, 1e-3, target, 0.05, N - 2)
        b = find_start_point(record, 0.0, 1e-3, target, 0.05, N - 2)
        assert a == b
        # a looser value window can only move the match earlier
        c = find_start_point(record, 0.0, 2e-3, target, 0.05, N - 2)
        assert c.index <= a.index

    def test_negation_satisfies_tolerances_verbatim(self, record):
        target_slope = slope_rms(B, record.target_rms)
        value_tol, slope_tol = 1e-3, 0.02
        start = find_start_point(record, 0.0, value_tol, target_slope, slope_tol, N - 2)
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
        start = find_start_point(rec, target_v, 0.01, target_m, 0.05, 126)
        assert start is not None and start.negate
        assert start.value == pytest.approx(target_v, abs=0.01)

    def test_not_found_returns_none(self, record):
        assert find_start_point(
            record, 100.0 * record.target_rms, 1e-6, None, math.inf, N - 2
        ) is None

    def test_max_index_respected(self, record):
        free = find_start_point(record, 0.0, 1e-3, None, math.inf, N - 2)
        capped = find_start_point(record, 0.0, 1e-3, None, math.inf, max_index=free.index - 1)
        assert capped is None or capped.index < free.index

    def test_rejects_bad_tolerances(self, record):
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 0.0, None, math.inf, N - 2)
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 1e-3, 0.0, 0.01, N - 2)
        with pytest.raises(ValueError):
            find_start_point(record, 0.0, 1e-3, 1.0, 0.0, N - 2)

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


def _two_pass_search(record, target_value, value_tol_rel, target_slope, slope_tol_rel, max_index):
    """Reference: the earlier start-point search, one full scan of the record
    per sign, as (index, negate) or None."""
    s, dt = record.samples, record.dt
    hi = min(max_index, len(s) - 2)
    window = value_tol_rel * record.target_rms

    def first_match(value, slope):
        region = s[1 : hi + 1]
        candidates = np.flatnonzero(np.abs(region - value) <= window) + 1
        if candidates.size and slope is not None:
            slopes = (s[candidates + 1] - s[candidates - 1]) / (2.0 * dt)
            candidates = candidates[np.abs(slopes / slope - 1.0) <= slope_tol_rel]
        return int(candidates[0]) if candidates.size else None

    best = None
    idx = first_match(target_value, target_slope)
    if idx is not None:
        best = (idx, False)
    if target_value != 0.0 or target_slope is not None:
        idx = first_match(-target_value, None if target_slope is None else -target_slope)
        if idx is not None and (best is None or idx < best[0]):
            best = (idx, True)
    return best


def test_one_pass_search_matches_two_pass_reference():
    # the three target shapes of scenarios 2, 3 and 4, for the L party on
    # even seeds and the H party (targets scaled by the slope ratio) on odd
    # ones, at 0, 3 and 9 loosening doublings of the tolerances; at 9 the
    # scenario-3 value window is wider than its target and the two signs'
    # slope windows overlap
    sigma_l, sigma_h = johnson_rms(T, R_L, B), johnson_rms(T, R_H, B)
    ratio = (R_H + 50.0) / (R_L + 50.0)
    max_index = N - 1 - 400
    found, mismatches = [], []
    for seed in range(50):
        high = seed % 2 == 1
        scale = ratio if high else 1.0
        rec = synthesize_record(
            np.random.SeedSequence(seed), N, DT, B, sigma_h if high else sigma_l
        )
        m = scale * slope_rms(B, sigma_l)
        for level in (0, 3, 9):
            loosen = 2.0**level
            shapes = {
                "zero": (0.0, 1e-3, None, 1e-2 * loosen),
                "zero-slope": (0.0, 1e-3, m, 1e-2 * loosen),
                "ratio": (scale * 0.5 * sigma_l, 1e-3 * loosen, m, 1e-2 * loosen),
            }
            for shape, args in shapes.items():
                start = find_start_point(rec, *args, max_index)
                got = None if start is None else (start.index, start.negate)
                want = _two_pass_search(rec, *args, max_index)
                if got != want:
                    mismatches.append((seed, level, shape, got, want))
                if got is not None:
                    found.append(got[1])
    assert not mismatches
    # both signs win somewhere, so the comparison covers the tie rule
    assert len(found) > 400 and any(found) and not all(found)


def _ramp_hits(n, hits):
    """A record of ones (far outside any zero window) with a zero of central
    slope sign * 0.1/DT at each (index, sign) of ``hits``."""
    s = np.ones(n)
    for index, sign in hits:
        s[index - 1 : index + 2] = (-0.1 * sign, 0.0, 0.1 * sign)
    return NoiseRecord(s, DT, 1.0)


@pytest.mark.parametrize("hits, max_index, want", [
    # the first hit is the last sample of the first block
    ([(SEARCH_BLOCK, -1.0), (SEARCH_BLOCK + 4, 1.0)], None, (SEARCH_BLOCK, True)),
    # the first hit is the first sample of the second block
    ([(SEARCH_BLOCK + 1, 1.0), (SEARCH_BLOCK + 5, -1.0)], None, (SEARCH_BLOCK + 1, False)),
    # max_index cuts the second block just before, and just at, the only hit
    ([(SEARCH_BLOCK + 101, 1.0)], SEARCH_BLOCK + 100, None),
    ([(SEARCH_BLOCK + 101, -1.0)], SEARCH_BLOCK + 101, (SEARCH_BLOCK + 101, True)),
])
def test_block_scan_edges_match_two_pass_reference(hits, max_index, want):
    n = 3 * SEARCH_BLOCK
    rec = _ramp_hits(n, hits)
    max_index = n - 2 if max_index is None else max_index
    args = (0.0, 1e-3, 0.1 / DT, 1e-2, max_index)
    start = find_start_point(rec, *args)
    got = None if start is None else (start.index, start.negate)
    assert got == want == _two_pass_search(rec, *args)


def test_boltzmann_constant_is_exact_si():
    assert BOLTZMANN == 1.380649e-23


def test_record_validation():
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(1), DT, 1.0)
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(16), -DT, 1.0)
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(16), DT, -1.0)
    with pytest.raises(ValueError):
        NoiseRecord(np.zeros(16), DT, 0.0)
