"""Transmission line engine vs analytic oracles.

The engine must agree with the closed-form bounce-diagram step response to
near machine precision, obey exact structural identities (delay exactness,
first-fly-time proportionality, linearity, superposition, mirror symmetry),
and the blocked vectorized path must be bit-for-bit equal to the scalar
per-step update.
"""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim.line import (
    _PASS_BLOCKS,
    TrialWaveforms,
    _propagate,
    ideal_line_steady_state,
    lattice_step_response,
    periodic_steady_state,
    reflection_coefficient,
    run_transient,
)
from kljnsim.noise import BOLTZMANN, in_band_bins
from kljnsim.protocol import PhysicalConfig

CFG = PhysicalConfig()
R_H, R_L, Z0, TF, DT = CFG.r_h, CFG.r_l, CFG.z0, CFG.fly_time, CFG.dt
D = CFG.dt_divisor


# The scalar per-step engine: the bitwise reference for the blocked
# ``_propagate``.
@dataclass
class EndState:
    """Cable end voltage and the current flowing from the termination into the cable."""

    v: float
    i: float


@dataclass
class TransmissionLine:
    """Traveling-wave state of one cable: two direction-specific delay buffers.

    ``delay`` must be an exact integer multiple of ``dt``; buffers start at
    zero (idle cable).  One instance is owned by exactly one trial.
    """

    z0: float
    delay: float
    dt: float
    delay_steps: int = field(init=False)
    _buf_ab: np.ndarray = field(init=False, repr=False)
    _buf_ba: np.ndarray = field(init=False, repr=False)
    _cursor: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.z0 <= 0:
            raise ValueError(f"z0 must be positive, got {self.z0}")
        if self.delay <= 0 or self.dt <= 0:
            raise ValueError("delay and dt must be positive")
        steps = self.delay / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps or round(steps) < 1:
            raise ValueError(
                f"delay/dt = {steps} is not a positive integer; pick dt that divides the fly time"
            )
        self.delay_steps = int(round(steps))
        self.reset()

    def reset(self) -> None:
        """Return to the idle cold-cable state."""
        self._buf_ab = np.zeros(self.delay_steps)
        self._buf_ba = np.zeros(self.delay_steps)
        self._cursor = 0

    def step(self, u_a: float, r_a: float, u_b: float, r_b: float) -> tuple[EndState, EndState]:
        """Advance one timestep with the given generator voltages and resistors."""
        b_a = self._buf_ba[self._cursor]
        b_b = self._buf_ab[self._cursor]
        i_a = (u_a - b_a) / (r_a + self.z0)
        v_a = self.z0 * i_a + b_a
        i_b = (u_b - b_b) / (r_b + self.z0)
        v_b = self.z0 * i_b + b_b
        self._buf_ab[self._cursor] = v_a + self.z0 * i_a
        self._buf_ba[self._cursor] = v_b + self.z0 * i_b
        self._cursor = (self._cursor + 1) % self.delay_steps
        return EndState(v_a, i_a), EndState(v_b, i_b)


class TestReflectionCoefficient:
    def test_high_termination(self):
        assert reflection_coefficient(R_H, Z0) == pytest.approx(10950.0 / 11050.0, rel=1e-15)
        assert reflection_coefficient(R_H, Z0) == pytest.approx(0.99095, abs=5e-6)

    def test_low_termination(self):
        assert reflection_coefficient(R_L, Z0) == pytest.approx(1950.0 / 2050.0, rel=1e-15)
        assert reflection_coefficient(R_L, Z0) == pytest.approx(0.95122, abs=5e-6)

    def test_matched(self):
        assert reflection_coefficient(Z0, Z0) == 0.0

    def test_short_circuit(self):
        assert reflection_coefficient(0.0, Z0) == -1.0

    def test_rejects_bad_impedance(self):
        with pytest.raises(ValueError):
            reflection_coefficient(R_H, 0.0)
        with pytest.raises(ValueError):
            reflection_coefficient(-1.0, Z0)


class TestTransmissionLine:
    def test_rejects_non_integer_delay(self):
        with pytest.raises(ValueError):
            TransmissionLine(Z0, TF, 3e-8)

    def test_rejects_bad_z0(self):
        with pytest.raises(ValueError):
            TransmissionLine(0.0, TF, DT)

    def test_cold_start_voltage_divider(self):
        line = TransmissionLine(Z0, TF, DT)
        a, b = line.step(1.0, R_H, 0.0, R_L)
        assert a.v == pytest.approx(Z0 / (R_H + Z0), rel=1e-15)
        assert a.v == pytest.approx(4.525e-3, abs=5e-7)
        assert b.v == 0.0 and b.i == 0.0

    def test_first_fly_time_proportionality_bitwise(self):
        line = TransmissionLine(Z0, TF, DT)
        rng = np.random.default_rng(5)
        for _ in range(line.delay_steps):
            a, b = line.step(rng.normal(), R_H, rng.normal(), R_L)
            assert a.v == Z0 * a.i
            assert b.v == Z0 * b.i

    def test_matched_far_end_absorbs(self):
        line = TransmissionLine(Z0, TF, DT)
        divider = Z0 / (R_H + Z0)
        for _ in range(4 * D):
            a, _ = line.step(1.0, R_H, 0.0, Z0)
            assert a.v == pytest.approx(divider, rel=1e-12)

    def test_far_end_arrival_value(self):
        # at t_f+ the load sees (1 + Gamma_load) times the incident wave
        line = TransmissionLine(Z0, TF, DT)
        states = [line.step(1.0, R_H, 0.0, R_H) for _ in range(D + 1)]
        incident = Z0 / (R_H + Z0)
        gamma = reflection_coefficient(R_H, Z0)
        assert states[D - 1][1].v == 0.0
        assert states[D][1].v == pytest.approx((1 + gamma) * incident, rel=1e-12)

    def test_reset_restores_cold_state(self):
        line = TransmissionLine(Z0, TF, DT)
        for _ in range(3 * D):
            line.step(1.0, R_H, -2.0, R_L)
        line.reset()
        a, b = line.step(0.0, R_H, 0.0, R_L)
        assert a == EndState(0.0, 0.0) and b == EndState(0.0, 0.0)


class TestLatticeStepResponse:
    def test_before_first_arrival(self):
        v_src, v_load = lattice_step_response(1.0, R_H, R_L, Z0, TF, 0.4 * TF)
        assert v_src == pytest.approx(Z0 / (R_H + Z0), rel=1e-15)
        assert v_load == 0.0

    def test_dc_limit(self):
        v_src, v_load = lattice_step_response(1.0, R_H, R_L, Z0, TF, 3000.5 * TF)
        dc = R_L / (R_H + R_L)
        assert v_src == pytest.approx(dc, rel=1e-10)
        assert v_load == pytest.approx(dc, rel=1e-10)

    def test_first_reflection_window_value(self):
        # source value in (2 t_f, 4 t_f): launch plus (1 + G_src) * G_load * launch
        u, r_src, r_load = 1.0, R_H, R_L
        launch = u * Z0 / (r_src + Z0)
        g_s = reflection_coefficient(r_src, Z0)
        g_l = reflection_coefficient(r_load, Z0)
        expected = launch * (1.0 + (1.0 + g_s) * g_l)
        v_src, _ = lattice_step_response(u, r_src, r_load, Z0, TF, 2.5 * TF)
        assert v_src == pytest.approx(expected, rel=1e-14)

    def test_rejects_query_at_arrival(self):
        for k in (1, 2, 5):
            with pytest.raises(ValueError):
                lattice_step_response(1.0, R_H, R_L, Z0, TF, k * TF)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            lattice_step_response(1.0, R_H, R_L, Z0, TF, -TF)


class TestRunTransient:
    def test_zero_drives_zero_everywhere(self):
        n = 3 * D
        wf = run_transient(CFG, np.zeros(n), R_H, np.zeros(n), R_L)
        for arr in (wf.v_a, wf.v_b, wf.i_a, wf.i_b):
            assert not arr.any()

    def test_step_matches_bounce_oracle(self):
        n = 16 * D
        wf = run_transient(CFG, np.ones(n), R_H, np.zeros(n), R_L)
        worst = 0.0
        for k in range(n):
            t = k * DT
            near = round(t / TF)
            if near > 0 and abs(t - near * TF) <= 0.5 * DT:
                continue
            v_src, v_load = lattice_step_response(1.0, R_H, R_L, Z0, TF, t)
            ref = max(abs(v_src), abs(v_load))
            worst = max(worst, abs(wf.v_a[k] - v_src) / ref, abs(wf.v_b[k] - v_load) / ref)
        assert worst < 1e-9

    def test_superposition_of_single_source_runs(self):
        n = 8 * D
        rng = np.random.default_rng(17)
        u_a, u_b = rng.normal(size=n), rng.normal(size=n)
        joint = run_transient(CFG, u_a, R_H, u_b, R_L)
        only_a = run_transient(CFG, u_a, R_H, np.zeros(n), R_L)
        only_b = run_transient(CFG, np.zeros(n), R_H, u_b, R_L)
        np.testing.assert_allclose(joint.v_a, only_a.v_a + only_b.v_a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(joint.i_b, only_a.i_b + only_b.i_b, rtol=0, atol=1e-16)

    def test_linearity_power_of_two_exact(self):
        n = 6 * D
        rng = np.random.default_rng(23)
        u_a, u_b = rng.normal(size=n), rng.normal(size=n)
        base = run_transient(CFG, u_a, R_H, u_b, R_L)
        scaled = run_transient(CFG, 4.0 * u_a, R_H, 4.0 * u_b, R_L)
        assert np.array_equal(scaled.v_a, 4.0 * base.v_a)
        assert np.array_equal(scaled.i_b, 4.0 * base.i_b)

    def test_impulse_arrives_after_exactly_delay_steps(self):
        n = 3 * D
        u_a = np.zeros(n)
        u_a[0] = 1.0
        wf = run_transient(CFG, u_a, R_H, np.zeros(n), R_L)
        assert not wf.v_b[:D].any()
        assert wf.v_b[D] != 0.0

    @pytest.mark.parametrize("n, d", [
        ((2 * _PASS_BLOCKS + 3) * D + 37, D),  # three passes, the last odd and partial
        (37, D),  # shorter than one fly time
        ((2 * _PASS_BLOCKS + 3) * 37 + 11, 37),
        (2 * _PASS_BLOCKS + 3, 1),
    ])
    def test_passes_equal_scalar_stepping_bitwise(self, n, d):
        rng = np.random.default_rng(44)
        u_a, u_b = rng.normal(size=n), rng.normal(size=n)
        v_a, v_b, i_a, i_b = _propagate(u_a, u_b, R_H, R_L, Z0, d)
        line = TransmissionLine(Z0, d * DT, DT)
        assert line.delay_steps == d
        for k in range(n):
            ea, eb = line.step(u_a[k], R_H, u_b[k], R_L)
            assert (ea.v, ea.i, eb.v, eb.i) == (v_a[k], i_a[k], v_b[k], i_b[k])

    def test_scratch_does_not_grow_with_length(self):
        # peak memory beyond the four outputs is the same at 2^14 and 2^17 samples
        extra = []
        for n in (2**14, 2**17):
            rng = np.random.default_rng(48)
            u_a, u_b = rng.normal(size=n), rng.normal(size=n)
            tracemalloc.start()
            try:
                _propagate(u_a, u_b, R_H, R_L, Z0, D)
                extra.append(tracemalloc.get_traced_memory()[1] - 4 * n * 8)
            finally:
                tracemalloc.stop()
        assert abs(extra[1] - extra[0]) < 2 * D * 8  # less than one row of both ends

    def test_keeps_one_block_of_waves_in_flight(self):
        # peak memory: the four outputs plus less than one more full-length array
        n = 2**16
        rng = np.random.default_rng(47)
        u_a, u_b = rng.normal(size=n), rng.normal(size=n)
        tracemalloc.start()
        try:
            _propagate(u_a, u_b, R_H, R_L, Z0, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * 8

    def test_outputs_are_separate_buffers_and_drives_unchanged(self):
        n = 3 * D + 37
        rng = np.random.default_rng(53)
        u_a, u_b = rng.normal(size=n), rng.normal(size=n)
        drives = u_a.tobytes(), u_b.tobytes()
        outputs = _propagate(u_a, u_b, R_H, R_L, Z0, D)
        arrays = outputs + (u_a, u_b)
        for j, x in enumerate(outputs):
            for y in arrays[j + 1 :]:
                assert not np.shares_memory(x, y)
        assert (u_a.tobytes(), u_b.tobytes()) == drives

    def test_drive_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equally long"):
            run_transient(CFG, np.zeros(60), R_H, np.zeros(59), R_L)
        with pytest.raises(ValueError, match="nonempty"):
            run_transient(CFG, np.zeros(0), R_H, np.zeros(0), R_L)


EXAMPLES = settings(max_examples=30, deadline=None)


@st.composite
def _lines(draw):
    """A terminated line and two random drives whose length need not be a
    multiple of the delay."""
    r_l = draw(st.floats(1.0, 1e5))
    r_h = draw(st.floats(r_l, 2e5, exclude_min=True))
    config = PhysicalConfig(r_h=r_h, r_l=r_l, z0=draw(st.floats(1.0, 1e3)),
                            dt_divisor=draw(st.integers(10, 60)))
    n = draw(st.integers(1, 5 * config.dt_divisor))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return config, rng.normal(size=n), rng.normal(size=n)


def _default_line(n: int, seed: int):
    """The default line and two seeded drives of n samples, as ``_lines``
    returns them: an explicit example for the properties."""
    rng = np.random.default_rng(seed)
    return CFG, rng.normal(size=n), rng.normal(size=n)


class TestEngineProperties:
    """Exact identities of the array engine on randomly drawn lines."""

    @EXAMPLES
    @given(_lines())
    @example(_default_line(3 * D + 37, 43))  # not a multiple of the delay
    def test_blocked_path_equals_scalar_stepping_bitwise(self, case):
        config, u_a, u_b = case
        v_a, v_b, i_a, i_b = _propagate(
            u_a, u_b, config.r_h, config.r_l, config.z0, config.dt_divisor
        )
        line = TransmissionLine(config.z0, config.fly_time, config.dt)
        for k in range(len(u_a)):
            ea, eb = line.step(u_a[k], config.r_h, u_b[k], config.r_l)
            assert (ea.v, ea.i, eb.v, eb.i) == (v_a[k], i_a[k], v_b[k], i_b[k])

    @EXAMPLES
    @given(_lines())
    @example(_default_line(8 * D, 31))
    def test_swapping_the_ends_swaps_the_series(self, case):
        config, u_a, u_b = case
        fwd = run_transient(config, u_a, config.r_h, u_b, config.r_l)
        rev = run_transient(config, u_b, config.r_l, u_a, config.r_h)
        for a, b in ((fwd.v_a, rev.v_b), (fwd.v_b, rev.v_a), (fwd.i_a, rev.i_b),
                     (fwd.i_b, rev.i_a)):
            assert np.array_equal(a, b)

    @EXAMPLES
    @given(_lines())
    def test_doubling_the_drives_doubles_every_output(self, case):
        config, u_a, u_b = case
        base = run_transient(config, u_a, config.r_h, u_b, config.r_l)
        doubled = run_transient(config, 2.0 * u_a, config.r_h, 2.0 * u_b, config.r_l)
        for name in ("v_a", "v_b", "i_a", "i_b"):
            assert np.array_equal(getattr(doubled, name), 2.0 * getattr(base, name))

    @EXAMPLES
    @given(_lines())
    @example(_default_line(2 * D, 41))
    def test_first_fly_time_identity_bitwise(self, case):
        config, u_a, u_b = case
        wf = run_transient(config, u_a, config.r_h, u_b, config.r_l)
        first = slice(0, config.dt_divisor)
        assert np.array_equal(wf.v_a[first], config.z0 * wf.i_a[first])
        assert np.array_equal(wf.v_b[first], config.z0 * wf.i_b[first])


class TestIdealLineSteadyState:
    # the in-band bins of a 2^21-sample steady-state segment
    FREQS = np.arange(1, int(CFG.bandwidth * 2**21 * DT) + 1) / (2**21 * DT)
    MS_H, MS_L = CFG.sigma(R_H) ** 2, CFG.sigma(R_L) ** 2

    def _lumped(self):
        # the zero-length-wire levels 4kT*Rp*B and 4kT*B/Rs
        scale = 4.0 * BOLTZMANN * CFG.temperature * CFG.bandwidth
        return scale * R_H * R_L / (R_H + R_L), scale / (R_H + R_L)

    def test_zero_length_line_is_lumped(self):
        v_lumped, i_lumped = self._lumped()
        v2, i2 = ideal_line_steady_state(R_H, R_L, Z0, 0.0, self.FREQS, self.MS_H, self.MS_L)
        np.testing.assert_allclose(v2, v_lumped, rtol=1e-12)
        np.testing.assert_allclose(i2, i_lumped, rtol=1e-12)

    def test_tends_to_lumped_levels_as_fly_time_shrinks(self):
        v_lumped, i_lumped = self._lumped()
        devs = []
        for fly_time in (TF, 1e-7, 1e-8, 1e-9):
            v2, i2 = ideal_line_steady_state(
                R_H, R_L, Z0, fly_time, self.FREQS, self.MS_H, self.MS_L
            )
            devs.append(max(np.max(np.abs(v2 / v_lumped - 1.0)),
                            np.max(np.abs(i2 / i_lumped - 1.0))))
        # shunt capacitance fly_time/z0: the deviation falls as fly_time^2
        assert devs[0] > 0.5
        for longer, shorter in zip(devs[1:], devs[2:]):
            assert shorter < 0.02 * longer
        assert devs[-1] < 1e-5

    def test_mirror_symmetry(self):
        hl = ideal_line_steady_state(R_H, R_L, Z0, TF, self.FREQS, self.MS_H, self.MS_L)
        lh = ideal_line_steady_state(R_L, R_H, Z0, TF, self.FREQS, self.MS_L, self.MS_H)
        for fwd, rev in zip(hl, lh):
            np.testing.assert_allclose(rev, fwd[::-1], rtol=1e-14)
            assert np.mean(rev) == pytest.approx(np.mean(fwd), rel=1e-14)

    @pytest.mark.parametrize("cycles", [1, 4, 9])
    def test_matches_engine_on_a_periodic_tone(self, cycles):
        # a tone with a whole number of cycles per period, played until the
        # start transient has died out (e-folding time 2*TF/(1 - G_H*G_L))
        period = 200 * D
        t = np.arange(6 * period)
        u_a = math.sqrt(2.0) * np.cos(2.0 * math.pi * cycles * t / period)
        v_a, v_b, i_a, i_b = _propagate(u_a, np.zeros(len(t)), R_H, R_L, Z0, D)
        v2, i2 = ideal_line_steady_state(R_H, R_L, Z0, TF, [cycles / (period * DT)], 1.0, 0.0)
        last = slice(5 * period, None)
        measured_v = [np.mean(v_a[last] ** 2), np.mean(v_b[last] ** 2)]
        measured_i = [np.mean(i_a[last] ** 2), np.mean(i_b[last] ** 2)]
        np.testing.assert_allclose(measured_v, v2, rtol=1e-9)
        np.testing.assert_allclose(measured_i, i2, rtol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ideal_line_steady_state(R_H, R_L, 0.0, TF, self.FREQS, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_line_steady_state(R_H, R_L, Z0, -TF, self.FREQS, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_line_steady_state(R_H, R_L, Z0, TF, [], 1.0, 1.0)
        # D^2 overflows a Python float; a level overflows to inf
        with pytest.raises(ValueError, match=r"resistances \(1e\+300, 2000.0\).*overflows"):
            ideal_line_steady_state(1e300, R_L, Z0, TF, self.FREQS, 1.0, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            ideal_line_steady_state(R_H, R_L, Z0, TF, self.FREQS, 1e306, 1e306)


class TestPeriodicSteadyState:
    N = 2**21  # samples of a steady-state segment

    # the defaults' top bin turns theta = 2*pi*k*d/n to 0.31; the long line's
    # passes pi/2
    @pytest.mark.parametrize("fly_time, d, top_theta", [(TF, D, 0.3), (1e-4, 1000, math.pi / 2)],
                             ids=["defaults", "long"])
    def test_matches_the_ideal_line_bin_by_bin(self, fly_time, d, top_theta):
        # One generator and one bin at a time: by Parseval, a bin of
        # amplitude Z has the mean square |Z|^2/2, so a drive of amplitude
        # sqrt(2) has a unit mean square, as the two-port oracle's generator
        # on that bin alone.  The two come from independent derivations, the
        # bounce recursion and the two-port admittance.
        dt = fly_time / d
        n_bins = int(CFG.bandwidth * self.N * dt)
        assert 2.0 * math.pi * n_bins * d / self.N > top_theta
        worst = 0.0
        for gen in (0, 1):
            drives = np.zeros((2, n_bins), dtype=complex)
            drives[gen] = math.sqrt(2.0)
            spectra = periodic_steady_state(R_H, R_L, Z0, d, self.N, *drives)
            levels = np.array([0.5 * np.abs(z) ** 2 for z in spectra])
            for k in range(1, n_bins + 1):
                v2, i2 = ideal_line_steady_state(R_H, R_L, Z0, fly_time, [k / (self.N * dt)],
                                                 1.0 - gen, float(gen))
                oracle = np.concatenate([v2, i2])
                worst = max(worst, float(np.max(np.abs(levels[:, k - 1] / oracle - 1.0))))
        assert worst < 1e-12

    def test_cold_engine_settles_onto_it(self):
        # a periodic drive at both ends, repeated until the start transient
        # has died out (30 times the e-folding time 2*TF/(1 - G_H*G_L))
        n, n_bins, repeats = 2**15, 150, 6
        rng = np.random.default_rng(5)
        drives = rng.standard_normal((2, n_bins)) + 1j * rng.standard_normal((2, n_bins))

        def samples(spectrum):
            return np.fft.irfft(np.concatenate(([0j], spectrum)), n) * (n / 2)

        u_a, u_b = (np.tile(samples(z), repeats) for z in drives)
        waves = _propagate(u_a, u_b, R_H, R_L, Z0, D)
        settled = periodic_steady_state(R_H, R_L, Z0, D, n, *drives)
        for wave, z in zip(waves, settled):
            series = samples(z)
            rms = math.sqrt(np.mean(series**2))
            assert np.max(np.abs(wave[-n:] - series)) < 1e-12 * rms
            # and not before: the first period still carries the transient
            assert np.max(np.abs(wave[:n] - series)) > 1e-3 * rms

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((2, 100)) + 1j * rng.standard_normal((2, 100))
        v_a, v_b, i_a, i_b = periodic_steady_state(R_H, R_L, Z0, D, self.N, u[0], u[1])
        w_b, w_a, j_b, j_a = periodic_steady_state(R_L, R_H, Z0, D, self.N, u[1], u[0])
        for fwd, rev in ((v_a, w_a), (v_b, w_b), (i_a, j_a), (i_b, j_b)):
            np.testing.assert_array_equal(rev, fwd)

    @pytest.mark.parametrize("config", [
        CFG, PhysicalConfig(r_h=5e5, r_l=3.0, z0=300.0, fly_time=3e-5),
    ], ids=["defaults", "extreme"])
    def test_johnson_generators_are_in_detailed_balance(self, config):
        # The exact expectation over the drives of validate's segments.  The
        # two Johnson generators are independent, so the expected power and
        # levels of each bin add the responses to a unit generator at one
        # end at a time, each weighted by E|U_k|^2 = 2*sigma^2/n_bins.  Per
        # bin, the period mean of v*i is Re(V*conj(I))/2 and that of v^2 is
        # |V|^2/2.
        n_bins = in_band_bins(self.N, config.dt, config.bandwidth)
        r_a, r_b = config.r_h, config.r_l
        unit, zero = np.ones(n_bins, dtype=complex), np.zeros(n_bins, dtype=complex)
        flows, levels = [], np.zeros(4)
        for r, drives in ((r_a, (unit, zero)), (r_b, (zero, unit))):
            weight = 2.0 * config.sigma(r) ** 2 / n_bins
            spectra = periodic_steady_state(r_a, r_b, config.z0, config.dt_divisor, self.N,
                                            *drives)
            v_a, _, i_a, _ = spectra
            flows.append(0.5 * weight * (v_a * i_a.conj()).real)
            levels += [0.5 * weight * float(np.sum(np.abs(z) ** 2)) for z in spectra]
        # what A's generator sends into the line at A, B's takes out of it
        from_a, from_b = flows
        assert np.all(from_a > 0) and np.all(from_b < 0)
        assert np.all(np.abs(from_a + from_b) <= 1e-11 * (from_a - from_b))
        v2, i2 = ideal_line_steady_state(r_a, r_b, config.z0, config.fly_time,
                                         np.arange(1, n_bins + 1) / (self.N * config.dt),
                                         config.sigma(r_a) ** 2, config.sigma(r_b) ** 2)
        np.testing.assert_allclose(levels, [*v2, *i2], rtol=1e-11, atol=0)


class TestTrialWaveformsTsv:
    def test_dump_format(self, tmp_path):
        n = D
        rng = np.random.default_rng(3)
        wf = run_transient(CFG, rng.normal(size=n), R_H, rng.normal(size=n), R_L)
        path = tmp_path / "wf.tsv"
        wf.write_tsv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s\tugen_a\tugen_b\tv_a\tv_b\ti_a\ti_b"
        assert len(lines) == n + 1
        back = np.loadtxt(path, skiprows=1)
        np.testing.assert_allclose(back[:, 3], wf.v_a, rtol=1e-8)
        np.testing.assert_allclose(back[:, 0], wf.time, rtol=1e-8)
