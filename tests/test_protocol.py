"""Protocol layer: resistor algebra, scenario start rules, generator drives;
and the bit-exchange trial that montecarlo composes from them."""

import math
import tracemalloc

import numpy as np
import pytest
from test_noise import estimate_slope, full_record, reference_search

from kljnsim import noise, protocol
from kljnsim.line import run_transient
from kljnsim.montecarlo import (
    _PHASE_EVAL,
    run_experiment,
    trial_waveforms,
    validate_steady_state,
)
from kljnsim.protocol import (
    MAX_REGEN,
    BitState,
    PhysicalConfig,
    ScenarioKind,
    SearchParams,
    prepare_generators,
    slope_ratio,
)
from kljnsim.noise import draw_spectrum, johnson_rms, slope_rms, synthesize_record

CFG = PhysicalConfig()
# short records keep the search-based scenarios fast in unit tests; 2^18 still
# holds enough zero crossings for the slope-matched searches to succeed
FAST = SearchParams(record_len=2**18)


def _prepare_with_records(monkeypatch, *args):
    """prepare_generators(*args), each drive paired with the arguments, its
    spectrum and grid step, of the synthesize_record call that made the
    record it plays.

    The parties synthesize in turn, A then B, so each party's record is the
    last one synthesized within its ``attempts``.
    """
    calls = []
    synthesize = protocol.synthesize_record
    with monkeypatch.context() as m:
        m.setattr(protocol, "synthesize_record", lambda *a: calls.append(a) or synthesize(*a))
        drive_a, drive_b = prepare_generators(*args)
    assert len(calls) == drive_a.attempts + drive_b.attempts
    return (drive_a, calls[drive_a.attempts - 1]), (drive_b, calls[-1])


def _reference_starts(scenario, seed, n_steps, params):
    """(index, negate, attempts) of each party's drive of
    prepare_generators(scenario, HL, CFG, seed, n_steps, params), or None
    for a party that gives up, rebuilt from full records and the reference
    search on the loosening schedule of ``_prepare_party``."""
    n = params.record_len
    starts = []
    for r, party_seed in zip(BitState.HL.resistors(CFG), np.random.SeedSequence(seed).spawn(2)):
        target_value, target_slope = protocol._public_targets(scenario, r == CFG.r_h, CFG, params)
        for attempt in range(1, 10 * MAX_REGEN + 1):
            level = (attempt - 1) // MAX_REGEN
            slope_tol = params.slope_tol * 2**level
            value_tol = params.value_tol * 2**level if target_value != 0.0 else params.value_tol
            record = full_record(draw_spectrum(party_seed.spawn(1)[0], n, CFG.dt, CFG.bandwidth,
                                               CFG.sigma(r)))
            start = reference_search(record, target_value, value_tol, target_slope, slope_tol,
                                     n - 1 - n_steps)
            if start is not None:
                starts.append((start.index, start.negate, attempt))
                break
        else:
            starts.append(None)
    return starts


def _random_start_records(seed, n_steps, params=FAST):
    """The two scenario-1 drives of prepare_generators(seed), each paired
    with the full record its seed path gives.

    A random start synthesizes only the samples it plays, so the record is
    rebuilt here: party p's record is that of draw_spectrum() of
    SeedSequence(seed).spawn(2)[p].spawn(1)[0].  Each drive must play its
    record's slice from the start point, and report the record's value and
    central-difference slope there, within 1e-12 of the record RMS (per dt
    for the slope).
    """
    drives = prepare_generators(ScenarioKind.NO_DEFENSE, BitState.HL, CFG, seed, n_steps, params)
    pairs = []
    parties = zip(drives, np.random.SeedSequence(seed).spawn(2), BitState.HL.resistors(CFG))
    for drive, party_seed, resistance in parties:
        record = full_record(draw_spectrum(party_seed.spawn(1)[0], params.record_len, CFG.dt,
                                           CFG.bandwidth, CFG.sigma(resistance)))
        i, tol = drive.start.index, 1e-12 * record.target_rms
        assert np.max(np.abs(drive.samples - record.samples[i : i + n_steps])) <= tol
        assert abs(drive.start.value - record.samples[i]) <= tol
        assert abs(drive.start.slope - estimate_slope(record, i)) <= tol / CFG.dt
        pairs.append((drive, record))
    return pairs


class TestPhysicalConfig:
    def test_defaults_match_demonstration_setup(self):
        assert (CFG.r_h, CFG.r_l, CFG.z0) == (11e3, 2e3, 50.0)
        assert (CFG.temperature, CFG.bandwidth, CFG.fly_time) == (7e15, 5e3, 1e-5)
        assert CFG.dt == pytest.approx(1e-7, rel=1e-15)

    def test_rejects_equal_resistors(self):
        with pytest.raises(ValueError):
            PhysicalConfig(r_h=2e3, r_l=2e3)

    def test_rejects_swapped_resistors(self):
        with pytest.raises(ValueError):
            PhysicalConfig(r_h=2e3, r_l=11e3)

    @pytest.mark.parametrize("kw", [{"z0": 0.0}, {"temperature": -1.0}, {"bandwidth": 0.0},
                                    {"fly_time": 0.0}, {"dt_divisor": 9}, {"dt_divisor": 10.5},
                                    {"r_h": math.inf}, {"r_l": math.nan}, {"z0": math.nan},
                                    {"temperature": math.inf}, {"bandwidth": math.nan},
                                    {"fly_time": math.inf}, {"dt_divisor": math.inf},
                                    {"dt_divisor": math.nan}, {"dt_divisor": 100.0}])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            PhysicalConfig(**kw)

    def test_sigma_is_johnson_rms(self):
        assert CFG.sigma(CFG.r_h) == johnson_rms(CFG.temperature, CFG.r_h, CFG.bandwidth)

    def test_numpy_integer_dt_divisor_runs_end_to_end(self):
        params = SearchParams(record_len=2**16)
        results = []
        for dt_divisor in (100, np.int64(100)):
            config = PhysicalConfig(dt_divisor=dt_divisor)
            summary = run_experiment(config, ScenarioKind.ZERO_START_SLOPE_MATCHED, (1, 2), 4, 1,
                                     n_cal=50, params=params)
            report = validate_steady_state(config, 1000.0 / config.bandwidth, 1)
            results.append((summary.csv_lines(), report.render()))
        assert results[0] == results[1]


class TestSearchParams:
    def test_record_len_bounds(self):
        assert SearchParams(record_len=2).record_len == 2
        assert SearchParams(record_len=2**24).record_len == 2**24
        with pytest.raises(ValueError, match=r"record_len must be in \[2, .*got 1$"):
            SearchParams(record_len=1)
        with pytest.raises(ValueError, match=r"record_len must be in \[2, 16777216 = 2\^24\], "
                                             r"got 16777217"):
            SearchParams(record_len=2**24 + 1)

    def test_record_len_must_be_an_integer(self):
        assert SearchParams(record_len=np.int64(2**16)).record_len == 2**16
        with pytest.raises(ValueError, match=r"record_len must be in \[2, 16777216 = 2\^24\], "
                                             r"got 65536\.0$"):
            SearchParams(record_len=65536.0)


class TestSlopeRatio:
    def test_demonstration_value(self):
        assert slope_ratio(11e3, 2e3, 50.0) == pytest.approx(11050.0 / 2050.0, rel=1e-15)
        assert slope_ratio(11e3, 2e3, 50.0) == pytest.approx(5.3902, abs=5e-5)

    def test_equal_resistors(self):
        assert slope_ratio(7e3, 7e3, 50.0) == 1.0

    def test_decreasing_toward_one_for_large_z0(self):
        values = [slope_ratio(11e3, 2e3, z) for z in (50.0, 1e3, 1e6, 1e9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=2e-5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            slope_ratio(11e3, 2e3, 0.0)


class TestBitState:
    def test_resistor_assignment(self):
        assert BitState.HL.resistors(CFG) == (CFG.r_h, CFG.r_l)
        assert BitState.LH.resistors(CFG) == (CFG.r_l, CFG.r_h)

    def test_mirrored(self):
        assert BitState(BitState.HL.value[::-1]) == BitState.LH
        assert BitState.LH.resistors(CFG) == BitState.HL.resistors(CFG)[::-1]


class TestPublicTargets:
    @pytest.mark.parametrize("high", [True, False], ids=["H", "L"])
    @pytest.mark.parametrize("scenario", list(ScenarioKind))
    def test_each_scenario_is_one_rule(self, scenario, high):
        params = SearchParams(s3_value_fraction=0.25)
        k = slope_ratio(CFG.r_h, CFG.r_l, CFG.z0) if high else 1
        sigma_l = CFG.sigma(CFG.r_l)
        slope = k * slope_rms(CFG.bandwidth, sigma_l)
        expected = {
            ScenarioKind.NO_DEFENSE: (None, None),
            ScenarioKind.ZERO_START_ONLY: (0.0, None),
            ScenarioKind.RATIO_START_NONZERO: (k * (0.25 * sigma_l), slope),
            ScenarioKind.ZERO_START_SLOPE_MATCHED: (0.0, slope),
        }
        assert protocol._public_targets(scenario, high, CFG, params) == expected[scenario]


class TestPrepareGenerators:
    def test_record_rms_follows_resistor(self):
        (_, record_a), (_, record_b) = _random_start_records(11, 400)
        assert record_a.target_rms == pytest.approx(4.611, abs=5e-4)
        assert record_b.target_rms == pytest.approx(1.9662, abs=5e-5)
        rms_a = math.sqrt(np.mean(record_a.samples ** 2))
        assert rms_a == pytest.approx(record_a.target_rms, rel=1e-12)

    def test_lh_mirrors_hl_targets(self):
        hl_a, hl_b = prepare_generators(
            ScenarioKind.ZERO_START_SLOPE_MATCHED, BitState.HL, CFG, 12, 400, FAST
        )
        lh_a, lh_b = prepare_generators(
            ScenarioKind.ZERO_START_SLOPE_MATCHED, BitState.LH, CFG, 12, 400, FAST
        )
        ratio = slope_ratio(CFG.r_h, CFG.r_l, CFG.z0)
        m_l = slope_rms(CFG.bandwidth, CFG.sigma(CFG.r_l))
        # H-scaled slope target lands on Alice in HL and on Bob in LH
        assert hl_a.start.slope == pytest.approx(ratio * m_l, rel=0.011)
        assert lh_b.start.slope == pytest.approx(ratio * m_l, rel=0.011)
        assert hl_b.start.slope == pytest.approx(m_l, rel=0.011)
        assert lh_a.start.slope == pytest.approx(m_l, rel=0.011)

    def test_full_defense_start_invariants(self):
        drive_a, drive_b = prepare_generators(
            ScenarioKind.ZERO_START_SLOPE_MATCHED, BitState.HL, CFG, 13, 400, FAST
        )
        assert abs(drive_a.start.value) <= 1e-3 * CFG.sigma(CFG.r_h)
        assert abs(drive_b.start.value) <= 1e-3 * CFG.sigma(CFG.r_l)
        ratio = drive_a.start.slope / drive_b.start.slope
        m_hl = slope_ratio(CFG.r_h, CFG.r_l, CFG.z0)
        compounded = 1.01 / 0.99
        assert m_hl / compounded <= ratio <= m_hl * compounded

    def test_ratio_scenario_start_invariants(self):
        params = SearchParams(record_len=2**18)
        drive_a, drive_b = prepare_generators(
            ScenarioKind.RATIO_START_NONZERO, BitState.HL, CFG, 14, 400, params
        )
        sigma_l = CFG.sigma(CFG.r_l)
        m_hl = slope_ratio(CFG.r_h, CFG.r_l, CFG.z0)
        assert drive_b.start.value == pytest.approx(0.5 * sigma_l, abs=1e-3 * sigma_l)
        assert drive_a.start.value == pytest.approx(
            m_hl * 0.5 * sigma_l, abs=1e-3 * CFG.sigma(CFG.r_h)
        )
        assert drive_a.start.achieved_slope_tol <= 0.01
        assert drive_b.start.achieved_slope_tol <= 0.01

    def test_zero_start_only_leaves_slope_free(self):
        drive_a, _ = prepare_generators(
            ScenarioKind.ZERO_START_ONLY, BitState.HL, CFG, 15, 400, FAST
        )
        assert abs(drive_a.start.value) <= 1e-3 * CFG.sigma(CFG.r_h)
        assert math.isnan(drive_a.start.achieved_slope_tol)

    def test_deterministic(self):
        (a1, record_a1), (b1, _) = _random_start_records(17, 400)
        (a2, record_a2), (b2, _) = _random_start_records(17, 400)
        assert a1.start == a2.start
        assert np.array_equal(record_a1.samples, record_a2.samples)
        assert b1.start == b2.start
        assert np.array_equal(a1.samples, a2.samples) and np.array_equal(b1.samples, b2.samples)

    def test_parties_use_independent_streams(self):
        (_, record_a), (_, record_b) = _random_start_records(18, 400)
        # same physics scaled: records must not be proportional to each other
        corr = np.corrcoef(record_a.samples, record_b.samples)[0, 1]
        assert abs(corr) < 0.2

    def test_drive_plays_its_record_from_the_start_point(self, monkeypatch):
        # at seed 27 scenario 4 enters one record sign-flipped and the other not
        n = 400
        pairs = _prepare_with_records(
            monkeypatch, ScenarioKind.ZERO_START_SLOPE_MATCHED, BitState.HL, CFG, 27, n, FAST
        )
        assert {drive.start.negate for drive, _ in pairs} == {True, False}
        for drive, (spectrum, step) in pairs:
            assert step == 128
            i, sign = drive.start.index, -1.0 if drive.start.negate else 1.0
            sigma = spectrum.sigma
            # the played samples are the spectrum's window, bit for bit ...
            window = spectrum.window(i, n)
            assert np.array_equal(drive.samples, sign * window)
            # ... and the full record's within rounding
            played = synthesize_record(spectrum).samples[i : i + n]
            assert np.max(np.abs(drive.samples - sign * played)) <= 1e-12 * sigma
            assert abs(drive.start.value - drive.samples[0]) <= 1e-12 * sigma

    @pytest.mark.parametrize("scenario", [ScenarioKind.ZERO_START_ONLY,
                                          ScenarioKind.RATIO_START_NONZERO,
                                          ScenarioKind.ZERO_START_SLOPE_MATCHED])
    def test_searched_starts_match_the_full_record_reference(self, scenario):
        # 2^16 samples hold 32 bins, so some records hold no start.  A zero
        # window of 1e-5 x RMS misses most crossings, and a slope window of
        # 2e-4 loosens over several levels before a record holds a start.
        tight = (dict(value_tol=1e-5) if scenario == ScenarioKind.ZERO_START_ONLY
                 else dict(slope_tol=2e-4))
        attempts = []
        for params, seeds in ((SearchParams(record_len=2**16), range(50)),
                              (SearchParams(record_len=2**16, **tight), range(4))):
            for seed in seeds:
                drives = prepare_generators(scenario, BitState.HL, CFG, seed, 400, params)
                got = [(d.start.index, d.start.negate, d.attempts) for d in drives]
                assert got == _reference_starts(scenario, seed, 400, params), (params, seed)
                attempts += [d.attempts for d in drives]
        assert max(attempts) > 1
        if scenario != ScenarioKind.ZERO_START_ONLY:
            assert max(attempts) > 3 * MAX_REGEN

    def test_searched_starts_hold_no_full_record(self):
        # A 2^20-sample float64 record is 8 MiB.  The search holds the
        # 8192-point grid and windows of 130 samples, and the played samples
        # are a 400-sample direct sum; the direct sums' phase matrices are
        # built afresh here, so their cost counts.  Seed 38's H party takes
        # 3 records.
        noise._phase_matrix.cache_clear()
        tracemalloc.start()
        try:
            attempts = []
            for seed in (38, 0, 1):
                drives = prepare_generators(ScenarioKind.ZERO_START_SLOPE_MATCHED, BitState.HL,
                                            CFG, seed, 400)
                attempts += [d.attempts for d in drives]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(attempts) >= 3
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("scenario, most", [(ScenarioKind.ZERO_START_ONLY, 4.7),
                                                (ScenarioKind.RATIO_START_NONZERO, 5.0),
                                                (ScenarioKind.ZERO_START_SLOPE_MATCHED, 5.0)])
    def test_direct_sums_per_trial(self, monkeypatch, scenario, most):
        # 60 default evaluation trials at master seed 1, each party on the
        # seed that montecarlo._trial gives it, and 400 steps, the default
        # tables' longest window.  The count holds the played windows and
        # the search's refinements: 4.68, 4.30 and 4.35 per trial for
        # scenarios 2, 3 and 4, where the search without its joint stage
        # took 4.68, 27.47 and 23.33.
        calls = []
        direct_sum = noise._direct_sum
        monkeypatch.setattr(noise, "_direct_sum", lambda *a: calls.append(1) or direct_sum(*a))
        for trial in range(60):
            seed = np.random.SeedSequence(1, spawn_key=(int(scenario), _PHASE_EVAL, trial))
            prepare_generators(scenario, BitState.HL, CFG, seed.spawn(3)[0], 400)
        assert len(calls) / 60 <= most

    @pytest.mark.parametrize("scenario", list(ScenarioKind))
    def test_one_draw_per_record(self, monkeypatch, scenario):
        # The trials of test_direct_sums_per_trial.  A random start draws
        # each party's record once, and a searched start each record it
        # tries: its search grid and its played samples share the draw.
        calls = []
        draw = protocol.draw_spectrum
        monkeypatch.setattr(protocol, "draw_spectrum", lambda *a: calls.append(1) or draw(*a))
        attempts = 0
        for trial in range(60):
            seed = np.random.SeedSequence(1, spawn_key=(int(scenario), _PHASE_EVAL, trial))
            drives = prepare_generators(scenario, BitState.HL, CFG, seed.spawn(3)[0], 400)
            attempts += sum(d.attempts for d in drives)
        assert len(calls) == attempts
        if scenario == ScenarioKind.NO_DEFENSE:
            assert len(calls) == 2 * 60

    def test_rejects_records_too_short_for_the_transient(self):
        n = 2**16
        params = SearchParams(record_len=n)
        for n_steps in (n - 1, n):
            with pytest.raises(ValueError, match="too short"):
                prepare_generators(ScenarioKind.NO_DEFENSE, BitState.HL, CFG, 20, n_steps, params)
        # the longest transient that fits starts at the first interior sample
        drive_a, _ = prepare_generators(
            ScenarioKind.NO_DEFENSE, BitState.HL, CFG, 20, n - 2, params
        )
        assert drive_a.start.index == 1 and len(drive_a.samples) == n - 2

    @pytest.mark.parametrize(
        "scenario", [ScenarioKind.ZERO_START_ONLY, ScenarioKind.RATIO_START_NONZERO,
                     ScenarioKind.ZERO_START_SLOPE_MATCHED]
    )
    def test_search_gives_up_after_bounded_records(self, scenario, monkeypatch):
        # the zero window never loosens, so an unreachable one must end the
        # search after 10 * MAX_REGEN records instead of regenerating forever;
        # the last records search a slope window, and a nonzero value window,
        # 2**9 = 512 times their base
        calls = []
        synthesize = protocol.synthesize_record
        monkeypatch.setattr(protocol, "synthesize_record",
                            lambda *args: calls.append(1) or synthesize(*args))
        params = SearchParams(record_len=2**16, value_tol=1e-12)
        value_tol = "5.12e-10" if scenario == ScenarioKind.RATIO_START_NONZERO else "1e-12"
        with pytest.raises(ValueError, match="no start point in 100 records ") as info:
            prepare_generators(scenario, BitState.HL, CFG, 19, 400, params)
        assert len(calls) == 10 * MAX_REGEN
        assert f"within {value_tol} x RMS" in str(info.value)
        if scenario != ScenarioKind.ZERO_START_ONLY:
            assert "within 5.12 relative" in str(info.value)


class TestRunBepTrial:
    """One bit-exchange period as run_experiment builds it (trial_waveforms)."""

    def test_sample_count(self):
        wf = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 21, 4, FAST)
        assert len(wf) == 400

    def test_no_defense_has_arrival_discontinuity(self):
        wf = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 22, 2, FAST)
        steps = np.abs(np.diff(wf.v_a))
        arrival = steps[CFG.dt_divisor - 1]
        assert arrival > 10.0 * np.median(steps)

    def test_full_defense_arrival_is_smooth(self):
        wf = trial_waveforms(CFG, ScenarioKind.ZERO_START_SLOPE_MATCHED, 0, 23, 2, FAST)
        d = CFG.dt_divisor
        steps = np.abs(np.diff(wf.v_a))
        arrival_jumps = steps[d - 2 : d + 1]
        # no reflection discontinuity: the arrival steps blend in with the
        # sampling noise and stay far below the equilibrium voltage scale
        # the RMS of the lumped HL wire voltage, sqrt(4kT*Rp*B)
        sigma_cable = CFG.sigma(CFG.r_h * CFG.r_l / (CFG.r_h + CFG.r_l))
        assert arrival_jumps.max() < 1e-3 * sigma_cable
        assert arrival_jumps.max() < 10.0 * np.median(steps)

    def test_temperature_scaling_is_exact(self):
        hot = PhysicalConfig(temperature=4 * CFG.temperature)
        wf1 = trial_waveforms(CFG, ScenarioKind.ZERO_START_ONLY, 0, 24, 2, FAST)
        wf2 = trial_waveforms(hot, ScenarioKind.ZERO_START_ONLY, 0, 24, 2, FAST)
        assert np.array_equal(wf2.v_a, 2.0 * wf1.v_a)
        assert np.array_equal(wf2.i_b, 2.0 * wf1.i_b)

    def test_mirror_property(self):
        # exchanging the drives and resistors exchanges the end series exactly
        drive_a, drive_b = prepare_generators(
            ScenarioKind.NO_DEFENSE, BitState.HL, CFG, 25, 200, FAST
        )
        fwd = run_transient(CFG, drive_a.samples, CFG.r_h, drive_b.samples, CFG.r_l)
        rev = run_transient(CFG, drive_b.samples, CFG.r_l, drive_a.samples, CFG.r_h)
        assert np.array_equal(fwd.v_a, rev.v_b)
        assert np.array_equal(fwd.i_a, rev.i_b)

    def test_rejects_sub_step_duration(self):
        with pytest.raises(ValueError):
            trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 26, 0.1 * CFG.dt, FAST)
