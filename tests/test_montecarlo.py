"""Experiment harness: estimation, seeding discipline, steady-state machinery."""

import functools
import math
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from kljnsim import montecarlo
from kljnsim.line import lattice_step_response, run_transient
from kljnsim.montecarlo import (
    run_experiment,
    standard_error,
    trial_waveforms,
    validate_steady_state,
)
from kljnsim.protocol import PhysicalConfig, ScenarioKind, SearchParams

CFG = PhysicalConfig()
FAST = SearchParams(record_len=2**18)
TAUS = (1, 2, 3, 4)
D = CFG.dt_divisor
ENGINE_CONFIGS = {
    "defaults": CFG,
    "odd-grid": PhysicalConfig(fly_time=1.23456789e-05, dt_divisor=37),
    "high-z0": PhysicalConfig(r_h=5e4, z0=300.0, dt_divisor=64),
}


def _per_sample_step_error(config: PhysicalConfig, n: int) -> float:
    """Reference for the line-engine check: one bounce-diagram call per
    sample, skipping the samples within half a step of an arrival."""
    wf = run_transient(config, np.ones(n), config.r_h, np.zeros(n), config.r_l)
    worst = 0.0
    for k in range(n):
        t = k * config.dt
        near = round(t / config.fly_time)
        if near > 0 and abs(t - near * config.fly_time) <= 0.5 * config.dt:
            continue
        v_src, v_load = lattice_step_response(
            1.0, config.r_h, config.r_l, config.z0, config.fly_time, t
        )
        ref = max(abs(v_src), abs(v_load))
        worst = max(worst, abs(wf.v_a[k] - v_src) / ref, abs(wf.v_b[k] - v_load) / ref)
    return worst


def _broken_engine(sample: int, delta: float = 1e-6):
    """run_transient with the voltage at end B raised by ``delta`` V at ``sample``."""
    def broken(config, u_a, r_a, u_b, r_b):
        wf = run_transient(config, u_a, r_a, u_b, r_b)
        wf.v_b[sample] += delta
        return wf
    return broken


class TestStandardError:
    def test_half(self):
        assert standard_error(0.5, 1000) == pytest.approx(0.0158, abs=5e-5)

    def test_degenerate_endpoints(self):
        assert standard_error(0.0, 50) == 0.0
        assert standard_error(1.0, 50) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            standard_error(1.5, 10)
        with pytest.raises(ValueError):
            standard_error(0.5, 0)


class TestRunExperiment:
    def test_single_trial_degenerate(self):
        s = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 1, 5, n_cal=50, params=FAST)
        for p, se in zip(s.p_ev, s.se_v):
            assert p in (0.0, 1.0)
            assert se == 0.0

    def test_reproducible_bit_for_bit(self):
        a = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 12, 77, n_cal=50, params=FAST)
        b = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 12, 77, n_cal=50, params=FAST)
        assert np.array_equal(a.p_ev, b.p_ev)
        assert np.array_equal(a.p_ei, b.p_ei)
        assert [s.sign_u for s in a.signs] == [s.sign_u for s in b.signs]

    def test_worker_count_does_not_change_results(self):
        one = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 16, 31, n_cal=50,
                             params=FAST, jobs=1)
        many = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 16, 31, n_cal=50,
                              params=FAST, jobs=3)
        assert np.array_equal(one.decisions_v, many.decisions_v)
        assert np.array_equal(one.decisions_i, many.decisions_i)
        assert np.array_equal(one.p_ev, many.p_ev)

    @pytest.mark.parametrize("jobs, cpus, n, workers", [
        (64, 1000, 200, 25),   # 25 chunks of 8 trials: one worker per chunk
        (8, 3, 200, 3),        # three CPUs
        (2, 2, 50, 2),
    ])
    def test_worker_count_capped_by_chunks_and_cpus(self, monkeypatch, jobs, cpus, n, workers):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        run = functools.partial(
            montecarlo._run_trial, CFG, ScenarioKind.NO_DEFENSE, master_seed=5,
            tau_steps=(100,), params=SearchParams(record_len=2**15),
        )
        results = montecarlo._collect(run, ((montecarlo._PHASE_EVAL, n),), jobs)
        assert started == [workers]
        assert all(len(column) == n for column in results)

    @pytest.mark.parametrize("scenario", [ScenarioKind.NO_DEFENSE,
                                          ScenarioKind.ZERO_START_SLOPE_MATCHED])
    def test_real_pool_gives_in_process_results(self, monkeypatch, scenario):
        # the worker cap would run jobs=2 in process on a 1-CPU host
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        one, two = (
            run_experiment(CFG, scenario, TAUS, 16, 1, n_cal=50, params=FAST, jobs=jobs)
            for jobs in (1, 2)
        )
        assert started == [2]
        assert np.array_equal(one.decisions_v, two.decisions_v)
        assert np.array_equal(one.decisions_i, two.decisions_i)
        assert one.signs == two.signs
        assert one.loosened_fraction == two.loosened_fraction
        assert one.csv_lines() == two.csv_lines()

    # Rows as written at master seed 1 with numpy 2.4.6.  Scenario 4's signs
    # are all 0 at this size, so its rows are pure coin draws and pin the
    # coin stream.
    @pytest.mark.parametrize("scenario, rows", [
        (ScenarioKind.NO_DEFENSE, [
            "1,1e-05,0.9000,0.0671,0.9000,0.0671,20,0.0000",
            "1,2e-05,0.7500,0.0968,0.8500,0.0798,20,0.0000",
            "1,3e-05,0.7500,0.0968,0.8000,0.0894,20,0.0000",
            "1,4e-05,0.7000,0.1025,0.8000,0.0894,20,0.0000",
        ]),
        (ScenarioKind.ZERO_START_SLOPE_MATCHED, [
            "4,1e-05,0.3500,0.1067,0.3500,0.1067,20,0.3000",
            "4,2e-05,0.6000,0.1095,0.6000,0.1095,20,0.3000",
            "4,3e-05,0.5000,0.1118,0.5000,0.1118,20,0.3000",
            "4,4e-05,0.6500,0.1067,0.6500,0.1067,20,0.3000",
        ]),
    ])
    def test_rows_are_pinned(self, scenario, rows):
        s = run_experiment(CFG, scenario, TAUS, 20, 1, n_cal=50,
                           params=SearchParams(record_len=2**16))
        assert s.csv_lines()[1:] == rows
        if scenario == ScenarioKind.ZERO_START_SLOPE_MATCHED:
            assert all(sign.sign_u == sign.sign_i == 0 for sign in s.signs)

    def test_decision_identity_inside_first_fly_time(self):
        s = run_experiment(CFG, ScenarioKind.ZERO_START_ONLY, TAUS, 20, 13, n_cal=50,
                           params=FAST)
        assert np.array_equal(s.decisions_v[:, 0], s.decisions_i[:, 0])

    def test_tau_must_be_grid_multiple(self):
        with pytest.raises(ValueError):
            run_experiment(CFG, ScenarioKind.NO_DEFENSE, [1.5 * CFG.dt], 4, 1, n_cal=50,
                           params=FAST)

    def test_empty_tau_list_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(CFG, ScenarioKind.NO_DEFENSE, [], 4, 1, n_cal=50, params=FAST)

    @pytest.mark.parametrize("windows, message", [
        ([0], "positive whole number of fly times, got 0"),
        ([1, -1], "positive whole number of fly times, got -1"),
        ([1.5], "positive whole number of fly times, got 1.5"),
        ([], "window list must be nonempty"),
    ], ids=["zero", "negative", "fraction", "empty"])
    def test_windows_must_be_whole_fly_times(self, windows, message):
        with pytest.raises(ValueError, match=message):
            run_experiment(CFG, ScenarioKind.NO_DEFENSE, windows, 4, 1, n_cal=50, params=FAST)

    def test_windows_are_whole_fly_times(self):
        s = run_experiment(CFG, ScenarioKind.NO_DEFENSE, [1, np.int64(3)], 4, 2, n_cal=50,
                           params=FAST)
        assert s.taus.tolist() == [CFG.fly_time, 3 * CFG.fly_time]

    def test_csv_lines_format(self):
        s = run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 8, 3, n_cal=50, params=FAST)
        lines = s.csv_lines()
        assert lines[0] == "scenario,tau_s,p_ev,se_v,p_ei,se_i,n,loosened_fraction"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(CFG.fly_time)
        assert len(first) == 8


class TestTrialWaveforms:
    def test_deterministic_and_sized(self):
        a = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 42, 2, FAST)
        b = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 42, 2, FAST)
        assert len(a) == 2 * CFG.dt_divisor
        assert np.array_equal(a.v_a, b.v_a)

    @pytest.mark.parametrize("fly_times", [0, -1, 1.5, []],
                             ids=["zero", "negative", "fraction", "list"])
    def test_length_must_be_whole_fly_times(self, fly_times):
        with pytest.raises(ValueError, match=re.escape(f"fly times, got {fly_times!r}")):
            trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 42, fly_times, FAST)

    def test_different_trials_differ(self):
        a = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, 42, 1, FAST)
        b = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 1, 42, 1, FAST)
        assert not np.array_equal(a.v_a, b.v_a)

    @pytest.mark.parametrize("scenario", [ScenarioKind.NO_DEFENSE,
                                          ScenarioKind.ZERO_START_SLOPE_MATCHED])
    def test_waveforms_do_not_hold_the_records(self, scenario):
        wf = trial_waveforms(CFG, scenario, 0, 1, 2)
        assert wf.ugen_a.base is None and wf.ugen_b.base is None


class TestEngineStepError:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS.values(), ids=ENGINE_CONFIGS)
    def test_equals_per_sample_reference(self, config):
        error = montecarlo._engine_step_error(config)
        assert error == _per_sample_step_error(config, 12 * config.dt_divisor)
        assert error <= montecarlo.ENGINE_TOLERANCE

    @pytest.mark.parametrize("sample, seen", [
        (0, True), (D - 1, True), (5 * D, False), (5 * D + 1, True), (12 * D - 1, True),
    ], ids=["first", "end-of-first-block", "arrival", "after-arrival", "last"])
    def test_sees_every_sample_but_the_arrivals(self, monkeypatch, sample, seen):
        monkeypatch.setattr(montecarlo, "run_transient", _broken_engine(sample))
        assert (montecarlo._engine_step_error(CFG) > montecarlo.ENGINE_TOLERANCE) is seen

    def test_nan_sample_fails(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_transient", _broken_engine(5 * D + 1, math.nan))
        error = montecarlo._engine_step_error(CFG)
        assert math.isnan(error) and not error <= montecarlo.ENGINE_TOLERANCE


class TestValidateSteadyState:
    def test_engine_check_length_is_checked_first(self):
        with pytest.raises(ValueError, match="dt_divisor 1000000 asks the line-engine check for "
                                             "12000000 samples"):
            validate_steady_state(PhysicalConfig(dt_divisor=10**6), math.inf, 1)

    def test_broken_engine_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_transient", _broken_engine(3 * D + D // 2))
        report = validate_steady_state(CFG, 1000.0 / CFG.bandwidth, 1)
        lines = report.render().splitlines()
        assert not report.engine_ok and not report.all_ok
        assert lines[0] == "line engine:" and lines[1].endswith("[FAIL]")
        assert lines[-1] == "overall: FAIL"

    def test_rejects_short_duration(self):
        with pytest.raises(ValueError, match="0.2"):
            validate_steady_state(CFG, 0.1, 1)

    @pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match=f"duration must be finite, got {duration}"):
            validate_steady_state(CFG, duration, 1)

    def test_holds_one_segment_at_a_time(self):
        # a segment's two records and four waves are freed before the next
        # segment's records are synthesized
        seg_bytes = montecarlo.SEGMENT_SAMPLES * 8
        tracemalloc.start()
        try:
            report = validate_steady_state(CFG, 2 * montecarlo.SEGMENT_SAMPLES * CFG.dt, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_segments == 2
        assert peak < 7 * seg_bytes, f"peak {peak / seg_bytes:.2f} segment arrays"

    def test_report_structure_on_minimal_run(self):
        report = validate_steady_state(CFG, 1000.0 / CFG.bandwidth, 1)
        assert report.n_segments >= 1
        assert report.ms_voltage > 0 and report.ms_current > 0
        assert report.ms_voltage_se > 0
        assert np.isfinite(report.mean_power)
        # identical-by-construction symmetry holds regardless of cable effects
        assert report.hl_lh_ok
        assert report.power_ok
        assert report.engine_ok
        text = report.render()
        assert "wire <v^2>" in text and "mean power" in text
        assert text.startswith("line engine:\n")
        assert text.endswith(f"\noverall: {'pass' if report.all_ok else 'FAIL'}")
