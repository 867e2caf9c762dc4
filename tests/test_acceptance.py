"""End-to-end acceptance suite.

Runs the full four-scenario experiment (1000 evaluation trials and 200
calibration trials per scenario, master seed 1, demonstration parameters)
plus the steady-state, noise-quality and waveform checks, and verifies every
target at its stated tolerance.  One pass/fail line is printed per
criterion (run with ``pytest -s`` to see them as they complete).

Criteria:
   1  step response matches the bounce-diagram oracle to 1e-9, in under 1 s
   2  voltage- and current-based decisions identical at tau = t_f in 100%
      of trials, all scenarios
   3  scenario 1 leak: p_I(t_f) within 0.06 of the analytic no-defense leak
      (2/pi)*arctan(sqrt(r)) = 0.739, p_I >= that leak - 0.04 = 0.699 at
      every window, 1000 trials x 4 windows in under 2 minutes
   4  scenario 2 leak: p_V(t_f) within 0.05 of the analytic zero-start leak
      r/(1+r) = 0.841, and p_V >= 0.699 everywhere
   5  scenario 3 partial defense: p(t_f) = 0.50 +- 0.05 and
      p_V(2 t_f) in [0.60, 0.85]
   6  scenario 4 full defense: p_V and p_I <= 0.58 at every window
   7  steady state: wire mean squares within 2% of the ideal-line levels
      (Johnson generators on a line of delay t_f; 4kT*Rp*B and 4kT*B/Rs
      only as t_f -> 0); HL-LH difference and mean power flow within 3
      standard errors of zero
   8  noise quality: exactly zero out-of-band power, sample RMS within 1%,
      excess kurtosis within 0.1 of zero, autocorrelation 1/e decay at the
      sinc's 1/e lag 2.199/(2*pi*B) = 7.0e-5 s +- 20% and first zero at
      1/(2B) = 1e-4 s +- 20%
   9  exact properties: temperature-scaling decision invariance, mirror
      antisymmetry, linearity/superposition, worker-count determinism
  10  waveform signature: arrival discontinuity present without defense,
      absent with the full defense

More checks ride along: the bytes of the default tables and validation
report, against the digests ``test_golden`` pins, the README's scenario-4
table row at n_cal = 2000, the README's curvature rule, which still names
the state at the first fly time of scenario 4, and its arrival kink rule,
which names it in nearly every trial once the first reflected wave arrives.

Here r = (R_L/R_H)*((R_H+Z0)/(R_L+Z0))^2 is the ratio of the L-side to the
H-side first-fly-time wire mean square for Johnson-scaled generators.  The
reference values of criteria 3, 4 and 8 are computed from the configuration
by the helpers below, and that of criterion 7 by validate_steady_state.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from test_golden import assert_digests

from kljnsim.attack import window_stats
from kljnsim.cli import RunConfig, cmd_waveforms, parse_config
from kljnsim.line import lattice_step_response, run_transient
from kljnsim.montecarlo import run_experiment, trial_waveforms, validate_steady_state
from kljnsim.noise import draw_spectrum, synthesize_record
from kljnsim.protocol import BitState, PhysicalConfig, ScenarioKind, SearchParams

CFG = PhysicalConfig()
MASTER_SEED = 1
N_TRIALS = 1000
N_CAL = 200
TAUS = (1, 2, 3, 4)
D = CFG.dt_divisor


def _level_ratio(cfg: PhysicalConfig) -> float:
    """Ratio r of the L-side to the H-side first-fly-time wire mean square.

    Inside the first fly time each cable end shows only its own generator
    through the divider z0/(R + z0).  Johnson generators have mean square
    4kT*R*B, so the H and L levels stand in the ratio
    r = (R_L/R_H)*((R_H + z0)/(R_L + z0))^2.
    """
    return (cfg.r_l / cfg.r_h) * ((cfg.r_h + cfg.z0) / (cfg.r_l + cfg.z0)) ** 2


def _leak_no_defense(cfg: PhysicalConfig) -> float:
    """Analytic leak at tau = t_f without a defense: (2/pi)*arctan(sqrt(r)).

    An abrupt start at a random sample holds each generator near a Gaussian
    value for the whole first fly time (the correlation time is ~7 fly
    times), so the squared starts are independent chi-square(1) variates
    scaled by their levels.  Eve guesses right when the scaled ratio, an
    F(1,1) variate, falls below r; the F(1,1) distribution function is
    (2/pi)*arctan(sqrt(x)).  Equal-amplitude generators would instead give
    (2/pi)*arctan((R_H + z0)/(R_L + z0)) = 0.883.
    """
    return 2.0 / math.pi * math.atan(math.sqrt(_level_ratio(cfg)))


def _leak_zero_start(cfg: PhysicalConfig) -> float:
    """Analytic leak at tau = t_f for a zero start: r/(1 + r).

    A zero start leaves only the start slope, so the first-fly-time
    statistic compares the two squared slopes scaled by their levels.  By
    Rice's formula the slope at a level crossing is Rayleigh distributed,
    its square exponential, and the ratio of two independent exponentials
    falls below r with probability r/(1 + r).  Equal-amplitude generators
    would give c/(1 + c) = 0.967 with c = ((R_H + z0)/(R_L + z0))^2.
    """
    r = _level_ratio(cfg)
    return r / (1.0 + r)


def _sinc_one_over_e_lag(cfg: PhysicalConfig) -> float:
    """Lag at which a flat band (0, B] decorrelates to 1/e: x*/(2*pi*B).

    The autocorrelation of a flat band is sin(2*pi*B*tau)/(2*pi*B*tau); x*
    solves sin(x)/x = 1/e on its main lobe, x* = 2.1991.  The first zero of
    the same sinc is at 1/(2B).
    """
    x_star = brentq(lambda x: math.sin(x) / x - 1.0 / math.e, 1.0, math.pi)
    return x_star / (2.0 * math.pi * cfg.bandwidth)


# Floor of criteria 3 and 4: 0.04 below the analytic no-defense leak, the
# margin the original floor kept below the original centre.
LEAK_FLOOR = _leak_no_defense(CFG) - 0.04


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def experiments():
    """The frozen four-scenario experiment at the default master seed, on
    two workers: the worker count changes no result."""
    results = {}
    for scenario in ScenarioKind:
        t0 = time.perf_counter()
        summary = run_experiment(CFG, scenario, TAUS, N_TRIALS, MASTER_SEED, n_cal=N_CAL, jobs=2)
        elapsed = time.perf_counter() - t0
        results[scenario] = (summary, elapsed)
        cells = "  ".join(
            f"tau={m}tf V:{summary.p_ev[j]:.3f}+-{summary.se_v[j]:.3f} "
            f"I:{summary.p_ei[j]:.3f}+-{summary.se_i[j]:.3f}"
            for j, m in enumerate(TAUS)
        )
        print(
            f"\nscenario {int(scenario)} ({elapsed:.0f} s, loosened "
            f"{summary.loosened_fraction:.3f}): {cells}",
            flush=True,
        )
    return results


@pytest.fixture(scope="module")
def steady_report():
    return validate_steady_state(CFG, 6.4, MASTER_SEED)


def test_criterion_01_oracle_equivalence():
    n = 16 * D
    t0 = time.perf_counter()
    wf = run_transient(CFG, np.ones(n), CFG.r_h, np.zeros(n), CFG.r_l)
    worst = 0.0
    for k in range(n):
        v_src, v_load = lattice_step_response(CFG.r_h, CFG.r_l, CFG.z0, k // D)
        ref = max(abs(v_src), abs(v_load))
        worst = max(worst, abs(wf.v_a[k] - v_src) / ref, abs(wf.v_b[k] - v_load) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    line = _verdict(1, ok, f"worst rel err {worst:.2e} (<=1e-09), runtime {elapsed:.2f} s (<1 s)")
    assert ok, line


def test_criterion_02_first_fly_time_decision_identity(experiments):
    mismatches = {
        int(s): int(np.sum(summary.decisions_v[:, 0] != summary.decisions_i[:, 0]))
        for s, (summary, _) in experiments.items()
    }
    ok = all(m == 0 for m in mismatches.values())
    line = _verdict(2, ok, f"V/I decision mismatches at tau=t_f per scenario: {mismatches}")
    assert ok, line


def test_criterion_03_scenario1_leak_magnitude(experiments):
    summary, elapsed = experiments[ScenarioKind.NO_DEFENSE]
    p = summary.p_ei
    leak = _leak_no_defense(CFG)
    ok_center = abs(p[0] - leak) <= 0.06
    ok_floor = bool(np.all(p >= LEAK_FLOOR))
    ok_time = elapsed < 120.0
    ok = ok_center and ok_floor and ok_time
    line = _verdict(
        3,
        ok,
        f"p_I = {np.round(p, 3).tolist()} (t_f window {leak:.4f}+-0.06: {ok_center}, "
        f"floor >={LEAK_FLOOR:.3f}: {ok_floor}), runtime {elapsed:.0f} s (<120 s: {ok_time})",
    )
    assert ok, line


def test_criterion_04_scenario2_leak_magnitude(experiments):
    summary, _ = experiments[ScenarioKind.ZERO_START_ONLY]
    p = summary.p_ev
    leak = _leak_zero_start(CFG)
    # The search's +-1e-3*RMS value window is about half a typical per-sample
    # step, so it skips some fast crossings: 400 searched starts at master
    # seed 1 show a mean squared slope of 1.71 +- 0.08 slope_rms^2 rather than
    # Rice's 2, which lifts the leak by +0.012 (0.853 +- 0.011 measured against
    # 0.841; ROADMAP item 4), inside the +-0.05 half-width.
    ok_center = abs(p[0] - leak) <= 0.05
    ok_floor = bool(np.all(p >= LEAK_FLOOR))
    ok = ok_center and ok_floor
    line = _verdict(
        4,
        ok,
        f"p_V = {np.round(p, 3).tolist()} (t_f window {leak:.4f}+-0.05: {ok_center}, "
        f"floor >={LEAK_FLOOR:.3f}: {ok_floor})",
    )
    assert ok, line


def test_criterion_05_scenario3_partial_defense(experiments):
    summary, _ = experiments[ScenarioKind.RATIO_START_NONZERO]
    ok_tf = abs(summary.p_ev[0] - 0.50) <= 0.05 and abs(summary.p_ei[0] - 0.50) <= 0.05
    ok_2tf = 0.60 <= summary.p_ev[1] <= 0.85
    ok = ok_tf and ok_2tf
    line = _verdict(
        5,
        ok,
        f"p(t_f) = V:{summary.p_ev[0]:.3f}/I:{summary.p_ei[0]:.3f} (0.50+-0.05: {ok_tf}), "
        f"p_V(2t_f) = {summary.p_ev[1]:.3f} (in [0.60, 0.85]: {ok_2tf})",
    )
    assert ok, line


def test_criterion_06_scenario4_full_defense(experiments):
    summary, _ = experiments[ScenarioKind.ZERO_START_SLOPE_MATCHED]
    worst = max(summary.p_ev.max(), summary.p_ei.max())
    ok = worst <= 0.58
    line = _verdict(
        6,
        ok,
        f"p_V = {np.round(summary.p_ev, 3).tolist()}, "
        f"p_I = {np.round(summary.p_ei, 3).tolist()}, worst {worst:.3f} (<=0.58)",
    )
    assert ok, line


def test_criterion_07_steady_state_identities(steady_report):
    r = steady_report
    print(r.render(), flush=True)
    dev_v = r.ms_voltage / r.ms_voltage_theory - 1.0
    dev_i = r.ms_current / r.ms_current_theory - 1.0
    volt = "ok" if r.voltage_ok else f"off by {dev_v:+.1%}"
    curr = "ok" if r.current_ok else f"off by {dev_i:+.1%}"
    ok = r.all_ok
    line = _verdict(
        7,
        ok,
        f"<v^2> {r.ms_voltage:.4g} vs ideal line {r.ms_voltage_theory:.4g} V^2: {volt}, "
        f"<i^2> {r.ms_current:.4g} vs ideal line {r.ms_current_theory:.4g} A^2: {curr}, "
        f"HL=LH {'ok' if r.hl_lh_ok else 'violated'}, "
        f"zero power flow {'ok' if r.power_ok else 'violated'}",
    )
    assert ok, line


def test_criterion_08_noise_quality():
    sigma = CFG.sigma(CFG.r_l)
    n = 2**20
    oob_ok = rms_ok = True
    lags, zeros = [], []
    for seed in (1, 2, 3):
        rec = synthesize_record(draw_spectrum(np.random.SeedSequence(seed), n, CFG.dt,
                                              CFG.bandwidth, sigma))
        spectrum = np.fft.rfft(rec.samples)
        n_band = int(math.floor(CFG.bandwidth * n * CFG.dt))
        in_band = np.sum(np.abs(spectrum[1 : n_band + 1]) ** 2)
        out_band = np.sum(np.abs(spectrum[n_band + 1 :]) ** 2) + abs(spectrum[0]) ** 2
        oob_ok &= out_band / in_band < 1e-24
        rms_ok &= abs(math.sqrt(np.mean(rec.samples**2)) / sigma - 1.0) < 0.01
        acf = np.fft.irfft(np.abs(spectrum) ** 2, n)
        acf /= acf[0]
        lags.append(float(np.argmax(acf < 1.0 / math.e)) * CFG.dt)
        zeros.append(float(np.argmax(acf <= 0.0)) * CFG.dt)
    kurts = []
    for seed in range(100, 124):
        x = synthesize_record(draw_spectrum(np.random.SeedSequence(seed), n, CFG.dt,
                                            CFG.bandwidth, sigma)).samples
        kurts.append(np.mean(x**4) / np.mean(x**2) ** 2 - 3.0)
    kurt_mean = float(np.mean(kurts))
    kurt_se = float(np.std(kurts, ddof=1)) / math.sqrt(len(kurts))
    kurt_ok = abs(kurt_mean) <= 0.1
    lag_ref = _sinc_one_over_e_lag(CFG)
    lag_mean = float(np.mean(lags))
    lag_ok = abs(lag_mean - lag_ref) <= 0.2 * lag_ref
    zero_ref = 1.0 / (2.0 * CFG.bandwidth)
    zero_mean = float(np.mean(zeros))
    zero_ok = abs(zero_mean - zero_ref) <= 0.2 * zero_ref
    ok = oob_ok and rms_ok and kurt_ok and lag_ok and zero_ok
    line = _verdict(
        8,
        ok,
        f"out-of-band exact: {oob_ok}, RMS within 1%: {rms_ok}, "
        f"kurtosis {kurt_mean:+.4f}+-{kurt_se:.4f} (|.|<=0.1: {kurt_ok}), "
        f"1/e lag {lag_mean:.3e} s ({lag_ref:.3e} +- 20%: {lag_ok}), "
        f"first zero {zero_mean:.3e} s ({zero_ref:.1e} +- 20%: {zero_ok})",
    )
    assert ok, line


def test_criterion_09_exact_property_suite():
    details = []

    # temperature-scaling decision invariance, gamma in {0.25, 4, 4^450,
    # 4^-450}; the last two scale every statistic by 2^+-900
    def decisions(gamma: float):
        cfg = PhysicalConfig(temperature=gamma * CFG.temperature)
        s = run_experiment(cfg, ScenarioKind.ZERO_START_ONLY, TAUS, 30, MASTER_SEED, n_cal=50)
        return s.decisions_v, s.decisions_i

    base_v, base_i = decisions(1.0)
    temp_ok = True
    for gamma in (0.25, 4.0, 4.0**450, 4.0**-450):
        dv, di = decisions(gamma)
        temp_ok &= np.array_equal(dv, base_v) and np.array_equal(di, base_i)
    wf_base = trial_waveforms(CFG, ScenarioKind.NO_DEFENSE, 0, MASTER_SEED, 2)
    hot = PhysicalConfig(temperature=4.0 * CFG.temperature)
    wf_hot = trial_waveforms(hot, ScenarioKind.NO_DEFENSE, 0, MASTER_SEED, 2)
    temp_ok &= np.array_equal(wf_hot.v_a, 2.0 * wf_base.v_a)
    details.append(f"temperature scaling exact: {temp_ok}")

    # mirror antisymmetry of the decision statistics
    rng = np.random.default_rng(77)
    n = 4 * D
    u_a, u_b = rng.normal(size=n), rng.normal(size=n)
    fwd = run_transient(CFG, u_a, CFG.r_h, u_b, CFG.r_l)
    rev = run_transient(CFG, u_b, CFG.r_l, u_a, CFG.r_h)
    tau_steps = [m * D for m in TAUS]
    (fwd_u, fwd_i), (rev_u, rev_i) = window_stats(fwd, tau_steps), window_stats(rev, tau_steps)
    mirror_ok = np.array_equal(rev_u, -fwd_u) and np.array_equal(rev_i, -fwd_i)
    details.append(f"mirror antisymmetry exact: {mirror_ok}")

    # linearity (power-of-two exact) and superposition of the line engine
    halved = run_transient(CFG, 0.5 * u_a, CFG.r_h, 0.5 * u_b, CFG.r_l)
    lin_ok = np.array_equal(fwd.v_a, 2.0 * halved.v_a) and np.array_equal(
        fwd.i_b, 2.0 * halved.i_b
    )
    only_a = run_transient(CFG, u_a, CFG.r_h, np.zeros(n), CFG.r_l)
    only_b = run_transient(CFG, np.zeros(n), CFG.r_h, u_b, CFG.r_l)
    sup_err = np.max(np.abs(fwd.v_a - (only_a.v_a + only_b.v_a)))
    sup_ok = sup_err < 1e-12
    details.append(f"linearity exact: {lin_ok}, superposition err {sup_err:.1e}")

    # determinism under different worker counts
    fast = SearchParams(record_len=2**18)
    runs = [
        run_experiment(CFG, ScenarioKind.NO_DEFENSE, TAUS, 16, MASTER_SEED, n_cal=50,
                       params=fast, jobs=jobs)
        for jobs in (1, 8)
    ]
    jobs_ok = np.array_equal(runs[0].decisions_v, runs[1].decisions_v) and np.array_equal(
        runs[0].decisions_i, runs[1].decisions_i
    )
    details.append(f"jobs {{1,8}} identical: {jobs_ok}")

    ok = temp_ok and mirror_ok and lin_ok and sup_ok and jobs_ok
    line = _verdict(9, ok, "; ".join(details))
    assert ok, line


def test_criterion_10_waveform_signature(tmp_path):
    cfg = RunConfig()
    jumps = {}
    for scenario in (1, 4):
        path = cmd_waveforms(replace(cfg, out_dir=str(tmp_path)), scenario)
        data = np.loadtxt(path, skiprows=1)
        steps = np.abs(np.diff(data[:, 3]))
        jumps[scenario] = steps[D - 1] / np.median(steps)
    ok = jumps[1] > 10.0 and jumps[4] <= 10.0
    line = _verdict(
        10,
        ok,
        f"arrival jump / median step: scenario 1 = {jumps[1]:.0f} (>10), "
        f"scenario 4 = {jumps[4]:.2f} (<=10)",
    )
    assert ok, line


def test_default_tables_are_pinned(experiments):
    # the CSVs `kljn-sim tables` writes at the defaults, byte for byte
    assert_digests({
        f"defaults/scenario_{int(scenario)}.csv": ("\n".join(summary.csv_lines()) + "\n").encode()
        for scenario, (summary, _) in experiments.items()
    })


def test_default_validation_is_pinned(steady_report):
    # the validation.txt `kljn-sim validate` writes at the defaults, byte for byte
    assert_digests({"defaults/validation.txt": (steady_report.render() + "\n").encode()})


def test_scenario4_residual_leak_at_n_cal_2000():
    # the README's n_cal = 2000 row of "Scenario 4's residual leak": a long
    # rehearsal finds the sign from the second fly time on
    summary = run_experiment(CFG, ScenarioKind.ZERO_START_SLOPE_MATCHED, TAUS, N_TRIALS,
                             MASTER_SEED, n_cal=2000, jobs=2)
    # one (voltage, current) pair per window
    assert summary.signs.T.tolist() == [[0, 0], [1, 0], [1, 1], [1, 1]]
    assert np.round(summary.p_ev, 3).tolist() == [0.509, 0.555, 0.574, 0.573]
    assert np.round(summary.p_ei, 3).tolist() == [0.509, 0.493, 0.551, 0.562]


def test_scenario4_curvature_rule_leak():
    # the README's curvature rule (ROADMAP item 5): the full defense matches
    # the start value and slope, but the current's curvature in the first
    # fly time still scales as sigma_r/(r + z0), so the end whose fitted
    # quadratic coefficient is the smaller is H with probability
    # (2/pi)*arctan(k), k = sqrt(R_L/R_H)*(R_H + z0)/(R_L + z0) = sqrt(r):
    # the no-defense leak
    n = 600
    x = np.arange(D, dtype=float)
    hits = 0
    for trial in range(n):
        wf = trial_waveforms(CFG, ScenarioKind.ZERO_START_SLOPE_MATCHED, trial, MASTER_SEED, 1)
        coef = np.polynomial.polynomial.polyfit(x, np.column_stack((wf.i_a, wf.i_b)), 5)
        hits += abs(coef[2, 0]) < abs(coef[2, 1])
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    oracle = _leak_no_defense(CFG)
    assert abs(p - oracle) <= 3.0 * se, f"{hits}/{n} = {p:.4f} +- {se:.4f}, oracle {oracle:.4f}"


def test_scenario4_arrival_kink_rule():
    # the defense hides the state from the mean-square Eve, not from an Eve
    # who resolves v and i at the first arrival (ROADMAP item 5): at an end
    # with resistor r, v + r*i is the generator's smooth drive, while the
    # wrong resistor adds a multiple of the current, whose arriving wave
    # kinks at sample d; so the sum over both ends of the largest |third
    # difference| touching sample d is the smaller for the true assignment
    n = 300

    def kink(v, i, r):
        return np.max(np.abs(np.diff((v + r * i)[D - 3 : D + 4], 3)))

    hits = 0
    for trial in range(n):
        wf = trial_waveforms(CFG, ScenarioKind.ZERO_START_SLOPE_MATCHED, trial, MASTER_SEED, 2)
        hl = kink(wf.v_a, wf.i_a, CFG.r_h) + kink(wf.v_b, wf.i_b, CFG.r_l)
        lh = kink(wf.v_a, wf.i_a, CFG.r_l) + kink(wf.v_b, wf.i_b, CFG.r_h)
        hits += hl < lh
    print(f"\nscenario 4 arrival kink rule: {hits}/{n} = {hits / n:.4f} named HL")
    assert hits / n >= 0.98, f"{hits}/{n}"
