"""Experiment harness: trial composition, repeated independent trials,
success-rate estimation, steady-state validation, reproducible seeding.

Seeding scheme: every trial owns the stream
``SeedSequence(master_seed, spawn_key=(scenario, phase, trial_index))`` with
phase 0 for calibration and 1 for evaluation trials, so calibration and
evaluation never share a stream, results do not depend on worker count or
scheduling, and the same master seed reproduces a summary bit for bit.

Each trial is one cold-start transient of the longest requested observation
window; the statistics for shorter windows are prefixes of the same run, so
the per-window estimates of one scenario are correlated across windows but
individually valid.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attack import DecisionSign, decide, signs_from_calibration, window_stats
from .line import (
    TrialWaveforms,
    _propagate,
    ideal_line_steady_state,
    lattice_step_response,
    reflection_coefficient,
    run_transient,
)
from .noise import in_band_bins, synthesize_record
from .protocol import (
    BitState,
    PhysicalConfig,
    ScenarioKind,
    SearchParams,
    prepare_generators,
    resultant_resistances,
    steady_state_levels,
)

__all__ = [
    "ExperimentSummary",
    "SteadyStateReport",
    "run_experiment",
    "standard_error",
    "trial_waveforms",
    "validate_steady_state",
]

_PHASE_CAL = 0
_PHASE_EVAL = 1

# Steady-state validation: samples per segment, relative tolerance of the
# wire-level checks, the standard-error limit of the zero checks, and the
# most segments one state may plan.
SEGMENT_SAMPLES = 2**21
LEVEL_TOLERANCE = 0.02
SIGMA_LIMIT = 3.0
MAX_SEGMENTS = 1000
# Line-engine check: fly times of the step response compared with the
# bounce diagram, and the limit of its worst relative error.
ENGINE_FLY_TIMES = 12
ENGINE_TOLERANCE = 1e-9


def standard_error(p: float, n: int) -> float:
    """Binomial standard error sqrt(p*(1-p)/n) of an estimated probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(p * (1.0 - p) / n)


def _trial(
    config: PhysicalConfig,
    scenario: ScenarioKind,
    phase: int,
    trial: int,
    master_seed: int,
    n_steps: int,
    params: SearchParams,
) -> tuple[TrialWaveforms, bool, np.random.SeedSequence]:
    """Build one HL trial on its own (scenario, phase, trial) stream.

    Every trial arranges the HL state: LH is its exact mirror image, so
    Eve's success on HL trials is her success on either state.  Returns the
    waveforms of an n_steps cold-start transient, whether either party's
    search loosened its tolerances, and the seed of the trial's fallback
    coins.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(int(scenario), phase, trial))
    # Three children, the middle one unused: the coins keep the third
    # child's stream, and with it every table's bytes.
    drive_seed, _, coin_seed = ss.spawn(3)
    drive_a, drive_b = prepare_generators(scenario, BitState.HL, config, drive_seed, n_steps, params)
    r_a, r_b = BitState.HL.resistors(config)
    wf = run_transient(config, drive_a.samples, r_a, drive_b.samples, r_b)
    return wf, drive_a.loosened or drive_b.loosened, coin_seed


def _run_trial(
    config: PhysicalConfig,
    scenario: ScenarioKind,
    phase: int,
    trial: int,
    *,
    master_seed: int,
    tau_steps: tuple[int, ...],
    params: SearchParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One trial's rho_u and rho_i per window, its fallback coins (one
    uniform draw per window, shared by both channels), and whether either
    party's search loosened."""
    wf, loosened, coin_seed = _trial(
        config, scenario, phase, trial, master_seed, max(tau_steps), params
    )
    rho_u, rho_i = window_stats(wf, tau_steps)
    coins = np.random.default_rng(coin_seed).random(len(tau_steps))
    return rho_u, rho_i, coins, loosened


def _window_steps(config: PhysicalConfig, fly_times: Sequence[int]) -> tuple[int, ...]:
    """Sample count of each window of ``fly_times`` whole fly times, or ValueError."""
    if len(fly_times) == 0:
        raise ValueError("the window list must be nonempty")
    for m in fly_times:
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"a window must be a positive whole number of fly times, got {m!r}")
    return tuple(int(m) * config.dt_divisor for m in fly_times)


def _pool_class():
    """The process pool class, imported on first use because it loads
    multiprocessing.  A stand-in assigned to the module attribute
    ``ProcessPoolExecutor`` is used instead."""
    global ProcessPoolExecutor
    if "ProcessPoolExecutor" not in globals():
        from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def __getattr__(name: str):
    """Module attribute lookup of last resort: ``ProcessPoolExecutor`` loads on first use."""
    if name == "ProcessPoolExecutor":
        return _pool_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_chunk(run, tasks) -> list:
    return [run(phase, trial) for phase, trial in tasks]


def _collect(run, phases, jobs: int) -> tuple[np.ndarray, ...]:
    """Run ``run(phase, trial)`` for trials 0 .. n-1 of every (phase, n) in
    ``phases``, in process or in chunks on at most ``jobs`` workers, no more
    than there are chunks or CPUs.  Returns each output of ``run`` stacked
    over the trials, in task order."""
    tasks = [(phase, trial) for phase, n in phases for trial in range(n)]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(tasks) < 2 * jobs:
        outputs = _run_chunk(run, tasks)
    else:
        size = max(8, math.ceil(len(tasks) / (4 * jobs)))
        chunks = [tasks[lo : lo + size] for lo in range(0, len(tasks), size)]
        with _pool_class()(max_workers=min(jobs, len(chunks))) as pool:
            parts = pool.map(functools.partial(_run_chunk, run), chunks)
            outputs = [out for part in parts for out in part]
    return tuple(np.array(column) for column in zip(*outputs))


@dataclass
class ExperimentSummary:
    """Per-window attack success estimates for one scenario.

    decisions_v / decisions_i hold one guess-correctness flag per
    (evaluation trial, window).
    """

    scenario: ScenarioKind
    taus: np.ndarray
    p_ev: np.ndarray
    se_v: np.ndarray
    p_ei: np.ndarray
    se_i: np.ndarray
    n_trials: int
    loosened_fraction: float
    signs: list[DecisionSign]
    decisions_v: np.ndarray = field(repr=False)
    decisions_i: np.ndarray = field(repr=False)

    def csv_lines(self) -> list[str]:
        lines = ["scenario,tau_s,p_ev,se_v,p_ei,se_i,n,loosened_fraction"]
        for j, tau in enumerate(self.taus):
            lines.append(
                f"{int(self.scenario)},{tau:.6g},{self.p_ev[j]:.4f},{self.se_v[j]:.4f},"
                f"{self.p_ei[j]:.4f},{self.se_i[j]:.4f},{self.n_trials},"
                f"{self.loosened_fraction:.4f}"
            )
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def trial_waveforms(
    config: PhysicalConfig,
    scenario: ScenarioKind,
    trial: int,
    master_seed: int,
    fly_times: int,
    params: SearchParams = SearchParams(),
) -> TrialWaveforms:
    """Waveforms of one evaluation-phase trial in the HL state, ``fly_times``
    whole fly times long, built exactly as run_experiment builds it (useful
    for dumping what an experiment saw)."""
    (n_steps,) = _window_steps(config, [fly_times])
    return _trial(config, scenario, _PHASE_EVAL, trial, master_seed, n_steps, params)[0]


def run_experiment(
    config: PhysicalConfig,
    scenario: ScenarioKind,
    tau_multipliers: Sequence[int],
    n_trials: int,
    master_seed: int,
    n_cal: int = 200,
    params: SearchParams = SearchParams(),
    jobs: int = 1,
) -> ExperimentSummary:
    """Calibrate Eve's signs, then estimate her per-window success probability.

    Eve's windows are ``tau_multipliers`` whole fly times.  Calibration runs
    ``n_cal`` labeled HL trials and evaluation runs ``n_trials`` more, built
    the same way on their own streams.  A guess is correct when it names HL;
    the two channels share one fallback coin per (trial, window).  Both
    phases run in one pass, on one pool when ``jobs`` > 1.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_cal < 50:
        raise ValueError(f"calibration needs n_cal >= 50, got {n_cal}")
    tau_steps = _window_steps(config, tau_multipliers)
    run = functools.partial(
        _run_trial, config, scenario, master_seed=master_seed, tau_steps=tau_steps,
        params=params,
    )
    rho_u, rho_i, coins, loosened = _collect(
        run, ((_PHASE_CAL, n_cal), (_PHASE_EVAL, n_trials)), jobs
    )
    signs = [
        signs_from_calibration(rho_u[:n_cal, j], rho_i[:n_cal, j])
        for j in range(len(tau_steps))
    ]
    ok_v = decide([s.sign_u for s in signs], rho_u[n_cal:], coins[n_cal:])
    ok_i = decide([s.sign_i for s in signs], rho_i[n_cal:], coins[n_cal:])
    p_ev = ok_v.mean(axis=0)
    p_ei = ok_i.mean(axis=0)
    return ExperimentSummary(
        scenario=scenario,
        # built after the trials, so a window too long for any record fails
        # in the search's length check before it could overflow a float
        taus=np.array([m * config.fly_time for m in tau_multipliers]),
        p_ev=p_ev,
        se_v=np.array([standard_error(p, n_trials) for p in p_ev]),
        p_ei=p_ei,
        se_i=np.array([standard_error(p, n_trials) for p in p_ei]),
        n_trials=n_trials,
        loosened_fraction=float(np.mean(loosened[n_cal:])),
        signs=signs,
        decisions_v=ok_v,
        decisions_i=ok_i,
    )


@dataclass
class SteadyStateReport:
    """The line engine's step response against the bounce diagram, and
    measured long-run wire statistics against the passive-security identities.

    ``engine_error`` is the worst relative error of the step response.
    ``ms_voltage_theory`` and ``ms_current_theory`` are the ideal-line
    references (``ideal_line_steady_state`` on the records' in-band bins) that
    the level checks use.  ``ms_voltage_lumped`` (4kT*Rp*B) and
    ``ms_current_lumped`` (4kT*B/Rs) are the zero-length-wire levels, kept
    for information: the line's shunt capacitance t_f/z0 moves the wire
    levels away from them whenever it is not negligible against the
    terminations inside the band.
    """

    engine_error: float
    duration: float
    n_segments: int
    ms_voltage: float
    ms_voltage_se: float
    ms_voltage_theory: float
    ms_voltage_lumped: float
    ms_current: float
    ms_current_se: float
    ms_current_theory: float
    ms_current_lumped: float
    hl_lh_voltage_diff: float
    hl_lh_voltage_diff_se: float
    hl_lh_current_diff: float
    hl_lh_current_diff_se: float
    mean_power: float
    mean_power_se: float

    @property
    def engine_ok(self) -> bool:
        return self.engine_error <= ENGINE_TOLERANCE

    @property
    def voltage_ok(self) -> bool:
        return abs(self.ms_voltage / self.ms_voltage_theory - 1.0) <= LEVEL_TOLERANCE

    @property
    def current_ok(self) -> bool:
        return abs(self.ms_current / self.ms_current_theory - 1.0) <= LEVEL_TOLERANCE

    @property
    def hl_lh_ok(self) -> bool:
        return (
            abs(self.hl_lh_voltage_diff) <= SIGMA_LIMIT * self.hl_lh_voltage_diff_se
            and abs(self.hl_lh_current_diff) <= SIGMA_LIMIT * self.hl_lh_current_diff_se
        )

    @property
    def power_ok(self) -> bool:
        return abs(self.mean_power) <= SIGMA_LIMIT * self.mean_power_se

    @property
    def all_ok(self) -> bool:
        return (self.engine_ok and self.voltage_ok and self.current_ok and self.hl_lh_ok
                and self.power_ok)

    def render(self) -> str:
        def flag(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        rel_v = self.ms_voltage / self.ms_voltage_theory - 1.0
        rel_i = self.ms_current / self.ms_current_theory - 1.0
        lines = [
            "line engine:",
            f"  step response vs bounce-diagram oracle: worst rel err {self.engine_error:.3e} "
            f"(limit {ENGINE_TOLERANCE:.0e}) [{flag(self.engine_ok)}]",
            f"steady state over {self.duration:g} s per state ({self.n_segments} segments)",
            f"  wire <v^2>: {self.ms_voltage:.6e} +- {self.ms_voltage_se:.2e} V^2 | "
            f"ideal line = {self.ms_voltage_theory:.6e} V^2 | "
            f"rel dev {rel_v:+.4f} (tol {LEVEL_TOLERANCE:.2%}) [{flag(self.voltage_ok)}]",
            f"    (lumped 4kT*Rp*B = {self.ms_voltage_lumped:.6e} V^2, for information)",
            f"  wire <i^2>: {self.ms_current:.6e} +- {self.ms_current_se:.2e} A^2 | "
            f"ideal line = {self.ms_current_theory:.6e} A^2 | "
            f"rel dev {rel_i:+.4f} (tol {LEVEL_TOLERANCE:.2%}) [{flag(self.current_ok)}]",
            f"    (lumped 4kT*B/Rs = {self.ms_current_lumped:.6e} A^2, for information)",
            f"  HL-LH <v^2> diff: {self.hl_lh_voltage_diff:+.3e} "
            f"({abs(self.hl_lh_voltage_diff) / self.hl_lh_voltage_diff_se:.2f} se), "
            f"<i^2> diff: {self.hl_lh_current_diff:+.3e} "
            f"({abs(self.hl_lh_current_diff) / self.hl_lh_current_diff_se:.2f} se) "
            f"[{flag(self.hl_lh_ok)}]",
            f"  mean power flow at A: {self.mean_power:+.3e} +- {self.mean_power_se:.2e} W "
            f"[{flag(self.power_ok)}]",
            f"overall: {flag(self.all_ok)}",
        ]
        return "\n".join(lines)


def _steady_segments(
    config: PhysicalConfig,
    state: BitState,
    n_seg: int,
    discard: int,
    chunks_per_seg: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-chunk means of v^2, i^2 (end-averaged) and v*i at A."""
    r_a, r_b = state.resistors(config)
    sig_a, sig_b = config.sigma(r_a), config.sigma(r_b)
    v2, i2, p = [], [], []
    state_key = 0 if state == BitState.HL else 1
    for k in range(n_seg):
        ss = np.random.SeedSequence(seed, spawn_key=(90, state_key, k))
        seed_a, seed_b = ss.spawn(2)
        rec_a = synthesize_record(seed_a, SEGMENT_SAMPLES, config.dt, config.bandwidth, sig_a)
        rec_b = synthesize_record(seed_b, SEGMENT_SAMPLES, config.dt, config.bandwidth, sig_b)
        v_a, v_b, i_a, i_b = _propagate(
            rec_a.samples, rec_b.samples, r_a, r_b, config.z0, config.dt_divisor
        )
        kept = SEGMENT_SAMPLES - discard
        chunk = kept // chunks_per_seg
        for c in range(chunks_per_seg):
            sl = slice(discard + c * chunk, discard + (c + 1) * chunk)
            v2.append(0.5 * (np.mean(v_a[sl] ** 2) + np.mean(v_b[sl] ** 2)))
            i2.append(0.5 * (np.mean(i_a[sl] ** 2) + np.mean(i_b[sl] ** 2)))
            p.append(np.mean(v_a[sl] * i_a[sl]))
        # Free this segment before the next one is synthesized.
        del rec_a, rec_b, v_a, v_b, i_a, i_b
    return np.array(v2), np.array(i2), np.array(p)


def _engine_step_error(config: PhysicalConfig) -> float:
    """Worst relative error of the engine's cold-start step response, a unit
    step behind R_H at A with R_L at B, against the bounce diagram over
    ENGINE_FLY_TIMES fly times.  The bounce diagram is constant within a fly
    time, so it is evaluated once per fly time and compared with that fly
    time's block of samples; the sample that opens each later block lies on
    an arrival, where the response jumps, and is skipped."""
    d = config.dt_divisor
    n = ENGINE_FLY_TIMES * d
    wf = run_transient(config, np.ones(n), config.r_h, np.zeros(n), config.r_l)
    worst = 0.0
    for m in range(ENGINE_FLY_TIMES):
        oracle = lattice_step_response(1.0, config.r_h, config.r_l, config.z0, config.fly_time,
                                       (m + 0.5) * config.fly_time)
        ref = max(abs(v) for v in oracle)
        block = slice(m * d + (m > 0), (m + 1) * d)
        for v, v_oracle in zip((wf.v_a, wf.v_b), oracle):
            worst = float(np.max(np.abs(v[block] - v_oracle) / ref, initial=worst))
    return worst


def _plan_steady_state(
    config: PhysicalConfig, duration: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """Segments per state for ``duration`` s of ``validate_steady_state``, and
    the ideal-line steady state ``(v2, i2)`` of HL on one segment's in-band
    bins; ValueError for a duration or config that cannot be validated."""
    # The line-engine check's step response may be no longer than a segment.
    n_engine = ENGINE_FLY_TIMES * config.dt_divisor
    if n_engine > SEGMENT_SAMPLES:
        raise ValueError(f"dt_divisor {config.dt_divisor} asks the line-engine check for "
                         f"{n_engine} samples ({ENGINE_FLY_TIMES} fly times), above the "
                         f"maximum of {SEGMENT_SAMPLES}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration} s")
    min_duration = 1000.0 / config.bandwidth
    if duration < min_duration:
        raise ValueError(f"duration {duration} s is below the minimum {min_duration} s (1000/B)")
    seg_duration = SEGMENT_SAMPLES * config.dt
    planned = duration / seg_duration  # may be inf; round() takes 1000.5 to 1000
    if planned > MAX_SEGMENTS + 0.5:
        count = round(planned) if planned < 1e15 else f"{planned:.3g}"
        raise ValueError(
            f"duration {duration} s plans {count} segments per state, above the maximum of "
            f"{MAX_SEGMENTS}; the largest accepted duration is about "
            f"{MAX_SEGMENTS * seg_duration:g} s"
        )
    r_a, r_b = BitState.HL.resistors(config)
    freqs = np.arange(1, in_band_bins(SEGMENT_SAMPLES, config.dt, config.bandwidth) + 1)
    v2_line, i2_line = ideal_line_steady_state(
        r_a, r_b, config.z0, config.fly_time, freqs / seg_duration,
        config.sigma(r_a) ** 2, config.sigma(r_b) ** 2,
    )
    return max(1, round(planned)), v2_line, i2_line


def validate_steady_state(config: PhysicalConfig, duration: float, seed: int) -> SteadyStateReport:
    """The line-engine check and a long-run check of the passive-security
    identities.

    The engine's step response must match the bounce diagram within
    ENGINE_TOLERANCE over ENGINE_FLY_TIMES fly times.  Then ``duration``
    seconds of equilibrated HL exchange (and the same of LH) run in
    independent cold-start segments, discarding the settle window of each.
    Compares the end-averaged HL wire mean squares, within
    LEVEL_TOLERANCE, against the ideal-line steady state of Johnson
    generators evaluated on the in-band bins of one segment (the lumped
    levels 4kT*Rp*B and 4kT*B/Rs are reported alongside), and the HL-LH
    difference and the mean power flow against zero, within SIGMA_LIMIT
    standard errors.  A duration that plans more than MAX_SEGMENTS segments
    per state, or a config whose reference overflows, is rejected before
    either check starts.
    """
    n_seg, v2_line, i2_line = _plan_steady_state(config, duration)
    engine_error = _engine_step_error(config)
    seg_duration = SEGMENT_SAMPLES * config.dt
    gamma_prod = reflection_coefficient(config.r_h, config.z0) * reflection_coefficient(
        config.r_l, config.z0
    )
    settle = 2.0 * config.fly_time / max(1e-12, 1.0 - abs(gamma_prod))
    discard = min(SEGMENT_SAMPLES // 4, int(round(30.0 * settle / config.dt)))
    chunks_per_seg = 4 if n_seg < 8 else 1

    v2_hl, i2_hl, p_hl = _steady_segments(config, BitState.HL, n_seg, discard, chunks_per_seg, seed)
    v2_lh, i2_lh, _ = _steady_segments(config, BitState.LH, n_seg, discard, chunks_per_seg, seed)

    def mean_se(x: np.ndarray) -> tuple[float, float]:
        return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))

    v2, v2_se = mean_se(v2_hl)
    i2, i2_se = mean_se(i2_hl)
    power, power_se = mean_se(p_hl)
    v2l, v2l_se = mean_se(v2_lh)
    i2l, i2l_se = mean_se(i2_lh)
    _, r_s = resultant_resistances(config.r_h, config.r_l)
    return SteadyStateReport(
        engine_error=engine_error,
        duration=n_seg * seg_duration,
        n_segments=n_seg,
        ms_voltage=v2,
        ms_voltage_se=v2_se,
        ms_voltage_theory=float(np.mean(v2_line)),
        ms_voltage_lumped=steady_state_levels(config)[BitState.HL],
        ms_current=i2,
        ms_current_se=i2_se,
        ms_current_theory=float(np.mean(i2_line)),
        ms_current_lumped=(config.sigma(r_s) / r_s) ** 2,
        hl_lh_voltage_diff=v2 - v2l,
        hl_lh_voltage_diff_se=math.hypot(v2_se, v2l_se),
        hl_lh_current_diff=i2 - i2l,
        hl_lh_current_diff_se=math.hypot(i2_se, i2l_se),
        mean_power=power,
        mean_power_se=power_se,
    )
