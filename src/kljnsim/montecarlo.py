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

from .attack import decide, signs_from_calibration, window_stats
from .line import (
    TrialWaveforms,
    _propagate,
    ideal_line_steady_state,
    lattice_step_response,
    periodic_steady_state,
    reflection_coefficient,
    run_transient,
)
from .noise import MIN_BINS, _on_grid, draw_spectrum, grid_step, in_band_bins, synthesize_record
from .protocol import (
    BitState,
    PhysicalConfig,
    ScenarioKind,
    SearchParams,
    _is_normal,
    _public_targets,
    prepare_generators,
)

__all__ = [
    "ExperimentSummary",
    "SteadyStateReport",
    "run_experiment",
    "trial_waveforms",
    "validate_steady_state",
]

_PHASE_CAL = 0
_PHASE_EVAL = 1
# Most trials of one phase: the task list of both phases, about 430 B per
# trial, stays under about 1 GiB.
MAX_TRIALS = 10**6

# Steady-state validation: samples per segment, relative tolerance of the
# wire-level checks, the standard-error limit of the zero checks, and the
# most segments one state may plan.
SEGMENT_SAMPLES = 2**21
LEVEL_TOLERANCE = 0.02
SIGMA_LIMIT = 3.0
MAX_SEGMENTS = 1000
# Settled-engine check: the limit of the worst error of a propagated
# segment's waves, after its discard window of SETTLE_TIMES settle times,
# against the periodic steady state, relative to each series' RMS.
PERIODIC_TOLERANCE = 1e-12
SETTLE_TIMES = 30.0
# Line-engine check: fly times of the step response compared with the
# bounce diagram, and the limit of its worst relative error.
ENGINE_FLY_TIMES = 12
ENGINE_TOLERANCE = 1e-9


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


def _plan_experiment(
    config: PhysicalConfig,
    scenario: ScenarioKind,
    fly_times: Sequence[int],
    params: SearchParams,
    n_trials: int = 1,
    n_cal: int = 50,
) -> tuple[int, ...]:
    """Sample count of each window of ``fly_times`` whole fly times, once
    every check that a trial of ``scenario`` would make has passed;
    ValueError for windows, trial counts or a config that cannot run.  After
    this plan, a run can fail only in a defense search that finds no start
    point.  The default counts, the least accepted, plan the single trial of
    ``trial_waveforms``."""
    if len(fly_times) == 0:
        raise ValueError("the window list must be nonempty")
    for m in fly_times:
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"a window must be a positive whole number of fly times, got {m!r}")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_cal < 50:
        raise ValueError(f"calibration needs n_cal >= 50, got {n_cal}")
    if max(n_trials, n_cal) > MAX_TRIALS:
        raise ValueError(f"n_trials {n_trials} and n_cal {n_cal} must be at most {MAX_TRIALS}")
    tau_steps = tuple(int(m) * config.dt_divisor for m in fly_times)
    if max(tau_steps) > params.record_len - 2:
        raise ValueError(f"record_len {params.record_len} too short for {max(tau_steps)} "
                         "transient steps")
    in_band_bins(params.record_len, config.dt, config.bandwidth)
    slopes = [_public_targets(scenario, high, config, params)[1] for high in (False, True)]
    if not all(slope is None or _is_normal(slope) for slope in slopes):
        raise ValueError(f"scenario {int(scenario)}'s public slope targets {slopes} V/s must be "
                         "nonzero normal floats")
    return tau_steps


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _collect(run, phases, jobs: int) -> tuple[np.ndarray, ...]:
    """Run ``run(phase, trial)`` for trials 0 .. n-1 of every (phase, n) in
    ``phases``, in process or in chunks on at most ``jobs`` workers, no more
    than there are chunks or usable CPUs.  Returns each output of ``run``
    stacked over the trials, in task order."""
    tasks = [(phase, trial) for phase, n in phases for trial in range(n)]
    jobs = min(jobs, _usable_cpus())
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

    ``signs`` holds Eve's calibrated signs, shape (2, windows): the
    voltage signs in row 0 and the current signs in row 1, each +1, -1 or 0
    (uninformative).  decisions_v / decisions_i hold one guess-correctness
    flag per (evaluation trial, window).
    """

    scenario: ScenarioKind
    taus: np.ndarray
    p_ev: np.ndarray
    se_v: np.ndarray
    p_ei: np.ndarray
    se_i: np.ndarray
    n_trials: int
    loosened_fraction: float
    signs: np.ndarray
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
    (n_steps,) = _plan_experiment(config, scenario, [fly_times], params)
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
    tau_steps = _plan_experiment(config, scenario, tau_multipliers, params, n_trials, n_cal)
    run = functools.partial(
        _run_trial, config, scenario, master_seed=master_seed, tau_steps=tau_steps,
        params=params,
    )
    rho_u, rho_i, coins, loosened = _collect(
        run, ((_PHASE_CAL, n_cal), (_PHASE_EVAL, n_trials)), jobs
    )
    signs = signs_from_calibration(rho_u[:n_cal], rho_i[:n_cal])
    ok_v = decide(signs[0], rho_u[n_cal:], coins[n_cal:])
    ok_i = decide(signs[1], rho_i[n_cal:], coins[n_cal:])
    p_ev = ok_v.mean(axis=0)
    p_ei = ok_i.mean(axis=0)
    return ExperimentSummary(
        scenario=scenario,
        taus=np.array([m * config.fly_time for m in tau_multipliers]),
        p_ev=p_ev,
        se_v=np.sqrt(p_ev * (1.0 - p_ev) / n_trials),
        p_ei=p_ei,
        se_i=np.sqrt(p_ei * (1.0 - p_ei) / n_trials),
        n_trials=n_trials,
        loosened_fraction=float(np.mean(loosened[n_cal:])),
        signs=signs,
        decisions_v=ok_v,
        decisions_i=ok_i,
    )


@dataclass
class SteadyStateReport:
    """The line engine's step response against the bounce diagram and its
    settled waves against the periodic steady state, and long-run wire
    statistics against the passive-security identities.

    ``engine_error`` is the worst relative error of the step response, and
    ``periodic_error`` that of one propagated segment per state after its
    discard window.  ``ms_voltage_theory`` and ``ms_current_theory`` are the
    ideal-line references (``ideal_line_steady_state`` on the records'
    in-band bins) that the level checks use.
    """

    engine_error: float
    periodic_error: float
    duration: float
    n_segments: int
    ms_voltage: float
    ms_voltage_se: float
    ms_voltage_theory: float
    ms_current: float
    ms_current_se: float
    ms_current_theory: float
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
    def periodic_ok(self) -> bool:
        return self.periodic_error <= PERIODIC_TOLERANCE

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
        return (self.engine_ok and self.periodic_ok and self.voltage_ok and self.current_ok
                and self.hl_lh_ok and self.power_ok)

    def render(self) -> str:
        def flag(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        rel_v = self.ms_voltage / self.ms_voltage_theory - 1.0
        rel_i = self.ms_current / self.ms_current_theory - 1.0
        lines = [
            "line engine:",
            f"  step response vs bounce-diagram oracle: worst rel err {self.engine_error:.3e} "
            f"(limit {ENGINE_TOLERANCE:.0e}) [{flag(self.engine_ok)}]",
            f"  settled waves vs periodic steady state: worst rel err {self.periodic_error:.3e} "
            f"(limit {PERIODIC_TOLERANCE:.0e}) [{flag(self.periodic_ok)}]",
            f"steady state over {self.duration:g} s per state ({self.n_segments} segments)",
            f"  wire <v^2>: {self.ms_voltage:.6e} +- {self.ms_voltage_se:.2e} V^2 | "
            f"ideal line = {self.ms_voltage_theory:.6e} V^2 | "
            f"rel dev {rel_v:+.4f} (tol {LEVEL_TOLERANCE:.2%}) [{flag(self.voltage_ok)}]",
            f"  wire <i^2>: {self.ms_current:.6e} +- {self.ms_current_se:.2e} A^2 | "
            f"ideal line = {self.ms_current_theory:.6e} A^2 | "
            f"rel dev {rel_i:+.4f} (tol {LEVEL_TOLERANCE:.2%}) [{flag(self.current_ok)}]",
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
) -> tuple[np.ndarray, float]:
    """Per-chunk means over each segment's settled wire series, as one
    (3, n_seg * chunks_per_seg) table with segment k's chunks in columns
    k * chunks_per_seg onward, and the settled-engine error of segment 0.
    The table's rows are the end-averaged v^2, the end-averaged i^2, and
    v*i at A.

    A segment's drives are the n-periodic records of the spectra its seeds
    draw, so its settled series are exactly ``periodic_steady_state`` of
    their scaled coefficients.  Each series is sampled on the grid of
    every D-th sample (``grid_step``); the band is below that grid's Nyquist
    frequency with room for a square's, so the mean of a square or product
    over the grid is its full-period mean.  The chunks split the grid.
    """
    r_a, r_b = state.resistors(config)
    step = grid_step(SEGMENT_SAMPLES, config.dt, config.bandwidth)
    count = SEGMENT_SAMPLES // step
    table = np.empty((3, n_seg, chunks_per_seg))
    state_key = 0 if state == BitState.HL else 1
    for k in range(n_seg):
        seeds = np.random.SeedSequence(seed, spawn_key=(90, state_key, k)).spawn(2)
        drawn = [draw_spectrum(drive_seed, SEGMENT_SAMPLES, config.dt, config.bandwidth,
                               config.sigma(r)) for drive_seed, r in zip(seeds, (r_a, r_b))]
        spectra = periodic_steady_state(r_a, r_b, config.z0, config.dt_divisor,
                                        SEGMENT_SAMPLES, *(d.scale * d.coeffs for d in drawn))
        # One row per chunk: every mean runs along a contiguous row.
        v_a, v_b, i_a, i_b = (_on_grid(z, count, 1.0).reshape(chunks_per_seg, -1)
                              for z in spectra)
        table[0, k] = 0.5 * (np.mean(v_a**2, axis=1) + np.mean(v_b**2, axis=1))
        table[1, k] = 0.5 * (np.mean(i_a**2, axis=1) + np.mean(i_b**2, axis=1))
        table[2, k] = np.mean(v_a * i_a, axis=1)
        if k == 0:
            error = _settled_engine_error(config, r_a, r_b, drawn, spectra, discard, step)
    return table.reshape(3, -1), error


def _settled_engine_error(
    config: PhysicalConfig,
    r_a: float,
    r_b: float,
    drawn,
    spectra,
    discard: int,
    step: int,
) -> float:
    """Worst error of the engine's four wire series of one segment, after
    ``discard`` samples, against their periodic steady state ``spectra``,
    relative to each series' RMS.

    The segment's two records are synthesized from their ``drawn`` spectra
    and propagated from a cold start, then freed.  Each series is compared
    on the grids of every ``step``-th sample shifted by
    s = 0 .. gcd(step, d) - 1, which together meet every position of the
    engine's blocks of d samples: the comparison needs no full-length
    periodic series.
    """
    n, d = SEGMENT_SAMPLES, int(config.dt_divisor)
    rec_a, rec_b = (synthesize_record(spectrum) for spectrum in drawn)
    waves = _propagate(rec_a.samples, rec_b.samples, r_a, r_b, config.z0, d)
    del rec_a, rec_b
    bins = np.arange(1, len(spectra[0]) + 1)
    rms = [math.sqrt(0.5 * float(np.sum(z.real**2 + z.imag**2))) for z in spectra]
    worst = 0.0
    for s in range(math.gcd(step, d)):
        shift = np.exp((2j * math.pi / n) * (bins * s % n))
        first = -(-(discard - s) // step)  # the first grid point at or after the discard window
        for wave, z, ref in zip(waves, spectra, rms):
            settled = _on_grid(z * shift, n // step, 1.0)
            error = np.abs(wave[s::step][first:] - settled[first:]) / ref
            worst = float(np.max(error, initial=worst))
    return worst


def _engine_step_error(config: PhysicalConfig) -> float:
    """Worst relative error of the engine's cold-start step response, a unit
    step behind R_H at A with R_L at B, against the bounce diagram over
    ENGINE_FLY_TIMES fly times.  The bounce diagram is constant within a fly
    time, so it is evaluated once per fly time and compared with every
    sample of that fly time's block."""
    d = config.dt_divisor
    n = ENGINE_FLY_TIMES * d
    wf = run_transient(config, np.ones(n), config.r_h, np.zeros(n), config.r_l)
    worst = 0.0
    for m in range(ENGINE_FLY_TIMES):
        oracle = lattice_step_response(config.r_h, config.r_l, config.z0, m)
        ref = max(abs(v) for v in oracle)
        block = slice(m * d, (m + 1) * d)
        for v, v_oracle in zip((wf.v_a, wf.v_b), oracle):
            worst = float(np.max(np.abs(v[block] - v_oracle) / ref, initial=worst))
    return worst


def _plan_steady_state(config: PhysicalConfig, duration: float) -> tuple[int, int, float, float]:
    """Segments per state for ``duration`` s of ``validate_steady_state``,
    the discard window of its settled-engine check in samples, and the
    end-averaged ideal-line levels ``<v^2>`` and ``<i^2>`` of HL on one
    segment's in-band bins; ValueError for a duration or config that cannot
    be validated."""
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration} s")
    min_duration = 1000.0 / config.bandwidth
    if duration < min_duration:
        raise ValueError(f"duration {duration} s is below the minimum {min_duration} s (1000/B)")
    # A segment must hold the band first, so that the cap below suggests
    # only durations that hold it too.  A step that underflows to 0 is left
    # to in_band_bins.
    span = config.bandwidth * SEGMENT_SAMPLES * config.dt  # in bins, as in_band_bins counts
    if 0 < span < MIN_BINS:
        largest = math.floor(config.bandwidth * SEGMENT_SAMPLES * config.fly_time / MIN_BINS)
        raise ValueError(f"a segment of {SEGMENT_SAMPLES} samples at dt_divisor "
                         f"{config.dt_divisor} holds only {math.floor(span)} in-band frequency "
                         f"bins, need >= {MIN_BINS}; a dt_divisor up to about {largest} "
                         f"holds them")
    freqs = np.arange(1, in_band_bins(SEGMENT_SAMPLES, config.dt, config.bandwidth) + 1)
    seg_duration = SEGMENT_SAMPLES * config.dt
    planned = duration / seg_duration
    if planned > MAX_SEGMENTS + 0.5:  # round() takes 1000.5 to 1000
        count = round(planned) if planned < 1e15 else f"{planned:.3g}"
        raise ValueError(
            f"duration {duration} s plans {count} segments per state, above the maximum of "
            f"{MAX_SEGMENTS}; the largest accepted duration is about "
            f"{MAX_SEGMENTS * seg_duration:g} s"
        )
    r_a, r_b = BitState.HL.resistors(config)
    levels = [float(np.mean(ms)) for ms in ideal_line_steady_state(
        r_a, r_b, config.z0, config.fly_time, freqs / seg_duration,
        config.sigma(r_a) ** 2, config.sigma(r_b) ** 2,
    )]
    # The standard errors sum squares of wire levels, which must stay normal floats.
    if not all(_is_normal(level * level) for level in levels):
        raise ValueError(f"ideal-line levels <v^2>, <i^2> = {levels} must both have normal squares")
    gamma_prod = reflection_coefficient(config.r_h, config.z0) * reflection_coefficient(
        config.r_l, config.z0
    )
    settle = 2.0 * config.fly_time / max(1e-12, 1.0 - abs(gamma_prod))
    window = SETTLE_TIMES * settle / config.dt
    # The bound also keeps the settled response of every bin finite: each
    # bin's denominator |1 - G_H*G_L*exp(-2j*theta)| is at least
    # 1 - |G_H*G_L|, which the bound holds to at least 60*D/2^19.
    # The window is >= 60*D samples, so D <= 8738 and the engine check fits a segment.
    if not window <= SEGMENT_SAMPLES // 4:
        raise ValueError(f"the line settles in {settle:.3g} s, so the discard window of "
                         f"{SETTLE_TIMES:g} settle times, {window:.3g} samples, is longer than a "
                         f"quarter segment, {SEGMENT_SAMPLES // 4} samples")
    return max(1, round(planned)), round(window), *levels


def validate_steady_state(config: PhysicalConfig, duration: float, seed: int) -> SteadyStateReport:
    """The line-engine checks and a long-run check of the passive-security
    identities.

    The engine's step response must match the bounce diagram within
    ENGINE_TOLERANCE over ENGINE_FLY_TIMES fly times.  Then ``duration``
    seconds of equilibrated HL exchange (and the same of LH) are read from
    independent periodic segments, each the settled response of the line to
    its two records (``periodic_steady_state``).  Segment 0 of each state is
    also propagated from a cold start, and after a discard window of
    SETTLE_TIMES settle times its waves must match the settled response
    within PERIODIC_TOLERANCE.  Compares the end-averaged HL wire mean
    squares, within LEVEL_TOLERANCE, against the ideal-line steady state of
    Johnson generators evaluated on the in-band bins of one segment, and the
    HL-LH difference and the mean power flow against zero, within
    SIGMA_LIMIT standard errors.  Each state's segments give a table of
    per-chunk means (``_steady_segments``; four chunks per segment when
    fewer than 8 segments are planned, else one); HL's three rows and LH's
    v^2 and i^2 rows are reduced in one pass, each to its mean and the
    standard error of that mean over the chunks.  A duration that plans
    more than MAX_SEGMENTS segments per state, a config whose references
    overflow or underflow, or a line that settles in more than a quarter
    segment is rejected before any check starts.
    """
    n_seg, discard, v2_theory, i2_theory = _plan_steady_state(config, duration)
    engine_error = _engine_step_error(config)
    seg_duration = SEGMENT_SAMPLES * config.dt
    chunks_per_seg = 4 if n_seg < 8 else 1

    hl, error_hl = _steady_segments(config, BitState.HL, n_seg, discard, chunks_per_seg, seed)
    lh, error_lh = _steady_segments(config, BitState.LH, n_seg, discard, chunks_per_seg, seed)
    # Rows: HL's v^2, i^2 and v*i, then LH's v^2 and i^2.
    table = np.vstack((hl, lh[:2]))
    v2, i2, power, v2l, i2l = np.mean(table, axis=1).tolist()
    se = np.std(table, ddof=1, axis=1) / math.sqrt(table.shape[1])
    v2_se, i2_se, power_se, v2l_se, i2l_se = se.tolist()
    return SteadyStateReport(
        engine_error=engine_error,
        periodic_error=float(np.max([error_hl, error_lh])),
        duration=n_seg * seg_duration,
        n_segments=n_seg,
        ms_voltage=v2,
        ms_voltage_se=v2_se,
        ms_voltage_theory=v2_theory,
        ms_current=i2,
        ms_current_se=i2_se,
        ms_current_theory=i2_theory,
        hl_lh_voltage_diff=v2 - v2l,
        hl_lh_voltage_diff_se=math.hypot(v2_se, v2l_se),
        hl_lh_current_diff=i2 - i2l,
        hl_lh_current_diff_se=math.hypot(i2_se, i2l_se),
        mean_power=power,
        mean_power_se=power_se,
    )
