"""KLJN bit-exchange protocol: resistor states, start-up scenarios, defense targets.

One bit exchange period (BEP) connects a randomly chosen resistor (R_H or
R_L) at each end of the cable for the whole period.  The HL and LH joint
states are the secure ones; HH and LL are discarded, so only HL and LH are
modelled.  The four start-up scenarios differ only in how each party picks
the instant at which its pre-generated noise record is connected:

  1 NO_DEFENSE                random interior sample (abrupt random-amplitude start)
  2 ZERO_START_ONLY           earliest near-zero sample, slope unconstrained
  3 RATIO_START_NONZERO       nonzero public start value and slope, both targets
                              scaled by the slope ratio on the H side
  4 ZERO_START_SLOPE_MATCHED  near-zero sample with slope matched to the public
                              targets (the full defense)

The public slope targets are slope_rms(B, sigma_L) for the L party and
slope_ratio(...) times that for the H party, which makes the cable end
voltages ramp identically at both ends during the first fly time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .noise import (
    StartPoint,
    find_start_point,
    johnson_rms,
    slope_rms,
    synthesize_record,
    synthesize_window,
)

__all__ = [
    "PhysicalConfig",
    "BitState",
    "ScenarioKind",
    "SearchParams",
    "GeneratorDrive",
    "MAX_REGEN",
    "resultant_resistances",
    "slope_ratio",
    "steady_state_levels",
    "prepare_generators",
]

# Fresh records tried at the base tolerances before they start doubling; a
# party gives up after 10 * MAX_REGEN records.
MAX_REGEN = 10
# Longest record: one record, its transforms and the direct-sum phase matrix
# of a window stay under about 0.5 GiB.
MAX_RECORD_LEN = 2**24


def _require_finite_positive(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class PhysicalConfig:
    """Physical parameters of the exchanger and its simulation grid.

    Defaults reproduce the demonstration setup: R_H = 11 kOhm, R_L = 2 kOhm,
    Z0 = 50 Ohm, T = 7e15 K, B = 5 kHz, fly time 1e-5 s, dt = fly_time/100.
    """

    r_h: float = 11e3
    r_l: float = 2e3
    z0: float = 50.0
    temperature: float = 7e15
    bandwidth: float = 5e3
    fly_time: float = 1e-5
    dt_divisor: int = 100

    def __post_init__(self) -> None:
        _require_finite_positive(self, ("r_h", "r_l", "z0", "temperature", "bandwidth", "fly_time"))
        if not self.r_h > self.r_l:
            raise ValueError(f"need r_h > r_l > 0, got r_h={self.r_h}, r_l={self.r_l}")
        # Below 2**53, so that the divisor converts to float exactly.
        if not (isinstance(self.dt_divisor, Integral) and 10 <= self.dt_divisor < 2**53):
            raise ValueError(f"dt_divisor must be an integer in [10, 2**53), got {self.dt_divisor}")
        # 4kTRB of finite positive inputs can still underflow to 0 or overflow.
        for key, resistance in (("r_l", self.r_l), ("r_h", self.r_h)):
            sigma = self.sigma(resistance)
            if not 0 < sigma < math.inf:
                raise ValueError(f"temperature {self.temperature}, {key} {resistance} and "
                                 f"bandwidth {self.bandwidth} give a Johnson RMS sqrt(4kTRB) "
                                 f"of {sigma}; it must be finite and positive")

    @property
    def dt(self) -> float:
        return self.fly_time / self.dt_divisor

    def sigma(self, resistance: float) -> float:
        """Generator RMS for a resistor at the configured temperature and band."""
        return johnson_rms(self.temperature, resistance, self.bandwidth)


class BitState(enum.Enum):
    """Secure joint resistor choice (Alice's, Bob's)."""

    HL = "HL"
    LH = "LH"

    def resistors(self, config: PhysicalConfig) -> tuple[float, float]:
        """(Alice's, Bob's) resistance for this state."""
        pick = {"H": config.r_h, "L": config.r_l}
        return pick[self.value[0]], pick[self.value[1]]


class ScenarioKind(enum.IntEnum):
    """The four start-up scenarios, in demonstration order."""

    NO_DEFENSE = 1
    ZERO_START_ONLY = 2
    RATIO_START_NONZERO = 3
    ZERO_START_SLOPE_MATCHED = 4


def resultant_resistances(r_h: float, r_l: float) -> tuple[float, float]:
    """Parallel and serial resultant of the two connected resistors."""
    if r_h <= 0 or r_l <= 0:
        raise ValueError(f"resistances must be positive, got ({r_h}, {r_l})")
    return r_h * r_l / (r_h + r_l), r_h + r_l


def slope_ratio(r_h: float, r_l: float, z0: float) -> float:
    """Public starting-slope ratio (r_h + z0)/(r_l + z0) between H and L parties."""
    if r_h <= 0 or r_l <= 0 or z0 <= 0:
        raise ValueError(f"inputs must be positive, got ({r_h}, {r_l}, {z0})")
    return (r_h + z0) / (r_l + z0)


def steady_state_levels(config: PhysicalConfig) -> dict[BitState, float]:
    """Lumped-model mean-square wire voltage 4kT*R_p*B for each joint state."""
    levels = {}
    for state in BitState:
        r_a, r_b = state.resistors(config)
        r_p, _ = resultant_resistances(r_a, r_b)
        levels[state] = config.sigma(r_p) ** 2
    return levels


@dataclass(frozen=True)
class SearchParams:
    """Defense search settings.

    record_len       samples per synthesized record
    value_tol        start-value window of scenarios 2-4, relative to the
                     record RMS
    slope_tol        relative slope window around the public target
    s3_value_fraction  public L-side start value, as a fraction of sigma_L
    """

    record_len: int = 2**20
    value_tol: float = 1e-3
    slope_tol: float = 1e-2
    s3_value_fraction: float = 0.5

    def __post_init__(self) -> None:
        _require_finite_positive(self, ("value_tol", "slope_tol", "s3_value_fraction"))
        if not (isinstance(self.record_len, Integral) and 2 <= self.record_len <= MAX_RECORD_LEN):
            raise ValueError(f"record_len must be in [2, {MAX_RECORD_LEN} = 2^24], "
                             f"got {self.record_len}")


@dataclass(frozen=True)
class GeneratorDrive:
    """The start point a party's record is played back from, and the
    ``samples`` it plays: n_steps samples from the start point, sign-flipped
    when ``start.negate`` is set."""

    start: StartPoint
    samples: np.ndarray = field(repr=False)
    loosened: bool = False
    attempts: int = 1


def _public_targets(
    scenario: ScenarioKind, high: bool, config: PhysicalConfig, params: SearchParams
) -> tuple[float | None, float | None]:
    """The public start value and slope of the party that holds R_H when
    ``high`` is set, else of the R_L party; None is no condition.

    The H party's targets are the L party's times slope_ratio, so that both
    cable ends ramp alike during the first fly time.
    """
    if scenario == ScenarioKind.NO_DEFENSE:
        return None, None
    if scenario == ScenarioKind.ZERO_START_ONLY:
        return 0.0, None
    sigma_l = config.sigma(config.r_l)
    scale = slope_ratio(config.r_h, config.r_l, config.z0) if high else 1.0
    slope = scale * slope_rms(config.bandwidth, sigma_l)
    if scenario == ScenarioKind.RATIO_START_NONZERO:
        return scale * (params.s3_value_fraction * sigma_l), slope
    return 0.0, slope


def _prepare_party(
    sigma: float,
    target_value: float | None,
    target_slope: float | None,
    config: PhysicalConfig,
    params: SearchParams,
    seed: np.random.SeedSequence,
    n_steps: int,
) -> GeneratorDrive:
    """Pick the start point of a party whose record has RMS ``sigma``, and
    the samples it plays from there.

    With no value target the start is random: it draws its index first and
    synthesizes only the window [index - 1, index + n_steps] of its record,
    the played samples and one neighbour on each side for the
    central-difference slope.

    Otherwise whole records are synthesized until one holds a qualifying
    start point.  Record ``attempt`` searches at loosening level
    (attempt - 1) // MAX_REGEN, where the slope tolerance, and the value
    tolerance of a nonzero value target, are 2**level times their base; the
    achieved tolerances stay auditable in the StartPoint.  The zero window
    never loosens, so after 10 * MAX_REGEN records the search gives up with
    a ValueError naming the targets and the tolerances it last tried.
    """
    n = params.record_len
    max_start = n - 1 - n_steps
    if max_start < 1:
        raise ValueError(f"record_len {n} too short for {n_steps} transient steps")
    if target_value is None:
        child = seed.spawn(1)[0]
        rng = np.random.default_rng(child.spawn(1)[0])
        index = int(rng.integers(1, max_start + 1))
        window = synthesize_window(child, n, config.dt, config.bandwidth, sigma, index - 1,
                                   n_steps + 2)
        slope = float((window[2] - window[0]) / (2.0 * config.dt))
        start = StartPoint(index, float(window[1]), slope, math.nan, math.nan)
        # A copy, so the played samples own their memory, as a searched
        # start's do.
        return GeneratorDrive(start, window[1 : 1 + n_steps].copy())
    for attempt in range(1, 10 * MAX_REGEN + 1):
        level = (attempt - 1) // MAX_REGEN
        # Powers of two scale exactly, as repeated doubling would.
        slope_tol = params.slope_tol * 2**level
        value_tol = params.value_tol * 2**level if target_value != 0.0 else params.value_tol
        child = seed.spawn(1)[0]
        record = synthesize_record(child, n, config.dt, config.bandwidth, sigma)
        start = find_start_point(record, target_value, value_tol, target_slope, slope_tol,
                                 max_start)
        if start is None:
            continue
        # A copy, so the played samples do not keep the whole record alive.
        played = record.samples[start.index : start.index + n_steps]
        played = -played if start.negate else played.copy()
        return GeneratorDrive(start, played, level > 0, attempt)
    slope = ("any slope" if target_slope is None
             else f"slope {target_slope:.6g} V/s within {slope_tol:g} relative")
    raise ValueError(
        f"no start point in {10 * MAX_REGEN} records of {n} samples: value "
        f"{target_value:.6g} V within {value_tol:g} x RMS, {slope}; "
        "widen the search tolerances or lengthen record_len"
    )


def prepare_generators(
    scenario: ScenarioKind,
    state: BitState,
    config: PhysicalConfig,
    seed: int | np.random.SeedSequence,
    n_steps: int,
    params: SearchParams = SearchParams(),
) -> tuple[GeneratorDrive, GeneratorDrive]:
    """Build both parties' generator drives for one bit exchange period.

    Each record is synthesized at the Johnson RMS of the party's chosen
    resistor; the start point is selected per the scenario's rule.  The two
    parties use independent child streams of ``seed``, so swapping the state
    swaps which party receives the H-scaled targets.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return tuple(
        _prepare_party(config.sigma(r), *_public_targets(scenario, r == config.r_h, config, params),
                       config, params, party_seed, n_steps)
        for r, party_seed in zip(state.resistors(config), seed.spawn(2))
    )
