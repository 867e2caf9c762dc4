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
        if not (10 <= self.dt_divisor < 2**53 and self.dt_divisor % 1 == 0):
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
        if self.record_len < 2:
            raise ValueError("record_len must be >= 2")


@dataclass(frozen=True)
class GeneratorDrive:
    """The start point a party's record is played back from, and the
    ``samples`` it plays: n_steps samples from the start point, sign-flipped
    when ``start.negate`` is set."""

    start: StartPoint
    samples: np.ndarray = field(repr=False)
    loosened: bool = False
    attempts: int = 1


@dataclass(frozen=True)
class _PartyTargets:
    """A party's start rule."""

    sigma: float
    target_value: float | None = None  # None: random interior start
    target_slope: float | None = None  # None: no slope condition


def _scenario_targets(
    scenario: ScenarioKind, state: BitState, config: PhysicalConfig, params: SearchParams
) -> tuple[_PartyTargets, _PartyTargets]:
    sigma_l = config.sigma(config.r_l)
    m_l = slope_rms(config.bandwidth, sigma_l)
    m_ratio = slope_ratio(config.r_h, config.r_l, config.z0)
    v_l = params.s3_value_fraction * sigma_l

    def for_resistor(r: float) -> _PartyTargets:
        sigma = config.sigma(r)
        high = r == config.r_h
        scale = m_ratio if high else 1.0
        if scenario == ScenarioKind.NO_DEFENSE:
            return _PartyTargets(sigma)
        if scenario == ScenarioKind.ZERO_START_ONLY:
            return _PartyTargets(sigma, 0.0)
        if scenario == ScenarioKind.RATIO_START_NONZERO:
            return _PartyTargets(sigma, scale * v_l, scale * m_l)
        return _PartyTargets(sigma, 0.0, scale * m_l)

    r_a, r_b = state.resistors(config)
    return for_resistor(r_a), for_resistor(r_b)


def _prepare_party(
    targets: _PartyTargets,
    config: PhysicalConfig,
    params: SearchParams,
    seed: np.random.SeedSequence,
    n_steps: int,
) -> GeneratorDrive:
    """Pick the party's start point and the samples it plays from there.

    A random start draws its index first and synthesizes only the window
    [index - 1, index + n_steps] of its record: the played samples and one
    neighbour on each side for the central-difference slope.

    A searched start synthesizes whole records until one holds a qualifying
    start point.  Up to MAX_REGEN fresh records are tried at the base
    tolerances; after that the slope tolerance (and the value tolerance, for
    value-targeted searches wider than the zero window) doubles every
    further MAX_REGEN records, and the achieved tolerances stay auditable in
    the StartPoint.  The zero window never loosens, so after
    10 * MAX_REGEN records the search gives up with a ValueError naming the
    targets and the tolerances it last tried.
    """
    n = params.record_len
    max_start = n - 1 - n_steps
    if max_start < 1:
        raise ValueError(f"record_len {n} too short for {n_steps} transient steps")
    if targets.target_value is None:
        child = seed.spawn(1)[0]
        rng = np.random.default_rng(child.spawn(1)[0])
        index = int(rng.integers(1, max_start + 1))
        window = synthesize_window(
            child, n, config.dt, config.bandwidth, targets.sigma, index - 1, n_steps + 2
        )
        slope = float((window[2] - window[0]) / (2.0 * config.dt))
        start = StartPoint(index, float(window[1]), slope, math.nan, math.nan)
        # A copy, so the played samples own their memory, as a searched
        # start's do.
        return GeneratorDrive(start, window[1 : 1 + n_steps].copy())
    value_tol = params.value_tol
    slope_tol = params.slope_tol
    loosened = False
    for attempt in range(1, 10 * MAX_REGEN + 1):
        if attempt > 1 and (attempt - 1) % MAX_REGEN == 0:
            loosened = True
            slope_tol *= 2.0
            if targets.target_value != 0.0:
                value_tol *= 2.0
        child = seed.spawn(1)[0]
        record = synthesize_record(child, n, config.dt, config.bandwidth, targets.sigma)
        start = find_start_point(
            record, targets.target_value, value_tol, targets.target_slope, slope_tol, max_start
        )
        if start is None:
            continue
        # A copy, so the played samples do not keep the whole record alive.
        played = record.samples[start.index : start.index + n_steps]
        played = -played if start.negate else played.copy()
        return GeneratorDrive(start, played, loosened, attempt)
    slope = ("any slope" if targets.target_slope is None
             else f"slope {targets.target_slope:.6g} V/s within {slope_tol:g} relative")
    raise ValueError(
        f"no start point in {10 * MAX_REGEN} records of {n} samples: value "
        f"{targets.target_value:.6g} V within {value_tol:g} x RMS, {slope}; "
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
    t_a, t_b = _scenario_targets(scenario, state, config, params)
    seed_a, seed_b = seed.spawn(2)
    return (
        _prepare_party(t_a, config, params, seed_a, n_steps),
        _prepare_party(t_b, config, params, seed_b, n_steps),
    )
