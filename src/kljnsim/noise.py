"""Band-limited Gaussian noise synthesis and start-point search.

The voltage generators of both communicating parties are modelled as
band-limited white Gaussian noise scaled to the Johnson-Nyquist RMS of the
connected resistor.  Records are synthesized in the frequency domain:
independent complex Gaussian coefficients on the in-band bins, zero
everywhere else, inverse real FFT.  This makes the out-of-band spectral
power zero by construction at any simulation timestep.

Each record is normalized so its *sample* RMS equals the requested target
exactly.  With the default parameters a record holds only ~524 in-band
frequency bins, so an ensemble-normalized record would show a ~2% RMS
spread between seeds; the exchange protocol (and its tolerance checks)
assume both parties know the generator amplitudes exactly.  By Parseval
that normalization needs only the coefficients, so a short window of a
record (a random start plays a few hundred samples) is computed directly
from the in-band bins by ``synthesize_window``, without the full record.

The start-point search implements the defense: scan a pre-generated record
for the earliest sample matching a target value and target slope within
relative tolerances, or the sign-flipped target pair (negating a zero-mean
Gaussian record yields an equally valid sample path).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOLTZMANN",
    "NoiseRecord",
    "StartPoint",
    "johnson_rms",
    "slope_rms",
    "in_band_bins",
    "synthesize_record",
    "synthesize_window",
    "estimate_slope",
    "find_start_point",
]

BOLTZMANN = 1.380649e-23  # J/K, exact SI value

# Samples the start-point search scans at a time before it looks for a match.
SEARCH_BLOCK = 2**15


def johnson_rms(temperature: float, resistance: float, bandwidth: float) -> float:
    """RMS open-circuit voltage of a resistor's thermal noise over a flat band.

    The one-sided spectral density of a resistor at temperature T is 4kTR,
    so over a band of width B the mean-square voltage is 4kTRB.

    Raises ValueError for non-positive inputs.
    """
    if temperature <= 0 or resistance <= 0 or bandwidth <= 0:
        raise ValueError(
            f"temperature, resistance and bandwidth must be positive, got "
            f"({temperature}, {resistance}, {bandwidth})"
        )
    return math.sqrt(4.0 * BOLTZMANN * temperature * resistance * bandwidth)


def slope_rms(bandwidth: float, sigma: float) -> float:
    """RMS time-derivative of flat-band noise of band B and RMS sigma.

    The second spectral moment of a flat band (0, B] gives
    <x'^2> = sigma^2 * (2*pi*B)^2 / 3.
    """
    if not (bandwidth > 0 and 0 < sigma < math.inf):
        raise ValueError(f"need bandwidth > 0 and a finite sigma > 0, got ({bandwidth}, {sigma})")
    return sigma * 2.0 * math.pi * bandwidth / math.sqrt(3.0)


@dataclass(frozen=True)
class NoiseRecord:
    """A sampled band-limited Gaussian generator voltage.

    samples     sampled voltage record (V); sample RMS equals target_rms
    dt          sampling interval (s)
    target_rms  generator RMS the record is scaled to (V)
    """

    samples: np.ndarray
    dt: float
    target_rms: float

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValueError("a noise record needs at least 2 samples")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.target_rms < math.inf:
            raise ValueError("target_rms must be finite and positive")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class StartPoint:
    """Where (and how) a record is entered when a bit exchange period starts.

    value and slope describe the record *as driven*: if ``negate`` is set the
    whole record is to be played back sign-flipped and value/slope already
    refer to the flipped record.  The achieved tolerances are recorded, not
    assumed: achieved_value_tol is |value - target| relative to the record
    RMS, achieved_slope_tol is |slope/target - 1| (NaN for slope-free
    searches and for random starts).
    """

    index: int
    value: float
    slope: float
    achieved_value_tol: float
    achieved_slope_tol: float
    negate: bool = False


def in_band_bins(n: int, dt: float, bandwidth: float) -> int:
    """Number of frequency bins k/(n*dt), k >= 1, that lie in the band (0, B].

    Raises ValueError unless the n-sample grid of step dt holds the band
    below its Nyquist frequency in at least ten bins.
    """
    if n < 2:
        raise ValueError(f"record length must be >= 2, got {n}")
    if dt <= 0 or bandwidth <= 0:
        raise ValueError("dt and bandwidth must be positive")
    if bandwidth >= 0.5 / dt:
        raise ValueError(
            f"bandwidth {bandwidth} Hz is not below the Nyquist frequency "
            f"{0.5 / dt} Hz of dt={dt}"
        )
    n_bins = int(math.floor(bandwidth * n * dt))
    if n_bins < 10:
        raise ValueError(
            f"record too short: only {n_bins} in-band frequency bins, need >= 10 "
            f"(n*dt*B = {n * dt * bandwidth:.3g})"
        )
    return n_bins


def _in_band_coefficients(
    seed: int | np.random.SeedSequence,
    n: int,
    dt: float,
    bandwidth: float,
    sigma: float,
) -> np.ndarray:
    """Check the synthesis inputs and draw the complex coefficients of bins
    1 .. floor(B*n*dt) for ``seed``."""
    n_bins = in_band_bins(n, dt, bandwidth)
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)


def _irfft_samples(coeffs: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """The n samples of the in-band coefficients, scaled to sample RMS sigma."""
    # irfft pads the spectrum (DC, then the in-band bins) with zero bins to n.
    samples = np.fft.irfft(np.concatenate(([0j], coeffs)), n)
    samples *= sigma / math.sqrt(float(np.mean(samples * samples)))
    return samples


def synthesize_record(
    seed: int | np.random.SeedSequence,
    n: int,
    dt: float,
    bandwidth: float,
    sigma: float,
) -> NoiseRecord:
    """Synthesize a stationary Gaussian record with a flat spectrum on (0, B].

    Frequency-domain construction: bins k = 1 .. floor(B*n*dt) receive
    independent complex unit Gaussians, all other bins (including DC and
    everything above B) stay exactly zero; an inverse real FFT produces the
    samples, which are then scaled so the sample RMS equals ``sigma``.

    Deterministic given the seed.  Requires n >= 2, a finite sigma > 0, at
    least ten in-band bins (n*dt*B >= 10) and B below the Nyquist frequency
    1/(2*dt).
    """
    coeffs = _in_band_coefficients(seed, n, dt, bandwidth, sigma)
    return NoiseRecord(_irfft_samples(coeffs, n, sigma), dt, sigma)


@functools.lru_cache(maxsize=4)
def _phase_matrix(n: int, n_bins: int, count: int) -> np.ndarray:
    """exp(2*pi*i*j*k/n) for rows j < count and bins k = 1 .. n_bins, with
    j*k reduced mod n in integers before it becomes an angle (read-only)."""
    j = np.arange(count)[:, None]
    k = np.arange(1, n_bins + 1)
    phases = np.exp((2j * math.pi / n) * ((j * k) % n))
    phases.flags.writeable = False
    return phases


def synthesize_window(
    seed: int | np.random.SeedSequence,
    n: int,
    dt: float,
    bandwidth: float,
    sigma: float,
    start: int,
    count: int,
) -> np.ndarray:
    """Samples start .. start+count-1 of ``synthesize_record`` for the same
    arguments, without synthesizing the other samples.

    The coefficients X_k are drawn as ``synthesize_record`` draws them, and
    sample m is the inverse FFT sum at m alone, with the Parseval scale:
    sigma*sqrt(2)*Re sum_k X_k exp(2*pi*i*k*m/n) / sqrt(sum_k |X_k|^2).  It
    matches the record's slice to about 1e-14 of sigma.  A window longer
    than n / n_bins samples (about 1/(B*dt)) would cost more than the whole
    record, and is cut from ``synthesize_record``'s samples, bit for bit.
    """
    coeffs = _in_band_coefficients(seed, n, dt, bandwidth, sigma)
    if not (0 <= start and 1 <= count and start + count <= n):
        raise ValueError(f"window of {count} samples from {start} is not inside {n} samples")
    n_bins = len(coeffs)
    if count * n_bins > n:
        return _irfft_samples(coeffs, n, sigma)[start : start + count].copy()
    shift = np.exp((2j * math.pi / n) * ((np.arange(1, n_bins + 1) * start) % n))
    sums = _phase_matrix(n, n_bins, count) @ (coeffs * shift)
    power = float(np.sum(coeffs.real**2 + coeffs.imag**2))
    return (sigma * math.sqrt(2.0 / power)) * sums.real


def estimate_slope(record: NoiseRecord, index: int | np.ndarray) -> float | np.ndarray:
    """Central-difference derivative estimate at an interior sample, or at
    each of an array of interior samples."""
    if not (1 <= np.min(index) and np.max(index) <= len(record) - 2):
        raise IndexError(
            f"index {index} out of range for central difference on "
            f"{len(record)} samples"
        )
    s = record.samples
    return (s[index + 1] - s[index - 1]) / (2.0 * record.dt)


def find_start_point(
    record: NoiseRecord,
    target_value: float,
    value_tol_rel: float,
    target_slope: float | None,
    slope_tol_rel: float,
    max_index: int,
) -> StartPoint | None:
    """Earliest sample in [1, max_index] matching a (value, slope) target
    pair or its mirror (-value, -slope).

    A sample i qualifies when |s[i] - target_value| <= value_tol_rel * RMS
    and, if a slope target is given, |slope(i)/target_slope - 1| <=
    slope_tol_rel where slope(i) is the central difference;
    ``target_slope=None`` means no slope condition.  Negating a zero-mean
    Gaussian record gives an equally valid sample path, so the mirrored pair
    is searched too.  If the mirrored match comes strictly first, the
    returned StartPoint carries ``negate=True`` and reports the value/slope
    of the sign-flipped record, which meets the original targets verbatim.

    ``max_index`` caps the search so enough samples remain after the start
    for a full transient run.  Returns None when nothing qualifies.
    """
    if value_tol_rel <= 0:
        raise ValueError("value_tol_rel must be positive")
    if target_slope is not None:
        if target_slope == 0:
            raise ValueError("target_slope must be nonzero (use None for slope-free)")
        if slope_tol_rel <= 0:
            raise ValueError("slope_tol_rel must be positive")
    s = record.samples
    hi = min(max_index, len(s) - 2)
    window = value_tol_rel * record.target_rms
    # The record is scanned in blocks up to the first block that holds a
    # match of either sign, whose earliest match is then the earliest of all.
    # | |s| - |target_value| | <= window holds for every sample within the
    # window of +target_value or -target_value; each sign's own conditions
    # are then tested on these candidates only.
    for lo in range(1, hi + 1, SEARCH_BLOCK):
        dist = np.abs(s[lo : min(lo + SEARCH_BLOCK, hi + 1)])
        if target_value != 0.0:
            dist -= abs(target_value)
            np.abs(dist, out=dist)
        candidates = np.flatnonzero(dist <= window) + lo
        if candidates.size == 0:
            continue
        values = s[candidates]
        slopes = estimate_slope(record, candidates)
        hits = []
        for sign in (1.0, -1.0):
            hit = np.abs(values - sign * target_value) <= window
            if target_slope is not None:
                hit &= np.abs(slopes / (sign * target_slope) - 1.0) <= slope_tol_rel
            hits.append(hit)
        either = np.flatnonzero(hits[0] | hits[1])
        if either.size:
            break
    else:
        return None
    first = either[0]
    index, negate = int(candidates[first]), not hits[0][first]
    sign = -1.0 if negate else 1.0
    value = sign * s[index]
    slope = sign * slopes[first]
    achieved_value = abs(value - target_value) / record.target_rms
    if target_slope is not None:
        achieved_slope = abs(slope / target_slope - 1.0)
    else:
        achieved_slope = math.nan
    return StartPoint(index, value, slope, achieved_value, achieved_slope, negate)
