"""Band-limited Gaussian noise synthesis and start-point search.

The voltage generators of both communicating parties are modelled as
band-limited white Gaussian noise scaled to the Johnson-Nyquist RMS of the
connected resistor.  Records are synthesized in the frequency domain:
independent complex Gaussian coefficients on the in-band bins, zero
everywhere else, inverse real FFT.  This makes the out-of-band spectral
power zero by construction at any simulation timestep.

Every record is scaled by one Parseval rule.  With the DC and Nyquist bins
zero, the mean square of a record is half the summed power of its in-band
coefficients X_k, so the factor sigma*sqrt(2/sum_k |X_k|^2) gives it a
sample RMS of sigma, to rounding, from the coefficients alone.  With the
default parameters a record holds only ~524 in-band frequency bins, so an
ensemble-normalized record would show a ~2% RMS spread between seeds; the
exchange protocol (and its tolerance checks) assume both parties know the
generator amplitudes exactly.  Since the scale needs no samples, a full
record, its grid of every D-th sample and a short window (a random start
plays a few hundred samples, which ``synthesize_window`` sums over the
in-band bins without the full record) all take the same one.

The start-point search implements the defense: the earliest sample of a
record matching a target value and target slope within relative
tolerances, or the sign-flipped target pair (negating a zero-mean Gaussian
record yields an equally valid sample path).  A band far below the Nyquist
frequency is exactly sampled on a grid of every D-th sample, which
inverse FFTs of length n/D give with its first two derivatives.  The
cubic Hermite interpolants of the value and the slope on each grid interval
bracket the search in three stages: the Bernstein control points enclose
the value, then the slope, over the whole interval, and a joint stage
evaluates both interpolants at each of the interval's samples, where
pointwise error bounds enclose the sample and its central-difference
slope.  The intervals that can hold a match are refined in order, one
short direct-sum window at a time, up to the first match.  So the search
forms the full record only when no grid step D > 1 holds the band.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BOLTZMANN",
    "NoiseRecord",
    "StartPoint",
    "johnson_rms",
    "slope_rms",
    "in_band_bins",
    "grid_step",
    "synthesize_record",
    "synthesize_window",
    "find_start_point",
]

BOLTZMANN = 1.380649e-23  # J/K, exact SI value

# Largest grid step of the start-point search.  Its Hermite error bounds
# widen as step**4, so a larger step brackets too many intervals to refine.
MAX_GRID_STEP = 128
# Relative widening of every bound of the search for rounding: the grid,
# the direct sums and the bounds themselves are accurate to about 1e-12 of
# the record's amplitude bound.
_ROUNDING_SLACK = 1e-9
# Survivors of the hulls that the joint stage of the start-point search
# evaluates at a time.  The search almost always ends in the first interval
# the joint stage keeps, so the stage stops at the first block that keeps
# one and passes every later survivor on unfiltered.  Shorter blocks pass
# on more survivors after an interval kept in vain (blocks of 16 took 5.0
# direct sums per default defense trial, 64 take 4.3); longer ones evaluate
# more intervals past the match, at 64 x D floats per array here.
_JOINT_BLOCK = 64


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
    """A sampled band-limited Gaussian generator voltage of
    n = step * len(samples) samples.

    samples     samples 0, step, 2*step, ... of the record (V), scaled by
                the Parseval rule to a record of sample RMS target_rms
    dt          sampling interval (s)
    target_rms  generator RMS the record is scaled to (V)
    coeffs      complex coefficients of in-band bins 1 .. n_bins that every
                sample is a sum of
    step        grid step of ``samples``
    """

    samples: np.ndarray
    dt: float
    target_rms: float
    coeffs: np.ndarray = field(repr=False)
    step: int = 1

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValueError("a noise record needs at least 2 samples")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.target_rms < math.inf:
            raise ValueError("target_rms must be finite and positive")


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


def grid_step(n: int, dt: float, bandwidth: float) -> int:
    """The start-point search's grid step D for n-sample records: the
    largest power of two up to MAX_GRID_STEP that divides n and keeps the
    band below the Nyquist frequency of every D-th sample, n_bins < n/(2D);
    1 when no larger step does."""
    n_bins = in_band_bins(n, dt, bandwidth)
    step = MAX_GRID_STEP
    while step > 1 and not (n % step == 0 and 2 * step * n_bins < n):
        step //= 2
    return step


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


def _parseval_scale(coeffs: np.ndarray, sigma: float) -> float:
    """The factor c such that c * Re sum_k X_k exp(2*pi*i*k*m/n) is sample m
    of a record of sample RMS sigma: sigma*sqrt(2/sum_k |X_k|^2)."""
    power = float(np.sum(coeffs.real**2 + coeffs.imag**2))
    return sigma * math.sqrt(2.0 / power)


def synthesize_record(
    seed: int | np.random.SeedSequence,
    n: int,
    dt: float,
    bandwidth: float,
    sigma: float,
    step: int = 1,
) -> NoiseRecord:
    """Synthesize a stationary Gaussian record with a flat spectrum on (0, B].

    Frequency-domain construction: bins k = 1 .. floor(B*n*dt) receive
    independent complex unit Gaussians, all other bins (including DC and
    everything above B) stay exactly zero.  Every step-th sample is made by
    an inverse real FFT of length n/step and scaled by the Parseval rule,
    sigma*sqrt(2/sum_k |X_k|^2), so a full record (step 1) has sample RMS
    sigma to rounding.  The step must be an integer >= 1 that divides n and
    keeps n_bins < n/(2*step), as ``grid_step``'s does; the samples of a
    grid equal the full record's to about 1e-14 of sigma.

    Deterministic given the seed.  Requires n >= 2, a finite sigma > 0, at
    least ten in-band bins (n*dt*B >= 10) and B below the Nyquist frequency
    1/(2*dt).
    """
    coeffs = _in_band_coefficients(seed, n, dt, bandwidth, sigma)
    if not (isinstance(step, numbers.Integral) and step >= 1 and n % step == 0
            and 2 * step * len(coeffs) < n):
        raise ValueError(f"step {step} does not divide {n} samples into a grid that holds "
                         f"{len(coeffs)} in-band bins below its Nyquist frequency")
    return NoiseRecord(_on_grid(coeffs, n // step, _parseval_scale(coeffs, sigma)), dt, sigma,
                       coeffs, step)


def _on_grid(spectrum: np.ndarray, count: int, scale: float) -> np.ndarray:
    """scale * Re sum_k S_k exp(2*pi*i*k*m/count) for m < count, by an
    inverse FFT: with bins 1 .. len(spectrum) below count/2, every
    (n/count)-th sample of the n-sample record of in-band bins S."""
    samples = np.fft.irfft(np.concatenate(([0j], spectrum)), count)
    samples *= scale * (count / 2)
    return samples


@functools.lru_cache(maxsize=4)
def _phase_matrix(n: int, n_bins: int, count: int) -> np.ndarray:
    """exp(2*pi*i*j*k/n) for rows j < count and bins k = 1 .. n_bins, with
    j*k reduced mod n in integers before it becomes an angle (read-only)."""
    angles = np.arange(count)[:, None] * np.arange(1, n_bins + 1)
    np.remainder(angles, n, out=angles)
    # In place, so that only the integer angles and the result are held.
    phases = np.multiply(angles, 2j * math.pi / n)
    del angles
    np.exp(phases, out=phases)
    phases.flags.writeable = False
    return phases


def _direct_sum(coeffs: np.ndarray, n: int, sigma: float, start: int, count: int) -> np.ndarray:
    """Samples start .. start+count-1 of the n-sample record of ``coeffs``
    at sample RMS sigma, each summed over the in-band bins; ``start`` is
    taken mod n."""
    shift = np.exp((2j * math.pi / n) * ((np.arange(1, len(coeffs) + 1) * start) % n))
    sums = _phase_matrix(n, len(coeffs), count) @ (coeffs * shift)
    return _parseval_scale(coeffs, sigma) * sums.real


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
    if count * len(coeffs) > n:
        return _on_grid(coeffs, n, _parseval_scale(coeffs, sigma))[start : start + count].copy()
    return _direct_sum(coeffs, n, sigma, start, count)


def _hull(y0, y1, d0, d1, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise least and greatest Bernstein control point, which enclose
    the cubic on [0, h] with end values y0, y1 and end derivatives d0, d1
    (its cubic Hermite interpolant): y0, y0 + h*d0/3, y1 - h*d1/3 and y1."""
    inner0, inner1 = y0 + (h / 3.0) * d0, y1 - (h / 3.0) * d1
    return (np.minimum(np.minimum(y0, y1), np.minimum(inner0, inner1)),
            np.maximum(np.maximum(y0, y1), np.maximum(inner0, inner1)))


@functools.lru_cache(maxsize=4)
def _hermite_basis(step: int) -> tuple[np.ndarray, np.ndarray]:
    """The (4, D) cubic Hermite basis at samples t = 0 .. D-1 of an
    interval of D samples, rows h00, h01, D*h10 and D*h11 at t/D, which
    takes end values y0, y1 and end derivatives d0, d1 per sample, as rows
    (y0, y1, d0, d1), to the interpolant there; and the weights
    e(t) = (t*(D - t))**2 / 24 of its error bound (both read-only)."""
    s = np.arange(step) / step
    basis = np.array([(1.0 + 2.0 * s) * (1.0 - s)**2, s * s * (3.0 - 2.0 * s),
                      step * s * (1.0 - s)**2, step * s * s * (s - 1.0)])
    weights = (step * step * s * (1.0 - s))**2 / 24.0
    basis.flags.writeable = weights.flags.writeable = False
    return basis, weights


def _grids_and_bounds(record: NoiseRecord, orders: int) -> tuple[np.ndarray, list[float]]:
    """The record's derivatives of order j < ``orders`` per sample at its
    grid points, one row each, the samples first, with the first point
    appended (the end of the last interval); and the bounds
    sum_k a_k w_k^j, j < 6, on the j-th derivative per sample, for the
    scaled bin amplitudes a_k and bin frequencies per sample w_k."""
    coeffs, grid = record.coeffs, len(record.samples)
    scale = _parseval_scale(coeffs, record.target_rms)
    w = (2.0 * math.pi / (record.step * grid)) * np.arange(1, len(coeffs) + 1)
    bound = (scale * np.abs(coeffs) * w ** np.arange(6)[:, None]).sum(axis=1).tolist()
    grids = np.empty((orders, grid + 1))
    grids[0, :grid] = record.samples
    for row, f in zip(grids[1:], (1j * w, -w * w)):
        row[:grid] = _on_grid(f * coeffs, grid, scale)
    grids[:, grid] = grids[:, 0]
    return grids, bound


def _pointwise(grids: np.ndarray, bound: list[float], m: np.ndarray, step: int):
    """At the samples D*m + t, t = 0 .. D-1, of each interval m, one row
    per interval: the cubic Hermite interpolants of the value and of the
    slope per sample, from the three grids of ``_grids_and_bounds``; and
    the bounds per t within which they enclose the sample and its central
    difference: e(t)*max|x''''|, and e(t)*max|x'''''| + max|x'''|/6."""
    basis, e = _hermite_basis(step)
    # Value, slope and curvature at both ends of each interval, (P, 3, 2).
    ends = grids[:, m[:, None] + (0, 1)].transpose(1, 0, 2)
    v = np.einsum("pk,kt->pt", ends[:, :2].reshape(len(m), 4), basis)
    s = np.einsum("pk,kt->pt", ends[:, 1:].reshape(len(m), 4), basis)
    return v, s, e * bound[4], e * bound[5] + bound[3] / 6.0


def _possible_intervals(
    record: NoiseRecord,
    hi: int,
    target_value: float,
    window: float,
    target_slope: float | None,
    slope_tol_rel: float,
) -> np.ndarray:
    """The first sample D*m of each grid interval [D*m, D*(m+1)] that holds
    a sample in [1, hi] and can hold a match, in order.

    Three stages, each on the survivors of the last.  The value hull keeps
    the intervals whose value enclosure meets the value window of either
    sign; a value-only search ends there.  The slope hull keeps those whose
    slope enclosure also meets the slope window of a sign whose value
    window was met.  The joint stage evaluates both interpolants at each
    sample of a survivor, and keeps it only if one sample can meet the
    value window and the slope window of the same sign, each widened by its
    pointwise bound (``_pointwise``).  It takes _JOINT_BLOCK survivors at a
    time and stops at the first block that keeps one: the kept intervals of
    that block come first, then every later survivor, unfiltered.
    """
    step = record.step
    grids, bound = _grids_and_bounds(record, 2 if target_slope is None else 3)
    x, slope = grids[:2]
    hermite = step**4 / 384.0
    v_slack = _ROUNDING_SLACK * (bound[0] + abs(target_value) + window)

    def meets(low, high, center, half):
        """Whether each range [low, high] meets the window center +- half;
        widening the window by a range's error bound widens the range."""
        return (low <= center + half) & (high >= center - half)

    # Intervals 0 .. k-1 hold the samples 1 .. hi; interval m ends at grid
    # point m + 1, the appended first point for the last interval.
    k = hi // step + 1
    d0, d1 = slope[:k], slope[1 : k + 1]
    v_lo, v_hi = _hull(x[:k], x[1 : k + 1], d0, d1, step)
    v_half = window + hermite * bound[4] + v_slack
    value_ok = [meets(v_lo, v_hi, sign * target_value, v_half) for sign in (1.0, -1.0)]
    near = value_ok[0] | value_ok[1]
    m = np.flatnonzero(near)
    if target_slope is None:
        return step * m
    # |c/a - 1| <= tol is |c - a| <= tol*|a|, in per-sample units; the
    # windows of both signs have the same half width.
    center = target_slope * record.dt
    half = slope_tol_rel * abs(center)
    s_slack = _ROUNDING_SLACK * (bound[1] + abs(center) + half)
    s_lo, s_hi = _hull(d0[near], d1[near], grids[2][m], grids[2][m + 1], step)
    s_half = half + hermite * bound[5] + bound[3] / 6.0 + s_slack
    m = m[(value_ok[0][near] & meets(s_lo, s_hi, center, s_half))
          | (value_ok[1][near] & meets(s_lo, s_hi, -center, s_half))]
    for lo in range(0, len(m), _JOINT_BLOCK):
        block = m[lo : lo + _JOINT_BLOCK]
        v, s, v_bound, s_bound = _pointwise(grids, bound, block, step)
        v_lim, s_lim = window + v_bound + v_slack, half + s_bound + s_slack
        joint = np.zeros(len(block), dtype=bool)
        for sign in (1.0, -1.0):
            joint |= np.any((np.abs(v - sign * target_value) <= v_lim)
                            & (np.abs(s - sign * center) <= s_lim), axis=1)
        if joint.any():
            return step * np.concatenate((block[joint], m[lo + _JOINT_BLOCK :]))
    return step * m[:0]


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
    slope_tol_rel where slope(i) is the central difference
    (s[i+1] - s[i-1])/(2*dt); ``target_slope=None`` means no slope
    condition.  Negating a zero-mean Gaussian record gives an equally valid
    sample path, so the mirrored pair is searched too.  If the mirrored
    match comes strictly first, the returned StartPoint carries
    ``negate=True`` and reports the value/slope of the sign-flipped record,
    which meets the original targets verbatim.

    The samples s are the direct sums of ``synthesize_window``, formed only
    where a match is possible.  The record's grid of every D-th sample, with
    the first two derivatives there, bounds each interval [D*m, D*(m+1)] in
    three stages (``_possible_intervals``).  The cubic Hermite interpolant
    of the value, with end values y0, y1 and end slopes d0, d1, lies between
    its least and greatest Bernstein control point, y0, y0 + D*d0/3,
    y1 - D*d1/3 and y1; so does that of the slope, from the slopes and
    curvatures.  The value hull and then the slope hull widen these
    enclosures by the interpolant's error bound, D^4/384 * max|x''''| for
    the value and D^4/384 * max|x'''''| for the slope, and the slope's also
    by the central difference's error max|x'''|/6 (all per sample;
    max|x^(j)| <= sum_k |a_k| w_k^j for bin amplitudes a_k and frequencies
    w_k).  The joint stage evaluates both interpolants at each sample
    D*m + t of an interval and widens them by the pointwise bounds, with
    e(t) = (t*(D - t))^2/24 in place of D^4/384; it keeps the interval only
    if one sample can meet the value and the slope window of the same sign.
    The kept intervals are refined in order, D + 2 samples at a time, and
    the first that holds a match holds the earliest.

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
    step, dt, rms = record.step, record.dt, record.target_rms
    n = step * len(record.samples)
    hi = min(max_index, n - 2)
    window = value_tol_rel * rms
    for first in _possible_intervals(record, hi, target_value, window, target_slope,
                                     slope_tol_rel).tolist():
        # Samples first - 1 .. first + step, for the samples the interval
        # holds and their neighbours.
        s = _direct_sum(record.coeffs, n, rms, first - 1, step + 2)
        index = np.arange(max(first, 1), min(first + step - 1, hi) + 1)
        values = s[index - first + 1]
        slopes = (s[index - first + 2] - s[index - first]) / (2.0 * dt)
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
    hit = either[0]
    negate = not hits[0][hit]
    sign = -1.0 if negate else 1.0
    value = float(sign * values[hit])
    slope = float(sign * slopes[hit])
    achieved_value = abs(value - target_value) / rms
    if target_slope is not None:
        achieved_slope = abs(slope / target_slope - 1.0)
    else:
        achieved_slope = math.nan
    return StartPoint(int(index[hit]), value, slope, achieved_value, achieved_slope, negate)
