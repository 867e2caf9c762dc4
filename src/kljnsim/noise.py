"""Band-limited Gaussian noise synthesis and start-point search.

The voltage generators of both communicating parties are modelled as
band-limited white Gaussian noise scaled to the Johnson-Nyquist RMS of the
connected resistor.  Records are made in the frequency domain: independent
complex Gaussian coefficients on the in-band bins, zero everywhere else,
inverse real FFT.  This makes the out-of-band spectral power zero by
construction at any simulation timestep.

``draw_spectrum`` is the one place where a seed becomes a record: it draws
the in-band coefficients X_k and their Parseval scale once, into a
``Spectrum``.  With the DC and Nyquist bins zero, the mean square of a
record is half the summed power of its coefficients, so the factor
sigma*sqrt(2/sum_k |X_k|^2) gives it a sample RMS of sigma, to rounding,
from the coefficients alone.  With the default parameters a record holds
only ~524 in-band frequency bins, so an ensemble-normalized record would
show a ~2% RMS spread between seeds; the exchange protocol (and its
tolerance checks) assume both parties know the generator amplitudes
exactly.  Since the scale needs no samples, a full record or its grid of
every D-th sample (``synthesize_record``) and a short window
(``Spectrum.window``: a random start plays a few hundred samples, summed
over the in-band bins without the full record) all read the same spectrum.
A full record is made as P interleaved grids of every P-th sample, by one
batched inverse FFT of length n/P, since one transform of length n falls
out of cache at the 2^21 samples of a steady-state segment.

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
    "Spectrum",
    "StartPoint",
    "johnson_rms",
    "slope_rms",
    "in_band_bins",
    "grid_step",
    "draw_spectrum",
    "synthesize_record",
    "find_start_point",
]

BOLTZMANN = 1.380649e-23  # J/K, exact SI value

# Fewest in-band frequency bins a record may hold.
MIN_BINS = 10

# Largest grid step of the start-point search.  Its Hermite error bounds
# widen as step**4, so a larger step brackets too many intervals to refine.
MAX_GRID_STEP = 128
# Most interleaved grids a full record is made from (``_interleaved``).  One
# inverse FFT of 2^21 points falls out of cache: on one vCPU of a 2-vCPU
# x86_64 host a 2^21-sample record with 1048 in-band bins took 64-70 ms
# that way, and 30-32 ms from 16 grids, 31-32 ms from 32, 35-37 ms from 64
# and 43-45 ms from 128 (quartiles of 60 runs each).
_MAX_PHASES = 32
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
    if n_bins < MIN_BINS:
        raise ValueError(
            f"record too short: only {n_bins} in-band frequency bins, need >= {MIN_BINS} "
            f"(n*dt*B = {n * dt * bandwidth:.3g})"
        )
    return n_bins


def grid_step(n: int, dt: float, bandwidth: float) -> int:
    """The start-point search's grid step D for n-sample records: the
    largest power of two up to MAX_GRID_STEP that divides n and keeps the
    band below the Nyquist frequency of every D-th sample, n_bins < n/(2D);
    1 when no larger step does."""
    return _largest_step(n, in_band_bins(n, dt, bandwidth), MAX_GRID_STEP)


def _largest_step(n: int, n_bins: int, limit: int) -> int:
    """The largest power of two up to the power of two ``limit`` that
    divides n and keeps n_bins < n/(2*step); 1 when no larger one does."""
    step = limit
    while step > 1 and not (n % step == 0 and 2 * step * n_bins < n):
        step //= 2
    return step


@dataclass(frozen=True)
class Spectrum:
    """The in-band coefficients of an n-sample band-limited Gaussian record,
    as ``draw_spectrum`` draws them; every sample of the record is a sum
    over them.

    coeffs  complex coefficients X_k of bins 1 .. n_bins
    n       samples in the record
    dt      sampling interval (s)
    sigma   sample RMS the record is scaled to (V)
    scale   the Parseval scale sigma*sqrt(2/sum_k |X_k|^2)
    """

    coeffs: np.ndarray = field(repr=False)
    n: int
    dt: float
    sigma: float
    scale: float

    def window(self, start: int, count: int) -> np.ndarray:
        """Samples start .. start+count-1 of the record, without
        synthesizing the other samples.

        Sample m is the inverse FFT sum at m alone, with the Parseval scale:
        scale * Re sum_k X_k exp(2*pi*i*k*m/n).  It matches
        ``synthesize_record``'s slice to about 1e-14 of sigma.  A window
        longer than n / n_bins samples (about 1/(B*dt)) would cost more than
        the whole record, and is cut from ``synthesize_record``'s samples,
        bit for bit.
        """
        if not (0 <= start and 1 <= count and start + count <= self.n):
            raise ValueError(f"window of {count} samples from {start} is not inside "
                             f"{self.n} samples")
        if count * len(self.coeffs) > self.n:
            return synthesize_record(self).samples[start : start + count].copy()
        return _direct_sum(self, start, count)


def draw_spectrum(
    seed: int | np.random.SeedSequence,
    n: int,
    dt: float,
    bandwidth: float,
    sigma: float,
) -> Spectrum:
    """Draw the spectrum of an n-sample record with a flat band (0, B] and
    sample RMS sigma.

    Bins k = 1 .. floor(B*n*dt) receive independent complex unit Gaussians;
    all other bins (including DC and everything above B) stay exactly zero.
    Deterministic given the seed.  Requires n >= 2, a finite sigma > 0, at
    least ten in-band bins (n*dt*B >= 10) and B below the Nyquist frequency
    1/(2*dt).
    """
    n_bins = in_band_bins(n, dt, bandwidth)
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    power = float(np.sum(coeffs.real**2 + coeffs.imag**2))
    return Spectrum(coeffs, n, dt, sigma, sigma * math.sqrt(2.0 / power))


@dataclass(frozen=True)
class NoiseRecord:
    """Samples 0, step, 2*step, ... of the record of ``spectrum`` (V)."""

    spectrum: Spectrum
    samples: np.ndarray
    step: int = 1


def synthesize_record(spectrum: Spectrum, step: int = 1) -> NoiseRecord:
    """Every step-th sample of the record of ``spectrum`` at the Parseval
    scale, so a full record (step 1) has sample RMS sigma to rounding.  A
    grid (step > 1) is one inverse real FFT of length n/step; a full record
    is made from interleaved grids (``_interleaved``).  The step must be an
    integer >= 1 that divides n and keeps n_bins < n/(2*step), as
    ``grid_step``'s does; the samples of a grid equal the full record's to
    about 1e-14 of sigma.
    """
    n, n_bins = spectrum.n, len(spectrum.coeffs)
    if not (isinstance(step, numbers.Integral) and step >= 1 and n % step == 0
            and 2 * step * n_bins < n):
        raise ValueError(f"step {step} does not divide {n} samples into a grid that holds "
                         f"{n_bins} in-band bins below its Nyquist frequency")
    if step == 1:
        return NoiseRecord(spectrum, _interleaved(spectrum))
    return NoiseRecord(spectrum, _on_grid(spectrum.coeffs, n // step, spectrum.scale), step)


def _interleaved(spectrum: Spectrum) -> np.ndarray:
    """Every sample of the record of ``spectrum``, from P interleaved grids:
    sample q*P + t is sample q of the (n/P)-sample grid of the coefficients
    X_k exp(2*pi*i*k*t/n).  P is the largest power of two up to _MAX_PHASES
    that divides n and keeps the band below every grid's Nyquist frequency,
    n_bins < n/(2P); P = 1 is ``_on_grid``'s one inverse FFT.  One batched
    inverse FFT makes the P grids, and one transposed multiply writes them
    into the record at the Parseval scale."""
    coeffs, n = spectrum.coeffs, spectrum.n
    phases = _largest_step(n, len(coeffs), _MAX_PHASES)
    if phases == 1:
        return _on_grid(coeffs, n, spectrum.scale)
    count = n // phases
    shifted = np.zeros((phases, len(coeffs) + 1), dtype=complex)
    # k*t < P*n_bins < n/2, so the angles need no reduction mod n.
    angles = np.arange(phases)[:, None] * np.arange(1, len(coeffs) + 1)
    shifted[:, 1:] = coeffs * np.exp((2j * math.pi / n) * angles)
    grids = np.fft.irfft(shifted, count)
    samples = np.empty(n)
    np.multiply(grids.T, spectrum.scale * (count / 2), out=samples.reshape(count, phases))
    return samples


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


def _direct_sum(spectrum: Spectrum, start: int, count: int) -> np.ndarray:
    """Samples start .. start+count-1 of the record of ``spectrum``, each
    summed over the in-band bins; ``start`` is taken mod n."""
    coeffs, n = spectrum.coeffs, spectrum.n
    shift = np.exp((2j * math.pi / n) * ((np.arange(1, len(coeffs) + 1) * start) % n))
    sums = _phase_matrix(n, len(coeffs), count) @ (coeffs * shift)
    return spectrum.scale * sums.real


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
    coeffs, scale, grid = record.spectrum.coeffs, record.spectrum.scale, len(record.samples)
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
    center = target_slope * record.spectrum.dt
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

    The samples s are direct sums over the record's spectrum, as
    ``Spectrum.window`` forms them, made only where a match is possible.
    The record's grid of every D-th sample, with the first two derivatives
    there, bounds each interval [D*m, D*(m+1)] in three stages
    (``_possible_intervals``).  The cubic Hermite interpolant
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
    step, spectrum = record.step, record.spectrum
    dt, rms = spectrum.dt, spectrum.sigma
    hi = min(max_index, spectrum.n - 2)
    if hi < 1:
        return None
    window = value_tol_rel * rms
    for first in _possible_intervals(record, hi, target_value, window, target_slope,
                                     slope_tol_rel).tolist():
        # Samples first - 1 .. first + step, for the samples the interval
        # holds and their neighbours.
        s = _direct_sum(spectrum, first - 1, step + 2)
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
