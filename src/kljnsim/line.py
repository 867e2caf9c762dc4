"""Lossless transmission line with resistive Thevenin terminations.

Time-domain traveling-wave solver (method of characteristics): the line is
an ideal delay of one fly time in each direction with wave impedance z0.
Each end holds a Thevenin source (generator voltage in series with the
chosen resistor).  Waves are stored in the doubled-amplitude convention,
i.e. a buffer entry is v + z0*i of the emitting end, which is the
open-circuit voltage the wave presents on arrival.

Per end, with arriving wave b:

    i = (u - b) / (r + z0)          current from the termination into the cable
    v = z0*i + b                    cable end voltage
    out = v + z0*i                  wave sent toward the far end

``v = z0*i + b`` is used verbatim so that during the first fly time after a
cold start (b = 0) the proportionality v = z0*i holds bit-for-bit, which
downstream makes voltage- and current-based eavesdropper decisions agree
exactly for observation windows inside the first fly time.

``run_transient`` evaluates the same recurrence in blocks of one fly time:
every sample in a block depends only on the waves the far end emitted during
the previous block, so one block of waves is in flight at a time and each
block is computable with vectorized elementwise operations that perform the
identical IEEE arithmetic as the scalar update.  The blocks of both ends at
one fly time form one contiguous row, with the ends' order alternating from
row to row, so that each row's emissions are already laid out as the next
row's arrivals and a row takes five elementwise calls for both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle

import numpy as np

__all__ = [
    "TrialWaveforms",
    "reflection_coefficient",
    "lattice_step_response",
    "ideal_line_steady_state",
    "periodic_steady_state",
    "run_transient",
]

# lattice_step_response rejects queries within this fraction of a fly time
# of an arrival instant, where the step response is discontinuous.
ARRIVAL_GUARD = 1e-9

# Fly-time blocks per pass of ``_propagate``'s scratch rows: enough that the
# per-pass dealing is a small share of the work (2^21 samples on one vCPU of
# a 2-vCPU x86_64 host took 74 ms at 32 blocks, 69 ms at 64 and at 128), few
# enough that the scratch stays below one 2^16-sample array at 100 samples
# per fly time.  Even, so that every pass starts on an [A, B] row.
_PASS_BLOCKS = 64


def reflection_coefficient(resistance: float, z0: float) -> float:
    """Voltage reflection coefficient (R - z0)/(R + z0) of a resistive end."""
    if z0 <= 0:
        raise ValueError(f"characteristic impedance must be positive, got {z0}")
    if resistance < 0:
        raise ValueError(f"termination resistance must be non-negative, got {resistance}")
    return (resistance - z0) / (resistance + z0)


@dataclass
class TrialWaveforms:
    """Sampled generator drives and cable end voltages/currents of one trial."""

    dt: float
    ugen_a: np.ndarray
    ugen_b: np.ndarray
    v_a: np.ndarray
    v_b: np.ndarray
    i_a: np.ndarray
    i_b: np.ndarray

    def __len__(self) -> int:
        return len(self.v_a)

    @property
    def time(self) -> np.ndarray:
        return np.arange(len(self.v_a)) * self.dt

    def write_tsv(self, path) -> None:
        """Dump as TSV: time_s, ugen_a, ugen_b, v_a, v_b, i_a, i_b (9 significant digits)."""
        cols = np.column_stack(
            [self.time, self.ugen_a, self.ugen_b, self.v_a, self.v_b, self.i_a, self.i_b]
        )
        header = "time_s\tugen_a\tugen_b\tv_a\tv_b\ti_a\ti_b"
        np.savetxt(path, cols, fmt="%.9g", delimiter="\t", header=header, comments="")


def _propagate(
    u_a: np.ndarray,
    u_b: np.ndarray,
    r_a: float,
    r_b: float,
    z0: float,
    delay_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Blocked traveling-wave recurrence from a cold start.

    Only one block of waves is in flight: the waves arriving at each end
    during a block are the far end's emissions of the previous block, and
    zeros during the first.  Each block of both ends is one row of 2d
    samples, [A, B] in even rows and [B, A] in odd ones, so the emissions of
    a row, in the order they are computed, are the arrivals of the next row,
    and a row takes five ufunc calls with one of two divisor rows that
    alternate with the end order.  The drives are dealt into scratch rows,
    _PASS_BLOCKS per pass, and each pass's currents and voltages are dealt
    back into the four outputs; the last pass goes through a zero-padded
    copy.  Bitwise identical to evaluating the per-end update above one
    sample at a time.
    """
    n = len(u_a)
    d = min(delay_steps, n)
    blocks = -(-n // d)
    height = min(_PASS_BLOCKS, blocks + blocks % 2)
    span = height * d
    # Four separate outputs: one (4, n) block raised the peak RSS of a
    # four-segment ``validate`` from 134 to 147 MiB, because a request that
    # large is always served by a fresh mapping.
    v_a = np.empty(n)
    v_b = np.empty(n)
    i_a = np.empty(n)
    i_b = np.empty(n)
    # Scratch rows in pairs of four quarters, rewritten each pass: the drives,
    # overwritten by the currents, and the voltages.  End A's blocks lie in
    # quarters 0 and 3 of a pair and end B's in quarters 1 and 2, so a pass
    # of either end is dealt with one strided copy.
    scratch = np.empty((2, height // 2, 4, d))
    ends = [(rows[:, ::3], rows[:, 1:3]) for rows in scratch]
    drive_rows, volt_rows = scratch.reshape(2, height, 2 * d)
    pad = np.empty((2, span)) if n % span else None
    # Row buffers, rewritten in place: the waves arriving at the row's two
    # ends, and z0*i, which both v and the outgoing wave add.  Each ufunc
    # takes its output as the third positional argument, because an ``out=``
    # keyword costs more per call than the arithmetic of a 200-sample row.
    arr = np.zeros(2 * d)
    zi = np.empty(2 * d)
    divisors = np.empty((2, 2, d))
    divisors[0, 0] = divisors[1, 1] = r_a + z0
    divisors[0, 1] = divisors[1, 0] = r_b + z0
    divisors = divisors.reshape(2, 2 * d)
    for start in range(0, n, span):
        window = slice(start, start + span)
        m = min(span, n - start)
        drives = u_a[window], u_b[window]
        if m < span:
            pad[:, m:] = 0.0
            pad[0, :m], pad[1, :m] = drives
            drives = pad
        for view, x in zip(ends[0], drives):
            view[...] = x.reshape(-1, 2, d)
        for u, v, div in zip(drive_rows[: -(-m // d)], volt_rows, cycle(divisors)):
            np.subtract(u, arr, u)
            np.divide(u, div, u)
            np.multiply(z0, u, zi)
            np.add(zi, arr, v)
            # The row has read its arrivals; overwrite them with its emissions.
            np.add(v, zi, arr)
        for views, outputs in zip(ends, ((i_a, i_b), (v_a, v_b))):
            series = [x[window] for x in outputs] if m == span else pad
            for view, x in zip(views, series):
                x.reshape(-1, 2, d)[...] = view
            if m < span:
                for x, y in zip(outputs, pad):
                    x[window] = y[:m]
    return v_a, v_b, i_a, i_b


def run_transient(
    config, u_a: np.ndarray, r_a: float, u_b: np.ndarray, r_b: float
) -> TrialWaveforms:
    """Drive a cold line with the generator voltages ``u_a`` and ``u_b``.

    The cable is idle before sample 0; the generators connect abruptly at
    sample 0 with their first values, so a nonzero first value launches a
    genuine step front.  Both drives must be nonempty and equally long.
    """
    if len(u_a) != len(u_b) or len(u_a) < 1:
        raise ValueError(
            f"drives must be nonempty and equally long, got {len(u_a)} and {len(u_b)} samples"
        )
    v_a, v_b, i_a, i_b = _propagate(u_a, u_b, r_a, r_b, config.z0, config.dt_divisor)
    return TrialWaveforms(config.dt, u_a, u_b, v_a, v_b, i_a, i_b)


def lattice_step_response(
    u: float,
    r_src: float,
    r_load: float,
    z0: float,
    fly_time: float,
    t: float,
) -> tuple[float, float]:
    """Closed-form step response of the terminated line (bounce-diagram sum).

    A step of height ``u`` is applied at the source end at t = 0.  The
    launched wave u*z0/(r_src + z0) bounces between the ends, each arrival
    multiplying by the local reflection coefficient; the end voltages are
    piecewise constant between arrivals.  Queries within ARRIVAL_GUARD fly
    times of an arrival instant k*fly_time are rejected because the value
    is discontinuous there.

    Returns (v_src, v_load).  Used as an independent oracle for the
    time-stepped engine.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if fly_time <= 0:
        raise ValueError("fly_time must be positive")
    k_near = round(t / fly_time)
    if k_near > 0 and abs(t - k_near * fly_time) <= ARRIVAL_GUARD * fly_time:
        raise ValueError(
            f"t = {t} is at (or too close to) the arrival instant {k_near}*fly_time; "
            "the step response is discontinuous there"
        )
    gamma_src = reflection_coefficient(r_src, z0)
    gamma_load = reflection_coefficient(r_load, z0)
    launch = u * z0 / (r_src + z0)
    # source end: arrivals at 2*fly_time, 4*fly_time, ...
    n_round_trips = int(t // (2.0 * fly_time))
    v_src = launch
    incident = launch
    for _ in range(n_round_trips):
        incident *= gamma_load
        v_src += incident * (1.0 + gamma_src)
        incident *= gamma_src
    # load end: arrivals at fly_time, 3*fly_time, ...
    if t < fly_time:
        v_load = 0.0
    else:
        n_arrivals = int((t - fly_time) // (2.0 * fly_time)) + 1
        v_load = 0.0
        incident = launch
        for _ in range(n_arrivals):
            v_load += incident * (1.0 + gamma_load)
            incident *= gamma_load * gamma_src
    return v_src, v_load


def ideal_line_steady_state(
    r_a: float,
    r_b: float,
    z0: float,
    fly_time: float,
    freqs,
    ms_a: float,
    ms_b: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form long-run mean squares at both ends of the terminated line.

    The lossless line of delay ``fly_time`` is the two-port

        Y11 = Y22 = -j*cot(w*fly_time)/z0,    Y12 = Y21 = j/(z0*sin(w*fly_time)),

    and each end holds its resistor in series with an independent generator
    whose mean square (``ms_a``, ``ms_b``) is spread evenly over ``freqs``,
    the in-band bins of a flat-band record.  The port equations are solved
    per frequency with numerator and determinant multiplied by
    z0*sin(w*fly_time)*r_a*r_b, which keeps every transfer function finite at
    the line resonances and at zero frequency.

    Returns ``(v2, i2)``: the mean-square end voltages and the mean-square
    currents from the terminations into the cable, each ``[end A, end B]``.
    As ``fly_time`` -> 0 they tend to the zero-length-wire levels
    (ms_a*r_b^2 + ms_b*r_a^2)/(r_a + r_b)^2 and (ms_a + ms_b)/(r_a + r_b)^2,
    which are 4kT*Rp*B and 4kT*B/Rs for Johnson generators.  Used as an
    independent oracle for the steady state of the time-stepped engine.
    Raises ValueError when a level is not finite in floating point.
    """
    if z0 <= 0 or r_a <= 0 or r_b <= 0:
        raise ValueError(f"z0 and the resistances must be positive, got ({z0}, {r_a}, {r_b})")
    if fly_time < 0:
        raise ValueError(f"fly_time must be non-negative, got {fly_time}")
    theta = 2.0 * np.pi * fly_time * np.asarray(freqs, dtype=float)
    if theta.ndim != 1 or len(theta) == 0:
        raise ValueError("freqs must be a nonempty 1-D array")
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    # With D = (r_a*r_b + z0^2)*sin - j*z0*(r_a + r_b)*cos, a unit generator at
    # the own end gives v = z0*(z0*sin - j*r_far*cos)/D and
    # i = (r_far*sin - j*z0*cos)/D there; one at the far end gives
    # |v| = z0*r_own/|D| and |i| = z0/|D|.
    overflow = (f"the ideal-line steady state of resistances ({r_a}, {r_b}) and z0 {z0} "
                "overflows in floating point")
    try:
        inv_d2 = 1.0 / ((r_a * r_b + z0 * z0) ** 2 * s2 + (z0 * (r_a + r_b)) ** 2 * c2)
    except OverflowError:
        raise ValueError(overflow) from None
    far = float(np.mean(inv_d2))

    def end(ms_own: float, ms_far: float, r_own: float, r_far: float) -> tuple[float, float]:
        own_v = float(np.mean((z0 * z0 * s2 + r_far * r_far * c2) * inv_d2))
        own_i = float(np.mean((r_far * r_far * s2 + z0 * z0 * c2) * inv_d2))
        v2 = z0 * z0 * (ms_own * own_v + ms_far * r_own * r_own * far)
        i2 = ms_own * own_i + ms_far * z0 * z0 * far
        return v2, i2

    (v2_a, i2_a), (v2_b, i2_b) = end(ms_a, ms_b, r_a, r_b), end(ms_b, ms_a, r_b, r_a)
    if not all(map(math.isfinite, (v2_a, v2_b, i2_a, i2_b))):
        raise ValueError(overflow)
    return np.array([v2_a, v2_b]), np.array([i2_a, i2_b])


def periodic_steady_state(
    r_a: float,
    r_b: float,
    z0: float,
    delay_steps: int,
    n: int,
    u_a: np.ndarray,
    u_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Settled response of the engine to n-periodic drives, bin by bin.

    ``u_a`` and ``u_b`` hold the complex amplitudes U_k of bins
    k = 1 .. len(u_a) of drives whose sample m is Re sum_k U_k exp(2*pi*i*k*m/n).
    A wave crosses the line in ``delay_steps`` samples, a phase
    theta = 2*pi*k*delay_steps/n, and an end of reflection coefficient
    G = (r - z0)/(r + z0) emits out = (1 - G)*u + G*b, so the settled
    emissions are

        O_a = [(1 - G_a)U_a + G_a e^{-j theta}(1 - G_b)U_b] / (1 - G_a G_b e^{-2j theta})

    and O_b the same with a and b swapped, and the waves arriving are
    B_a = e^{-j theta} O_b and B_b = e^{-j theta} O_a.  The engine's own
    per-end formulas i = (U - B)/(r + z0) and v = z0*i + B then give the
    amplitudes ``(v_a, v_b, i_a, i_b)`` of the four wire series in the same
    convention.  A cold-started engine tends to these as (G_a G_b)^m after m
    round trips.  The phases reduce k*delay_steps mod n in integers.
    """
    gamma_a = reflection_coefficient(r_a, z0)
    gamma_b = reflection_coefficient(r_b, z0)
    k = np.arange(1, len(u_a) + 1)
    delay = int(delay_steps) % n
    one_way = np.exp((-2j * math.pi / n) * (k * delay % n))
    round_trip = np.exp((-2j * math.pi / n) * (2 * k * delay % n))
    launch_a, launch_b = (1.0 - gamma_a) * u_a, (1.0 - gamma_b) * u_b
    denominator = 1.0 - gamma_a * gamma_b * round_trip
    out_a = (launch_a + gamma_a * one_way * launch_b) / denominator
    out_b = (launch_b + gamma_b * one_way * launch_a) / denominator
    arrive_a, arrive_b = one_way * out_b, one_way * out_a
    i_a = (u_a - arrive_a) / (r_a + z0)
    i_b = (u_b - arrive_b) / (r_b + z0)
    return z0 * i_a + arrive_a, z0 * i_b + arrive_b, i_a, i_b
