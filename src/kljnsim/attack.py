"""Eavesdropper's transient statistics and calibrated decision rule.

Eve monitors both cable ends and compares windowed mean squares: the
decision statistic for a window of length tau is the mean square at Alice's
end minus the mean square at Bob's end, computed separately for voltage and
current.  The averaging window is half-open, [0, tau), so at tau equal to
one fly time the first arriving wave sample is excluded and the cold-start
proportionality v = z0*i makes the voltage and current statistics exact
scalar multiples of each other.

Which sign of the statistic indicates HL is not hard-coded: with kiloohm
resistors on a 50-ohm cable the H side *launches* the smaller wave, and for
longer windows the ordering flips again as arrivals mix in.  Eve, who knows
every public parameter, instead calibrates the sign on labeled HL rehearsal
runs; a sign whose calibration mean is within two standard errors of zero
is recorded as uninformative and forces a fair coin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .line import TrialWaveforms

__all__ = ["DecisionSign", "window_stats", "signs_from_calibration", "decide"]


def window_stats(waveforms: TrialWaveforms, tau_steps) -> tuple[np.ndarray, np.ndarray]:
    """Voltage and current statistics (rho_u, rho_i), one per window.

    Window j covers the half-open sample range [0, tau_steps[j]); its
    statistic is the mean square at Alice's end minus the mean square at
    Bob's end.  Every window is a prefix of the same running sum.
    """
    steps = np.asarray(tau_steps)
    if steps.min() < 1 or steps.max() > len(waveforms):
        raise ValueError(
            f"windows of {steps.min()}..{steps.max()} samples do not fit "
            f"{len(waveforms)} samples"
        )
    cum_u = np.cumsum(waveforms.v_a * waveforms.v_a - waveforms.v_b * waveforms.v_b)
    cum_i = np.cumsum(waveforms.i_a * waveforms.i_a - waveforms.i_b * waveforms.i_b)
    width = steps.astype(float)
    return cum_u[steps - 1] / width, cum_i[steps - 1] / width


@dataclass(frozen=True)
class DecisionSign:
    """Calibrated decision orientation for one observation window.

    sign_u / sign_i are +1 or -1 when the labeled-run calibration was
    conclusive and 0 when uninformative (|mean| below two standard errors,
    or a mean of zero or NaN), which forces a fair-coin guess downstream.
    """

    sign_u: int
    sign_i: int


def signs_from_calibration(rho_u: np.ndarray, rho_i: np.ndarray) -> DecisionSign:
    """Reduce labeled-HL calibration statistics to a DecisionSign: each
    sign is that of the mean when |mean| is at least two standard errors,
    else 0, so a zero or NaN mean names no sign."""
    out = []
    for arr in (np.asarray(rho_u, dtype=float), np.asarray(rho_i, dtype=float)):
        if len(arr) < 2:
            raise ValueError("calibration needs at least 2 trials")
        # Scaled by a power of two to a largest magnitude in [0.5, 1), so that
        # the squares of the standard error neither overflow nor underflow;
        # the scaling is exact and the sign test is scale-free.
        arr = np.ldexp(arr, -math.frexp(float(np.max(np.abs(arr))))[1])
        mean = float(np.mean(arr))
        se = float(np.std(arr, ddof=1)) / math.sqrt(len(arr))
        out.append(int(np.sign(mean)) if abs(mean) >= 2.0 * se else 0)
    return DecisionSign(out[0], out[1])


def decide(sign, rho, coin) -> np.ndarray:
    """Eve's guess, elementwise: True means HL.

    Guess HL iff sign * rho > 0; an uninformative sign (0) or an exactly
    zero statistic falls back to the coin, a uniform draw on [0, 1) that
    says HL below 0.5.  Eve is a single agent, so the voltage and current
    guesses of one (trial, window) take the same coin: inside the first fly
    time, where rho_u and rho_i are exact scalar multiples, her two guesses
    are then identical in every trial.
    """
    sign = np.asarray(sign)
    rho = np.asarray(rho)
    return np.where((sign == 0) | (rho == 0.0), np.asarray(coin) < 0.5, sign * rho > 0)
