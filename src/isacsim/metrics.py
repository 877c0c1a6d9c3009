"""Sensing performance metrics: closed-form accuracy/resolution/ambiguity
bounds of a pulsed waveform, and envelope detection statistics.

Detection model: after matched filtering, the sample magnitude is Rayleigh
distributed under noise only and Rician under signal plus noise, with
noise standard deviation sigma in each of the I and Q channels and signal
envelope A. The SNR convention used by the table helper is
SNR = A^2 / (2 sigma^2).

The detection probability is the Marcum function Q1(A/sigma, V_T/sigma),
evaluated as a Poisson mixture of Poisson CDFs (D. A. Shnidman, IEEE Trans.
Inf. Theory 35(2), 1989): with lam = A^2/(2 sigma^2) and x = V_T^2/(2 sigma^2),

    Pd = sum_j P_lam(j) F_x(j),    1 - Pd = sum_j P_lam(j) (1 - F_x(j)),

where P_mu is the Poisson(mu) pmf and F_x the Poisson(x) CDF. Every term
is positive, so the sums need numpy only and keep their relative accuracy
in both tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericError


@dataclass
class WaveformParams:
    """Pulsed waveform and receive array description."""

    pulse_width_s: float
    pri_s: float
    pulses: int
    wavelength_m: float
    element_spacing_m: float
    elements: int

    def __post_init__(self):
        for name in ("pulse_width_s", "pri_s", "wavelength_m", "element_spacing_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.pulses < 1 or self.elements < 1:
            raise ConfigError("pulse and element counts must be >= 1")
        if self.pri_s < self.pulse_width_s:
            raise ConfigError("pulse repetition interval must be >= pulse width")


@dataclass
class DetectionParams:
    """Envelope detection operating point (all linear amplitudes)."""

    noise_std: float
    threshold: float
    signal_amplitude: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.noise_std < math.inf):
            raise ConfigError(f"noise std must be positive and finite, got {self.noise_std}")
        if not (0.0 <= self.threshold < math.inf and 0.0 <= self.signal_amplitude < math.inf):
            raise ConfigError("threshold and signal amplitude must be finite and >= 0")
        if pfa(self) == 0.0:
            raise ConfigError(
                f"threshold {self.threshold} is so far above noise std {self.noise_std} "
                "that the false-alarm probability underflows to 0"
            )


class RangeMetrics(NamedTuple):
    range_m: float
    accuracy_m: float
    resolution_m: float
    max_range_m: float


class SpeedMetrics(NamedTuple):
    speed_mps: float
    accuracy_mps: float
    resolution_mps: float


class AngleMetrics(NamedTuple):
    angle_rad: float
    accuracy_rad: float
    resolution_rad: float
    max_angle_rad: float


def range_metrics(
    w: WaveformParams, t_r_s: float, dt_r_s: float = 0.0, dc_mps: float = 0.0
) -> RangeMetrics:
    """Round-trip range estimate with its differential accuracy and bounds.

    R = c t_R / 2; dR propagates timing error and propagation-speed error;
    resolution is set by the pulse width, the unambiguous maximum by the
    pulse repetition interval.
    """
    if t_r_s < 0:
        raise ConfigError("echo delay must be >= 0")
    c = SPEED_OF_LIGHT
    r = c * t_r_s / 2.0
    dr = c * dt_r_s / 2.0 + (r / c) * dc_mps
    resolution = c * w.pulse_width_s / 2.0
    r_max = c * w.pri_s / 2.0
    return RangeMetrics(r, dr, resolution, r_max)


def speed_metrics(w: WaveformParams, fd_hz: float, dfd_hz: float = 0.0) -> SpeedMetrics:
    """Radial speed from round-trip Doppler: v = lambda f_d / 2.

    Doppler resolution over M coherent pulses is 1/(M T_R), hence
    dv = lambda / (2 M T_R).
    """
    lam = w.wavelength_m
    v = lam * fd_hz / 2.0
    dv = lam * dfd_hz / 2.0
    resolution = lam / (2.0 * w.pulses * w.pri_s)
    return SpeedMetrics(v, dv, resolution)


def angle_metrics(
    w: WaveformParams,
    phase_rad: float,
    dphase_rad: float = 0.0,
    theta_rad: float | None = None,
) -> AngleMetrics:
    """Angle from inter-element phase: theta = arcsin(phi lambda / (2 pi d)).

    Accuracy and resolution are evaluated at theta_rad (default: the
    estimate itself) and diverge toward endfire; the unambiguous maximum is
    arcsin(lambda/(2d)), the whole half-space when d <= lambda/2.
    """
    lam, d = w.wavelength_m, w.element_spacing_m
    arg = phase_rad * lam / (2.0 * math.pi * d)
    if abs(arg) > 1.0:
        raise NumericError(
            f"phase {phase_rad:.4g} rad is ambiguous at spacing {d} m "
            f"(arcsin argument {arg:.4g} outside [-1, 1])"
        )
    theta_est = math.asin(arg)
    theta = theta_est if theta_rad is None else theta_rad
    cos_t = math.cos(theta)
    if abs(cos_t) < 1e-12:
        raise NumericError("angle accuracy/resolution are singular at endfire")
    accuracy = lam * dphase_rad / (2.0 * math.pi * d * cos_t)
    resolution = lam / (w.elements * d * cos_t)
    half = lam / (2.0 * d)
    theta_max = math.pi / 2.0 if half >= 1.0 else math.asin(half)
    return AngleMetrics(theta_est, accuracy, resolution, theta_max)


def pfa(p: DetectionParams) -> float:
    """False-alarm probability of a Rayleigh envelope: exp(-V_T^2/(2 sigma^2))."""
    ratio = p.threshold / p.noise_std
    return math.exp(-0.5 * ratio * ratio)


def threshold_for_pfa(target_pfa: float, noise_std: float) -> float:
    """Threshold achieving a wanted false-alarm probability (inverse of pfa)."""
    if not (0.0 < target_pfa <= 1.0):
        raise ConfigError(f"false-alarm probability must be in (0, 1], got {target_pfa}")
    if not (0.0 < noise_std < math.inf):
        raise ConfigError(f"noise std must be positive and finite, got {noise_std}")
    return noise_std * math.sqrt(-2.0 * math.log(target_pfa))


# Beyond mu +/- (10 sqrt(mu) + 40) a Poisson(mu) tail holds less than 2e-22
# of the mass (Chernoff bounds), so a sum truncated there loses nothing that
# a double can show.
def _reach(mu):
    return mu + 10.0 * np.sqrt(mu) + 40.0


_WIDTH_STEP = 64  # series lengths round up to a multiple of this, so points share chunks
_CHUNK_ELEMENTS = 1 << 16  # points x series terms evaluated at once


def _poisson_weights(mu, j):
    """Poisson(mu) pmf on the terms ``j`` = 0, 1, ..., one row per mean, up to
    a per-row factor: 1 at the mode, by the recurrences P(j+1) = P(j) mu/(j+1)
    upward and P(j-1) = P(j) j/mu downward. Each ratio array is clipped at 1,
    which is exactly where it steps across the mode."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_j = np.where(j > 0, 1.0 / j, np.inf)
        inv_mu = np.where(mu > 0, 1.0 / mu, np.inf)
        up = np.fmin(mu[:, None] * inv_j, 1.0)
        down = np.fmin((j + 1.0) * inv_mu[:, None], 1.0)
    np.cumprod(up, axis=1, out=up)
    up *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    return up


def _marcum_q1(x, lam):
    """Q1(sqrt(2 lam), sqrt(2 x)) for every (x, lam) pair, shape (len(x), len(lam)).

    For each x, the CDF F_x and its complement 1 - F_x come from one set of
    Poisson(x) weights. A point with lam <= x sums Pd directly; one with
    lam > x sums 1 - Pd, so both small Pd and Pd near 1 keep their accuracy.
    Past lam_cut(x), where lam - 10 sqrt(lam) - 40 = reach(x), 1 - Pd is below
    4e-22 and Pd is 1.0. So no point sums more than reach(lam_cut(x)) terms,
    however high its SNR. A point's series length depends on its own
    (x, lam) alone, so its value does not depend on the rest of the grid.
    """
    out = np.ones((x.size, lam.size))
    for row, xi in zip(out, x):
        root = 5.0 + math.sqrt(65.0 + _reach(xi))
        lam_cut = root * root
        terms = np.arange(_WIDTH_STEP * math.ceil(_reach(lam_cut) / _WIDTH_STEP), dtype=float)
        wx = _poisson_weights(np.array([xi]), terms)[0]
        cdf = np.cumsum(wx)
        lower = cdf / cdf[-1]
        upper = np.append(np.cumsum(wx[::-1])[-2::-1], 0.0) / cdf[-1]
        for complement, tail, take in (
            (False, lower, lam <= xi),
            (True, upper, (lam > xi) & (lam <= lam_cut)),
        ):
            idx = np.flatnonzero(take)
            widths = _WIDTH_STEP * np.ceil(_reach(np.maximum(lam[idx], xi)) / _WIDTH_STEP)
            for width in np.unique(widths).astype(int):
                group = idx[widths == width]
                rows = max(1, _CHUNK_ELEMENTS // width)
                for start in range(0, group.size, rows):
                    part = group[start:start + rows]
                    w = _poisson_weights(lam[part], terms[:width])
                    s = np.sum(w * tail[:width], axis=1) / np.sum(w, axis=1)
                    row[part] = 1.0 - s if complement else s
    return out


def _pd_grid(thresholds, amplitudes, noise_std: float):
    """Pd for every (threshold, amplitude) pair, shape (thresholds, amplitudes)."""
    x = 0.5 * (np.asarray(thresholds, dtype=float) / noise_std) ** 2
    lam = 0.5 * (np.asarray(amplitudes, dtype=float) / noise_std) ** 2
    return _marcum_q1(x, lam)


def pd(p: DetectionParams) -> float:
    """Detection probability of a Rician envelope above the threshold.

    Pd = Q1(A/sigma, V_T/sigma), summed as the Poisson series of the module
    docstring; a one-point call into the kernel that ``detection_grid``
    uses for its whole grid, so both give the same bits. With A = 0 the
    series is the Rayleigh tail exp(-V_T^2/(2 sigma^2)), so pd == pfa.
    """
    return float(_pd_grid([p.threshold], [p.signal_amplitude], p.noise_std)[0, 0])


def snr_to_amplitude(snr_db: float, noise_std: float = 1.0) -> float:
    """Signal envelope for a given SNR in dB under SNR = A^2/(2 sigma^2)."""
    try:
        amplitude = noise_std * math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
    except OverflowError:
        amplitude = math.inf
    if not math.isfinite(amplitude):
        raise ConfigError(f"SNR {snr_db} dB has no finite signal amplitude")
    return amplitude


def detection_grid(pfa_values, snr_db_values, noise_std: float = 1.0) -> np.ndarray:
    """Pd at every grid point, shape (len(pfa_values), len(snr_db_values));
    the whole grid is one call into the Pd kernel."""
    thresholds = [threshold_for_pfa(target, noise_std) for target in pfa_values]
    amplitudes = [snr_to_amplitude(snr_db, noise_std) for snr_db in snr_db_values]
    return _pd_grid(thresholds, amplitudes, noise_std)


def detection_table(pfa_values, snr_db_values, noise_std: float = 1.0) -> np.ndarray:
    """Rows (snr_db, pfa, pd) for curve plotting, one row per grid point,
    pfa-major: detection_grid as an (points, 3) array."""
    grid = detection_grid(pfa_values, snr_db_values, noise_std)
    return np.column_stack([np.tile(np.asarray(snr_db_values, float), grid.shape[0]),
                            np.repeat(np.asarray(pfa_values, float), grid.shape[1]),
                            grid.ravel()])
