"""Radar cross section models: mean level, angle dependence, fluctuation.

The cross section of a target factors as RCS = A * B1 * B2:

* A is the deterministic mean level in m^2. It belongs to the large-scale
  power budget (the two-hop path-loss formula subtracts it) and must NOT
  be applied again per path.
* B1 is a dimensionless angle-dependence factor, either 1 or a lookup
  table over aspect azimuth.
* B2 is a dimensionless log-normal fluctuation, 10^(N(mu, sigma^2)/10)
  with mu/sigma in dB, modeling scintillation of the echo.

Per-path synthesis therefore draws sigma = B1 * B2; the combination
A * B1 * B2 is available for calibration and fitting work.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .geometry import DirectionAngles
from .reader import data_lines, read_text


class B1Table:
    """Angle-dependence lookup: linear gain versus aspect azimuth in degrees.

    Lookups interpolate linearly between tabulated angles and refuse to
    extrapolate outside the tabulated span.
    """

    def __init__(self, angles_deg, gains):
        angles = np.asarray(angles_deg, dtype=float)
        gains = np.asarray(gains, dtype=float)
        if angles.ndim != 1 or angles.shape != gains.shape or angles.size < 2:
            raise ConfigError("angle table needs two same-length columns, >= 2 rows")
        if np.any(np.diff(angles) <= 0):
            raise ConfigError("angle table angles must be strictly ascending")
        if np.any(gains < 0):
            raise ConfigError("angle table gains must be >= 0")
        self.angles_deg = angles
        self.gains = gains

    @classmethod
    def from_file(cls, path) -> "B1Table":
        """Load a two-column text table: aspect angle in degrees, linear gain."""
        angles, gains = [], []
        for ln, line in data_lines(read_text(path)):
            cols = line.split()
            if len(cols) != 2:
                raise ConfigError(f"{path}:{ln}: expected 'angle_deg gain', got {line!r}")
            try:
                angles.append(float(cols[0]))
                gains.append(float(cols[1]))
            except ValueError:
                raise ConfigError(f"{path}:{ln}: non-numeric entry") from None
        return cls(angles, gains)

    def lookup(self, aspect_deg):
        a = np.asarray(aspect_deg, dtype=float)
        lo, hi = self.angles_deg[0], self.angles_deg[-1]
        if np.any(a < lo) or np.any(a > hi):
            raise ConfigError(
                f"aspect angle outside tabulated range [{lo}, {hi}] deg; "
                "no extrapolation"
            )
        return np.interp(a, self.angles_deg, self.gains)


@dataclass
class RcsModel:
    """Factored cross-section model of one target."""

    mean_rcs_m2: float = 1.0
    b1: B1Table | None = None
    b2_mean_db: float = 0.0
    b2_std_db: float = 0.0

    def __post_init__(self):
        if self.mean_rcs_m2 <= 0 or not math.isfinite(self.mean_rcs_m2):
            raise ConfigError(f"mean RCS must be positive, got {self.mean_rcs_m2}")
        if self.b2_std_db < 0:
            raise ConfigError("fluctuation std must be >= 0")


def _aspect_azimuth_deg(aspect):
    if isinstance(aspect, DirectionAngles):
        return np.degrees(aspect.azimuth)
    return np.asarray(aspect, dtype=float)


def _b1_factor(model: RcsModel, aspect):
    if model.b1 is None:
        return 1.0
    if aspect is None:
        raise ConfigError("angle-dependent RCS needs an aspect angle")
    return model.b1.lookup(_aspect_azimuth_deg(aspect))


def _b2_factor(model: RcsModel, rng: np.random.Generator, size):
    if model.b2_std_db == 0.0 and model.b2_mean_db == 0.0:
        return 1.0 if size is None else np.ones(size)
    draw_db = model.b2_mean_db + model.b2_std_db * rng.standard_normal(size)
    return 10.0 ** (draw_db / 10.0)


def small_scale_sigma(model: RcsModel, aspect, rng: np.random.Generator, size=None):
    """Per-path cross-section factor B1 * B2 (the mean level A excluded)."""
    return _b1_factor(model, aspect) * _b2_factor(model, rng, size)


def sample_rcs(model: RcsModel, aspect, rng: np.random.Generator, size=None):
    """Full cross-section samples A * B1 * B2 in m^2."""
    return model.mean_rcs_m2 * small_scale_sigma(model, aspect, rng, size)


def fit_lognormal_db(samples_m2) -> tuple:
    """Fit the dB-domain normal law of positive RCS samples.

    Returns (mean_db, std_db) of 10*log10(samples); the std uses the
    unbiased n-1 normalization. Non-positive samples are rejected.
    """
    s = np.asarray(samples_m2, dtype=float)
    if s.size < 2:
        raise ConfigError("need at least two samples to fit")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ConfigError("samples must be positive and finite")
    db = 10.0 * np.log10(s)
    return float(db.mean()), float(db.std(ddof=1))


MBET_WARN_DEG = 20.0
MBET_MAX_DEG = 30.0


def mbet_bistatic(mono_rcs, frequency_hz: float, aspect, beta_rad: float):
    """Bi-static RCS via the mono-static equivalence theorem.

    Evaluates the mono-static model ``mono_rcs(frequency_hz, aspect)`` at
    the reduced frequency f * cos(beta/2) along the bisector aspect, where
    beta is the bi-static angle. Valid for small beta: warns above 20
    degrees, refuses above 30.
    """
    beta_deg = abs(math.degrees(beta_rad))
    if beta_deg > MBET_MAX_DEG:
        raise ConfigError(
            f"bi-static angle {beta_deg:.1f} deg exceeds the {MBET_MAX_DEG:.0f} deg "
            "equivalence validity limit"
        )
    if beta_deg > MBET_WARN_DEG:
        warnings.warn(
            f"bi-static angle {beta_deg:.1f} deg is beyond the trusted "
            f"{MBET_WARN_DEG:.0f} deg range; treat the equivalence as approximate",
            stacklevel=2,
        )
    return mono_rcs(frequency_hz * math.cos(beta_rad / 2.0), aspect)


@dataclass
class ResolutionCell:
    """Sensing resolution cell: solid angle, range, and pulse duration."""

    solid_angle_sr: float
    range_m: float
    pulse_width_s: float

    def volume_m3(self) -> float:
        if self.solid_angle_sr <= 0 or self.range_m <= 0 or self.pulse_width_s <= 0:
            raise ConfigError("resolution cell dimensions must be positive")
        return (
            self.solid_angle_sr
            * self.range_m ** 2
            * SPEED_OF_LIGHT
            * self.pulse_width_s
            / 2.0
        )


def is_point_target(extent_m3: float, cell: ResolutionCell) -> bool:
    """True when the target extent fits the resolution cell (boundary inclusive)."""
    if extent_m3 < 0:
        raise ConfigError("target extent must be >= 0")
    return extent_m3 <= cell.volume_m3()


POLARIZATION_MODES = ("identity", "full", "partial")


@dataclass
class PolarizationScattering:
    """Target polarization behavior as a 2x2 scattering matrix model.

    Entries are dimensionless amplitude ratios with independent random
    phases drawn uniform on (-pi, pi]:

    * identity: unit matrix, no cross-coupling, no randomness consumed;
    * full: all four amplitudes (vv, vh, hv, hh) configurable;
    * partial: unit co-polar diagonal, configurable cross-polar amplitudes.
    """

    mode: str = "identity"
    alphas: tuple = (1.0, 0.0, 0.0, 1.0)  # (vv, vh, hv, hh)

    def __post_init__(self):
        if self.mode not in POLARIZATION_MODES:
            raise ConfigError(
                f"polarization mode must be one of {POLARIZATION_MODES}, "
                f"got {self.mode!r}"
            )
        a = tuple(float(v) for v in self.alphas)
        if len(a) != 4 or any(v < 0 for v in a):
            raise ConfigError("alphas must be four non-negative amplitudes")
        if self.mode == "partial":
            a = (1.0, a[1], a[2], 1.0)
        self.alphas = a


def scattering_matrix(
    pol: PolarizationScattering, rng: np.random.Generator | None, size=None
):
    """Draw scattering matrices of shape (..., 2, 2), complex.

    Identity mode returns exact unit matrices and consumes no randomness.
    """
    shape = () if size is None else (int(size),)
    if pol.mode == "identity":
        out = np.zeros(shape + (2, 2), dtype=complex)
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out
    if rng is None:
        raise ConfigError("non-identity polarization needs a random stream")
    phases = np.pi - rng.random(shape + (4,)) * (2.0 * np.pi)
    vv, vh, hv, hh = pol.alphas
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = vv * np.exp(1j * phases[..., 0])
    out[..., 0, 1] = vh * np.exp(1j * phases[..., 1])
    out[..., 1, 0] = hv * np.exp(1j * phases[..., 2])
    out[..., 1, 1] = hh * np.exp(1j * phases[..., 3])
    return out
