"""Geometry primitives: positions, direction angles, antenna arrays.

Conventions used throughout the package:

* Cartesian vectors are float64 arrays of shape (3,), in meters (or m/s).
* Zenith angle theta is measured from the +z axis, range [0, pi].
* Azimuth angle phi is measured in the x-y plane from +x toward +y,
  range (-pi, pi].
* A propagation direction is the unit vector pointing from the observing
  node toward the far end of the ray (arrival directions point from the
  receiver toward where the wave comes from).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ISOTROPIC = "isotropic"
SECTORIZED_38901 = "sectorized-38901"
PATTERNS = (ISOTROPIC, SECTORIZED_38901)


def vec3(x, y=None, z=None) -> np.ndarray:
    """Build a float64 3-vector from components or any length-3 sequence."""
    if y is None:
        v = np.asarray(x, dtype=float)
    else:
        v = np.array([x, y, z], dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass
class DirectionAngles:
    """Zenith/azimuth pair in radians; fields may be scalars or equal-shape arrays."""

    zenith: np.ndarray
    azimuth: np.ndarray

    def __post_init__(self):
        self.zenith = np.asarray(self.zenith, dtype=float)
        self.azimuth = np.asarray(self.azimuth, dtype=float)


def spherical_unit_vector(angles: DirectionAngles) -> np.ndarray:
    """Unit vector(s) [sin(th)cos(ph), sin(th)sin(ph), cos(th)], shape (..., 3)."""
    st = np.sin(angles.zenith)
    return np.stack(
        [st * np.cos(angles.azimuth), st * np.sin(angles.azimuth), np.cos(angles.zenith)],
        axis=-1,
    )


def angles_between(from_pos: np.ndarray, to_pos: np.ndarray) -> DirectionAngles:
    """Direction angles of the line of sight from ``from_pos`` toward ``to_pos``."""
    d = np.asarray(to_pos, dtype=float) - np.asarray(from_pos, dtype=float)
    r = float(np.linalg.norm(d))
    if r == 0.0 or not np.isfinite(r):
        raise ValueError("degenerate geometry: coincident or non-finite positions")
    zenith = float(np.arccos(np.clip(d[2] / r, -1.0, 1.0)))
    azimuth = float(np.arctan2(d[1], d[0]))
    return DirectionAngles(zenith=zenith, azimuth=azimuth)


def uniform_linear_array(count: int, spacing_m: float) -> np.ndarray:
    """(count, 3) element offsets of a ULA centered along y, broadside toward +x."""
    if count < 1:
        raise ValueError("element count must be >= 1")
    offsets = np.zeros((count, 3))
    offsets[:, 1] = (np.arange(count) - (count - 1) / 2.0) * spacing_m
    return offsets


@dataclass
class NodeState:
    """Kinematic state of a terminal: position, velocity, and its antenna array.

    The array is its (E, 3) element offsets in the global frame. All elements
    share the pattern, looked up at the global angles (each faces +x), and
    slant_deg, which splits the gain onto theta/phi.
    """

    position_m: np.ndarray
    velocity_mps: np.ndarray = field(default_factory=lambda: np.zeros(3))
    element_offsets_m: np.ndarray = field(default_factory=lambda: np.zeros((1, 3)))
    pattern: str = ISOTROPIC
    slant_deg: float = 0.0

    def __post_init__(self):
        self.position_m = vec3(self.position_m)
        self.velocity_mps = vec3(self.velocity_mps)
        offsets = self.element_offsets_m = np.asarray(self.element_offsets_m, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != 3 or not len(offsets):
            raise ValueError("a node needs at least one antenna element, as (E, 3) "
                             f"offsets; got shape {offsets.shape}")
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown antenna pattern {self.pattern!r}; supported: {PATTERNS}"
            )


def _pattern_gain_db(pattern: str, zenith, azimuth):
    """Element power pattern in dB at the given angles (radians)."""
    if pattern == ISOTROPIC:
        return np.zeros(np.broadcast(zenith, azimuth).shape)
    # Single-element pattern of TR 38.901 Table 7.3-1: 65 deg HPBW in both
    # cuts, 30 dB side limits, 8 dBi peak.
    theta_deg = np.degrees(zenith)
    phi_deg = np.degrees(azimuth)
    a_v = -np.minimum(12.0 * ((theta_deg - 90.0) / 65.0) ** 2, 30.0)
    a_h = -np.minimum(12.0 * (phi_deg / 65.0) ** 2, 30.0)
    return 8.0 - np.minimum(-(a_v + a_h), 30.0)


def field_components(node: NodeState, direction: DirectionAngles):
    """Complex field components (F_theta, F_phi) of each of the node's
    elements toward ``direction``, shaped like the direction's angles.

    The amplitude sqrt of the power pattern is split onto the two
    polarization axes by the slant angle (cos onto theta, sin onto phi).
    """
    gain_db = _pattern_gain_db(node.pattern, direction.zenith, direction.azimuth)
    amp = 10.0 ** (gain_db / 20.0)
    slant = np.radians(node.slant_deg)
    f_theta = amp * np.cos(slant) + 0.0j
    f_phi = amp * np.sin(slant) + 0.0j
    return f_theta, f_phi
