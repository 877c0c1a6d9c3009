"""Large-scale propagation: the UMi table, path loss, per-hop parameters.

The one scenario is TR 38.901 UMi street canyon: its LOS probability,
path loss and parameter table. A sensing link is modeled as two
concatenated hops (transmitter to target, target to receiver) plus an
optional direct background hop. hop_spec resolves what a hop's geometry
fixes for a run (distance, LOS probability, path loss per condition, LOS
angles); build_hop draws the seven parameters that vary per drop but not
per cluster (condition, Rician K-factor, shadow fading, delay and angle
spreads). The two-hop budget adds the mean RCS.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericError
from .geometry import DirectionAngles, NodeState, angles_between
from .reader import data_lines, numbers, read_text, split_entry

if TYPE_CHECKING:  # loading the config needs no random streams
    from .seeds import RandomStreams

LOS = "LOS"
NLOS = "NLOS"
CONDITIONS = (LOS, NLOS)

COUPLING_MODES = ("added", "embedded")

_DEFAULT_TABLE = "umi_38901.tbl"

AZIMUTH_SPREAD_CAP_DEG = 104.0
ZENITH_SPREAD_CAP_DEG = 52.0
# each spread a hop draws, in draw order, and its cap (TR 38.901 sec 7.5 step 4)
SPREAD_CAPS = {"ds": math.inf, "asd": AZIMUTH_SPREAD_CAP_DEG, "asa": AZIMUTH_SPREAD_CAP_DEG,
               "zsa": ZENITH_SPREAD_CAP_DEG, "zsd": ZENITH_SPREAD_CAP_DEG}


@dataclass
class ConditionParams:
    """Per-condition cluster statistics, materialized at one frequency.

    lg_* fields are mean/std of base-10 logs (delay spread in log10-seconds,
    angle spreads in log10-degrees). c_* fields are per-cluster ray spreads.
    k_mean_db/k_std_db are None when the condition has no specular component.
    """

    condition: str
    lg_ds_mean: float
    lg_ds_std: float
    lg_asd_mean: float
    lg_asd_std: float
    lg_asa_mean: float
    lg_asa_std: float
    lg_zsa_mean: float
    lg_zsa_std: float
    lg_zsd_mean: float
    lg_zsd_std: float
    zod_offset_deg: float
    sf_std_db: float
    delay_scaling: float
    xpr_mean_db: float
    xpr_std_db: float
    num_clusters: int
    rays_per_cluster: int
    cluster_shadowing_std_db: float
    c_ds_ns: float
    c_asd_deg: float
    c_asa_deg: float
    c_zsa_deg: float
    azimuth_scale: float
    zenith_scale: float
    k_mean_db: float | None = None
    k_std_db: float | None = None


# Table keys are the ConditionParams fields other than the condition: a field
# without a default is required, and an int field is rounded after evaluation.
_TABLE_FIELDS = [f for f in fields(ConditionParams) if f.name != "condition"]
_REQUIRED_KEYS = tuple(f.name for f in _TABLE_FIELDS if f.default is MISSING)
_OPTIONAL_KEYS = {f.name for f in _TABLE_FIELDS if f.default is not MISSING}
_INT_KEYS = {f.name for f in _TABLE_FIELDS if f.type == "int"}
# the cluster kernel divides by these; zero or below leaves only NaN
_POSITIVE_KEYS = ("delay_scaling", "azimuth_scale", "zenith_scale")


@dataclass
class ScenarioParams:
    """The UMi condition tables at one carrier frequency."""

    frequency_hz: float
    conditions: dict

    @classmethod
    def from_table(cls, frequency_hz: float, path=None) -> "ScenarioParams":
        """Load the bundled (or a user-supplied) UMi parameter table."""
        if frequency_hz <= 0:
            raise ConfigError(f"carrier frequency must be positive, got {frequency_hz}")
        if path is None:
            path = resources.files("isacsim.data").joinpath(_DEFAULT_TABLE)
        conditions = {cond: _materialize(cond, entries, frequency_hz)
                      for cond, entries in _parse_table(read_text(path)).items()}
        return cls(frequency_hz=float(frequency_hz), conditions=conditions)

    def condition_params(self, condition: str) -> ConditionParams:
        try:
            return self.conditions[condition]
        except KeyError:
            raise ConfigError(f"no parameters for condition {condition!r}: the parameter "
                              f"table has no [UMi {condition}] section") from None


def _parse_table(text: str) -> dict:
    """Parse the sectioned key = value table into {condition: {key: law}}."""
    sections: dict = {}
    current = None
    for ln, line in data_lines(text):
        where = f"parameter table line {ln}"
        if line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != "UMi" or parts[1] not in CONDITIONS:
                raise ConfigError(f"{where}: section header must be "
                                  f"'[UMi <LOS|NLOS>]', got {line!r}")
            current = parts[1]
            if current in sections:
                raise ConfigError(f"{where}: duplicate section {line!r}")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"{where}: entry before any section")
        key, value = split_entry(line, where, sections[current])
        floats = numbers(value, f"{where}: {key}")
        if len(floats) not in (1, 2):
            raise ConfigError(f"{where}: expected 1 or 2 numbers, got {len(floats)}")
        sections[current][key] = (0.0, *floats)[-2:]  # (a, b); a bare b has a = 0
    return sections


def _materialize(condition: str, entries: dict, frequency_hz: float) -> ConditionParams:
    """Evaluate frequency laws a*log10(1 + f_GHz) + b into plain numbers."""
    # below 2 GHz, at 2 GHz (TR 38.901 Table 7.5-6 Part-1, note 7)
    f_ghz = max(frequency_hz, 2e9) / 1e9
    lg = math.log10(1.0 + f_ghz)
    section = f"parameter table section [UMi {condition}]"
    values = {}
    for key, (a, b) in entries.items():
        v = a * lg + b
        if not math.isfinite(v):  # finite a and b, but a law past the largest float
            raise ConfigError(f"{section}: {key} is not finite at {f_ghz:g} GHz")
        values[key] = int(round(v)) if key in _INT_KEYS else v
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{section} is missing {missing}")
    unknown = [
        k for k in values
        if k not in _REQUIRED_KEYS and k not in _OPTIONAL_KEYS
    ]
    if unknown:
        raise ConfigError(f"parameter table has unknown keys {unknown}")
    for key in _POSITIVE_KEYS:
        if not values[key] > 0:  # NaN too
            raise ConfigError(f"{section}: {key} must be positive at {f_ghz:g} GHz, "
                              f"got {values[key]}")
    return ConditionParams(condition=condition, **values)


def los_probability(d2d_m: float) -> float:
    """UMi line-of-sight probability at 2-D distance d2d_m (TR 38.901 Table 7.4.2-1)."""
    if d2d_m < 0 or not math.isfinite(d2d_m):
        raise ConfigError(f"2-D distance must be finite and >= 0, got {d2d_m}")
    if d2d_m <= 18.0:
        return 1.0
    return 18.0 / d2d_m + math.exp(-d2d_m / 36.0) * (1.0 - 18.0 / d2d_m)


def hop_path_loss(
    condition: str,
    d3d_m: float,
    frequency_hz: float,
    d2d_m: float | None = None,
    h_bs_m: float = 10.0,
    h_ut_m: float = 1.5,
) -> float:
    """Single-hop path loss in dB (TR 38.901 Table 7.4.1-1, UMi street canyon).

    d2d_m defaults to d3d_m for the breakpoint branch when the caller has no
    separate ground distance. The NLOS value is lower-bounded by the LOS
    value at the same geometry, as the standard's max() requires.
    """
    if condition not in CONDITIONS:
        raise ConfigError(f"condition must be LOS or NLOS, got {condition!r}")
    if not (0.0 < d3d_m <= 5000.0):
        raise ConfigError(f"3-D distance {d3d_m} m outside the supported range (0, 5000] m")
    if frequency_hz <= 0:
        raise ConfigError(f"carrier frequency must be positive, got {frequency_hz}")
    f_ghz = frequency_hz / 1e9
    if d2d_m is None:
        d2d_m = d3d_m

    # Breakpoint distance with effective antenna heights (environment height 1 m).
    h_bs_eff = h_bs_m - 1.0
    h_ut_eff = h_ut_m - 1.0
    d_bp = 4.0 * h_bs_eff * h_ut_eff * frequency_hz / SPEED_OF_LIGHT

    pl1 = 32.4 + 21.0 * math.log10(d3d_m) + 20.0 * math.log10(f_ghz)
    if d_bp > 0 and d2d_m > d_bp:
        pl_los = (
            32.4
            + 40.0 * math.log10(d3d_m)
            + 20.0 * math.log10(f_ghz)
            - 9.5 * math.log10(d_bp ** 2 + (h_bs_m - h_ut_m) ** 2)
        )
    else:
        pl_los = pl1
    if condition == LOS:
        return pl_los
    pl_nlos = (
        22.4
        + 35.3 * math.log10(d3d_m)
        + 21.3 * math.log10(f_ghz)
        - 0.3 * (h_ut_m - 1.5)
    )
    return max(pl_los, pl_nlos)


def concatenated_path_loss(
    pl1_db: float,
    pl2_db: float,
    frequency_hz: float,
    mean_rcs_m2: float,
) -> float:
    """Two-hop sensing path loss in dB.

    Adds the hop losses, the re-radiation aperture constant
    10*log10(c^2 / (4*pi*f^2)), and subtracts the mean radar cross section
    10*log10(mean_rcs_m2). At 6 GHz with a 1 m^2 mean RCS the aperture
    constant is -37.013 dB.
    """
    if frequency_hz <= 0:
        raise ConfigError(f"carrier frequency must be positive, got {frequency_hz}")
    if mean_rcs_m2 <= 0:
        raise ConfigError(f"mean RCS must be positive, got {mean_rcs_m2}")
    if not (math.isfinite(pl1_db) and math.isfinite(pl2_db)):
        raise ConfigError("hop path losses must be finite")
    aperture_db = 10.0 * math.log10(SPEED_OF_LIGHT ** 2 / (4.0 * math.pi * frequency_hz ** 2))
    return pl1_db + pl2_db + aperture_db - 10.0 * math.log10(mean_rcs_m2)


@dataclass
class CouplingConfig:
    """How the sensing (target) and background channels are combined.

    o_isac weights the background contribution. In 'added' mode target and
    background coexist and the factor scales the background; in 'embedded'
    mode the background stands in for clutter already containing the target
    environment, and the weakest removal_fraction of its paths is dropped.
    """

    o_isac: float = 1.0
    mode: str = "added"
    removal_fraction: float = 0.0

    def __post_init__(self):
        if self.o_isac < 0 or not math.isfinite(self.o_isac):
            raise ConfigError(f"coupling factor must be >= 0, got {self.o_isac}")
        if self.mode not in COUPLING_MODES:
            raise ConfigError(
                f"coupling mode must be one of {COUPLING_MODES}, got {self.mode!r}"
            )
        if not (0.0 <= self.removal_fraction < 1.0):
            raise ConfigError(
                f"removal fraction must be in [0, 1), got {self.removal_fraction}"
            )


def combine_isac_path_loss(
    target_pl_db: float, background_pl_db: float, coupling: CouplingConfig
) -> float:
    """Combined sensing path loss in dB; the terms add on a linear scale.

    'added' mode: linear(target) + o_isac * linear(background).
    'embedded' mode: o_isac * linear(background) only.
    """
    if not (math.isfinite(target_pl_db) and math.isfinite(background_pl_db)):
        raise ConfigError("path losses must be finite")
    lin_t = 10.0 ** (target_pl_db / 10.0)
    lin_b = 10.0 ** (background_pl_db / 10.0)
    if coupling.mode == "embedded":
        lin = coupling.o_isac * lin_b
        if lin <= 0:
            raise ConfigError("embedded coupling with zero factor leaves no channel")
    else:
        lin = lin_t + coupling.o_isac * lin_b
    return 10.0 * math.log10(lin)


@dataclass(frozen=True)
class HopSpec:
    """The part of a hop fixed for a whole run: endpoints, 3-D distance, LOS
    probability, path loss of each reachable condition and LOS angles."""

    from_node: NodeState
    to_node: NodeState
    d3d_m: float
    p_los: float
    path_loss_db: dict  # condition -> dB, one entry per reachable condition
    departure: DirectionAngles  # at from_node, toward to_node
    arrival: DirectionAngles  # at to_node, toward from_node


@dataclass
class HopLink:
    """One drop's draw of a hop: its condition and large-scale parameters."""

    spec: HopSpec
    condition: str
    k_factor: float  # linear; 0 under NLOS
    shadow_fading_db: float
    spreads: dict  # ds (s), asd, asa, zsa, zsd (deg), each at most its cap

    @property
    def path_loss_db(self) -> float:
        return self.spec.path_loss_db[self.condition]


def hop_spec(from_node: NodeState, to_node: NodeState, scenario: ScenarioParams,
             condition: str = "auto") -> HopSpec:
    """Resolve a hop once per run: distances, LOS probability (1 or 0 for a
    forced condition), path loss per reachable condition and LOS angles.
    Refuses coincident endpoints and a 3-D distance the path-loss model
    does not cover."""
    delta = to_node.position_m - from_node.position_m
    d3d = float(np.linalg.norm(delta))
    if d3d == 0.0:
        raise ConfigError("degenerate geometry: hop endpoints coincide")
    d2d = float(np.hypot(delta[0], delta[1]))
    if condition == "auto":
        p_los = los_probability(d2d)
    elif condition in CONDITIONS:
        p_los = 1.0 if condition == LOS else 0.0
    else:
        raise ConfigError(f"condition must be LOS, NLOS or auto, got {condition!r}")
    path_loss = {
        cond: hop_path_loss(cond, d3d, scenario.frequency_hz, d2d_m=d2d,
                            h_bs_m=float(from_node.position_m[2]),
                            h_ut_m=float(to_node.position_m[2]))
        for cond, reachable in ((LOS, p_los > 0.0), (NLOS, p_los < 1.0)) if reachable
    }
    return HopSpec(from_node, to_node, d3d, p_los, path_loss,
                   angles_between(from_node.position_m, to_node.position_m),
                   angles_between(to_node.position_m, from_node.position_m))


def build_hop(spec: HopSpec, scenario: ScenarioParams, streams: RandomStreams) -> HopLink:
    """Draw one drop's hop: its seven large-scale parameters.

    The condition draw compares a uniform variate against the hop's LOS
    probability; a forced hop draws it too, so forced and drawn runs stay
    stream-compatible. The K-factor is drawn under LOS only (0 without a
    K law). The five spreads (TR 38.901 sec 7.5 step 4) follow the lg_*
    laws in the order of SPREAD_CAPS, each limited to its cap, as is a draw
    past the largest float; such a draw of K or the uncapped DS raises
    NumericError.
    """
    condition = LOS if float(streams.stream("condition").random()) < spec.p_los else NLOS
    params = scenario.condition_params(condition)
    k = 0.0
    if condition == LOS and params.k_mean_db is not None:
        z = float(streams.stream("k_factor").standard_normal())
        k = _power_of_ten((params.k_mean_db + (params.k_std_db or 0.0) * z) / 10.0,
                          math.inf, "[UMi LOS] K-factor")
    sf = params.sf_std_db * float(streams.stream("shadow").standard_normal())
    rng = streams.stream("lsp")
    spreads = {x: _power_of_ten(getattr(params, f"lg_{x}_mean")
                                + getattr(params, f"lg_{x}_std") * rng.standard_normal(),
                                cap, f"[UMi {condition}] lg_{x}")
               for x, cap in SPREAD_CAPS.items()}
    return HopLink(spec, condition, k, sf, spreads)


def _power_of_ten(exponent: float, cap: float, name: str) -> float:
    """min(10**exponent, cap), where a power past the largest float is the cap
    or, with no finite cap, a NumericError naming the drawn parameter."""
    try:
        return min(10.0 ** exponent, cap)
    except OverflowError:
        if cap == math.inf:
            raise NumericError(f"{name} draw 10^{exponent:.6g} overflows") from None
        return cap
