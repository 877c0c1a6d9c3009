"""Large-scale propagation: scenario tables, path loss, K-factor, shadowing.

A sensing link is modeled as two concatenated hops (transmitter to target,
target to receiver) plus an optional direct background hop. hop_spec
resolves what a hop's geometry fixes for a run (distances, LOS probability,
path loss per condition); build_hop draws what varies per drop but not per
cluster (condition, Rician K-factor, log-normal shadowing). The two-hop
sensing budget adds the mean radar cross section.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .geometry import NodeState
from .reader import data_lines, read_text, split_entry

if TYPE_CHECKING:  # loading the config needs no random streams
    from .seeds import RandomStreams

LOS = "LOS"
NLOS = "NLOS"
CONDITIONS = (LOS, NLOS)

SUPPORTED_SCENARIOS = ("UMi",)
COUPLING_MODES = ("added", "embedded")

_DEFAULT_TABLE = "umi_38901.tbl"


@dataclass
class ConditionParams:
    """Per-(scenario, condition) cluster statistics, materialized at one frequency.

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


@dataclass
class ScenarioParams:
    """All condition tables of one scenario at one carrier frequency."""

    name: str
    frequency_hz: float
    conditions: dict

    @classmethod
    def from_table(cls, name: str, frequency_hz: float, path=None) -> "ScenarioParams":
        """Load the bundled (or user-supplied) parameter table for a scenario."""
        if frequency_hz <= 0:
            raise ConfigError(f"carrier frequency must be positive, got {frequency_hz}")
        if path is None:
            path = resources.files("isacsim.data").joinpath(_DEFAULT_TABLE)
        sections = _parse_table(read_text(path))
        conditions = {}
        for (scen, cond), entries in sections.items():
            if scen != name:
                continue
            conditions[cond] = _materialize(cond, entries, frequency_hz)
        if not conditions:
            raise ConfigError(f"scenario {name!r} not found in parameter table")
        return cls(name=name, frequency_hz=float(frequency_hz), conditions=conditions)

    def condition_params(self, condition: str) -> ConditionParams:
        try:
            return self.conditions[condition]
        except KeyError:
            raise ConfigError(
                f"no parameters for condition {condition!r} in scenario {self.name!r}"
            ) from None


def _parse_table(text: str) -> dict:
    """Parse the sectioned key = value table into {(scenario, condition): {key: law}}."""
    sections: dict = {}
    current = None
    for ln, line in data_lines(text):
        where = f"parameter table line {ln}"
        if line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[1] not in CONDITIONS:
                raise ConfigError(f"{where}: section header must be "
                                  f"'[<scenario> <LOS|NLOS>]', got {line!r}")
            current = (parts[0], parts[1])
            if current in sections:
                raise ConfigError(f"{where}: duplicate section {line!r}")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"{where}: entry before any section")
        key, value = split_entry(line, where, sections[current])
        try:
            floats = [float(v) for v in value.split()]
        except ValueError:
            raise ConfigError(f"{where}: non-numeric value for {key!r}") from None
        if len(floats) not in (1, 2):
            raise ConfigError(f"{where}: expected 1 or 2 numbers, got {len(floats)}")
        sections[current][key] = (0.0, *floats)[-2:]  # (a, b); a bare b has a = 0
    return sections


def _materialize(condition: str, entries: dict, frequency_hz: float) -> ConditionParams:
    """Evaluate frequency laws a*log10(1 + f_GHz) + b into plain numbers."""
    f_ghz = frequency_hz / 1e9
    lg = math.log10(1.0 + f_ghz)
    values = {}
    for key, (a, b) in entries.items():
        v = a * lg + b
        values[key] = int(round(v)) if key in _INT_KEYS else v
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(
            f"parameter table section for condition {condition!r} is missing {missing}"
        )
    unknown = [
        k for k in values
        if k not in _REQUIRED_KEYS and k not in _OPTIONAL_KEYS
    ]
    if unknown:
        raise ConfigError(f"parameter table has unknown keys {unknown}")
    return ConditionParams(condition=condition, **values)


def _scenario_name(scenario) -> str:
    return scenario.name if isinstance(scenario, ScenarioParams) else str(scenario)


def los_probability(scenario, d2d_m: float) -> float:
    """Line-of-sight probability at 2-D distance d2d_m (TR 38.901 Table 7.4.2-1)."""
    name = _scenario_name(scenario)
    if d2d_m < 0 or not math.isfinite(d2d_m):
        raise ConfigError(f"2-D distance must be finite and >= 0, got {d2d_m}")
    if name == "UMi":
        if d2d_m <= 18.0:
            return 1.0
        return 18.0 / d2d_m + math.exp(-d2d_m / 36.0) * (1.0 - 18.0 / d2d_m)
    raise ConfigError(f"unsupported scenario {name!r}; supported: {SUPPORTED_SCENARIOS}")


def hop_path_loss(
    scenario,
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
    name = _scenario_name(scenario)
    if name not in SUPPORTED_SCENARIOS:
        raise ConfigError(
            f"unsupported scenario {name!r}; supported: {SUPPORTED_SCENARIOS}"
        )
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
    c: float = SPEED_OF_LIGHT,
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
    aperture_db = 10.0 * math.log10(c ** 2 / (4.0 * math.pi * frequency_hz ** 2))
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


def draw_k_factor(params: ConditionParams, rng: np.random.Generator) -> float:
    """Linear Rician K-factor draw; conditions without a specular component give 0."""
    if params.k_mean_db is None:
        return 0.0
    std = params.k_std_db or 0.0
    k_db = params.k_mean_db + std * float(rng.standard_normal())
    return 10.0 ** (k_db / 10.0)


def draw_shadow_fading(params: ConditionParams, rng: np.random.Generator) -> float:
    """Zero-mean log-normal shadow fading draw, in dB."""
    return params.sf_std_db * float(rng.standard_normal())


@dataclass
class HopLink:
    """One resolved hop: endpoints, condition, and its large-scale draws."""

    from_node: NodeState
    to_node: NodeState
    condition: str
    d2d_m: float
    d3d_m: float
    path_loss_db: float
    k_factor: float
    shadow_fading_db: float


@dataclass(frozen=True)
class HopSpec:
    """The part of a hop fixed for a whole run: its endpoints, distances,
    LOS probability and the path loss of each condition it can take."""

    from_node: NodeState
    to_node: NodeState
    d2d_m: float
    d3d_m: float
    p_los: float
    path_loss_db: dict  # condition -> dB, one entry per reachable condition


def hop_spec(from_node: NodeState, to_node: NodeState, scenario: ScenarioParams,
             condition: str = "auto") -> HopSpec:
    """Resolve a hop once per run: distances, LOS probability (1 or 0 for a
    forced condition) and path loss per reachable condition. Refuses
    coincident endpoints, a 3-D distance the path-loss model does not cover
    and a scenario without LOS probability or path loss."""
    delta = to_node.position_m - from_node.position_m
    d3d = float(np.linalg.norm(delta))
    if d3d == 0.0:
        raise ConfigError("degenerate geometry: hop endpoints coincide")
    d2d = float(np.hypot(delta[0], delta[1]))
    if condition == "auto":
        p_los = los_probability(scenario, d2d)
    elif condition in CONDITIONS:
        p_los = 1.0 if condition == LOS else 0.0
    else:
        raise ConfigError(f"condition must be LOS, NLOS or auto, got {condition!r}")
    path_loss = {
        cond: hop_path_loss(scenario, cond, d3d, scenario.frequency_hz, d2d_m=d2d,
                            h_bs_m=float(from_node.position_m[2]),
                            h_ut_m=float(to_node.position_m[2]))
        for cond, reachable in ((LOS, p_los > 0.0), (NLOS, p_los < 1.0)) if reachable
    }
    return HopSpec(from_node, to_node, d2d, d3d, p_los, path_loss)


def build_hop(spec: HopSpec, scenario: ScenarioParams, streams: RandomStreams) -> HopLink:
    """Draw one drop's hop: its condition, K-factor and shadow fading.

    The condition draw compares a uniform variate against the hop's LOS
    probability; a forced hop draws it too, so forced and drawn runs stay
    stream-compatible. The K-factor is drawn under LOS only.
    """
    condition = LOS if float(streams.stream("condition").random()) < spec.p_los else NLOS
    params = scenario.condition_params(condition)
    k = draw_k_factor(params, streams.stream("k_factor")) if condition == LOS else 0.0
    sf = draw_shadow_fading(params, streams.stream("shadow"))
    return HopLink(spec.from_node, spec.to_node, condition, spec.d2d_m, spec.d3d_m,
                   spec.path_loss_db[condition], k, sf)
