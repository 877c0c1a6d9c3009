"""Per-hop cluster generation following the TR 38.901 sec 7.5 procedure.

Each hop of a drop gets an independent set of delay-sorted clusters with
per-ray departure/arrival angles, cross-polarization ratios, and initial
phases. Condition weighting (the specular/diffuse power split) is *not*
baked into the stored cluster powers: powers always sum to one over the
diffuse clusters, and the Rician split is applied later through the
condition prefactors of the concatenation stage. The LOS K-factor still
shapes delays and angles here exactly as the standard prescribes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .geometry import DirectionAngles, angles_between
from .largescale import LOS, ConditionParams, HopLink
from .seeds import RandomStreams

# Ray offset angles alpha_m (TR 38.901 Table 7.5-3), unit spread, in
# +/- interleaved order.
_BASE_OFFSETS = (0.0447, 0.1413, 0.2492, 0.3715, 0.5129,
                 0.6797, 0.8844, 1.1481, 1.5195, 2.1551)
RAY_OFFSETS = np.array(
    [s * v for v in _BASE_OFFSETS for s in (1.0, -1.0)]
)

# Sub-cluster partition of the two strongest clusters (TR 38.901 sec 7.5
# step 11): ray index groups and their extra delays in units of c_DS.
_SUBCLUSTER_GROUPS = (
    (np.array([0, 1, 2, 3, 4, 5, 6, 7, 18, 19]), 0.0),
    (np.array([8, 9, 10, 11, 16, 17]), 1.28),
    (np.array([12, 13, 14, 15]), 2.56),
)

AZIMUTH_SPREAD_CAP_DEG = 104.0
ZENITH_SPREAD_CAP_DEG = 52.0


@dataclass
class SubLinkClusters:
    """Clusters and rays of one hop.

    Angle arrays have shape (clusters, rays) and are in radians; delays are
    relative seconds (global minimum 0 unless absolute delays were enabled).
    cluster_powers are linear and sum to one. phases holds the four initial
    phases (theta-theta, theta-phi, phi-theta, phi-phi) per ray. The LOS ray
    fields are populated only when the hop condition is LOS.
    """

    hop: HopLink
    params: ConditionParams
    cluster_delays: np.ndarray
    cluster_powers: np.ndarray
    ray_delays: np.ndarray
    aod: np.ndarray
    zod: np.ndarray
    aoa: np.ndarray
    zoa: np.ndarray
    xpr: np.ndarray
    phases: np.ndarray
    has_los: bool = False
    los_delay: float = 0.0
    los_departure: DirectionAngles | None = None
    los_arrival: DirectionAngles | None = None

    @property
    def num_clusters(self) -> int:
        return int(self.cluster_delays.shape[0])

    @property
    def rays_per_cluster(self) -> int:
        return int(self.aod.shape[1])


def _wrap_azimuth_deg(phi):
    """Wrap degrees into (-180, 180]."""
    w = np.mod(phi, 360.0)
    return np.where(w > 180.0, w - 360.0, w)


def _fold_zenith_deg(theta):
    """Fold degrees into [0, 180] (reflection at the poles)."""
    w = np.mod(theta, 360.0)
    return np.where(w > 180.0, 360.0 - w, w)


def _k_db(k_factor: float) -> float:
    return 10.0 * math.log10(k_factor) if k_factor > 0 else -math.inf

def _los_azimuth_scale(k_db: float) -> float:
    return 1.1035 - 0.028 * k_db - 0.002 * k_db ** 2 + 0.0001 * k_db ** 3


def _los_zenith_scale(k_db: float) -> float:
    return 1.3086 + 0.0339 * k_db - 0.0077 * k_db ** 2 + 0.0002 * k_db ** 3


def _los_delay_scale(k_db: float) -> float:
    return 0.7705 - 0.0433 * k_db + 0.0002 * k_db ** 2 + 0.000017 * k_db ** 3


def _cluster_azimuths(
    spread_deg, p_ratio_log, scale, mean_deg, is_los, rng
):
    """Inverse-Gaussian azimuth draw per cluster (TR 38.901 eq 7.5-9..7.5-12)."""
    n = p_ratio_log.shape[0]
    phi_prime = 2.0 * (spread_deg / 1.4) * np.sqrt(p_ratio_log) / scale
    x = rng.integers(0, 2, size=n) * 2.0 - 1.0
    y = rng.standard_normal(n) * (spread_deg / 7.0)
    if is_los:
        return x * phi_prime + y - (x[0] * phi_prime[0] + y[0] - mean_deg)
    return x * phi_prime + y + mean_deg


def _cluster_zeniths(
    spread_deg, p_ratio_log, scale, mean_deg, offset_deg, is_los, rng
):
    """Inverse-Laplacian zenith draw per cluster (TR 38.901 eq 7.5-14..7.5-19)."""
    n = p_ratio_log.shape[0]
    theta_prime = spread_deg * p_ratio_log / scale
    x = rng.integers(0, 2, size=n) * 2.0 - 1.0
    y = rng.standard_normal(n) * (spread_deg / 7.0)
    if is_los:
        return x * theta_prime + y - (x[0] * theta_prime[0] + y[0] - mean_deg)
    return x * theta_prime + y + mean_deg + offset_deg


def _row_shuffle(rng, arr):
    """Independently permute each row (random ray coupling within a cluster)."""
    keys = rng.random(arr.shape)
    order = np.argsort(keys, axis=1)
    return np.take_along_axis(arr, order, axis=1)


def generate_sublink(
    hop: HopLink,
    params: ConditionParams,
    streams: RandomStreams,
    split_strongest: bool = False,
    absolute_delay: bool = False,
) -> SubLinkClusters:
    """Generate the cluster/ray structure of one hop.

    Follows the standard step order: large-scale spread draws, exponential
    delay draw with LOS delay rescaling, per-cluster power with shadowing,
    cluster angle means (inverse Gaussian in azimuth, inverse Laplacian in
    zenith, LOS first-cluster alignment), fixed ray offset fan-out, random
    ray coupling, per-ray XPR and initial phases.
    """
    n = params.num_clusters
    m = params.rays_per_cluster
    if n < 1:
        raise ConfigError("cluster count must be >= 1")
    if not (1 <= m <= RAY_OFFSETS.shape[0]):
        raise ConfigError(
            f"rays per cluster must be in [1, {RAY_OFFSETS.shape[0]}], got {m}"
        )
    is_los = hop.condition == LOS
    k_lin = hop.k_factor if is_los else 0.0
    k_db = _k_db(k_lin) if k_lin > 0 else 0.0

    rng_lsp = streams.stream("lsp")
    ds = 10.0 ** (params.lg_ds_mean + params.lg_ds_std * rng_lsp.standard_normal())
    asd = 10.0 ** (params.lg_asd_mean + params.lg_asd_std * rng_lsp.standard_normal())
    asa = 10.0 ** (params.lg_asa_mean + params.lg_asa_std * rng_lsp.standard_normal())
    zsa = 10.0 ** (params.lg_zsa_mean + params.lg_zsa_std * rng_lsp.standard_normal())
    zsd = 10.0 ** (params.lg_zsd_mean + params.lg_zsd_std * rng_lsp.standard_normal())
    asd = min(asd, AZIMUTH_SPREAD_CAP_DEG)
    asa = min(asa, AZIMUTH_SPREAD_CAP_DEG)
    zsa = min(zsa, ZENITH_SPREAD_CAP_DEG)
    zsd = min(zsd, ZENITH_SPREAD_CAP_DEG)

    # Cluster delays: exponential draw, shifted to zero minimum, ascending.
    r_tau = params.delay_scaling
    u = streams.stream("delays").random(n)
    u = np.clip(u, 1e-300, None)
    tau = -r_tau * ds * np.log(u)
    tau = np.sort(tau - tau.min())

    # Cluster powers from the unscaled delays, with per-cluster shadowing.
    zeta = params.cluster_shadowing_std_db
    shadow = streams.stream("powers").standard_normal(n) * zeta
    powers = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-shadow / 10.0)
    powers = powers / powers.sum()

    # Delay rescaling for LOS hops; applied to the reported delays only,
    # after the power draw (the standard excludes it from power generation).
    if is_los and k_lin > 0:
        tau_out = tau / _los_delay_scale(k_db)
    else:
        tau_out = tau

    # Power ratios for angle generation include the specular component.
    if is_los:
        p_angle = powers / (1.0 + k_lin)
        p_angle = p_angle.copy()
        p_angle[0] += k_lin / (1.0 + k_lin)
    else:
        p_angle = powers
    p_ratio_log = -np.log(p_angle / p_angle.max())

    los_departure = angles_between(hop.from_node.position_m, hop.to_node.position_m)
    los_arrival = angles_between(hop.to_node.position_m, hop.from_node.position_m)
    dep_z_deg, dep_a_deg = np.degrees(los_departure.zenith), np.degrees(los_departure.azimuth)
    arr_z_deg, arr_a_deg = np.degrees(los_arrival.zenith), np.degrees(los_arrival.azimuth)

    c_phi = params.azimuth_scale * (_los_azimuth_scale(k_db) if is_los else 1.0)
    c_theta = params.zenith_scale * (_los_zenith_scale(k_db) if is_los else 1.0)

    rng_az = streams.stream("angles_azimuth")
    phi_aoa = _cluster_azimuths(asa, p_ratio_log, c_phi, arr_a_deg, is_los, rng_az)
    phi_aod = _cluster_azimuths(asd, p_ratio_log, c_phi, dep_a_deg, is_los, rng_az)
    rng_ze = streams.stream("angles_zenith")
    theta_zoa = _cluster_zeniths(
        zsa, p_ratio_log, c_theta, arr_z_deg, 0.0, is_los, rng_ze
    )
    theta_zod = _cluster_zeniths(
        zsd, p_ratio_log, c_theta, dep_z_deg,
        0.0 if is_los else params.zod_offset_deg, is_los, rng_ze,
    )

    # Ray fan-out around each cluster mean with fixed offsets.
    offs = RAY_OFFSETS[:m]
    aoa_deg = phi_aoa[:, None] + params.c_asa_deg * offs[None, :]
    aod_deg = phi_aod[:, None] + params.c_asd_deg * offs[None, :]
    zoa_deg = theta_zoa[:, None] + params.c_zsa_deg * offs[None, :]
    # Ray zenith spread at departure scales with the table's mean ZSD.
    c_zsd = (3.0 / 8.0) * 10.0 ** params.lg_zsd_mean
    zod_deg = theta_zod[:, None] + c_zsd * offs[None, :]

    # Random coupling of ray angles within each cluster.
    rng_cpl = streams.stream("coupling")
    aoa_deg = _row_shuffle(rng_cpl, aoa_deg)
    zoa_deg = _row_shuffle(rng_cpl, zoa_deg)
    zod_deg = _row_shuffle(rng_cpl, zod_deg)

    aod = np.radians(_wrap_azimuth_deg(aod_deg))
    aoa = np.radians(_wrap_azimuth_deg(aoa_deg))
    zod = np.radians(_fold_zenith_deg(zod_deg))
    zoa = np.radians(_fold_zenith_deg(zoa_deg))

    xpr_db = (
        params.xpr_mean_db
        + params.xpr_std_db * streams.stream("xpr").standard_normal((n, m))
    )
    xpr = 10.0 ** (xpr_db / 10.0)
    # Initial phases uniform on (-pi, pi].
    phases = np.pi - streams.stream("phases").random((n, m, 4)) * (2.0 * np.pi)

    ray_delays = np.broadcast_to(tau_out[:, None], (n, m)).copy()
    if split_strongest:
        if m != RAY_OFFSETS.shape[0]:
            raise ConfigError(
                "sub-cluster delay split requires the full 20-ray layout"
            )
        c_ds_s = params.c_ds_ns * 1e-9
        strongest = np.argsort(powers)[::-1][:2]
        for rays, mult in _SUBCLUSTER_GROUPS[1:]:
            for ci in strongest:
                ray_delays[ci, rays] = tau_out[ci] + mult * c_ds_s

    los_delay = 0.0
    if absolute_delay:
        # Geometric propagation delay; the standardized NLOS excess-delay
        # model (TR 38.901 sec 7.6.9) is not applied on top.
        base = hop.d3d_m / SPEED_OF_LIGHT
        ray_delays = ray_delays + base
        tau_out = tau_out + base
        los_delay = base

    return SubLinkClusters(
        hop=hop,
        params=params,
        cluster_delays=tau_out,
        cluster_powers=powers,
        ray_delays=ray_delays,
        aod=aod,
        zod=zod,
        aoa=aoa,
        zoa=zoa,
        xpr=xpr,
        phases=phases,
        has_los=is_los,
        los_delay=los_delay,
        los_departure=los_departure,
        los_arrival=los_arrival,
    )


def mono_static_reciprocal(sub: SubLinkClusters) -> SubLinkClusters:
    """Reverse a hop for mono-static sensing: swap departure and arrival.

    The returned sub-link reuses the same clusters, powers, XPR, and phases
    (channel reciprocity); only the direction bookkeeping is mirrored.
    Applying the operation twice returns an identical sub-link.
    """
    hop = replace(sub.hop, from_node=sub.hop.to_node, to_node=sub.hop.from_node)
    return replace(
        sub, hop=hop, aod=sub.aoa, zod=sub.zoa, aoa=sub.aod, zoa=sub.zod,
        los_departure=sub.los_arrival, los_arrival=sub.los_departure,
    )
