"""Per-hop cluster generation following the TR 38.901 sec 7.5 procedure.

Each hop of a drop gets one HopTable: an independent set of delay-sorted
clusters whose rays, with their departure/arrival angles, cross-polarization
ratios and initial phases, are flat table rows, plus the specular ray's row
under LOS; mono_static_reciprocal reverses a table. The hops of one
condition are generated together, each from its own streams. Condition
weighting (the specular/diffuse power split) is *not* baked into the row
weights: the squared diffuse weights always sum to one, and the Rician
split is applied later through the condition prefactors of the
concatenation stage.
The LOS K-factor still shapes delays and angles here exactly as the
standard prescribes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError
from .largescale import LOS, ConditionParams, HopLink

if TYPE_CHECKING:  # loading the config needs no random streams
    from collections.abc import Sequence

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


@dataclass
class HopTable:
    """One hop's rays as flat table rows.

    Row cluster*M + ray is diffuse ray `ray` of cluster `cluster`, weighted
    sqrt(P_cluster / M) by the normalized cluster powers; under LOS one more
    row, N*M, holds the specular ray (weight 1), so the hop is LOS exactly
    when the table has that row. Angles are radians:
    dep_* at the hop's from-node, arr_* at its to-node. Delays are seconds,
    relative (minimum 0) unless absolute delays were enabled. xpr and the
    four initial phases (theta-theta, theta-phi, phi-theta, phi-phi) are
    per diffuse row. Tables generated together are views of shared arrays,
    so none is modified in place.
    """

    hop: HopLink
    shape: tuple  # (clusters N, rays per cluster M)
    weight: np.ndarray
    delay: np.ndarray
    dep_zenith: np.ndarray
    dep_azimuth: np.ndarray
    arr_zenith: np.ndarray
    arr_azimuth: np.ndarray
    xpr: np.ndarray  # (N*M,)
    phases: np.ndarray  # (N*M, 4)

    @property
    def num_diffuse(self) -> int:
        """Number of diffuse rows, which is also the specular row's index."""
        return self.shape[0] * self.shape[1]

    @property
    def has_los(self) -> bool:
        return self.weight.size > self.num_diffuse


def _wrap_azimuth_deg(phi):
    """Wrap degrees into (-180, 180]."""
    w = np.mod(phi, 360.0)
    return np.where(w > 180.0, w - 360.0, w)


def _fold_zenith_deg(theta):
    """Fold degrees into [0, 180] (reflection at the poles)."""
    w = np.mod(theta, 360.0)
    return np.where(w > 180.0, 360.0 - w, w)


def _los_azimuth_scale(k_db: float) -> float:
    return 1.1035 - 0.028 * k_db - 0.002 * k_db ** 2 + 0.0001 * k_db ** 3


def _los_zenith_scale(k_db: float) -> float:
    return 1.3086 + 0.0339 * k_db - 0.0077 * k_db ** 2 + 0.0002 * k_db ** 3


def _los_delay_scale(k_db: float) -> float:
    return 0.7705 - 0.0433 * k_db + 0.0002 * k_db ** 2 + 0.000017 * k_db ** 3


def _cluster_angles(prime, spread_deg, mean_deg, is_los, x, y):
    """Cluster angle means of stacked hops from their per-cluster offsets
    ``prime``, sign draws x (0 or 1) and normal draws y: under LOS the first
    cluster is moved onto the LOS direction, under NLOS every cluster is
    placed around it."""
    x = x * 2.0 - 1.0
    y = y * (spread_deg / 7.0)
    if is_los:
        return x * prime + y - (x[:, :1] * prime[:, :1] + y[:, :1] - mean_deg)
    return x * prime + y + mean_deg


def _row_shuffle(keys, arr):
    """Permute each cluster's rays by its keys (random ray coupling)."""
    return np.take_along_axis(arr, np.argsort(keys, axis=-1), axis=-1)


def check_ray_layout(params: ConditionParams, split_strongest: bool) -> None:
    """Refuse a cluster/ray layout that generate_sublinks cannot build."""
    m = params.rays_per_cluster
    if params.num_clusters < 1:
        raise ConfigError("cluster count must be >= 1")
    if not (1 <= m <= RAY_OFFSETS.shape[0]):
        raise ConfigError(
            f"rays per cluster must be in [1, {RAY_OFFSETS.shape[0]}], got {m}"
        )
    if split_strongest and m != RAY_OFFSETS.shape[0]:
        raise ConfigError("sub-cluster delay split requires the full 20-ray layout")


def generate_sublinks(
    hops: Sequence[HopLink],
    params: ConditionParams,
    streams: Sequence[RandomStreams],
    split_strongest: bool = False,
    absolute_delay: bool = False,
) -> list[HopTable]:
    """Generate the cluster/ray tables of hops of the condition of ``params``.

    Follows the standard step order from the spreads build_hop drew:
    exponential delay draw with LOS delay rescaling, per-cluster power with
    shadowing, cluster angle means (inverse Gaussian in azimuth, inverse
    Laplacian in zenith, LOS first-cluster alignment), fixed ray offset
    fan-out, random ray coupling, per-ray XPR and initial phases.

    Hop i draws from streams[i] only, in the same order whatever the batch.
    Its scalars (the spreads, the K-dependent scales, the LOS angles) come
    from the hop alone; its cluster and ray arrays are row i of
    arrays stacked on a leading hop axis, and every sum, min, max, sort and
    argsort runs along the contiguous per-hop axis, so a hop's table has
    the same bits in any batch. The tables' columns are views of the
    stacked arrays.
    """
    check_ray_layout(params, split_strongest)
    if {hop.condition for hop in hops} - {params.condition}:
        raise ConfigError(f"the hops of one batch must share their condition with the "
                          f"{params.condition} parameters")
    if len(streams) != len(hops):
        raise ConfigError(f"{len(hops)} hops need as many stream factories, got {len(streams)}")
    h, n, m = len(hops), params.num_clusters, params.rays_per_cluster
    nm = n * m
    is_los = params.condition == LOS

    u, shadow = np.empty((2, h, n))
    signs = np.empty((4, h, n), np.int64)  # AOA, AOD, ZOA, ZOD
    normals = np.empty((4, h, n))
    keys = np.empty((3, h, n, m))  # AOA, ZOA, ZOD ray coupling
    xpr_draw = np.empty((h, nm))
    phases = np.empty((h, nm, 4))
    scalars = []
    for i, (hop, hop_streams) in enumerate(zip(hops, streams)):
        k_lin = hop.k_factor if is_los else 0.0
        k_db = 10.0 * math.log10(k_lin) if k_lin > 0 else 0.0
        departure, arrival = hop.spec.departure, hop.spec.arrival
        scalars.append((
            *(hop.spreads[x] for x in ("ds", "asd", "asa", "zsa", "zsd")), k_lin,
            # LOS delay rescaling (1.0: none)
            _los_delay_scale(k_db) if is_los and k_lin > 0 else 1.0,
            params.azimuth_scale * (_los_azimuth_scale(k_db) if is_los else 1.0),
            params.zenith_scale * (_los_zenith_scale(k_db) if is_los else 1.0),
            # geometric propagation delay; the standardized NLOS excess-delay
            # model (TR 38.901 sec 7.6.9) is not applied on top
            hop.spec.d3d_m / SPEED_OF_LIGHT if absolute_delay else 0.0,
            departure.zenith, departure.azimuth, arrival.zenith, arrival.azimuth,
        ))
        hop_streams.stream("delays").random(out=u[i])
        hop_streams.stream("powers").standard_normal(out=shadow[i])
        for rng, pair in ((hop_streams.stream("angles_azimuth"), (0, 1)),
                          (hop_streams.stream("angles_zenith"), (2, 3))):
            for k in pair:
                signs[k, i] = rng.integers(0, 2, size=n)
                rng.standard_normal(out=normals[k, i])
        rng_cpl = hop_streams.stream("coupling")
        for k in range(3):
            rng_cpl.random(out=keys[k, i])
        hop_streams.stream("xpr").standard_normal(out=xpr_draw[i])
        hop_streams.stream("phases").random(out=phases[i])
    (ds, asd, asa, zsa, zsd, k_lin, delay_scale, c_phi, c_theta, los_delay,
     dep_zenith, dep_azimuth, arr_zenith, arr_azimuth) = np.array(scalars).reshape(h, 14).T[:, :, None]

    # Cluster delays: exponential draw, shifted to zero minimum, ascending.
    r_tau = params.delay_scaling
    u = np.clip(u, 1e-300, None)
    tau = -r_tau * ds * np.log(u)
    tau = np.sort(tau - tau.min(1, keepdims=True), axis=1)

    # Cluster powers from the unscaled delays, with per-cluster shadowing.
    shadow *= params.cluster_shadowing_std_db
    powers = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-shadow / 10.0)
    powers = powers / powers.sum(1, keepdims=True)

    # Delay rescaling for LOS hops; applied to the reported delays only,
    # after the power draw (the standard excludes it from power generation).
    tau_out = tau / delay_scale

    # Power ratios for angle generation include the specular component.
    if is_los:
        p_angle = powers / (1.0 + k_lin)
        p_angle[:, :1] += k_lin / (1.0 + k_lin)
    else:
        p_angle = powers
    p_ratio_log = -np.log(p_angle / p_angle.max(1, keepdims=True))

    # Cluster angle means: inverse Gaussian in azimuth (TR 38.901 eq
    # 7.5-9..7.5-12), inverse Laplacian in zenith (eq 7.5-14..7.5-19).
    sqrt_ratio = np.sqrt(p_ratio_log)
    phi_aoa = _cluster_angles(2.0 * (asa / 1.4) * sqrt_ratio / c_phi, asa,
                              np.degrees(arr_azimuth), is_los, signs[0], normals[0])
    phi_aod = _cluster_angles(2.0 * (asd / 1.4) * sqrt_ratio / c_phi, asd,
                              np.degrees(dep_azimuth), is_los, signs[1], normals[1])
    theta_zoa = _cluster_angles(zsa * p_ratio_log / c_theta, zsa,
                                np.degrees(arr_zenith), is_los, signs[2], normals[2])
    theta_zod = _cluster_angles(zsd * p_ratio_log / c_theta, zsd,
                                np.degrees(dep_zenith), is_los, signs[3], normals[3])
    if not is_los:
        theta_zod += params.zod_offset_deg

    # Ray fan-out around each cluster mean with fixed offsets.
    offs = RAY_OFFSETS[:m]
    aoa_deg = phi_aoa[:, :, None] + params.c_asa_deg * offs
    aod_deg = phi_aod[:, :, None] + params.c_asd_deg * offs
    zoa_deg = theta_zoa[:, :, None] + params.c_zsa_deg * offs
    # Ray zenith spread at departure scales with the table's mean ZSD.
    c_zsd = (3.0 / 8.0) * 10.0 ** params.lg_zsd_mean
    zod_deg = theta_zod[:, :, None] + c_zsd * offs

    # Random coupling of ray angles within each cluster.
    aoa_deg = _row_shuffle(keys[0], aoa_deg)
    zoa_deg = _row_shuffle(keys[1], zoa_deg)
    zod_deg = _row_shuffle(keys[2], zod_deg)

    xpr = 10.0 ** ((params.xpr_mean_db + params.xpr_std_db * xpr_draw) / 10.0)
    # Initial phases uniform on (-pi, pi].
    phases = np.pi - phases * (2.0 * np.pi)

    ray_delays = np.repeat(tau_out[:, :, None], m, axis=2)
    if split_strongest:
        c_ds_s = params.c_ds_ns * 1e-9
        strongest = np.argsort(powers, axis=1)[:, ::-1][:, :2, None]
        hop_axis = np.arange(h)[:, None, None]
        for rays, mult in _SUBCLUSTER_GROUPS[1:]:
            ray_delays[hop_axis, strongest, rays] = tau_out[hop_axis, strongest] + mult * c_ds_s
    if absolute_delay:
        ray_delays = ray_delays + los_delay[:, :, None]

    # the rows of every hop: weight, delay, dep/arr zenith and azimuth
    cols = np.empty((6, h, nm + is_los))
    cols[0, :, :nm] = np.repeat(np.sqrt(powers / m / powers.sum(1, keepdims=True)), m, axis=1)
    cols[1, :, :nm] = ray_delays.reshape(h, nm)
    cols[2, :, :nm] = np.radians(_fold_zenith_deg(zod_deg)).reshape(h, nm)
    cols[3, :, :nm] = np.radians(_wrap_azimuth_deg(aod_deg)).reshape(h, nm)
    cols[4, :, :nm] = np.radians(_fold_zenith_deg(zoa_deg)).reshape(h, nm)
    cols[5, :, :nm] = np.radians(_wrap_azimuth_deg(aoa_deg)).reshape(h, nm)
    if is_los:
        cols[:, :, nm] = np.stack([np.ones((h, 1)), los_delay, dep_zenith, dep_azimuth,
                                   arr_zenith, arr_azimuth])[:, :, 0]
    return [HopTable(hop, (n, m), *cols[:, i], xpr=xpr[i], phases=phases[i])
            for i, hop in enumerate(hops)]


def mono_static_reciprocal(table: HopTable) -> HopTable:
    """Reverse a hop for mono-static sensing: swap departure and arrival.

    The returned table shares the weights, delays, XPR and phases (channel
    reciprocity); the angle columns and the whole hop (nodes, LOS angles,
    ASD/ASA and ZSD/ZSA) are reversed. Twice returns an identical table.
    """
    spec, s = table.hop.spec, table.hop.spreads
    hop = replace(table.hop, spec=replace(spec, from_node=spec.to_node, to_node=spec.from_node,
                                          departure=spec.arrival, arrival=spec.departure),
                  spreads={"ds": s["ds"], "asd": s["asa"], "asa": s["asd"],
                           "zsa": s["zsd"], "zsd": s["zsa"]})
    return replace(
        table, hop=hop,
        dep_zenith=table.arr_zenith, dep_azimuth=table.arr_azimuth,
        arr_zenith=table.dep_zenith, arr_azimuth=table.dep_azimuth,
    )
