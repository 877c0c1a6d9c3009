"""Channel impulse response synthesis from joint path sets.

Produces, per antenna pair (u, s), per path, per snapshot time, the complex
gain

    k_weight * F_rx(arr)^T * P * F_tx(dep)
      * exp(j 2 pi r_rx . d_u / lambda) * exp(j 2 pi r_tx . d_s / lambda)
      * exp(j 2 pi f_d t) * weight * sqrt(sigma)

where P sandwiches the target scattering matrix between the per-hop
polarization matrices (LOS diagonal or XPR cross-coupling), f_d sums the
four Doppler contributions of transmitter, receiver, and the scattering
point's in/out directions, and sigma is the per-path small-scale cross
section. Geometry is frozen within a drop: only the Doppler exponential
depends on t.

Synthesis only turns hop tables (smallscale.HopTable: per-row weights,
delays, angles, XPR and phases) into gains: the runner builds every hop.
The target-channel gains carry no path-loss scale (the two-hop budget with
the mean RCS is a separate large-scale quantity); the single-hop background
channel does fold its hop's path loss and shadowing into the gains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import DirectionAngles, field_components, spherical_unit_vector
from .largescale import CouplingConfig
from .concatenation import PairType, PathGroup, condition_weights
from .rcs import PolarizationScattering, RcsModel, scattering_matrix, small_scale_sigma
from .seeds import RandomStreams
from .smallscale import HopTable


@dataclass
class SnapshotGrid:
    """Uniform time sampling of a drop: start, step, number of snapshots."""

    start_s: float = 0.0
    step_s: float = 1e-3
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("snapshot count must be >= 1")
        if self.step_s <= 0:
            raise ConfigError("snapshot step must be positive")

    def times(self) -> np.ndarray:
        return self.start_s + self.step_s * np.arange(self.count)


@dataclass
class TargetChannelCir:
    """Synthesized impulse response: delays (L,), gains (U, S, L, T)."""

    delays: np.ndarray
    gains: np.ndarray
    pair_type: np.ndarray
    grid: SnapshotGrid


def doppler_frequency(
    tx_dir: DirectionAngles,
    rx_dir: DirectionAngles,
    sp_in_dir: DirectionAngles,
    sp_out_dir: DirectionAngles,
    v_tx,
    v_rx,
    v_sp,
    wavelength_m: float,
):
    """Per-path Doppler in Hz from the four direction/velocity couplings.

    tx_dir is the departure direction at the transmitter, rx_dir the
    arrival direction at the receiver (pointing back toward the scatterer),
    sp_in_dir/sp_out_dir the arrival/departure directions at the scattering
    point. v_sp should already include any internal (micro) motion.
    """
    if wavelength_m <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_m}")
    v_tx = np.asarray(v_tx, float)
    v_rx = np.asarray(v_rx, float)
    v_sp = np.asarray(v_sp, float)
    total = (
        spherical_unit_vector(rx_dir) @ v_rx
        + spherical_unit_vector(sp_out_dir) @ v_sp
        + spherical_unit_vector(tx_dir) @ v_tx
        + spherical_unit_vector(sp_in_dir) @ v_sp
    )
    return total / wavelength_m


def _side_matrices(table: HopTable, wavelength_m: float) -> np.ndarray:
    """(R, 2, 2) transfer of every hop-table row: XPR matrix or LOS diagonal."""
    n_diffuse = table.num_diffuse
    out = np.zeros((len(table.weight), 2, 2), dtype=complex)
    # theta-theta, theta-phi, phi-theta, phi-phi; the cross terms scaled 1/sqrt(XPR)
    out[:n_diffuse] = np.exp(1j * table.phases).reshape(n_diffuse, 2, 2)
    out[:n_diffuse, [0, 1], [1, 0]] *= np.sqrt(1.0 / table.xpr)[:, None]
    if table.has_los:
        phase = -2.0 * np.pi * table.hop.d3d_m / wavelength_m
        e = np.exp(1j * phase)
        out[n_diffuse, 0, 0] = e
        out[n_diffuse, 1, 1] = -e
    return out


def _array_response(elements, dirs: DirectionAngles, wavelength_m: float):
    """Field components (E, L, 2) and array phases exp(j 2 pi r_hat . d_e /
    lambda) (E, L) of each element toward per-path directions."""
    fields = []
    for el in elements:
        f_t, f_p = field_components(el, dirs)
        fields.append(np.stack([np.broadcast_to(f_t, dirs.zenith.shape),
                                np.broadcast_to(f_p, dirs.zenith.shape)], axis=-1))
    offs = np.stack([el.offset_m for el in elements], axis=0)  # (E, 3)
    proj = offs @ spherical_unit_vector(dirs).T  # (E, L)
    return np.stack(fields, axis=0), np.exp(2j * np.pi * proj / wavelength_m)


def _array_gains(tx_elements, rx_elements, dep: DirectionAngles,
                 arr: DirectionAngles, pmat, amp, f_d, grid: SnapshotGrid,
                 wavelength_m: float) -> np.ndarray:
    """(U, S, L, T) gains of L paths leaving the transmit array along dep and
    reaching the receive array along arr, with (L, 2, 2) polarization
    transfers pmat, amplitudes amp and Doppler shifts f_d."""
    doppler = np.exp(2j * np.pi * np.outer(f_d, grid.times()))  # (L, T)
    time_block = amp[:, None] * doppler

    f_rx, ph_rx = _array_response(rx_elements, arr, wavelength_m)  # U elements
    f_tx, ph_tx = _array_response(tx_elements, dep, wavelength_m)  # S elements

    # scalar(u, s, l) = f_rx(u, l) . P(l) . f_tx(s, l)
    scalar = np.einsum("ula,lab,slb->usl", f_rx, pmat, f_tx)
    scalar = scalar * ph_rx[:, None, :] * ph_tx[None, :, :]
    return scalar[..., None] * time_block[None, None, ...]


def synthesize_target_cir(
    group: PathGroup,
    drop: int,
    rcs_model: RcsModel,
    grid: SnapshotGrid,
    wavelength_m: float,
    streams: RandomStreams,
    polarization: PolarizationScattering | None = None,
) -> TargetChannelCir:
    """Synthesize drop ``drop``'s two-hop target channel of a group of path
    sets (concatenation.PathGroup) for every antenna pair.

    The arrays are those of the transmit hop's from-node and the receive
    hop's to-node. streams must be scoped to the coefficient stage of the
    drop; it feeds the per-path cross-section fluctuation and the
    scattering-matrix phases, which identity polarization does not draw.
    """
    if wavelength_m <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_m}")
    it, ir, weight, pair_type = group.paths(drop)
    tx, rx = group.tx[drop], group.rx[drop]
    tx_hop, rx_hop = tx.hop, rx.hop
    if not np.allclose(tx_hop.to_node.position_m, rx_hop.from_node.position_m):
        raise ConfigError("hops do not share the scattering point")

    n_paths = len(it)
    pol = polarization or PolarizationScattering()

    # Per-path directions, in radians: departure at the transmitter, arrival
    # at the receiver, and arrival at (in) and departure from (out) the target.
    tx_dir = DirectionAngles(tx.dep_zenith[it], tx.dep_azimuth[it])
    rx_dir = DirectionAngles(rx.arr_zenith[ir], rx.arr_azimuth[ir])
    sp_in = DirectionAngles(tx.arr_zenith[it], tx.arr_azimuth[it])
    sp_out = DirectionAngles(rx.dep_zenith[ir], rx.dep_azimuth[ir])

    # Per-path small-scale cross section; aspect is the incidence azimuth
    # at the scattering point.
    sigma = small_scale_sigma(
        rcs_model,
        np.degrees(sp_in.azimuth),
        streams.stream("rcs_b2"),
        size=n_paths,
    )
    sigma = np.broadcast_to(np.asarray(sigma, float), (n_paths,))

    smat = scattering_matrix(pol, streams.stream("scatter_phases"), size=n_paths)

    tx_side = _side_matrices(tx, wavelength_m)[it]
    rx_side = _side_matrices(rx, wavelength_m)[ir]
    pmat = np.einsum("lij,ljk,lkm->lim", rx_side, smat, tx_side)

    f_d = doppler_frequency(
        tx_dir,
        rx_dir,
        sp_in,
        sp_out,
        tx_hop.from_node.velocity_mps,
        rx_hop.to_node.velocity_mps,
        tx_hop.to_node.total_velocity_mps,
        wavelength_m,
    )
    f_d = np.broadcast_to(np.asarray(f_d, float), (n_paths,))

    amp = group.k_weights[drop][pair_type] * weight * np.sqrt(sigma)
    return TargetChannelCir(
        delays=tx.delay[it] + rx.delay[ir],
        gains=_array_gains(tx_hop.from_node.elements, rx_hop.to_node.elements,
                           tx_dir, rx_dir, pmat, amp, f_d, grid, wavelength_m),
        pair_type=pair_type,
        grid=grid,
    )


def synthesize_background_cir(
    table: HopTable, grid: SnapshotGrid, wavelength_m: float
) -> TargetChannelCir:
    """Single-hop environment channel of the transmitter-to-receiver table.

    Standard one-hop cluster channel: the specular ray under LOS, then the
    diffuse rays, weighted by the Rician specular and diffuse shares. The
    hop's path loss and shadow fading are folded into the gains as
    10^(-(PL+SF)/20); its nodes give the arrays and velocities.
    """
    if wavelength_m <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_m}")
    hop = table.hop
    rows = np.arange(table.num_diffuse)
    if table.has_los:
        rows = np.concatenate([[table.num_diffuse], rows])  # specular first
    k = hop.k_factor if table.has_los else 0.0
    spec_share, diffuse_share = condition_weights(k, 0.0)[[1, 3]]
    share = np.where(table.cluster[rows] < 0, spec_share, diffuse_share)
    scale = 10.0 ** (-(hop.path_loss_db + hop.shadow_fading_db) / 20.0)
    amp = share * table.weight[rows] * scale

    dep = DirectionAngles(table.dep_zenith[rows], table.dep_azimuth[rows])
    arr = DirectionAngles(table.arr_zenith[rows], table.arr_azimuth[rows])
    # One-hop Doppler: arrival and departure couplings only.
    f_d = (
        spherical_unit_vector(arr) @ hop.to_node.velocity_mps
        + spherical_unit_vector(dep) @ hop.from_node.velocity_mps
    ) / wavelength_m
    pmat = _side_matrices(table, wavelength_m)[rows]

    return TargetChannelCir(
        delays=table.delay[rows],
        gains=_array_gains(hop.from_node.elements, hop.to_node.elements, dep, arr,
                           pmat, amp, f_d, grid, wavelength_m),
        pair_type=np.full(rows.shape[0], int(PairType.BACKGROUND), np.int8),
        grid=grid,
    )


def combine_channels(
    target: TargetChannelCir,
    background: TargetChannelCir | None,
    coupling: CouplingConfig,
) -> TargetChannelCir:
    """Union of target and background paths under the coupling configuration.

    'added' mode scales background amplitudes by sqrt(o_isac); 'embedded'
    mode first removes the weakest removal_fraction of background paths
    (by mean power across antenna pairs and snapshots) and keeps the rest
    unscaled, standing in for an environment response that already contains
    the target's surroundings.
    """
    if background is None:
        return target
    g_t, g_b = target.grid, background.grid
    if (g_t.start_s, g_t.step_s, g_t.count) != (g_b.start_s, g_b.step_s, g_b.count):
        raise ConfigError("snapshot grids of target and background differ")
    if target.gains.shape[:2] != background.gains.shape[:2]:
        raise ConfigError("antenna array sizes of target and background differ")

    bg_gains = background.gains
    bg_delays = background.delays
    bg_types = background.pair_type
    if coupling.mode == "added":
        if coupling.o_isac == 0.0:
            return target
        bg_gains = bg_gains * math.sqrt(coupling.o_isac)
    else:
        n_bg = bg_delays.shape[0]
        n_drop = int(coupling.removal_fraction * n_bg)
        if n_drop > 0:
            mean_power = np.mean(np.abs(bg_gains) ** 2, axis=(0, 1, 3))
            keep = np.sort(np.argsort(mean_power)[n_drop:])
            bg_gains = bg_gains[:, :, keep, :]
            bg_delays = bg_delays[keep]
            bg_types = bg_types[keep]

    return TargetChannelCir(
        delays=np.concatenate([target.delays, bg_delays]),
        gains=np.concatenate([target.gains, bg_gains], axis=2),
        pair_type=np.concatenate([target.pair_type, bg_types]),
        grid=target.grid,
    )
