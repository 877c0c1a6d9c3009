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
synthesize_cir makes a drop's ISAC channel, the target paths followed by
the rows of the transmitter-to-receiver background hop (its scattering
matrix the identity, its cross section 1, no scattering point moving), in
one gains computation, then weights the background by the coupling. The
target-channel gains carry no path-loss scale (the two-hop budget with the
mean RCS is a separate large-scale quantity); the single-hop background
channel does fold its hop's path loss and shadowing into the gains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import DirectionAngles, NodeState, field_components, spherical_unit_vector
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
class ChannelCir:
    """Synthesized impulse response: delays (L,), gains (U, S, L, T) and
    the pair type (concatenation.PairType) of each path."""

    delays: np.ndarray
    gains: np.ndarray
    pair_type: np.ndarray


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
    point, which moves at v_sp.
    """
    if wavelength_m <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_m}")
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
        phase = -2.0 * np.pi * table.hop.spec.d3d_m / wavelength_m
        e = np.exp(1j * phase)
        out[n_diffuse, 0, 0] = e
        out[n_diffuse, 1, 1] = -e
    return out


def _array_response(node: NodeState, dirs: DirectionAngles, wavelength_m: float):
    """Field components (L, 2) toward per-path directions, shared by the node's
    elements, and their array phases exp(j 2 pi r_hat . d_e / lambda) (E, L)."""
    proj = node.element_offsets_m @ spherical_unit_vector(dirs).T  # (E, L)
    return np.stack(field_components(node, dirs), axis=-1), np.exp(2j * np.pi * proj / wavelength_m)


def _array_gains(tx_node: NodeState, rx_node: NodeState, dep: DirectionAngles,
                 arr: DirectionAngles, pmat, amp, f_d, grid: SnapshotGrid,
                 wavelength_m: float) -> np.ndarray:
    """(U, S, L, T) gains of L paths leaving the transmit array along dep and
    reaching the receive array along arr, with (L, 2, 2) polarization
    transfers pmat, amplitudes amp and Doppler shifts f_d."""
    doppler = np.exp(2j * np.pi * np.outer(f_d, grid.times()))  # (L, T)
    time_block = amp[:, None] * doppler

    f_rx, ph_rx = _array_response(rx_node, arr, wavelength_m)  # U elements
    f_tx, ph_tx = _array_response(tx_node, dep, wavelength_m)  # S elements

    # scalar(u, s, l) = f_rx(l) . P(l) . f_tx(l) times the two array phases
    scalar = np.einsum("la,lab,lb->l", f_rx, pmat, f_tx) * ph_rx[:, None, :] * ph_tx[None, :, :]
    return scalar[..., None] * time_block[None, None, ...]


def synthesize_cir(
    group: PathGroup,
    drop: int,
    rcs_model: RcsModel,
    grid: SnapshotGrid,
    wavelength_m: float,
    streams: RandomStreams,
    polarization: PolarizationScattering | None = None,
    background: HopTable | None = None,
    coupling: CouplingConfig | None = None,
) -> ChannelCir:
    """Synthesize drop ``drop``'s channel for every antenna pair: the
    two-hop target paths of a group of path sets (concatenation.PathGroup),
    then, when a background hop table is given, its rows.

    The arrays are those of the transmit hop's from-node and the receive
    hop's to-node; the background must join the same two nodes. streams
    must be scoped to the coefficient stage of the drop; it feeds the
    per-path cross-section fluctuation and the scattering-matrix phases,
    which identity polarization does not draw. The coupling (by default
    'added' at o_isac = 1) weights the background: 'added' scales its gains
    by sqrt(o_isac) (o_isac = 0 leaves the target alone); 'embedded' removes
    its weakest removal_fraction of paths, by mean power over antenna pairs
    and snapshots, and keeps the rest in order and unscaled.
    """
    if wavelength_m <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_m}")
    it, ir, weight, pair_type = group.paths(drop)
    tx, rx = group.tx[drop], group.rx[drop]
    tx_node, target, rx_node = tx.hop.spec.from_node, tx.hop.spec.to_node, rx.hop.spec.to_node
    if not np.allclose(target.position_m, rx.hop.spec.from_node.position_m):
        raise ConfigError("hops do not share the scattering point")
    coupling = coupling or CouplingConfig()

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

    smat = scattering_matrix(pol, streams.stream("scatter_phases"), size=n_paths)

    tx_side = _side_matrices(tx, wavelength_m)[it]
    rx_side = _side_matrices(rx, wavelength_m)[ir]
    pmat = np.einsum("lij,ljk,lkm->lim", rx_side, smat, tx_side)

    f_d = doppler_frequency(
        tx_dir,
        rx_dir,
        sp_in,
        sp_out,
        tx_node.velocity_mps,
        rx_node.velocity_mps,
        target.velocity_mps,
        wavelength_m,
    )

    amp = group.k_weights[drop][pair_type] * weight * np.sqrt(sigma)
    parts = [(tx.delay[it] + rx.delay[ir], tx_dir.zenith, tx_dir.azimuth, rx_dir.zenith,
              rx_dir.azimuth, pmat, amp, f_d, pair_type)]
    if background is not None:
        spec = background.hop.spec
        if not (np.allclose(spec.from_node.position_m, tx_node.position_m)
                and np.allclose(spec.to_node.position_m, rx_node.position_m)):
            raise ConfigError("the background hop does not join the transmitter to the receiver")
        if coupling.mode == "embedded" or coupling.o_isac > 0:
            parts.append(_background_paths(background, tx_node, rx_node, wavelength_m))
    delays, dep_zenith, dep_azimuth, arr_zenith, arr_azimuth, pmat, amp, f_d, pair_type = (
        np.concatenate(column) for column in zip(*parts))
    gains = _array_gains(tx_node, rx_node,
                         DirectionAngles(dep_zenith, dep_azimuth),
                         DirectionAngles(arr_zenith, arr_azimuth),
                         pmat, amp, f_d, grid, wavelength_m)
    # the background's rows follow the target's
    n_drop = int(coupling.removal_fraction * (len(delays) - n_paths))
    if coupling.mode == "added":
        gains[:, :, n_paths:] *= math.sqrt(coupling.o_isac)
    elif n_drop > 0:
        mean_power = np.mean(np.abs(gains[:, :, n_paths:]) ** 2, axis=(0, 1, 3))
        keep = np.concatenate([np.arange(n_paths),
                               n_paths + np.sort(np.argsort(mean_power)[n_drop:])])
        delays, gains, pair_type = delays[keep], gains[:, :, keep], pair_type[keep]
    return ChannelCir(delays=delays, gains=gains, pair_type=pair_type)


def _background_paths(table: HopTable, tx_node, rx_node, wavelength_m: float) -> tuple:
    """Path columns of the transmitter-to-receiver hop table, as
    synthesize_cir joins them: the specular ray under LOS, then the diffuse
    rays, weighted by the Rician specular and diffuse shares, with the hop's
    path loss and shadow fading folded in as 10^(-(PL+SF)/20)."""
    hop, n_diffuse = table.hop, table.num_diffuse
    rows = np.arange(n_diffuse)
    if table.has_los:
        rows = np.concatenate([[n_diffuse], rows])  # specular first
    k = hop.k_factor if table.has_los else 0.0
    spec_share, diffuse_share = condition_weights(k, 0.0)[[1, 3]]
    share = np.where(rows == n_diffuse, spec_share, diffuse_share)
    scale = 10.0 ** (-(hop.path_loss_db + hop.shadow_fading_db) / 20.0)
    dep = DirectionAngles(table.dep_zenith[rows], table.dep_azimuth[rows])
    arr = DirectionAngles(table.arr_zenith[rows], table.arr_azimuth[rows])
    # one hop: no scattering point moves
    f_d = doppler_frequency(dep, arr, arr, dep, tx_node.velocity_mps, rx_node.velocity_mps,
                            np.zeros(3), wavelength_m)
    return (table.delay[rows], dep.zenith, dep.azimuth, arr.zenith, arr.azimuth,
            _side_matrices(table, wavelength_m)[rows], share * table.weight[rows] * scale,
            f_d, np.full(len(rows), int(PairType.BACKGROUND), np.int8))
