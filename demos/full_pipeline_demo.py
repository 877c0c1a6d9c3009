"""One bi-static sensing drop, end to end.

Places a transmitter, a moving target and a receiver, draws the two hop
channels, concatenates them with the random-pairing rule, synthesizes the
time-varying impulse response of the target paths and the one-hop
environment channel for small arrays on both sides in one call, and prints
the numbers a link budget or a detector would consume.

CLI equivalent: isacsim run --config <file>
"""
import argparse

import numpy as np

from isacsim.coefficients import SnapshotGrid, synthesize_cir
from isacsim.concatenation import ConcatCase, PairType, concatenate_group
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.geometry import NodeState, uniform_linear_array
from isacsim.largescale import (
    CouplingConfig,
    ScenarioParams,
    build_hop,
    concatenated_path_loss,
    hop_spec,
)
from isacsim.rcs import RcsModel
from isacsim.seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
)
from isacsim.smallscale import generate_sublinks
from isacsim.stats import STAT_FIELDS, group_statistics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    f_hz = 6e9
    lam = SPEED_OF_LIGHT / f_hz
    scen = ScenarioParams.from_table("UMi", f_hz)
    # 2 transmit and 4 receive elements at half-wavelength spacing, given by
    # their offsets; every element of a node has its pattern and slant
    tx = NodeState([0.0, 0.0, 10.0], element_offsets_m=uniform_linear_array(2, lam / 2.0))
    target = NodeState([40.0, 15.0, 1.5], velocity_mps=[8.0, 0.0, 0.0])
    rx = NodeState([80.0, -10.0, 10.0], element_offsets_m=uniform_linear_array(4, lam / 2.0))
    streams = RandomStreams(args.seed, drop=0)

    # large-scale: each hop's geometry, LOS probability, path loss per
    # condition and LOS angles (fixed for a run), then this drop's condition,
    # K-factor, SF and delay and angle spreads
    hop1 = build_hop(hop_spec(tx, target, scen), scen, streams.scoped(HOP_TX_TARGET))
    hop2 = build_hop(hop_spec(target, rx, scen), scen, streams.scoped(HOP_TARGET_RX))
    print("hop budget:")
    for name, hop in (("tx->target", hop1), ("target->rx", hop2)):
        print(f"  {name}: {hop.condition:4s} d3 = {hop.spec.d3d_m:6.1f} m  "
              f"PL = {hop.path_loss_db:6.2f} dB  K = {hop.k_factor:6.2f}  "
              f"SF = {hop.shadow_fading_db:+5.2f} dB")
    two_hop = concatenated_path_loss(hop1.path_loss_db, hop2.path_loss_db,
                                     f_hz, mean_rcs_m2=1.0)
    print(f"  two-hop sensing loss (1 m^2 target): {two_hop:.2f} dB")

    # small-scale: each hop's cluster/ray table, then the joint path set; the
    # group kernels take a list per argument, here one hop, drop and case
    table1, = generate_sublinks([hop1], scen.condition_params(hop1.condition),
                                [streams.scoped(HOP_TX_TARGET)])
    table2, = generate_sublinks([hop2], scen.condition_params(hop2.condition),
                                [streams.scoped(HOP_TARGET_RX)])
    group, = concatenate_group([table1], [table2], [ConcatCase.CASE_2RN],
                               [streams.scoped(SCOPE_CONCAT)])
    *_, pair_type = group.paths(0)
    print(f"\njoint path set ({group.case.value}, conditions "
          f"{group.condition_pair}): {len(group)} paths")
    for pt in PairType:
        n = int(np.sum(pair_type == pt))
        if n:
            print(f"  {pt.name}: {n:5d} paths  amplitude prefactor "
                  f"{group.k_weights[0][pt]:.4f}")
    st = dict(zip(STAT_FIELDS, group_statistics([group])[0, 0]))
    print(f"  delay spread {st['ds'] * 1e9:6.1f} ns   "
          f"ASA {st['asa']:5.1f}  ASD {st['asd']:5.1f}  "
          f"ZSA {st['zsa']:5.1f}  ZSD {st['zsd']:5.1f} deg")

    # background single-hop channel, built like any hop
    bg_streams = streams.scoped(HOP_BACKGROUND)
    hop_bg = build_hop(hop_spec(tx, rx, scen), scen, bg_streams)
    bg_table, = generate_sublinks(
        [hop_bg], scen.condition_params(hop_bg.condition), [bg_streams])

    # coefficients: the nodes' 2x4 arrays, 11 snapshots 1 ms apart; the target
    # paths, then the background's, scaled by sqrt(0.5), in one synthesis
    grid = SnapshotGrid(start_s=0.0, step_s=1e-3, count=11)
    cir = synthesize_cir(group, 0, RcsModel(mean_rcs_m2=1.0, b2_std_db=3.0), grid, lam,
                         streams.scoped(SCOPE_COEFF), background=bg_table,
                         coupling=CouplingConfig(o_isac=0.5, mode="added"))
    print(f"\nISAC impulse response: gains {cir.gains.shape} "
          f"= (rx, tx, path, time)")
    background = cir.pair_type == PairType.BACKGROUND
    power = np.mean(np.abs(cir.gains) ** 2, axis=(0, 1, 3))
    order = np.argsort(np.where(background, -np.inf, power))[::-1][:5]
    print("  strongest target paths (delay, mean power):")
    for i in order:
        print(f"    {cir.delays[i] * 1e9:8.2f} ns   {power[i]:.3e}")
    bg_pow = float(np.mean(np.sum(np.abs(cir.gains[:, :, background]) ** 2, axis=2)))
    print(f"background: {np.count_nonzero(background)} paths, mean per-antenna power "
          f"{10 * np.log10(bg_pow):.1f} dB (path loss folded in, scaled by sqrt(0.5))")

    # Doppler visible in the phase ramp of the strongest path
    g = cir.gains[0, 0, int(order[0])]
    fd = np.angle(g[1:] * np.conj(g[:-1])).mean() / (2 * np.pi * grid.step_s)
    print(f"\nstrongest-path Doppler from snapshot phase: {fd:+.1f} Hz "
          f"(target speed 8 m/s, lambda {lam * 100:.1f} cm)")


if __name__ == "__main__":
    main()
