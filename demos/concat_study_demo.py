"""Compare the channel-concatenation down-selection cases on shared drops.

For every drop the two hop channels are generated once and every case is
applied to the same realization, so differences between rows come from the
pairing rule alone.  The table shows how much diffuse-diffuse power each
rule keeps and how closely its delay-spread distribution tracks the full
convolution (two-sample KS distance, lower is better).

CLI equivalent: isacsim concat-study --config <file> --drops N
"""
import argparse
import time

import numpy as np

from isacsim.concatenation import ALL_CASES, ConcatCase, concatenate_group
from isacsim.geometry import NodeState
from isacsim.largescale import ScenarioParams, build_hop, hop_spec
from isacsim.seeds import HOP_TARGET_RX, HOP_TX_TARGET, SCOPE_CONCAT, RandomStreams
from isacsim.smallscale import generate_sublinks
from isacsim.stats import STAT_FIELDS, empirical_cdf, group_statistics, ks_statistic


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--drops", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    scen = ScenarioParams.from_table(6e9)
    tx = NodeState([0.0, 0.0, 10.0])
    tgt = NodeState([25.0, 10.0, 1.5])
    rx = NodeState([60.0, -5.0, 10.0])
    cases = [c for c in ALL_CASES if c is not ConcatCase.CASE_A]

    print(f"down-selection study: {args.drops} drops, both hops forced LOS")
    t0 = time.perf_counter()
    # both hops LOS, so every drop's tables share one layout: each side's
    # tables come from one call, and all drops and cases form one group.
    # A hop's geometry, path loss and LOS angles are resolved once; a drop
    # draws only its condition, K-factor, shadow fading and spreads.
    specs = [(hop_spec(tx, tgt, scen, "LOS"), HOP_TX_TARGET),
             (hop_spec(tgt, rx, scen, "LOS"), HOP_TARGET_RX)]
    streams = [RandomStreams(args.seed, d) for d in range(args.drops)]
    params = scen.condition_params("LOS")
    tables = []
    for spec, scope in specs:
        hop_streams = [s.scoped(scope) for s in streams]
        hops = [build_hop(spec, scen, s) for s in hop_streams]
        tables.append(generate_sublinks(hops, params, hop_streams))
    groups = concatenate_group(*tables, cases, [s.scoped(SCOPE_CONCAT) for s in streams])
    stats = group_statistics(groups)
    nn = dict(zip(cases, stats[..., STAT_FIELDS.index("nn_power")].T))
    ds = dict(zip(cases, stats[..., STAT_FIELDS.index("ds")].T))
    n_paths = {g.case: len(g) for g in groups}
    print(f"generated {args.drops * len(cases)} path sets "
          f"in {time.perf_counter() - t0:.1f} s\n")

    base_cdf = empirical_cdf(ds[ConcatCase.CASE_0])
    print(f"{'case':8s} {'paths':>6s} {'mean NN power':>14s} {'KS(ds) vs Case0':>16s}")
    for case in cases:
        k = ks_statistic(empirical_cdf(ds[case]), base_cdf)
        print(f"{case.value:8s} {n_paths[case]:6d} {np.mean(nn[case]):14.4e} {k:16.3f}")

    print("\nreading the table:")
    print(" - Case0 convolves every ray pair; all other rows keep a subset")
    print("   of the diffuse-diffuse paths, hence the lower NN power")
    print(" - the trailing-N rows rescale that subset back to unit power,")
    print("   which moves none of the spread statistics")
    print(" - random pairing (Case2RN) stays closer to Case0 than the")
    print("   delay-ordered rule (Case2ON) at a fraction of the paths")


if __name__ == "__main__":
    main()
