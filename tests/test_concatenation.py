"""Two-hop path concatenation: components, pairings, power bookkeeping."""
import operator

import numpy as np
import pytest

from isacsim.concatenation import (
    ALL_CASES,
    ConcatCase,
    PairType,
    TargetPathSet,
    concatenate,
    concatenate_group,
    condition_weights,
)
from isacsim.errors import ConfigError
from isacsim.geometry import NodeState, angles_between
from isacsim.largescale import HopLink, ScenarioParams
from isacsim.seeds import SCOPE_CONCAT, RandomStreams
from isacsim.smallscale import generate_sublink
from isacsim.stats import STAT_FIELDS, statistics_table

F_HZ = 6e9


def make_links(cond1="LOS", cond2="LOS", seed=1, k1=4.0, k2=2.0):
    scen = ScenarioParams.from_table("UMi", F_HZ)
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[25.0, 10.0, 1.5])
    rx = NodeState(position_m=[60.0, -5.0, 10.0])

    def hop(a, b, cond, k):
        d = b.position_m - a.position_m
        return HopLink(
            from_node=a, to_node=b, condition=cond,
            d2d_m=float(np.hypot(d[0], d[1])), d3d_m=float(np.linalg.norm(d)),
            path_loss_db=90.0, k_factor=k if cond == "LOS" else 0.0,
            shadow_fading_db=0.0,
        )

    streams = RandomStreams(seed)
    h1 = hop(tx, tgt, cond1, k1)
    h2 = hop(tgt, rx, cond2, k2)
    t1 = generate_sublink(h1, scen.condition_params(cond1), streams.scoped(0))
    t2 = generate_sublink(h2, scen.condition_params(cond2), streams.scoped(1))
    return t1, t2, streams


def concat_streams(streams):
    return streams.scoped(SCOPE_CONCAT)


def nn_power(paths):
    """Sum of squared stored NN weights: the statistics table's nn_power."""
    return statistics_table([paths])[0][STAT_FIELDS.index("nn_power")]


def nn_marginal_power(paths, side):
    """NN power through each diffuse row of one hop's table: a bincount
    over the rows of the set's NN paths."""
    nn = paths.pair_type == PairType.NN
    return np.bincount(getattr(paths, side + "_idx")[nn], paths.weight[nn] ** 2,
                       minlength=getattr(paths, side).num_diffuse)


# ------------------------------------------------------ condition weights

def test_condition_weight_identity_many_draws():
    rng = np.random.default_rng(0)
    k = 10.0 ** (rng.uniform(-2, 2, size=(10000, 2)))
    for kp, kq in k:
        w = condition_weights(kp, kq)
        assert abs(np.sum(w ** 2) - 1.0) < 1e-12


def test_condition_weight_limits():
    np.testing.assert_allclose(condition_weights(0.0, 0.0), [0, 0, 0, 1])
    np.testing.assert_allclose(condition_weights(np.inf, np.inf), [1, 0, 0, 0])
    np.testing.assert_allclose(condition_weights(np.inf, 0.0), [0, 1, 0, 0])
    np.testing.assert_allclose(condition_weights(0.0, np.inf), [0, 0, 1, 0])
    with pytest.raises(ConfigError):
        condition_weights(-0.5, 1.0)


def test_stored_k_weights_match_hop_factors():
    t1, t2, _ = make_links("LOS", "NLOS")
    paths = concatenate(t1, t2, ConcatCase.CASE_0)
    expect = condition_weights(t1.hop.k_factor, 0.0)
    np.testing.assert_array_equal(paths.k_weights, expect)
    assert paths.condition_pair == "LN"


# ---------------------------------------------------------- path counts

def test_case0_path_counts_both_los():
    t1, t2, _ = make_links("LOS", "LOS")
    paths = concatenate(t1, t2, ConcatCase.CASE_0)
    pt = paths.pair_type
    assert (pt == PairType.LL).sum() == 1
    assert (pt == PairType.LN).sum() == 12 * 20
    assert (pt == PairType.NL).sum() == 12 * 20
    assert (pt == PairType.NN).sum() == 12 * 20 * 12 * 20
    assert len(paths) == 1 + 240 + 240 + 57600


def test_nn_counts_per_case():
    t1, t2, streams = make_links("LOS", "NLOS")  # P=12, Q=19

    def nn_count(case):
        paths = concatenate(t1, t2, case, streams=concat_streams(streams))
        return int((paths.pair_type == PairType.NN).sum())

    assert nn_count(ConcatCase.CASE_0) == 12 * 20 * 19 * 20
    assert nn_count(ConcatCase.CASE_1) == 12 * 19 * 20
    assert nn_count(ConcatCase.CASE_2O) == 12 * 20
    assert nn_count(ConcatCase.CASE_2R) == 12 * 20
    assert nn_count(ConcatCase.CASE_3) == min(12 * 20, 19 * 20)


def test_case_a_keeps_only_specular_components():
    t1, t2, _ = make_links("LOS", "NLOS")
    paths = concatenate(t1, t2, ConcatCase.CASE_A)
    assert set(np.unique(paths.pair_type)) == {int(PairType.LN)}
    assert len(paths) == 19 * 20
    assert nn_power(paths) == 0.0
    # transmit side of every kept path is the specular ray
    assert np.all(paths.tx.cluster[paths.tx_idx] == -1)
    los = angles_between(t1.hop.from_node.position_m, t1.hop.to_node.position_m)
    assert np.all(paths.tx_zenith == los.zenith)


def test_case_a_empty_when_both_hops_diffuse():
    t1, t2, _ = make_links("NLOS", "NLOS")
    paths = concatenate(t1, t2, ConcatCase.CASE_A)
    assert len(paths) == 0
    assert paths.condition_pair == "NN"
    assert isinstance(paths, TargetPathSet)


# ------------------------------------------------------- power bookkeeping

def test_case0_nn_power_is_unity():
    t1, t2, _ = make_links("LOS", "NLOS")
    paths = concatenate(t1, t2, ConcatCase.CASE_0)
    assert nn_power(paths) == pytest.approx(1.0, abs=1e-12)


def test_case1_nn_power_is_case0_over_ray_count():
    t1, t2, _ = make_links("LOS", "NLOS")
    nn0 = nn_power(concatenate(t1, t2, ConcatCase.CASE_0))
    nn1 = nn_power(concatenate(t1, t2, ConcatCase.CASE_1))
    assert nn1 == pytest.approx(nn0 / 20.0, abs=1e-12)


def test_downselection_loses_nn_power():
    t1, t2, streams = make_links("NLOS", "NLOS", seed=3)
    nn0 = nn_power(concatenate(t1, t2, ConcatCase.CASE_0))
    for case in (ConcatCase.CASE_1, ConcatCase.CASE_2O,
                 ConcatCase.CASE_2R, ConcatCase.CASE_3):
        nn = nn_power(
            concatenate(t1, t2, case, streams=concat_streams(streams))
        )
        assert nn < nn0


def test_normalized_cases_restore_unit_nn_power():
    t1, t2, streams = make_links("LOS", "LOS", seed=4)
    for case in (ConcatCase.CASE_1N, ConcatCase.CASE_2ON,
                 ConcatCase.CASE_2RN, ConcatCase.CASE_3N):
        paths = concatenate(t1, t2, case, streams=concat_streams(streams))
        assert nn_power(paths) == pytest.approx(1.0, abs=1e-12)
        assert paths.case.normalizes_nn


def test_normalization_leaves_other_components_untouched():
    t1, t2, streams = make_links("LOS", "LOS", seed=5)
    base = concatenate(t1, t2, ConcatCase.CASE_2R, streams=concat_streams(streams))
    norm = concatenate(t1, t2, ConcatCase.CASE_2RN, streams=concat_streams(streams))
    for pt in (PairType.LL, PairType.LN, PairType.NL):
        np.testing.assert_array_equal(
            base.weight[base.pair_type == pt], norm.weight[norm.pair_type == pt]
        )
    # and identical pairing, so identical delays everywhere
    np.testing.assert_array_equal(base.joint_delay, norm.joint_delay)


@pytest.mark.parametrize("conds", [("LOS", "LOS"), ("LOS", "NLOS"), ("NLOS", "NLOS")])
def test_base_set_lends_its_blocks(conds):
    """One concatenate_group call builds every case: the cases share one
    object per LL/LN/NL block and one prefactor array, and an N case its
    base case's NN pairs. Every path, weight and prefactor is bit for bit
    what the case gets when it is built alone."""
    t1, t2, streams = make_links(*conds, seed=8)
    groups = concatenate_group((t1,), (t2,), ALL_CASES, (concat_streams(streams),))
    assert [g.case for g in groups] == list(ALL_CASES)
    outer = groups[0].blocks  # CaseA keeps only the LL/LN/NL blocks
    assert len(outer) == {"LOSLOS": 3, "LOSNLOS": 1, "NLOSNLOS": 0}["".join(conds)]
    by_case = {g.case: g for g in groups}
    for group in groups:
        assert group.k_weights is groups[0].k_weights
        assert all(map(operator.is_, group.blocks[:len(outer)], outer))
        if group.case.normalizes_nn:
            nn, base_nn = group.blocks[-1], by_case[group.case.base].blocks[-1]
            assert nn.tx_rows is base_nn.tx_rows and nn.rx_rows is base_nn.rx_rows
        shared = group[0]
        alone = concatenate(t1, t2, group.case, streams=concat_streams(streams))
        for column in ("tx_idx", "rx_idx", "weight", "pair_type"):
            np.testing.assert_array_equal(getattr(shared, column), getattr(alone, column),
                                          strict=True)
        np.testing.assert_array_equal(shared.k_weights, alone.k_weights, strict=True)


def test_case1n_marginals_match_case0():
    t1, t2, _ = make_links("LOS", "NLOS", seed=6)
    p0 = concatenate(t1, t2, ConcatCase.CASE_0)
    p1n = concatenate(t1, t2, ConcatCase.CASE_1N)
    for side in ("tx", "rx"):
        np.testing.assert_allclose(
            nn_marginal_power(p0, side), nn_marginal_power(p1n, side),
            atol=1e-12,
        )


# ----------------------------------------------------- pairing structure

def test_joint_delays_and_angles_consistent_with_links():
    t1, t2, _ = make_links("NLOS", "NLOS", seed=7)
    paths = concatenate(t1, t2, ConcatCase.CASE_2O)
    nn = paths.pair_type == PairType.NN
    tc, tr = paths.tx.cluster[paths.tx_idx][nn], paths.tx.ray[paths.tx_idx][nn]
    rc, rr = paths.rx.cluster[paths.rx_idx][nn], paths.rx.ray[paths.rx_idx][nn]

    def grid(table, column):  # a diffuse column as (cluster, ray)
        return getattr(table, column)[:table.num_diffuse].reshape(table.shape)

    np.testing.assert_allclose(
        paths.joint_delay[nn],
        grid(t1, "delay")[tc, tr] + grid(t2, "delay")[rc, rr], rtol=1e-15,
    )
    np.testing.assert_array_equal(paths.tx_azimuth[nn], grid(t1, "dep_azimuth")[tc, tr])
    np.testing.assert_array_equal(paths.spin_azimuth[nn], grid(t1, "arr_azimuth")[tc, tr])
    np.testing.assert_array_equal(paths.spout_zenith[nn], grid(t2, "dep_zenith")[rc, rr])
    np.testing.assert_array_equal(paths.rx_azimuth[nn], grid(t2, "arr_azimuth")[rc, rr])


def test_case2o_pairs_clusters_in_delay_order():
    t1, t2, _ = make_links("NLOS", "NLOS", seed=8)
    paths = concatenate(t1, t2, ConcatCase.CASE_2O)
    nn = paths.pair_type == PairType.NN
    # cluster i pairs with cluster i; rays pair by index
    tx, rx = paths.tx_idx[nn], paths.rx_idx[nn]
    np.testing.assert_array_equal(paths.tx.cluster[tx], paths.rx.cluster[rx])
    np.testing.assert_array_equal(paths.tx.ray[tx], paths.rx.ray[rx])


def test_case2r_uses_each_cluster_once():
    t1, t2, streams = make_links("LOS", "LOS", seed=9)
    paths = concatenate(
        t1, t2, ConcatCase.CASE_2R, streams=concat_streams(streams)
    )
    nn = paths.pair_type == PairType.NN
    pairs = set(zip(paths.tx.cluster[paths.tx_idx[nn]].tolist(),
                    paths.rx.cluster[paths.rx_idx[nn]].tolist()))
    assert len(pairs) == 12
    assert sorted(tc for tc, _ in pairs) == list(range(12))
    assert sorted(rc for _, rc in pairs) == list(range(12))
    # within each cluster pair the rays form a bijection
    for tc, rc in pairs:
        sel = nn & (paths.tx.cluster[paths.tx_idx] == tc)
        assert sorted(paths.tx.ray[paths.tx_idx][sel].tolist()) == list(range(20))
        assert sorted(paths.rx.ray[paths.rx_idx][sel].tolist()) == list(range(20))


def test_case3_pools_rays_without_reuse():
    t1, t2, streams = make_links("LOS", "NLOS", seed=10)
    paths = concatenate(
        t1, t2, ConcatCase.CASE_3, streams=concat_streams(streams)
    )
    nn = paths.pair_type == PairType.NN
    tx_flat = paths.tx.cluster[paths.tx_idx][nn] * 20 + paths.tx.ray[paths.tx_idx][nn]
    rx_flat = paths.rx.cluster[paths.rx_idx][nn] * 20 + paths.rx.ray[paths.rx_idx][nn]
    assert len(np.unique(tx_flat)) == nn.sum()
    assert len(np.unique(rx_flat)) == nn.sum()


def test_random_cases_need_streams():
    t1, t2, _ = make_links("LOS", "LOS", seed=11)
    for case in (ConcatCase.CASE_2R, ConcatCase.CASE_3,
                 ConcatCase.CASE_2RN, ConcatCase.CASE_3N):
        with pytest.raises(ConfigError):
            concatenate(t1, t2, case, streams=None)
    # deterministic cases run without streams
    concatenate(t1, t2, ConcatCase.CASE_2O)
    concatenate(t1, t2, ConcatCase.CASE_A)


def test_random_pairing_is_reproducible_and_seed_sensitive():
    t1, t2, streams = make_links("LOS", "LOS", seed=12)
    a = concatenate(t1, t2, ConcatCase.CASE_2R, streams=concat_streams(streams))
    b = concatenate(t1, t2, ConcatCase.CASE_2R, streams=concat_streams(streams))
    np.testing.assert_array_equal(a.joint_delay, b.joint_delay)
    other = RandomStreams(streams.master_seed, drop=streams.drop + 1)
    c = concatenate(t1, t2, ConcatCase.CASE_2R, streams=concat_streams(other))
    assert not np.array_equal(a.joint_delay, c.joint_delay)


def test_case_enum_properties():
    assert ConcatCase.CASE_2RN.base is ConcatCase.CASE_2R
    assert ConcatCase.CASE_2RN.normalizes_nn
    assert not ConcatCase.CASE_A.normalizes_nn
    assert ConcatCase.CASE_3N.uses_randomness
    assert not ConcatCase.CASE_1N.uses_randomness
    assert ConcatCase("Case2RN") is ConcatCase.CASE_2RN
