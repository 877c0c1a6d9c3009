"""Two-hop path concatenation: components, pairings, power bookkeeping."""
import dataclasses
import operator

import numpy as np
import pytest

from isacsim.concatenation import (
    ALL_CASES,
    ConcatCase,
    PairType,
    PathGroup,
    concatenate_group,
    condition_weights,
)
from isacsim.errors import ConfigError
from isacsim.geometry import NodeState, angles_between
from isacsim.largescale import ScenarioParams, build_hop, hop_spec
from isacsim.seeds import SCOPE_CONCAT, RandomStreams
from isacsim.smallscale import generate_sublinks
from isacsim.stats import STAT_FIELDS, group_statistics

F_HZ = 6e9


def make_links(cond1="LOS", cond2="LOS", seed=1, k1=4.0, k2=2.0):
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[25.0, 10.0, 1.5])
    rx = NodeState(position_m=[60.0, -5.0, 10.0])

    def hop(a, b, cond, k, hop_streams):
        drawn = build_hop(hop_spec(a, b, scen, cond), scen, hop_streams)
        return dataclasses.replace(drawn, k_factor=k if cond == "LOS" else 0.0)

    streams = RandomStreams(seed)
    h1 = hop(tx, tgt, cond1, k1, streams.scoped(0))
    h2 = hop(tgt, rx, cond2, k2, streams.scoped(1))
    t1, = generate_sublinks([h1], scen.condition_params(cond1), [streams.scoped(0)])
    t2, = generate_sublinks([h2], scen.condition_params(cond2), [streams.scoped(1)])
    return t1, t2, streams


def concat_streams(streams):
    """The concatenation-stage stream factories of a group of one drop."""
    return [streams.scoped(SCOPE_CONCAT)]


def nn_power(group):
    """Sum of squared stored NN weights of a one-drop group: its statistics
    row's nn_power."""
    return group_statistics([group])[0, 0, STAT_FIELDS.index("nn_power")]


def nn_marginal_power(group, side):
    """NN power through each diffuse row of one hop's table: a bincount
    over the rows of the one-drop group's NN paths."""
    it, ir, w, pt = group.paths(0)
    nn = pt == PairType.NN
    rows, table = (it, group.tx[0]) if side == "tx" else (ir, group.rx[0])
    return np.bincount(rows[nn], w[nn] ** 2, minlength=table.num_diffuse)


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
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_0])
    expect = condition_weights(t1.hop.k_factor, 0.0)
    np.testing.assert_array_equal(group.k_weights[0], expect)
    assert group.condition_pair == "LN"


# ---------------------------------------------------------- path counts

def test_case0_path_counts_both_los():
    t1, t2, _ = make_links("LOS", "LOS")
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_0])
    *_, pt = group.paths(0)
    assert (pt == PairType.LL).sum() == 1
    assert (pt == PairType.LN).sum() == 12 * 20
    assert (pt == PairType.NL).sum() == 12 * 20
    assert (pt == PairType.NN).sum() == 12 * 20 * 12 * 20
    assert len(group) == 1 + 240 + 240 + 57600


def test_nn_counts_per_case():
    t1, t2, streams = make_links("LOS", "NLOS")  # P=12, Q=19
    cases = (ConcatCase.CASE_0, ConcatCase.CASE_1, ConcatCase.CASE_2O,
             ConcatCase.CASE_2R, ConcatCase.CASE_3)
    groups = concatenate_group([t1], [t2], cases, concat_streams(streams))
    counts = [int((g.paths(0)[3] == PairType.NN).sum()) for g in groups]
    assert counts == [12 * 20 * 19 * 20, 12 * 19 * 20, 12 * 20, 12 * 20,
                      min(12 * 20, 19 * 20)]


def test_case_a_keeps_only_specular_components():
    t1, t2, _ = make_links("LOS", "NLOS")
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_A])
    it, _, _, pt = group.paths(0)
    assert set(np.unique(pt)) == {int(PairType.LN)}
    assert len(group) == 19 * 20
    assert nn_power(group) == 0.0
    # transmit side of every kept path is the specular ray
    assert np.all(it == t1.num_diffuse)
    los = angles_between(t1.hop.spec.from_node.position_m, t1.hop.spec.to_node.position_m)
    assert np.all(t1.dep_zenith[it] == los.zenith)


def test_case_a_empty_when_both_hops_diffuse():
    t1, t2, _ = make_links("NLOS", "NLOS")
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_A])
    assert len(group) == 0
    assert group.condition_pair == "NN"
    assert isinstance(group, PathGroup)
    for column, dtype in zip(group.paths(0), (np.intp, np.intp, float, np.int8)):
        assert column.shape == (0,) and column.dtype == dtype


# ------------------------------------------------------- power bookkeeping

def test_case0_nn_power_is_unity():
    t1, t2, _ = make_links("LOS", "NLOS")
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_0])
    assert nn_power(group) == pytest.approx(1.0, abs=1e-12)


def test_case1_nn_power_is_case0_over_ray_count():
    t1, t2, _ = make_links("LOS", "NLOS")
    nn0, nn1 = map(nn_power, concatenate_group([t1], [t2], [ConcatCase.CASE_0,
                                                           ConcatCase.CASE_1]))
    assert nn1 == pytest.approx(nn0 / 20.0, abs=1e-12)


def test_downselection_loses_nn_power():
    t1, t2, streams = make_links("NLOS", "NLOS", seed=3)
    cases = (ConcatCase.CASE_0, ConcatCase.CASE_1, ConcatCase.CASE_2O,
             ConcatCase.CASE_2R, ConcatCase.CASE_3)
    nn0, *nn = map(nn_power, concatenate_group([t1], [t2], cases, concat_streams(streams)))
    assert all(power < nn0 for power in nn)


def test_normalized_cases_restore_unit_nn_power():
    t1, t2, streams = make_links("LOS", "LOS", seed=4)
    cases = (ConcatCase.CASE_1N, ConcatCase.CASE_2ON, ConcatCase.CASE_2RN, ConcatCase.CASE_3N)
    for group in concatenate_group([t1], [t2], cases, concat_streams(streams)):
        assert nn_power(group) == pytest.approx(1.0, abs=1e-12)
        assert group.case.normalizes_nn


def test_normalization_leaves_other_components_untouched():
    t1, t2, streams = make_links("LOS", "LOS", seed=5)
    (bt, br, bw, bpt), (nt, nr, nw, npt) = (g.paths(0) for g in concatenate_group(
        [t1], [t2], [ConcatCase.CASE_2R, ConcatCase.CASE_2RN], concat_streams(streams)))
    for pt in (PairType.LL, PairType.LN, PairType.NL):
        np.testing.assert_array_equal(bw[bpt == pt], nw[npt == pt])
    # and identical pairing, so identical delays everywhere
    np.testing.assert_array_equal(t1.delay[bt] + t2.delay[br], t1.delay[nt] + t2.delay[nr])


@pytest.mark.parametrize("conds", [("LOS", "LOS"), ("LOS", "NLOS"), ("NLOS", "NLOS")])
def test_base_set_lends_its_blocks(conds):
    """One concatenate_group call builds every case: the cases share one
    object per LL/LN/NL block and one prefactor array, and an N case holds
    its base case's blocks. Every path, weight and prefactor is bit for bit
    what the case gets when it is built alone."""
    t1, t2, streams = make_links(*conds, seed=8)
    groups = concatenate_group((t1,), (t2,), ALL_CASES, concat_streams(streams))
    assert [g.case for g in groups] == list(ALL_CASES)
    outer = groups[0].blocks  # CaseA keeps only the LL/LN/NL blocks
    assert len(outer) == {"LOSLOS": 3, "LOSNLOS": 1, "NLOSNLOS": 0}["".join(conds)]
    by_case = {g.case: g for g in groups}
    for group in groups:
        assert group.k_weights is groups[0].k_weights
        assert all(map(operator.is_, group.blocks[:len(outer)], outer))
        if group.case.normalizes_nn:
            assert group.blocks is by_case[group.case.base].blocks
        else:
            assert group.nn_scale is None
        alone, = concatenate_group([t1], [t2], [group.case], concat_streams(streams))
        for shared, own in zip(group.paths(0), alone.paths(0), strict=True):
            np.testing.assert_array_equal(shared, own, strict=True)
        np.testing.assert_array_equal(group.k_weights[0], alone.k_weights[0], strict=True)


@pytest.mark.parametrize("case", [c for c in ALL_CASES if c.normalizes_nn])
def test_an_empty_diffuse_component_is_not_normalized(case):
    """Hop tables whose diffuse rows carry no weight: the N case has no NN
    power to rescale and is refused; its base case is built."""
    t1, t2, streams = make_links("LOS", "LOS", seed=9)
    t1, t2 = (dataclasses.replace(t, weight=np.where(np.arange(t.weight.size) < t.num_diffuse,
                                                     0.0, t.weight)) for t in (t1, t2))
    base, = concatenate_group([t1], [t2], [case.base], concat_streams(streams))
    _, _, weight, pair_type = base.paths(0)
    assert not weight[pair_type == PairType.NN].any()
    with pytest.raises(ConfigError, match="cannot normalize an empty diffuse component"):
        concatenate_group([t1], [t2], [case], concat_streams(streams))
    with pytest.raises(ConfigError, match="cannot normalize an empty diffuse component"):
        concatenate_group([t1], [t2], [case.base, case], concat_streams(streams))


def test_case1n_marginals_match_case0():
    t1, t2, _ = make_links("LOS", "NLOS", seed=6)
    p0, p1n = concatenate_group([t1], [t2], [ConcatCase.CASE_0, ConcatCase.CASE_1N])
    for side in ("tx", "rx"):
        np.testing.assert_allclose(
            nn_marginal_power(p0, side), nn_marginal_power(p1n, side),
            atol=1e-12,
        )


# ----------------------------------------------------- pairing structure

def test_joint_delays_and_angles_consistent_with_links():
    t1, t2, _ = make_links("NLOS", "NLOS", seed=7)
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_2O])
    it, ir, _, pt = group.paths(0)
    nn = pt == PairType.NN
    it, ir = it[nn], ir[nn]
    (tc, tr), (rc, rr) = divmod(it, t1.shape[1]), divmod(ir, t2.shape[1])

    def grid(table, column):  # a diffuse column as (cluster, ray)
        return getattr(table, column)[:table.num_diffuse].reshape(table.shape)

    np.testing.assert_allclose(
        t1.delay[it] + t2.delay[ir],
        grid(t1, "delay")[tc, tr] + grid(t2, "delay")[rc, rr], rtol=1e-15,
    )
    np.testing.assert_array_equal(t1.dep_azimuth[it], grid(t1, "dep_azimuth")[tc, tr])
    np.testing.assert_array_equal(t1.arr_azimuth[it], grid(t1, "arr_azimuth")[tc, tr])
    np.testing.assert_array_equal(t2.dep_zenith[ir], grid(t2, "dep_zenith")[rc, rr])
    np.testing.assert_array_equal(t2.arr_azimuth[ir], grid(t2, "arr_azimuth")[rc, rr])


def test_case2o_pairs_clusters_in_delay_order():
    t1, t2, _ = make_links("NLOS", "NLOS", seed=8)
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_2O])
    it, ir, _, pt = group.paths(0)
    nn = pt == PairType.NN
    # cluster i pairs with cluster i; rays pair by index
    tx, rx = it[nn], ir[nn]
    np.testing.assert_array_equal(tx // 20, rx // 20)
    np.testing.assert_array_equal(tx % 20, rx % 20)


def test_case2r_uses_each_cluster_once():
    t1, t2, streams = make_links("LOS", "LOS", seed=9)
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_2R], concat_streams(streams))
    it, ir, _, pt = group.paths(0)
    nn = pt == PairType.NN
    pairs = set(zip((it[nn] // 20).tolist(), (ir[nn] // 20).tolist()))
    assert len(pairs) == 12
    assert sorted(tc for tc, _ in pairs) == list(range(12))
    assert sorted(rc for _, rc in pairs) == list(range(12))
    # within each cluster pair the rays form a bijection
    for tc, rc in pairs:
        sel = nn & (it // 20 == tc)
        assert sorted((it[sel] % 20).tolist()) == list(range(20))
        assert sorted((ir[sel] % 20).tolist()) == list(range(20))


def test_case3_pools_rays_without_reuse():
    t1, t2, streams = make_links("LOS", "NLOS", seed=10)
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_3], concat_streams(streams))
    it, ir, _, pt = group.paths(0)
    nn = pt == PairType.NN
    tx_flat, rx_flat = it[nn], ir[nn]  # a diffuse row is cluster * M + ray
    assert len(np.unique(tx_flat)) == nn.sum()
    assert len(np.unique(rx_flat)) == nn.sum()


def test_random_cases_need_streams():
    t1, t2, _ = make_links("LOS", "LOS", seed=11)
    for case in (ConcatCase.CASE_2R, ConcatCase.CASE_3,
                 ConcatCase.CASE_2RN, ConcatCase.CASE_3N):
        with pytest.raises(ConfigError):
            concatenate_group([t1], [t2], [case], streams=None)
    # deterministic cases run without streams
    concatenate_group([t1], [t2], [ConcatCase.CASE_2O, ConcatCase.CASE_A])


def test_random_pairing_is_reproducible_and_seed_sensitive():
    t1, t2, streams = make_links("LOS", "LOS", seed=12)
    other = RandomStreams(streams.master_seed, drop=streams.drop + 1)
    a, b, c = (t1.delay[it] + t2.delay[ir] for it, ir, _, _ in (
        concatenate_group([t1], [t2], [ConcatCase.CASE_2R], concat_streams(s))[0].paths(0)
        for s in (streams, streams, other)))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("case", [ConcatCase.CASE_0, ConcatCase.CASE_1])
def test_group_refuses_more_tx_tables_than_rx_tables(case):
    t1, t2, _ = make_links("LOS", "LOS", seed=13)
    with pytest.raises(ConfigError, match="one tx table, one rx table"):
        concatenate_group([t1] * 3, [t2] * 2, [case])


def test_group_refuses_a_stream_factory_count_other_than_its_drops():
    t1, t2, streams = make_links("LOS", "LOS", seed=14)
    with pytest.raises(ConfigError, match="one stream factory"):
        concatenate_group([t1] * 3, [t2] * 3, [ConcatCase.CASE_2R], concat_streams(streams) * 2)


@pytest.mark.parametrize("drop", [-1, 3])
def test_paths_refuse_a_drop_outside_the_group(drop):
    t1, t2, streams = make_links("LOS", "LOS", seed=15)
    group, = concatenate_group([t1] * 3, [t2] * 3, [ConcatCase.CASE_1])
    with pytest.raises(IndexError, match="outside"):
        group.paths(drop)


def test_group_refuses_no_drops():
    with pytest.raises(ConfigError, match="one or more drops"):
        concatenate_group([], [], [ConcatCase.CASE_2R], [])


def test_case_enum_properties():
    assert ConcatCase.CASE_2RN.base is ConcatCase.CASE_2R
    assert ConcatCase.CASE_2RN.normalizes_nn
    assert not ConcatCase.CASE_A.normalizes_nn
    assert ConcatCase("Case2RN") is ConcatCase.CASE_2RN
