"""Drop statistics: weighted spreads, effective weights, CDF comparison."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from isacsim.concatenation import (
    ALL_CASES,
    ConcatCase,
    PairType,
    PathBlock,
    PathGroup,
    concatenate_group,
)
from isacsim.config import validate_config
from isacsim.errors import ConfigError
from isacsim.geometry import NodeState
from isacsim.largescale import ScenarioParams, build_hop, hop_spec
from isacsim.runner import build_node
from isacsim.seeds import HOP_TARGET_RX, HOP_TX_TARGET, SCOPE_CONCAT, RandomStreams
from isacsim.smallscale import HopTable, generate_sublinks, mono_static_reciprocal
from isacsim.stats import STAT_FIELDS, empirical_cdf, group_statistics, ks_statistic


def make_paths(delays, weights, pair_types, k_weights=(0.5, 0.5, 0.5, 0.5),
               rx_azi=None, rx_zen=None, tx_azi=None, tx_zen=None,
               los_tx=True, los_rx=True):
    """A group of one drop whose path i joins row i of two hop tables; the
    tx table holds the delays and departure angles, the rx table zero
    delays and arrival angles. The paths of each pair type form one paired
    block."""
    n = len(delays)
    z = np.zeros(n)
    rows = np.arange(n)
    pair_types = np.asarray(pair_types, np.int8)
    weights = np.asarray(weights, float)

    def arr(x, default):
        return np.asarray(x, float) if x is not None else default

    tx = HopTable(
        hop=None, shape=(1, n - los_tx), weight=z, delay=np.asarray(delays, float),
        dep_zenith=arr(tx_zen, z + np.pi / 2), dep_azimuth=arr(tx_azi, z),
        arr_zenith=z, arr_azimuth=z, xpr=None, phases=None,
    )
    rx = HopTable(
        hop=None, shape=(1, n - los_rx), weight=z, delay=z,
        dep_zenith=z, dep_azimuth=z,
        arr_zenith=arr(rx_zen, z + np.pi / 2), arr_azimuth=arr(rx_azi, z),
        xpr=None, phases=None,
    )
    blocks = tuple(
        PathBlock(PairType(pt), rows[pair_types == pt], rows[pair_types == pt],
                  weights[None, pair_types == pt])
        for pt in dict.fromkeys(pair_types.tolist())
    )
    return PathGroup(
        case=ConcatCase.CASE_0, tx=(tx,), rx=(rx,), blocks=blocks,
        k_weights=np.asarray(k_weights, float)[None],
    )


def stat(group, field):
    """One field of a one-drop group's statistics row."""
    return group_statistics([group])[0, 0, STAT_FIELDS.index(field)]


def effective_weights(group):
    """Per-path oracle of the effective weights of a one-drop group: each
    pair-type component scaled to unit power, then by its condition
    prefactor."""
    if len(group) == 0:
        raise ConfigError("empty path set has no weights")
    _, _, weight, pair_type = group.paths(0)
    w = weight.astype(float).copy()
    for pt in np.unique(pair_type):
        mask = pair_type == pt
        power = float(np.sum(w[mask] ** 2))
        if power <= 0:
            raise ConfigError("a path component has zero total power")
        w[mask] *= group.k_weights[0][int(pt)] / np.sqrt(power)
    return w


# ----------------------------------------------------------- delay spread

def test_delay_spread_two_path_oracles():
    p = make_paths([0.0, 100e-9], [1.0, 1.0], [0, 0])
    assert stat(p, "ds") == pytest.approx(50e-9, rel=1e-12)
    p = make_paths([0.0, 100e-9], [1.0, 2.0], [0, 0])
    # powers 1/5 and 4/5: mean 80 ns, rms 40 ns
    assert stat(p, "ds") == pytest.approx(40e-9, rel=1e-12)


def test_delay_spread_degenerate_cases():
    p = make_paths([42e-9], [1.0], [0])
    assert stat(p, "ds") == 0.0
    p = make_paths([1e-9, 1e-9], [1.0, 3.0], [0, 0])
    assert stat(p, "ds") == 0.0
    empty = group_statistics([make_paths([], [], [])])[0, 0]
    np.testing.assert_array_equal(empty, [0.0, 0.0] + [np.nan] * 5)


def test_spread_invariances():
    delays = [0.0, 30e-9, 90e-9]
    weights = [1.0, 0.5, 0.25]
    base = stat(make_paths(delays, weights, [0, 0, 0]), "ds")
    scaled_w = stat(make_paths(delays, [7 * w for w in weights], [0, 0, 0]), "ds")
    assert scaled_w == pytest.approx(base, rel=1e-12)
    scaled_t = stat(make_paths([2 * d for d in delays], weights, [0, 0, 0]), "ds")
    assert scaled_t == pytest.approx(2 * base, rel=1e-12)


# ---------------------------------------------------------- angle spreads

def test_zenith_spread_plain_rms():
    p = make_paths([0.0, 1e-9], [1.0, 1.0], [0, 0],
                   rx_zen=np.radians([60.0, 120.0]), tx_zen=np.radians([80.0, 90.0]))
    assert stat(p, "zsa") == pytest.approx(30.0, rel=1e-12)
    assert stat(p, "zsd") == pytest.approx(5.0, rel=1e-12)


def test_azimuth_spread_is_circular():
    p = make_paths([0.0, 1e-9], [1.0, 1.0], [0, 0],
                   rx_azi=np.radians([179.0, -179.0]))
    # the two directions are 2 degrees apart across the wrap point
    assert stat(p, "asa") == pytest.approx(1.0, rel=1e-9)
    p = make_paths([0.0, 1e-9], [1.0, 1.0], [0, 0],
                   tx_azi=np.radians([-1.0, 1.0]))
    assert stat(p, "asd") == pytest.approx(1.0, rel=1e-9)


def test_circular_spread_matches_direct_cut_search():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 40
        azi = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(0.1, 2.0, n)
        p = make_paths(np.arange(n) * 1e-9, w, np.zeros(n, int), rx_azi=azi)
        got = stat(p, "asa")

        order = np.argsort(np.degrees(azi))
        a = np.degrees(azi)[order]
        pw = (effective_weights(p) ** 2)[order]
        best = np.inf
        for k in range(n):
            shifted = a.copy()
            shifted[:k] += 360.0
            mean = np.sum(pw * shifted) / pw.sum()
            var = np.sum(pw * (shifted - mean) ** 2) / pw.sum()
            best = min(best, np.sqrt(var))
        assert got == pytest.approx(best, rel=1e-9)


def test_spread_of_one_shared_azimuth_is_zero():
    p = make_paths([0.0, 1e-9], [1.0, 1.0], [0, 0])
    assert stat(p, "asa") == 0.0  # all paths share one azimuth


# ------------------------------------------------- weights and power sums

def test_effective_weights_normalize_each_component():
    p = make_paths([0.0, 1e-9, 2e-9], [3.0, 4.0, 5.0], [0, 0, 3],
                   k_weights=(0.8, 0.0, 0.0, 0.6))
    eff = effective_weights(p)
    np.testing.assert_allclose(eff, [0.8 * 0.6, 0.8 * 0.8, 0.6], rtol=1e-12)
    assert float(np.sum(eff ** 2)) == pytest.approx(0.8 ** 2 + 0.6 ** 2, rel=1e-12)


def test_effective_weights_reject_degenerate_blocks():
    with pytest.raises(ConfigError):
        effective_weights(make_paths([], [], []))
    with pytest.raises(ConfigError, match="zero total power"):
        effective_weights(make_paths([0.0, 1e-9], [0.0, 0.0], [0, 0]))
    with pytest.raises(ConfigError, match="zero total power"):
        group_statistics([make_paths([0.0, 1e-9], [0.0, 0.0], [0, 0])])


def test_total_power_uses_raw_weights():
    p = make_paths([0.0, 1e-9, 2e-9], [3.0, 4.0, 5.0], [0, 0, 3],
                   k_weights=(0.8, 0.0, 0.0, 0.6))
    expect = 0.8 ** 2 * (9 + 16) + 0.6 ** 2 * 25
    assert stat(p, "total_power") == pytest.approx(expect, rel=1e-12)


def test_drop_statistics_bundle():
    p = make_paths([0.0, 100e-9], [1.0, 1.0], [0, 0],
                   rx_zen=np.radians([60.0, 120.0]), los_rx=False)
    st = dict(zip(STAT_FIELDS, group_statistics([p])[0, 0]))
    assert st["ds"] == pytest.approx(50e-9, rel=1e-12)
    assert st["zsa"] == pytest.approx(30.0, rel=1e-12)
    assert st["asa"] == 0.0 and st["asd"] == 0.0 and st["zsd"] == 0.0
    assert p.condition_pair == "LN"
    assert st["total_power"] == pytest.approx(2 * 0.25, rel=1e-12)


# --------------------------------------- trailing power normalization

def test_power_normalization_never_moves_spreads():
    scen = ScenarioParams.from_table("UMi", 6e9)
    tx = NodeState([0.0, 0.0, 10.0])
    tgt = NodeState([25.0, 10.0, 1.5])
    rx = NodeState([60.0, -5.0, 10.0])
    streams = RandomStreams(21)
    h1 = build_hop(hop_spec(tx, tgt, scen, "LOS"), scen, streams.scoped(HOP_TX_TARGET))
    h2 = build_hop(hop_spec(tgt, rx, scen, "LOS"), scen, streams.scoped(HOP_TARGET_RX))
    sub1, sub2 = generate_sublinks(
        [h1, h2], scen.condition_params("LOS"),
        [streams.scoped(HOP_TX_TARGET), streams.scoped(HOP_TARGET_RX)])
    base, norm = concatenate_group([sub1], [sub2], [ConcatCase.CASE_2R, ConcatCase.CASE_2RN],
                                   [streams.scoped(SCOPE_CONCAT)])
    # each reduced in its own pass, so the N set is not read off its base set
    st_b, st_n = (dict(zip(STAT_FIELDS, group_statistics([g])[0, 0])) for g in (base, norm))
    for field in ("ds", "asa", "asd", "zsa", "zsd"):
        assert abs(st_b[field] - st_n[field]) < 1e-12
    assert st_n["total_power"] == pytest.approx(1.0, rel=1e-12)
    assert st_b["total_power"] < 1.0


# ------------------------------------------------------- CDFs and the KS

def test_empirical_cdf_steps():
    cdf = empirical_cdf([3.0, 1.0, 2.0])
    np.testing.assert_allclose(cdf.values, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(cdf.probabilities, [1 / 3, 2 / 3, 1.0])
    assert cdf.n == 3
    with pytest.raises(ConfigError):
        empirical_cdf([])


def test_ks_statistic_known_values():
    a = empirical_cdf([1.0, 2.0, 3.0, 4.0])
    assert ks_statistic(a, a) == 0.0
    b = empirical_cdf([10.0, 11.0])
    assert ks_statistic(a, b) == 1.0
    c = empirical_cdf([1.5, 2.5, 3.5, 4.5])
    assert ks_statistic(a, c) == pytest.approx(0.25, rel=1e-12)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(300)
    y = rng.standard_normal(200) + 0.3
    got = ks_statistic(empirical_cdf(x), empirical_cdf(y))
    assert got == pytest.approx(ks_2samp(x, y).statistic, rel=1e-12)


# ------------------------------- per-path oracle of the marginal kernel

def oracle_rms(values, p):
    mean = np.sum(p * values) / p.sum()
    return float(np.sqrt(np.sum(p * (values - mean) ** 2) / p.sum()))


def oracle_circular(angles_deg, p):
    """Prefix-sum search of the best cut over every path, then centered RMS."""
    order = np.argsort(angles_deg)
    a, pw = angles_deg[order], p[order]
    cw = np.concatenate([[0.0], np.cumsum(pw)[:-1]])
    cwa = np.concatenate([[0.0], np.cumsum(pw * a)[:-1]])
    s1 = np.sum(pw * a) + 360.0 * cw
    s2 = np.sum(pw * a ** 2) + 720.0 * cwa + 360.0 ** 2 * cw
    k = int(np.argmin(s2 / pw.sum() - (s1 / pw.sum()) ** 2))
    a = a.copy()
    a[:k] += 360.0
    return oracle_rms(a, pw)


def oracle_statistics(group):
    """Statistics of a one-drop group from its paths, one by one."""
    it, ir, weight, pair_type = group.paths(0)
    tx, rx = group.tx[0], group.rx[0]
    p = effective_weights(group) ** 2

    def spread(values, circular=False):
        if values.max() == values.min():
            return 0.0
        return oracle_circular(values, p) if circular else oracle_rms(values, p)

    return {
        "total_power": float(np.sum((group.k_weights[0][pair_type] * weight) ** 2)),
        "nn_power": float(np.sum(weight[pair_type == PairType.NN] ** 2)),
        "ds": spread(tx.delay[it] + rx.delay[ir]),
        "asa": spread(np.degrees(rx.arr_azimuth[ir]), circular=True),
        "asd": spread(np.degrees(tx.dep_azimuth[it]), circular=True),
        "zsa": spread(np.degrees(rx.arr_zenith[ir])),
        "zsd": spread(np.degrees(tx.dep_zenith[it])),
    }


def default_config_drops(count, condition=None, seed=3, monostatic=False):
    """(tx table, rx table, concatenation streams) of drops of the default
    configuration, built the way the runner builds them; a mono-static
    drop's second hop is its first, reversed."""
    cfg = validate_config("frequency_hz = 6e9\n")
    scen = ScenarioParams.from_table(cfg.scenario, cfg.frequency_hz)
    tx, tgt, rx = (build_node(n, cfg.wavelength_m) for n in (cfg.tx, cfg.target, cfg.rx))
    drops = []
    for d in range(count):
        streams = RandomStreams(seed, drop=d)
        tables = []
        for a, b, scope in ((tx, tgt, HOP_TX_TARGET), (tgt, rx, HOP_TARGET_RX)):
            if monostatic and tables:
                tables.append(mono_static_reciprocal(tables[0]))
                break
            hop = build_hop(hop_spec(a, b, scen, condition or "auto"), scen, streams.scoped(scope))
            tables += generate_sublinks([hop], scen.condition_params(hop.condition),
                                        [streams.scoped(scope)])
        drops.append((*tables, streams.scoped(SCOPE_CONCAT)))
    return drops


@pytest.fixture(scope="module")
def oracle_drops():
    """40 drops with auto conditions, then forced LOS/LOS and NLOS/NLOS
    drops (whose CaseA set is empty), then LOS/LOS drops whose table weights
    are scaled row by row, so no hop's powers sum to one, then mono-static
    drops with auto conditions and forced NLOS."""
    rng = np.random.default_rng(6)

    def rescaled(table):
        return replace(table, weight=table.weight * rng.uniform(0.5, 1.5, table.weight.size))

    return (default_config_drops(40) + default_config_drops(6, "LOS", seed=4)
            + default_config_drops(6, "NLOS", seed=5)
            + [(rescaled(t1), rescaled(t2), s)
               for t1, t2, s in default_config_drops(6, "LOS", seed=7)]
            + default_config_drops(8, seed=8, monostatic=True)
            + default_config_drops(2, "NLOS", seed=9, monostatic=True))


def test_marginal_statistics_match_per_path_oracle(oracle_drops):
    """Each set on its own, and every case of a drop in one statistics pass,
    where the other cases' rows share the power matrices: bistatic and
    mono-static drops, every block shape (outer, paired, an outer block
    shared by every case) and empty sets."""
    pairs = set()
    empty = 0
    worst = 0.0
    mono = 0
    for t1, t2, streams in oracle_drops:
        mono += t2.hop.spec.to_node is t1.hop.spec.from_node  # hop 2 returns to the transmitter
        # each case built in a call of its own, so no two sets share a block
        sets = [concatenate_group([t1], [t2], [case], [streams])[0] for case in ALL_CASES]
        table = group_statistics(sets)[0]
        for group, row in zip(sets, table):
            if len(group) == 0:  # the row the runner writes for an empty set
                assert group.case is ConcatCase.CASE_A
                np.testing.assert_array_equal(row, [0.0, 0.0] + [np.nan] * 5)
                empty += 1
                continue
            pairs.add(group.condition_pair)
            alone = group_statistics([group])[0, 0]
            want = oracle_statistics(group)
            for field, on_its_own, in_table in zip(STAT_FIELDS, alone, row):
                for got in (on_its_own, in_table):
                    if want[field] == 0.0:
                        assert got == 0.0, (group.case, field)
                    else:
                        worst = max(worst, abs(got - want[field]) / abs(want[field]))
    assert pairs == {"LL", "LN", "NL", "NN"}
    assert empty > 0
    assert mono == 10
    assert worst <= 1e-12


def layout_drops(layouts, seed, split_strongest, absolute_delay, monostatic):
    """(tx table, rx table, concatenation streams) of one drop per layout
    ('LN': the tx->target hop LOS, the target->rx hop NLOS; a mono-static
    drop's second hop is its first, reversed), the hops of one condition
    generated together, as the runner does."""
    cfg = validate_config("frequency_hz = 6e9\n")
    scen = ScenarioParams.from_table(cfg.scenario, cfg.frequency_hz)
    tx, tgt, rx = (build_node(n, cfg.wavelength_m) for n in (cfg.tx, cfg.target, cfg.rx))
    links = []  # (drop, hop, its streams)
    for d, layout in enumerate(layouts):
        streams = RandomStreams(seed, drop=d)
        ends = ((tx, tgt, HOP_TX_TARGET), (tgt, rx, HOP_TARGET_RX))[:1 if monostatic else 2]
        for (a, b, scope), cond in zip(ends, layout):
            spec = hop_spec(a, b, scen, "LOS" if cond == "L" else "NLOS")
            hop = build_hop(spec, scen, streams.scoped(scope))
            links.append((d, hop, streams.scoped(scope)))
    tables = {d: [] for d in range(len(layouts))}
    for cond in ("LOS", "NLOS"):
        group = [link for link in links if link[1].condition == cond]
        if group:
            drops, hops, streams = zip(*group)
            made = generate_sublinks(hops, scen.condition_params(cond), streams,
                                     split_strongest, absolute_delay)
            for d, table in zip(drops, made):
                tables[d].append(table)
    return [(t[0], mono_static_reciprocal(t[0]) if monostatic else t[1],
             RandomStreams(seed, drop=d).scoped(SCOPE_CONCAT)) for d, t in tables.items()]


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(layouts=st.lists(st.sampled_from(["LL", "LN", "NL", "NN"]), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16), split_strongest=st.booleans(),
       absolute_delay=st.booleans(), monostatic=st.booleans())
@example(["LL"] * 8, 3, True, True, False)
@example(["LL", "NN", "LL", "LL", "NN", "LL", "NN", "NN"], 4, True, False, True)
@example(["NL", "LN", "NN", "LL", "LN", "LN", "NL", "LN"], 5, False, True, False)
def test_group_rows_are_the_one_drop_rows(layouts, seed, split_strongest, absolute_delay,
                                          monostatic):
    """Drops that share a hop-table layout, concatenated and reduced as one
    group, get bit for bit the rows and, under every case, the paths (rows,
    amplitudes and pair types) each gets on its own."""
    drops = layout_drops(layouts, seed, split_strongest, absolute_delay, monostatic)
    groups = {}
    for d, (t1, t2, _) in enumerate(drops):
        groups.setdefault((t1.has_los, t2.has_los), []).append(d)
    for members in groups.values():
        tx, rx, streams = (tuple(drops[d][i] for d in members) for i in range(3))
        sets = concatenate_group(tx, rx, ALL_CASES, streams)
        table = group_statistics(sets)
        assert table.shape == (len(members), len(ALL_CASES), len(STAT_FIELDS))
        for i, d in enumerate(members):
            t1, t2, drop_streams = drops[d]
            alone = concatenate_group((t1,), (t2,), ALL_CASES, (drop_streams,))
            for row, want in zip(table[i], group_statistics(alone)[0]):
                assert np.array_equal(row, want, equal_nan=True), (members, d)
            assert len(alone) == len(ALL_CASES) == 10
            for group, one in zip(sets, alone, strict=True):
                for got, want in zip(group.paths(i), one.paths(0), strict=True):
                    np.testing.assert_array_equal(got, want, strict=True)


def test_group_kernels_refuse_tables_they_cannot_share():
    (l1, l2, s1), (n1, n2, s2) = layout_drops(["LL", "NN"], 2, False, False, False)
    with pytest.raises(ConfigError, match="share their hop-table layout"):
        concatenate_group((l1, n1), (l2, n2), [ConcatCase.CASE_2R], (s1, s2))
    with pytest.raises(ConfigError, match="share their hop tables"):
        group_statistics([concatenate_group([l1], [l2], [ConcatCase.CASE_1])[0],
                          concatenate_group([n1], [n2], [ConcatCase.CASE_1])[0]])
    with pytest.raises(ConfigError, match="one or more path sets"):
        group_statistics([])


def test_n_rows_are_read_off_their_base_rows(oracle_drops):
    """With shared blocks, an N row's spread columns are its base row's,
    its power columns those of the set reduced alone, and every row is
    within 1e-12 of the per-path oracle."""
    worst = 0.0
    for t1, t2, streams in oracle_drops:
        groups = concatenate_group((t1,), (t2,), ALL_CASES, (streams,))
        sets = {g.case: g for g in groups}
        rows = dict(zip(sets, group_statistics(groups)[0]))
        for case, group in sets.items():
            if len(group) == 0:
                continue
            want = oracle_statistics(group)
            for field, got in zip(STAT_FIELDS, rows[case]):
                if want[field] == 0.0:
                    assert got == 0.0, (case, field)
                else:
                    worst = max(worst, abs(got - want[field]) / abs(want[field]))
            if not case.normalizes_nn:
                continue
            nn = group.blocks[-1]
            assert nn.tx_rows is sets[case.base].blocks[-1].tx_rows  # the premise
            assert rows[case][2:].tobytes() == rows[case.base][2:].tobytes()
            alone = group_statistics([group])[0, 0]  # its base set not in the pass
            assert rows[case][:2].tobytes() == alone[:2].tobytes()
            np.testing.assert_allclose(rows[case][2:], alone[2:], rtol=1e-12, atol=0)
            assert rows[case][1] == pytest.approx(np.sum(nn.weight ** 2), rel=1e-15)
            assert "%.12e" % rows[case][1] == "1.000000000000e+00"
    assert worst <= 1e-12


def test_case0_nn_block_matches_materialized_paths(oracle_drops):
    nn_power = STAT_FIELDS.index("nn_power")
    for t1, t2, _ in oracle_drops[40:]:
        group, = concatenate_group([t1], [t2], [ConcatCase.CASE_0])
        _, _, weight, pair_type = group.paths(0)
        nn = pair_type == PairType.NN
        assert group_statistics([group])[0, 0, nn_power] == pytest.approx(
            np.sum(weight[nn] ** 2), rel=1e-12)


def test_case0_assembles_todays_row_pairs(oracle_drops):
    for t1, t2, _ in oracle_drops[40:]:
        group, = concatenate_group([t1], [t2], [ConcatCase.CASE_0])
        it, ir, weight, _ = group.paths(0)
        nt, nr = t1.num_diffuse, t2.num_diffuse
        los_t, los_r = t1.has_los, t2.has_los
        tx_parts, rx_parts = [], []
        if los_t and los_r:
            tx_parts.append([nt])
            rx_parts.append([nr])
        if los_t:
            tx_parts.append(np.full(nr, nt))
            rx_parts.append(np.arange(nr))
        if los_r:
            tx_parts.append(np.arange(nt))
            rx_parts.append(np.full(nt, nr))
        tx_parts.append(np.repeat(np.arange(nt), nr))
        rx_parts.append(np.tile(np.arange(nr), nt))
        np.testing.assert_array_equal(it, np.concatenate(tx_parts))
        np.testing.assert_array_equal(ir, np.concatenate(rx_parts))
        assert len(group) == (los_t and los_r) + los_t * nr + los_r * nt + nt * nr
        np.testing.assert_array_equal(weight, t1.weight[it] * t2.weight[ir])

