"""Cluster generation into hop tables: delays, powers, angles, XPR, phases,
the specular row and reciprocity."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim.constants import SPEED_OF_LIGHT
from isacsim.errors import ConfigError
from isacsim.geometry import NodeState, angles_between
from isacsim.largescale import ScenarioParams, build_hop, hop_spec
from isacsim.seeds import RandomStreams
from isacsim.smallscale import (
    RAY_OFFSETS,
    generate_sublinks,
    mono_static_reciprocal,
)

F_HZ = 6e9
SCEN = ScenarioParams.from_table("UMi", F_HZ)


def make_hop(condition, streams, k_factor=None, to_xyz=(40.0, 0.0, 1.5), reverse=False):
    """The hop from a base station at 10 m to ``to_xyz`` (the other way
    round if ``reverse``), drawn on the streams its table is generated
    from; ``k_factor`` pins its K."""
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=list(to_xyz))
    ends = (tgt, tx) if reverse else (tx, tgt)
    hop = build_hop(hop_spec(*ends, SCEN, condition), SCEN, streams)
    return hop if k_factor is None else dataclasses.replace(hop, k_factor=k_factor)


def params_for(condition):
    return SCEN.condition_params(condition)


def grid(table, column):
    """A diffuse column of the table as a (cluster, ray) array."""
    return getattr(table, column)[:table.num_diffuse].reshape(table.shape)


def cluster_delays(table):
    return grid(table, "delay")[:, 0]  # ray 0 is never split off its cluster


def cluster_powers(table):
    return np.sum(grid(table, "weight") ** 2, axis=1)


def test_ray_offsets_layout():
    assert RAY_OFFSETS.shape == (20,)
    assert RAY_OFFSETS.sum() == pytest.approx(0.0, abs=1e-15)
    # +/- interleaved, magnitudes ascending in pairs
    assert RAY_OFFSETS[0] == 0.0447 and RAY_OFFSETS[1] == -0.0447
    assert RAY_OFFSETS[18] == 2.1551 and RAY_OFFSETS[19] == -2.1551


def test_shapes_and_basic_invariants():
    for condition, n in (("LOS", 12), ("NLOS", 19)):
        streams = RandomStreams(1)
        hop = make_hop(condition, streams, k_factor=3.0 if condition == "LOS" else 0.0)
        t = generate_sublinks([hop], params_for(condition), [streams])[0]
        los = condition == "LOS"
        assert t.shape == (n, 20) and t.num_diffuse == n * 20
        assert t.has_los == los
        for col in (t.weight, t.delay, t.dep_zenith, t.dep_azimuth,
                    t.arr_zenith, t.arr_azimuth):
            assert col.shape == (n * 20 + los,)
        assert t.xpr.shape == (n * 20,)
        assert t.phases.shape == (n * 20, 4)
        # row cluster*M + ray: the rays of a cluster share its weight, and ray
        # r leaves at the cluster's departure azimuth plus c_ASD * offset r
        weight = grid(t, "weight")
        np.testing.assert_array_equal(weight, np.repeat(weight[:, :1], 20, 1))
        fan = np.degrees(grid(t, "dep_azimuth") - grid(t, "dep_azimuth")[:, :1])
        np.testing.assert_allclose(
            (fan + 180.0) % 360.0 - 180.0,
            np.tile(params_for(condition).c_asd_deg * (RAY_OFFSETS - RAY_OFFSETS[0]), (n, 1)),
            atol=1e-9,
        )
        assert np.sum(t.weight[:n * 20] ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(cluster_powers(t) > 0)
        # the rays of a cluster share its delay; clusters ascend from 0
        np.testing.assert_array_equal(grid(t, "delay").T, np.tile(cluster_delays(t), (20, 1)))
        assert np.all(np.diff(cluster_delays(t)) >= 0)
        assert cluster_delays(t)[0] == 0.0
        assert t.delay.min() == 0.0


@pytest.mark.parametrize("absolute_delay", [False, True])
def test_los_row_is_the_specular_ray(absolute_delay):
    streams = RandomStreams(2)
    hop = make_hop("LOS", streams, k_factor=3.0, to_xyz=(40.0, 10.0, 1.5))
    t = generate_sublinks([hop], params_for("LOS"), [streams],
                          absolute_delay=absolute_delay)[0]
    los = t.num_diffuse
    assert los == 12 * 20 and t.weight.size == los + 1
    assert t.weight[los] == 1.0
    assert divmod(los, 20) == (t.shape[0], 0)  # one cluster past the last
    assert t.delay[los] == (hop.spec.d3d_m / SPEED_OF_LIGHT if absolute_delay else 0.0)
    dep = angles_between(hop.spec.from_node.position_m, hop.spec.to_node.position_m)
    arr = angles_between(hop.spec.to_node.position_m, hop.spec.from_node.position_m)
    assert (t.dep_zenith[los], t.dep_azimuth[los]) == (dep.zenith, dep.azimuth)
    assert (t.arr_zenith[los], t.arr_azimuth[los]) == (arr.zenith, arr.azimuth)


def test_generation_is_deterministic():
    hop = make_hop("LOS", RandomStreams(9, drop=4), k_factor=5.0)
    p = params_for("LOS")
    a = generate_sublinks([hop], p, [RandomStreams(9, drop=4)])[0]
    b = generate_sublinks([hop], p, [RandomStreams(9, drop=4)])[0]
    np.testing.assert_array_equal(a.delay, b.delay)
    np.testing.assert_array_equal(a.arr_azimuth, b.arr_azimuth)
    np.testing.assert_array_equal(a.phases, b.phases)
    c = generate_sublinks([make_hop("LOS", RandomStreams(9, drop=5), k_factor=5.0)], p,
                          [RandomStreams(9, drop=5)])[0]
    assert not np.array_equal(a.delay, c.delay)


def test_power_delay_law_without_cluster_shadowing():
    # with zero per-cluster shadowing, ln(P) must be exactly affine in delay
    p = dataclasses.replace(params_for("NLOS"), cluster_shadowing_std_db=0.0)
    streams = RandomStreams(2)
    t = generate_sublinks([make_hop("NLOS", streams)], p, [streams])[0]
    x = cluster_delays(t)
    y = np.log(cluster_powers(t))
    slope, intercept = np.polyfit(x, y, 1)
    np.testing.assert_allclose(y, slope * x + intercept, atol=1e-9)
    assert slope < 0


def test_los_delay_rescale_applies_to_delays_only():
    k = 10.0 ** (9.0 / 10.0)  # 9 dB
    p_los = params_for("LOS")
    streams = RandomStreams(5)
    hop_los = make_hop("LOS", streams, k_factor=k)
    hop_k0 = make_hop("LOS", streams, k_factor=0.0)  # K = 0: no delay rescale
    t_los = generate_sublinks([hop_los], p_los, [streams])[0]
    t_raw = generate_sublinks([hop_k0], p_los, [streams])[0]
    k_db = 9.0
    c_tau = 0.7705 - 0.0433 * k_db + 0.0002 * k_db ** 2 + 0.000017 * k_db ** 3
    np.testing.assert_allclose(
        cluster_delays(t_los), cluster_delays(t_raw) / c_tau, rtol=1e-12
    )
    # powers come from the unscaled delays, so they match exactly
    np.testing.assert_array_equal(cluster_powers(t_los), cluster_powers(t_raw))


def test_ray_offset_fan_out_pattern():
    p = params_for("NLOS")
    streams = RandomStreams(3)
    t = generate_sublinks([make_hop("NLOS", streams)], p, [streams])[0]
    deg = np.degrees(grid(t, "dep_azimuth"))
    expected = np.sort(p.c_asd_deg * RAY_OFFSETS)
    for row in deg:
        if np.max(np.abs(row)) > 170.0:
            continue  # skip rows that may have wrapped
        centered = np.sort(row - row.mean())
        np.testing.assert_allclose(centered, expected, atol=1e-9)


def test_ray_coupling_shuffles_arrival_but_not_departure():
    p = params_for("NLOS")
    streams = RandomStreams(3)
    t = generate_sublinks([make_hop("NLOS", streams)], p, [streams])[0]
    aod_deg = np.degrees(grid(t, "dep_azimuth"))
    # departure azimuths keep the interleaved offset order
    steps = np.diff(p.c_asd_deg * RAY_OFFSETS)
    row = aod_deg[np.argmax(np.all(np.abs(aod_deg) < 170.0, axis=1))]
    np.testing.assert_allclose(np.diff(row), steps, atol=1e-9)
    # arrivals are a permutation of the same offset fan, usually reordered
    aoa_deg = np.degrees(grid(t, "arr_azimuth"))
    reordered = 0
    for row in aoa_deg:
        if np.max(np.abs(row)) > 170.0:
            continue
        centered = np.sort(row - row.mean())
        np.testing.assert_allclose(
            centered, np.sort(p.c_asa_deg * RAY_OFFSETS), atol=1e-9
        )
        if not np.all(np.diff(row) * np.sign(steps) > 0):
            reordered += 1
    assert reordered > 0


def circular_mean_deg(angles_rad):
    z = np.exp(1j * angles_rad).mean()
    return np.degrees(np.angle(z))


def test_los_first_cluster_aligned_with_geometry():
    streams = RandomStreams(6)
    hop = make_hop("LOS", streams, k_factor=4.0, to_xyz=(40.0, 10.0, 1.5))
    t = generate_sublinks([hop], params_for("LOS"), [streams])[0]
    los = t.num_diffuse
    # the first cluster's mean angles coincide with the direct ray; the
    # symmetric ray fan needs a circular mean near the +-180 deg seam
    assert circular_mean_deg(grid(t, "arr_azimuth")[0]) == pytest.approx(
        np.degrees(t.arr_azimuth[los]), abs=1e-9
    )
    assert np.degrees(grid(t, "dep_azimuth")[0].mean()) == pytest.approx(
        np.degrees(t.dep_azimuth[los]), abs=1e-9
    )
    assert np.degrees(grid(t, "arr_zenith")[0].mean()) == pytest.approx(
        np.degrees(t.arr_zenith[los]), abs=1e-9
    )


def test_nlos_departure_zenith_offset_applied():
    p = params_for("NLOS")
    shift = dataclasses.replace(p, zod_offset_deg=p.zod_offset_deg + 10.0)
    streams = RandomStreams(7)
    a = generate_sublinks([make_hop("NLOS", streams)], p, [streams])[0]
    b = generate_sublinks([make_hop("NLOS", streams)], shift, [streams])[0]
    np.testing.assert_allclose(
        np.degrees(b.dep_zenith) - np.degrees(a.dep_zenith), 10.0, atol=1e-9
    )


def test_angle_ranges():
    for seed in range(5):
        streams = RandomStreams(seed)
        t = generate_sublinks([make_hop("NLOS", streams)], params_for("NLOS"), [streams])[0]
        for arr in (t.arr_azimuth, t.dep_azimuth):
            assert np.all(arr > -np.pi) and np.all(arr <= np.pi)
        for arr in (t.arr_zenith, t.dep_zenith):
            assert np.all(arr >= 0.0) and np.all(arr <= np.pi)


def test_xpr_lognormal_statistics():
    p = params_for("NLOS")
    vals = []
    for seed in range(10):
        streams = RandomStreams(seed)
        t = generate_sublinks([make_hop("NLOS", streams)], p, [streams])[0]
        vals.append(10.0 * np.log10(t.xpr))
    xpr_db = np.concatenate(vals)
    assert xpr_db.mean() == pytest.approx(p.xpr_mean_db, abs=0.2)
    assert xpr_db.std() == pytest.approx(p.xpr_std_db, rel=0.05)


def test_phases_uniform_on_pi_interval():
    streams = RandomStreams(8)
    t = generate_sublinks([make_hop("NLOS", streams)], params_for("NLOS"), [streams])[0]
    ph = t.phases.ravel()
    assert np.all(ph > -np.pi) and np.all(ph <= np.pi)
    assert abs(ph.mean()) < 0.2
    assert ph.std() == pytest.approx(np.pi / np.sqrt(3), rel=0.05)


def test_subcluster_delay_split():
    p = params_for("NLOS")
    streams = RandomStreams(4)
    t = generate_sublinks([make_hop("NLOS", streams)], p, [streams], split_strongest=True)[0]
    strongest = np.argsort(cluster_powers(t))[::-1][:2]
    c_ds_s = p.c_ds_ns * 1e-9
    delays = grid(t, "delay")
    for ci in range(t.shape[0]):
        row = delays[ci]
        if ci in strongest:
            uniq = np.unique(row)
            np.testing.assert_allclose(
                uniq - cluster_delays(t)[ci], [0.0, 1.28 * c_ds_s, 2.56 * c_ds_s],
                atol=1e-18,
            )
            assert (row == uniq[0]).sum() == 10
            assert (row == uniq[1]).sum() == 6
            assert (row == uniq[2]).sum() == 4
        else:
            assert np.all(row == cluster_delays(t)[ci])


def test_subcluster_split_requires_full_ray_layout():
    p = dataclasses.replace(params_for("NLOS"), rays_per_cluster=10)
    streams = RandomStreams(4)
    with pytest.raises(ConfigError):
        generate_sublinks([make_hop("NLOS", streams)], p, [streams], split_strongest=True)


def test_ray_count_bounds():
    p = dataclasses.replace(params_for("NLOS"), rays_per_cluster=21)
    streams = RandomStreams(4)
    with pytest.raises(ConfigError):
        generate_sublinks([make_hop("NLOS", streams)], p, [streams])


def test_absolute_delay_adds_propagation_time():
    streams = RandomStreams(5)
    hop = make_hop("LOS", streams, k_factor=2.0)
    p = params_for("LOS")
    rel = generate_sublinks([hop], p, [streams])[0]
    ab = generate_sublinks([hop], p, [streams], absolute_delay=True)[0]
    base = hop.spec.d3d_m / 3.0e8
    np.testing.assert_allclose(ab.delay - rel.delay, base, rtol=1e-12)  # specular row too
    assert ab.delay.min() == pytest.approx(base, rel=1e-12)


def test_mono_static_reciprocal_swaps_and_inverts():
    streams = RandomStreams(6)
    hop = make_hop("LOS", streams, k_factor=3.0)
    t = generate_sublinks([hop], params_for("LOS"), [streams])[0]
    rev = mono_static_reciprocal(t)
    for dep, arr in (("dep_zenith", "arr_zenith"), ("dep_azimuth", "arr_azimuth")):
        np.testing.assert_array_equal(getattr(rev, dep), getattr(t, arr), strict=True)
        np.testing.assert_array_equal(getattr(rev, arr), getattr(t, dep), strict=True)
    for shared in ("weight", "delay", "xpr", "phases"):
        assert getattr(rev, shared) is getattr(t, shared), shared
    assert rev.shape == t.shape and rev.has_los
    assert rev.hop.spec.from_node is hop.spec.to_node
    assert rev.hop.spec.to_node is hop.spec.from_node
    # the whole hop is reversed: its LOS angles and its departure and arrival spreads
    assert rev.hop.spec.departure is hop.spec.arrival
    assert rev.hop.spec.arrival is hop.spec.departure
    assert rev.hop.spreads == {"ds": hop.spreads["ds"], "asd": hop.spreads["asa"],
                               "asa": hop.spreads["asd"], "zsa": hop.spreads["zsd"],
                               "zsd": hop.spreads["zsa"]}
    assert (rev.hop.condition, rev.hop.k_factor, rev.hop.path_loss_db) == \
        (hop.condition, hop.k_factor, hop.path_loss_db)
    back = mono_static_reciprocal(rev)
    for f in dataclasses.fields(t):
        assert getattr(back, f.name) is getattr(t, f.name) or f.name == "hop", f.name
    assert back.hop == hop


COLUMNS = ("weight", "delay", "dep_zenith", "dep_azimuth", "arr_zenith", "arr_azimuth",
           "xpr", "phases")
# a LOS hop's K: none, small, large
K_FACTORS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(10.0, 1e4))
POSITIONS = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
                      st.sampled_from([1.5, 10.0, 25.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(condition=st.sampled_from(["LOS", "NLOS"]),
       hops=st.lists(st.tuples(POSITIONS, K_FACTORS, st.integers(0, 2**40), st.booleans()),
                     min_size=1, max_size=9),
       split_strongest=st.booleans(), absolute_delay=st.booleans())
def test_batched_tables_are_the_one_hop_tables(condition, hops, split_strongest,
                                                absolute_delay):
    """generate_sublinks gives each hop of a mixed group, bit for bit, the
    table a batch of that hop alone gives it on the same streams; a hop may
    run from the target back to the base station."""
    links, streams = [], []
    for i, (xyz, k, seed, reverse) in enumerate(hops):
        if np.hypot(*xyz[:2]) < 1.0:
            xyz = (40.0, 0.0, 1.5)  # keep endpoints apart
        streams.append(RandomStreams(seed, drop=i))
        links.append(make_hop(condition, streams[-1], k if condition == "LOS" else 0.0,
                              xyz, reverse))
    p = params_for(condition)
    batch = generate_sublinks(links, p, streams, split_strongest, absolute_delay)
    assert len(batch) == len(links)
    for hop, hop_streams, got in zip(links, streams, batch):
        alone = generate_sublinks([hop], p, [hop_streams], split_strongest, absolute_delay)[0]
        assert got.hop is hop and got.shape == alone.shape
        for table, want in ((got, alone), (mono_static_reciprocal(got),
                                           mono_static_reciprocal(alone))):
            for name in COLUMNS:
                a, b = getattr(table, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
                assert a.tobytes() == b.tobytes(), name


def test_batched_hops_must_share_a_condition():
    streams = RandomStreams(1)
    hops = [make_hop("LOS", streams, 2.0), make_hop("NLOS", streams)]
    with pytest.raises(ConfigError, match="share their condition"):
        generate_sublinks(hops, params_for("LOS"), [streams] * 2)


def test_batch_refuses_parameters_of_another_condition():
    streams = RandomStreams(1)
    hops = [make_hop("LOS", streams, 2.0)] * 2
    with pytest.raises(ConfigError, match="NLOS parameters"):
        generate_sublinks(hops, params_for("NLOS"), [streams] * 2)


def test_batch_refuses_a_stream_factory_count_other_than_its_hops():
    streams = RandomStreams(1)
    hops = [make_hop("NLOS", streams)] * 3
    with pytest.raises(ConfigError, match="3 hops need as many stream factories, got 2"):
        generate_sublinks(hops, params_for("NLOS"), [streams] * 2)
