"""Cluster generation: delays, powers, angles, XPR, phases, reciprocity."""
import dataclasses

import numpy as np
import pytest

from isacsim.concatenation import HopTable
from isacsim.errors import ConfigError
from isacsim.geometry import NodeState
from isacsim.largescale import HopLink, ScenarioParams
from isacsim.seeds import RandomStreams
from isacsim.smallscale import (
    RAY_OFFSETS,
    SubLinkClusters,
    generate_sublink,
    mono_static_reciprocal,
)

F_HZ = 6e9


def make_hop(condition="NLOS", k_factor=0.0, to_xyz=(40.0, 0.0, 1.5)):
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=list(to_xyz))
    delta = tgt.position_m - tx.position_m
    return HopLink(
        from_node=tx, to_node=tgt, condition=condition,
        d2d_m=float(np.hypot(delta[0], delta[1])),
        d3d_m=float(np.linalg.norm(delta)),
        path_loss_db=100.0, k_factor=k_factor, shadow_fading_db=0.0,
    )


def params_for(condition):
    return ScenarioParams.from_table("UMi", F_HZ).condition_params(condition)


def test_ray_offsets_layout():
    assert RAY_OFFSETS.shape == (20,)
    assert RAY_OFFSETS.sum() == pytest.approx(0.0, abs=1e-15)
    # +/- interleaved, magnitudes ascending in pairs
    assert RAY_OFFSETS[0] == 0.0447 and RAY_OFFSETS[1] == -0.0447
    assert RAY_OFFSETS[18] == 2.1551 and RAY_OFFSETS[19] == -2.1551


def test_shapes_and_basic_invariants():
    for condition, n in (("LOS", 12), ("NLOS", 19)):
        hop = make_hop(condition, k_factor=3.0 if condition == "LOS" else 0.0)
        sub = generate_sublink(hop, params_for(condition), RandomStreams(1))
        assert sub.num_clusters == n
        assert sub.rays_per_cluster == 20
        assert sub.cluster_delays.shape == (n,)
        for arr in (sub.aod, sub.zod, sub.aoa, sub.zoa, sub.xpr):
            assert arr.shape == (n, 20)
        assert sub.phases.shape == (n, 20, 4)
        assert sub.cluster_powers.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(sub.cluster_powers > 0)
        assert np.all(np.diff(sub.cluster_delays) >= 0)
        assert sub.cluster_delays[0] == 0.0
        assert HopTable.from_sublink(sub).delay.min() == 0.0
        assert sub.has_los == (condition == "LOS")


def test_generation_is_deterministic():
    hop = make_hop("LOS", k_factor=5.0)
    p = params_for("LOS")
    a = generate_sublink(hop, p, RandomStreams(9, drop=4))
    b = generate_sublink(hop, p, RandomStreams(9, drop=4))
    np.testing.assert_array_equal(a.cluster_delays, b.cluster_delays)
    np.testing.assert_array_equal(a.aoa, b.aoa)
    np.testing.assert_array_equal(a.phases, b.phases)
    c = generate_sublink(hop, p, RandomStreams(9, drop=5))
    assert not np.array_equal(a.cluster_delays, c.cluster_delays)


def test_power_delay_law_without_cluster_shadowing():
    # with zero per-cluster shadowing, ln(P) must be exactly affine in delay
    p = dataclasses.replace(params_for("NLOS"), cluster_shadowing_std_db=0.0)
    sub = generate_sublink(make_hop("NLOS"), p, RandomStreams(2))
    x = sub.cluster_delays
    y = np.log(sub.cluster_powers)
    slope, intercept = np.polyfit(x, y, 1)
    np.testing.assert_allclose(y, slope * x + intercept, atol=1e-9)
    assert slope < 0


def test_los_delay_rescale_applies_to_delays_only():
    k = 10.0 ** (9.0 / 10.0)  # 9 dB
    p_los = params_for("LOS")
    hop_los = make_hop("LOS", k_factor=k)
    hop_nlos = make_hop("NLOS")
    sub_los = generate_sublink(hop_los, p_los, RandomStreams(5))
    sub_raw = generate_sublink(hop_nlos, p_los, RandomStreams(5))
    k_db = 9.0
    c_tau = 0.7705 - 0.0433 * k_db + 0.0002 * k_db ** 2 + 0.000017 * k_db ** 3
    np.testing.assert_allclose(
        sub_los.cluster_delays, sub_raw.cluster_delays / c_tau, rtol=1e-12
    )
    # powers come from the unscaled delays, so they match exactly
    np.testing.assert_array_equal(sub_los.cluster_powers, sub_raw.cluster_powers)


def test_ray_offset_fan_out_pattern():
    p = params_for("NLOS")
    sub = generate_sublink(make_hop("NLOS"), p, RandomStreams(3))
    deg = np.degrees(sub.aod)
    expected = np.sort(p.c_asd_deg * RAY_OFFSETS)
    for row in deg:
        if np.max(np.abs(row)) > 170.0:
            continue  # skip rows that may have wrapped
        centered = np.sort(row - row.mean())
        np.testing.assert_allclose(centered, expected, atol=1e-9)


def test_ray_coupling_shuffles_arrival_but_not_departure():
    p = params_for("NLOS")
    sub = generate_sublink(make_hop("NLOS"), p, RandomStreams(3))
    aod_deg = np.degrees(sub.aod)
    # departure azimuths keep the interleaved offset order
    steps = np.diff(p.c_asd_deg * RAY_OFFSETS)
    row = aod_deg[np.argmax(np.all(np.abs(aod_deg) < 170.0, axis=1))]
    np.testing.assert_allclose(np.diff(row), steps, atol=1e-9)
    # arrivals are a permutation of the same offset fan, usually reordered
    aoa_deg = np.degrees(sub.aoa)
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
    hop = make_hop("LOS", k_factor=4.0, to_xyz=(40.0, 10.0, 1.5))
    sub = generate_sublink(hop, params_for("LOS"), RandomStreams(6))
    # the first cluster's mean angles coincide with the direct ray; the
    # symmetric ray fan needs a circular mean near the +-180 deg seam
    assert circular_mean_deg(sub.aoa[0]) == pytest.approx(
        np.degrees(sub.los_arrival.azimuth), abs=1e-9
    )
    assert np.degrees(sub.aod[0].mean()) == pytest.approx(
        np.degrees(sub.los_departure.azimuth), abs=1e-9
    )
    assert np.degrees(sub.zoa[0].mean()) == pytest.approx(
        np.degrees(sub.los_arrival.zenith), abs=1e-9
    )


def test_nlos_departure_zenith_offset_applied():
    p = params_for("NLOS")
    shift = dataclasses.replace(p, zod_offset_deg=p.zod_offset_deg + 10.0)
    a = generate_sublink(make_hop("NLOS"), p, RandomStreams(7))
    b = generate_sublink(make_hop("NLOS"), shift, RandomStreams(7))
    np.testing.assert_allclose(
        np.degrees(b.zod) - np.degrees(a.zod), 10.0, atol=1e-9
    )


def test_angle_ranges():
    for seed in range(5):
        sub = generate_sublink(
            make_hop("NLOS"), params_for("NLOS"), RandomStreams(seed)
        )
        for arr in (sub.aoa, sub.aod):
            assert np.all(arr > -np.pi) and np.all(arr <= np.pi)
        for arr in (sub.zoa, sub.zod):
            assert np.all(arr >= 0.0) and np.all(arr <= np.pi)


def test_xpr_lognormal_statistics():
    p = params_for("NLOS")
    vals = []
    for seed in range(10):
        sub = generate_sublink(make_hop("NLOS"), p, RandomStreams(seed))
        vals.append(10.0 * np.log10(sub.xpr.ravel()))
    xpr_db = np.concatenate(vals)
    assert xpr_db.mean() == pytest.approx(p.xpr_mean_db, abs=0.2)
    assert xpr_db.std() == pytest.approx(p.xpr_std_db, rel=0.05)


def test_phases_uniform_on_pi_interval():
    sub = generate_sublink(make_hop("NLOS"), params_for("NLOS"), RandomStreams(8))
    ph = sub.phases.ravel()
    assert np.all(ph > -np.pi) and np.all(ph <= np.pi)
    assert abs(ph.mean()) < 0.2
    assert ph.std() == pytest.approx(np.pi / np.sqrt(3), rel=0.05)


def test_subcluster_delay_split():
    p = params_for("NLOS")
    sub = generate_sublink(
        make_hop("NLOS"), p, RandomStreams(4), split_strongest=True
    )
    strongest = np.argsort(sub.cluster_powers)[::-1][:2]
    c_ds_s = p.c_ds_ns * 1e-9
    for ci in range(sub.num_clusters):
        row = sub.ray_delays[ci]
        if ci in strongest:
            uniq = np.unique(row)
            np.testing.assert_allclose(
                uniq - sub.cluster_delays[ci], [0.0, 1.28 * c_ds_s, 2.56 * c_ds_s],
                atol=1e-18,
            )
            assert (row == uniq[0]).sum() == 10
            assert (row == uniq[1]).sum() == 6
            assert (row == uniq[2]).sum() == 4
        else:
            assert np.all(row == sub.cluster_delays[ci])


def test_subcluster_split_requires_full_ray_layout():
    p = dataclasses.replace(params_for("NLOS"), rays_per_cluster=10)
    with pytest.raises(ConfigError):
        generate_sublink(
            make_hop("NLOS"), p, RandomStreams(4), split_strongest=True
        )


def test_ray_count_bounds():
    p = dataclasses.replace(params_for("NLOS"), rays_per_cluster=21)
    with pytest.raises(ConfigError):
        generate_sublink(make_hop("NLOS"), p, RandomStreams(4))


def test_absolute_delay_adds_propagation_time():
    hop = make_hop("LOS", k_factor=2.0)
    p = params_for("LOS")
    rel = generate_sublink(hop, p, RandomStreams(5))
    ab = generate_sublink(hop, p, RandomStreams(5), absolute_delay=True)
    base = hop.d3d_m / 3.0e8
    np.testing.assert_allclose(ab.ray_delays - rel.ray_delays, base, rtol=1e-12)
    assert ab.los_delay == pytest.approx(base, rel=1e-12)
    assert HopTable.from_sublink(ab).delay.min() == pytest.approx(base, rel=1e-12)


def test_mono_static_reciprocal_swaps_and_inverts():
    hop = make_hop("LOS", k_factor=3.0)
    sub = generate_sublink(hop, params_for("LOS"), RandomStreams(6))
    rev = mono_static_reciprocal(sub)
    np.testing.assert_array_equal(rev.aod, sub.aoa)
    np.testing.assert_array_equal(rev.zoa, sub.zod)
    np.testing.assert_array_equal(rev.cluster_powers, sub.cluster_powers)
    assert rev.hop.from_node is hop.to_node
    assert rev.los_departure is sub.los_arrival
    back = mono_static_reciprocal(rev)
    np.testing.assert_array_equal(back.aod, sub.aod)
    np.testing.assert_array_equal(back.zoa, sub.zoa)
    assert back.hop.from_node is hop.from_node
