"""Impulse-response synthesis: polarization, Doppler, arrays, power bookkeeping."""

import numpy as np
import pytest

from isacsim.coefficients import (
    SnapshotGrid,
    _array_gains,
    _side_matrices,
    doppler_frequency,
    synthesize_cir,
)
from isacsim.concatenation import (
    ConcatCase,
    PairType,
    concatenate_group,
)
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.errors import ConfigError
from isacsim.geometry import (
    DirectionAngles,
    NodeState,
    angles_between,
    spherical_unit_vector,
    uniform_linear_array,
)
from isacsim.largescale import CouplingConfig, ScenarioParams, build_hop, hop_spec
from isacsim.rcs import PolarizationScattering, RcsModel
from isacsim.seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
)
from isacsim.smallscale import HopTable, generate_sublinks
from isacsim.stats import STAT_FIELDS, group_statistics

F_HZ = 6e9
LAM = SPEED_OF_LIGHT / F_HZ


def pipeline(cond1="LOS", cond2="LOS", seed=3, case=ConcatCase.CASE_2O,
             tx_vel=(0, 0, 0), rx_vel=(0, 0, 0), tgt_vel=(0, 0, 0),
             tx_offsets=np.zeros((1, 3)), rx_offsets=np.zeros((1, 3)), grid=None,
             xpr_override=None):
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState([0.0, 0.0, 10.0], velocity_mps=tx_vel, element_offsets_m=tx_offsets)
    tgt = NodeState([25.0, 10.0, 1.5], velocity_mps=tgt_vel)
    rx = NodeState([60.0, -5.0, 10.0], velocity_mps=rx_vel, element_offsets_m=rx_offsets)
    streams = RandomStreams(seed)
    h1 = build_hop(hop_spec(tx, tgt, scen, cond1), scen, streams.scoped(HOP_TX_TARGET))
    h2 = build_hop(hop_spec(tgt, rx, scen, cond2), scen, streams.scoped(HOP_TARGET_RX))
    t1, = generate_sublinks([h1], scen.condition_params(cond1), [streams.scoped(HOP_TX_TARGET)])
    t2, = generate_sublinks([h2], scen.condition_params(cond2), [streams.scoped(HOP_TARGET_RX)])
    if xpr_override is not None:
        t1.xpr = np.full_like(t1.xpr, xpr_override)
        t2.xpr = np.full_like(t2.xpr, xpr_override)
    group, = concatenate_group([t1], [t2], [case], [streams.scoped(SCOPE_CONCAT)])
    cir = synthesize_cir(
        group, 0, RcsModel(), grid or SnapshotGrid(), LAM, streams.scoped(SCOPE_COEFF),
    )
    return group, cir, (tx, tgt, rx), (h1, h2)


# --------------------------------------------------------- snapshot grid

def test_snapshot_grid_times():
    grid = SnapshotGrid(start_s=0.5, step_s=0.25, count=3)
    np.testing.assert_allclose(grid.times(), [0.5, 0.75, 1.0])
    with pytest.raises(ConfigError):
        SnapshotGrid(count=0)
    with pytest.raises(ConfigError):
        SnapshotGrid(step_s=0.0)


# --------------------------------------------------- polarization matrix

def side_table(xpr=1.0, phases=(0.0, 0.0, 0.0, 0.0), los_d3d_m=None):
    """Hop table of one diffuse ray, plus the specular row of a LOS hop
    los_d3d_m long when that is set."""
    rows = 1 if los_d3d_m is None else 2
    scen = ScenarioParams.from_table(F_HZ)
    spec = hop_spec(NodeState([0.0, 0.0, 10.0]), NodeState([los_d3d_m or 1.0, 0.0, 10.0]),
                    scen, "NLOS" if los_d3d_m is None else "LOS")
    hop = build_hop(spec, scen, RandomStreams(0))
    return HopTable(hop, (1, 1), *[np.zeros(rows)] * 6,
                    np.array([xpr]), np.asarray(phases, float).reshape(1, 4))


def sandwich(rx_side, s, tx_side):
    return np.einsum("lij,ljk,lkm->lim", rx_side, s, tx_side)


def test_los_both_sides_collapses_to_common_phase():
    tx = _side_matrices(side_table(los_d3d_m=5.0), LAM)[1:]
    rx = _side_matrices(side_table(los_d3d_m=7.0), LAM)[1:]
    m = sandwich(rx, np.eye(2, dtype=complex)[None], tx)[0]
    e = np.exp(-2j * np.pi * (5.0 + 7.0) / LAM)
    np.testing.assert_allclose(m, [[e, 0.0], [0.0, e]], atol=1e-12)


def test_xpr_side_entries():
    phases = [0.1, 0.2, 0.3, 0.4]
    tx = _side_matrices(side_table(xpr=4.0, phases=phases), LAM)
    rx = _side_matrices(side_table(los_d3d_m=LAM), LAM)[1:]
    expect_tx = np.array([
        [np.exp(0.1j), 0.5 * np.exp(0.2j)],
        [0.5 * np.exp(0.3j), np.exp(0.4j)],
    ])
    np.testing.assert_allclose(tx[0], expect_tx, atol=1e-15)
    m = sandwich(rx, np.eye(2, dtype=complex)[None], tx)[0]
    np.testing.assert_allclose(m, np.diag([1.0, -1.0]) @ expect_tx, atol=1e-12)


def test_sandwich_order_rx_s_tx():
    s = np.array([[0.0, 1.0], [2.0, 0.0]], complex)
    tp, rp = [0.5, 1.0, 1.5, 2.0], [0.2, 0.4, 0.6, 0.8]
    tx = _side_matrices(side_table(xpr=2.0, phases=tp), LAM)
    rx = _side_matrices(side_table(xpr=8.0, phases=rp), LAM)
    m = sandwich(rx, s[None], tx)[0]

    def xpr_mat(kappa, p):
        inv = np.sqrt(1.0 / kappa)
        return np.array([
            [np.exp(1j * p[0]), inv * np.exp(1j * p[1])],
            [inv * np.exp(1j * p[2]), np.exp(1j * p[3])],
        ])

    np.testing.assert_allclose(m, xpr_mat(8.0, rp) @ s @ xpr_mat(2.0, tp), atol=1e-14)


# ----------------------------------------------------------- Doppler law

def _dir(unit):
    unit = np.asarray(unit, float)
    return DirectionAngles(zenith=np.arccos(unit[2]), azimuth=np.arctan2(unit[1], unit[0]))


def test_all_static_doppler_is_zero():
    d = _dir([1.0, 0.0, 0.0])
    assert doppler_frequency(d, d, d, d, [0, 0, 0], [0, 0, 0], [0, 0, 0], LAM) == 0.0


def test_monostatic_closing_target():
    # co-located terminals at the origin, target on +x closing at 10 m/s
    toward_target = _dir([1.0, 0.0, 0.0])
    toward_origin = _dir([-1.0, 0.0, 0.0])
    fd = doppler_frequency(
        toward_target, toward_target, toward_origin, toward_origin,
        [0, 0, 0], [0, 0, 0], [-10.0, 0, 0], LAM,
    )
    assert fd == pytest.approx(2.0 * 10.0 / LAM, rel=1e-12)


def test_bistatic_four_term_composition():
    rng = np.random.default_rng(7)
    units = rng.standard_normal((4, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    v_tx, v_rx, v_sp = rng.standard_normal((3, 3)) * 5.0
    fd = doppler_frequency(
        _dir(units[0]), _dir(units[1]), _dir(units[2]), _dir(units[3]),
        v_tx, v_rx, v_sp, LAM,
    )
    expect = (units[1] @ v_rx + units[3] @ v_sp + units[0] @ v_tx + units[2] @ v_sp) / LAM
    assert fd == pytest.approx(expect, rel=1e-12)


def test_doppler_rejects_bad_wavelength():
    d = _dir([0.0, 0.0, 1.0])
    with pytest.raises(ConfigError):
        doppler_frequency(d, d, d, d, [0, 0, 0], [0, 0, 0], [0, 0, 0], 0.0)


# ----------------------------------------------------- target synthesis

def test_cir_shapes_and_metadata():
    grid = SnapshotGrid(count=4)
    group, cir, _, _ = pipeline(grid=grid)
    it, ir, _, pair_type = group.paths(0)
    assert cir.gains.shape == (1, 1, len(group), 4)
    np.testing.assert_array_equal(cir.delays, group.tx[0].delay[it] + group.rx[0].delay[ir])
    np.testing.assert_array_equal(cir.pair_type, pair_type)
    assert group.condition_pair == "LL"
    assert len(cir.delays) == len(group)


def test_static_scene_is_time_invariant():
    grid = SnapshotGrid(count=3)
    _, cir, _, _ = pipeline(grid=grid)
    np.testing.assert_array_equal(cir.gains[..., 1], cir.gains[..., 0])
    np.testing.assert_array_equal(cir.gains[..., 2], cir.gains[..., 0])


def test_moving_target_advances_phase_linearly():
    grid = SnapshotGrid(step_s=1e-3, count=5)
    _, cir, _, _ = pipeline(grid=grid, tgt_vel=(4.0, -2.0, 0.0))
    g = cir.gains[0, 0]
    ratio = g[:, 1:] / g[:, :-1]
    np.testing.assert_allclose(np.abs(ratio), 1.0, rtol=1e-12)
    # one constant phase step per path across the whole snapshot grid
    np.testing.assert_allclose(
        ratio, np.broadcast_to(ratio[:, :1], ratio.shape), rtol=1e-9
    )


def test_specular_path_doppler_matches_geometry():
    grid = SnapshotGrid(step_s=1e-3, count=2)
    v_sp = np.array([4.0, -2.0, 0.0])
    group, cir, (tx, tgt, rx), _ = pipeline(grid=grid, tgt_vel=v_sp)
    ll = int(np.nonzero(group.paths(0)[3] == PairType.LL)[0][0])
    u_to_tx = spherical_unit_vector(angles_between(tgt.position_m, tx.position_m))
    u_to_rx = spherical_unit_vector(angles_between(tgt.position_m, rx.position_m))
    fd = (u_to_tx + u_to_rx) @ v_sp / LAM
    got = cir.gains[0, 0, ll, 1] / cir.gains[0, 0, ll, 0]
    assert got == pytest.approx(np.exp(2j * np.pi * fd * 1e-3), rel=1e-9)


@pytest.mark.parametrize("n_paths", [1, 7])
def test_a_path_gain_does_not_depend_on_the_array_size(n_paths):
    # the element field is computed once per path, so the pair of elements
    # at the nodes' reference points (array phase exactly 1) has the gain
    # of single-element nodes bit for bit, however many elements there are
    rng = np.random.default_rng(n_paths)
    dep = DirectionAngles(rng.uniform(0, np.pi, n_paths), rng.uniform(-np.pi, np.pi, n_paths))
    arr = DirectionAngles(rng.uniform(0, np.pi, n_paths), rng.uniform(-np.pi, np.pi, n_paths))
    pmat = rng.standard_normal((n_paths, 2, 2)) + 1j * rng.standard_normal((n_paths, 2, 2))
    args = (dep, arr, pmat, rng.uniform(0.1, 1, n_paths), rng.uniform(-50, 50, n_paths),
            SnapshotGrid(count=3), LAM)

    def node(offsets):
        return NodeState([0.0, 0.0, 0.0], element_offsets_m=offsets,
                         pattern="sectorized-38901", slant_deg=35.0)

    single = _array_gains(node(np.zeros((1, 3))), node(np.zeros((1, 3))), *args)
    tx = node([[0.0, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, -0.03, 0.01]])
    rx = node([[0.0, 0.0, 0.0], *uniform_linear_array(4, LAM / 2.0)])
    gains = _array_gains(tx, rx, *args)
    assert gains.shape == (5, 3, n_paths, 3)
    assert np.array_equal(gains[0, 0], single[0, 0])


def test_receive_array_phase_factorizes_over_elements():
    rx_offsets = uniform_linear_array(2, LAM / 2.0)
    group, cir, _, _ = pipeline(rx_offsets=rx_offsets)
    _, ir, _, _ = group.paths(0)
    rx = group.rx[0]
    units = spherical_unit_vector(
        DirectionAngles(zenith=rx.arr_zenith[ir], azimuth=rx.arr_azimuth[ir])
    )
    doff = rx_offsets[1] - rx_offsets[0]
    expect = cir.gains[0, 0, :, 0] * np.exp(2j * np.pi * (units @ doff) / LAM)
    np.testing.assert_allclose(cir.gains[1, 0, :, 0], expect, rtol=1e-9, atol=1e-15)


def test_path_power_bookkeeping_with_clean_polarization():
    # At infinite cross-polar ratio every per-path scalar has unit magnitude
    # for slant-0 isotropic elements, so summed CIR power must match the
    # weight ledger of the path set exactly.
    group, cir, _, _ = pipeline(case=ConcatCase.CASE_0, xpr_override=np.inf)
    got_nn = float(np.sum(np.abs(cir.gains[0, 0, cir.pair_type == PairType.NN, 0]) ** 2))
    nn_power = group_statistics([group])[0, 0, STAT_FIELDS.index("nn_power")]
    k_weights = group.k_weights[0]
    expect_nn = k_weights[int(PairType.NN)] ** 2 * nn_power
    assert got_nn == pytest.approx(expect_nn, rel=1e-12)

    total = float(np.sum(np.abs(cir.gains[0, 0, :, 0]) ** 2))
    _, _, weight, pair_type = group.paths(0)
    expect_total = float(np.sum((k_weights[pair_type] * weight) ** 2))
    assert total == pytest.approx(expect_total, rel=1e-12)


def test_specular_phase_tracks_both_path_lengths():
    group, cir, _, (h1, h2) = pipeline()
    _, _, weight, pair_type = group.paths(0)
    ll = int(np.nonzero(pair_type == PairType.LL)[0][0])
    phase = -2.0 * np.pi * (h1.spec.d3d_m + h2.spec.d3d_m) / LAM
    amp = group.k_weights[0][int(PairType.LL)] * weight[ll]
    assert cir.gains[0, 0, ll, 0] == pytest.approx(amp * np.exp(1j * phase), rel=1e-9)


def test_hops_must_share_the_scattering_point():
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState([0.0, 0.0, 10.0])
    tgt1 = NodeState([25.0, 10.0, 1.5])
    tgt2 = NodeState([30.0, -8.0, 1.5])
    rx = NodeState([60.0, -5.0, 10.0])
    streams = RandomStreams(11)
    h1 = build_hop(hop_spec(tx, tgt1, scen, "LOS"), scen, streams.scoped(HOP_TX_TARGET))
    h2 = build_hop(hop_spec(tgt2, rx, scen, "LOS"), scen, streams.scoped(HOP_TARGET_RX))
    t1, t2 = generate_sublinks([h1, h2], scen.condition_params("LOS"),
                               [streams.scoped(HOP_TX_TARGET), streams.scoped(HOP_TARGET_RX)])
    group, = concatenate_group([t1], [t2], [ConcatCase.CASE_2O])
    with pytest.raises(ConfigError, match="scattering point"):
        synthesize_cir(
            group, 0, RcsModel(), SnapshotGrid(), LAM, streams.scoped(SCOPE_COEFF),
        )


def test_target_synthesis_input_checks():
    # the arrays come from the hop nodes, which refuse an empty one
    with pytest.raises(ValueError, match="at least one antenna element"):
        NodeState([0.0, 0.0, 10.0], element_offsets_m=np.zeros((0, 3)))
    group, _, _, _ = pipeline()
    streams = RandomStreams(3).scoped(SCOPE_COEFF)
    with pytest.raises(ConfigError):
        synthesize_cir(group, 0, RcsModel(), SnapshotGrid(), 0.0, streams)


def test_identity_and_random_polarization_agree_on_power_scale():
    group, base, _, _ = pipeline(case=ConcatCase.CASE_2O)
    streams = RandomStreams(3)
    pol = PolarizationScattering(mode="full", alphas=(1.0, 0.0, 0.0, 1.0))
    cir = synthesize_cir(
        group, 0, RcsModel(), SnapshotGrid(), LAM, streams.scoped(SCOPE_COEFF), pol,
    )
    # unit-diagonal scattering with random phase rotates each path; for
    # slant-0 isotropic elements only one polarization product survives per
    # side, so magnitudes are preserved unless both sides cross-couple (NN)
    keep = group.paths(0)[3] != int(PairType.NN)
    np.testing.assert_allclose(
        np.abs(cir.gains[0, 0, keep, 0]), np.abs(base.gains[0, 0, keep, 0]), rtol=1e-9
    )
    assert not np.allclose(
        np.abs(cir.gains[0, 0, ~keep, 0]), np.abs(base.gains[0, 0, ~keep, 0])
    )


# ------------------------------------------------------------ background

def background_table(seed, cond, rx_xyz=(60.0, -5.0, 10.0)):
    """The transmitter-to-receiver hop table, as the runner builds it."""
    scen = ScenarioParams.from_table(F_HZ)
    tx = NodeState([0.0, 0.0, 10.0])
    rx = NodeState(list(rx_xyz))
    streams = RandomStreams(seed).scoped(HOP_BACKGROUND)
    hop = build_hop(hop_spec(tx, rx, scen, cond), scen, streams)
    return generate_sublinks([hop], scen.condition_params(hop.condition), [streams])[0]


def isac_cir(background, coupling=None, grid=None, seed=3):
    """Drop 0 of pipeline()'s LOS-LOS Case2O target channel joined with a
    background table, in one synthesis."""
    group = pipeline(seed=seed)[0]
    return group, synthesize_cir(
        group, 0, RcsModel(), grid or SnapshotGrid(), LAM,
        RandomStreams(seed).scoped(SCOPE_COEFF), background=background, coupling=coupling,
    )


@pytest.mark.parametrize("cond,count", [("LOS", 1 + 12 * 20), ("NLOS", 19 * 20)])
def test_background_structure_and_power_budget(cond, count):
    table = background_table(5, cond)
    group, cir = isac_cir(table)
    background = cir.pair_type == int(PairType.BACKGROUND)
    # the background's rows follow the target's, the specular row first
    assert np.count_nonzero(background) == count and np.all(background[len(group):])
    np.testing.assert_array_equal(
        cir.delays[background], table.delay[np.roll(np.arange(count), int(cond == "LOS"))])
    # replaying the scoped streams reproduces the large-scale draws
    bg_hop = table.hop
    scen = ScenarioParams.from_table(F_HZ)
    hop = build_hop(hop_spec(bg_hop.spec.from_node, bg_hop.spec.to_node, scen, cond), scen,
                    RandomStreams(5).scoped(HOP_BACKGROUND))
    draws = ("condition", "path_loss_db", "k_factor", "shadow_fading_db", "spreads")
    assert [getattr(bg_hop, f) for f in draws] == [getattr(hop, f) for f in draws]
    expect = 10.0 ** (-(hop.path_loss_db + hop.shadow_fading_db) / 10.0)
    power = float(np.sum(np.abs(cir.gains[0, 0, background, 0]) ** 2))
    assert power == pytest.approx(expect, rel=1e-12)


def test_background_static_nodes_give_constant_gains():
    _, cir = isac_cir(background_table(6, "NLOS"), grid=SnapshotGrid(count=3))
    background = cir.pair_type == int(PairType.BACKGROUND)
    assert background.any()
    np.testing.assert_array_equal(cir.gains[:, :, background, 2], cir.gains[:, :, background, 0])


def test_background_between_other_nodes_is_refused():
    with pytest.raises(ConfigError, match="does not join"):
        isac_cir(background_table(6, "NLOS", rx_xyz=(60.0, 5.0, 10.0)))


# ------------------------------------------------------- channel coupling

def test_combine_zero_coupling_returns_target():
    _, target = isac_cir(None)
    for background, coupling in ((background_table(6, "NLOS"), CouplingConfig(o_isac=0.0)),
                                 (None, CouplingConfig(o_isac=1.0))):
        _, out = isac_cir(background, coupling)
        for field in ("delays", "gains", "pair_type"):
            np.testing.assert_array_equal(getattr(out, field), getattr(target, field))


def test_combine_added_scales_background_amplitude():
    table = background_table(6, "LOS")
    group, one = isac_cir(table, CouplingConfig(o_isac=1.0))
    _, two = isac_cir(table, CouplingConfig(o_isac=2.0))
    n = len(group)
    np.testing.assert_array_equal(two.delays, one.delays)
    np.testing.assert_array_equal(two.pair_type, one.pair_type)
    np.testing.assert_array_equal(two.gains[:, :, :n], one.gains[:, :, :n])
    np.testing.assert_allclose(two.gains[:, :, n:], np.sqrt(2.0) * one.gains[:, :, n:],
                               rtol=1e-15)
    assert np.all(two.pair_type[:n] != int(PairType.BACKGROUND))
    assert np.all(two.pair_type[n:] == int(PairType.BACKGROUND))


def test_combine_embedded_drops_weakest_paths_unscaled():
    table = background_table(6, "LOS")
    group, full = isac_cir(table)
    cfg = CouplingConfig(o_isac=1.0, mode="embedded", removal_fraction=0.5)
    _, out = isac_cir(table, cfg)
    n, n_b = len(group), 1 + 12 * 20
    assert len(out.delays) == n + n_b - n_b // 2
    np.testing.assert_array_equal(out.gains[:, :, :n], full.gains[:, :, :n])
    # survivors keep their order and amplitude; the weakest half is gone
    kept = np.flatnonzero(np.isin(full.gains[0, 0, n:, 0], out.gains[0, 0, n:, 0]))
    assert len(kept) == n_b - n_b // 2
    np.testing.assert_array_equal(out.gains[:, :, n:], full.gains[:, :, n + kept])
    np.testing.assert_array_equal(out.delays[n:], full.delays[n + kept])
    power = np.mean(np.abs(full.gains[:, :, n:]) ** 2, axis=(0, 1, 3))
    assert power[np.setdiff1d(np.arange(n_b), kept)].max() <= power[kept].min()
