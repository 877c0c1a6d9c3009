"""Scenario tables, path-loss formulas, link budget, large-scale draws."""
import dataclasses
import math
import re

import numpy as np
import pytest
from importlib import resources

from isacsim.errors import ConfigError
from isacsim.geometry import NodeState
from isacsim.largescale import (
    AZIMUTH_SPREAD_CAP_DEG,
    ZENITH_SPREAD_CAP_DEG,
    CouplingConfig,
    ScenarioParams,
    build_hop,
    combine_isac_path_loss,
    concatenated_path_loss,
    hop_path_loss,
    hop_spec,
    los_probability,
)
from isacsim.seeds import RandomStreams


def bundled_table_text():
    return resources.files("isacsim.data").joinpath("umi_38901.tbl").read_text()


# ---------------------------------------------------------------- path loss

def test_los_path_loss_reference_point():
    # hand-computed: 32.4 + 21*log10(100) + 20*log10(6)
    assert hop_path_loss("LOS", 100.0, 6e9) == pytest.approx(
        89.96302500767288, abs=1e-9
    )


def test_nlos_path_loss_reference_point():
    # hand-computed: 22.4 + 35.3*log10(100) + 21.3*log10(6)
    assert hop_path_loss("NLOS", 100.0, 6e9) == pytest.approx(
        109.5746216331716, abs=1e-9
    )


def test_nlos_lower_bounded_by_los():
    # at 1 m the NLOS formula dips below LOS and must be clamped up
    assert hop_path_loss("NLOS", 1.0, 6e9) == pytest.approx(
        hop_path_loss("LOS", 1.0, 6e9)
    )


def test_breakpoint_is_continuous():
    # d_bp = 4 * 9 * 0.5 * f / c = 360 m at 6 GHz with 10 m / 1.5 m heights
    h = 10.0 - 1.5
    for eps in (1e-6, -1e-6):
        d2d = 360.0 + eps
        d3d = np.hypot(d2d, h)
        below = hop_path_loss("LOS", d3d, 6e9, d2d_m=360.0 - 1e-6)
        above = hop_path_loss("LOS", d3d, 6e9, d2d_m=360.0 + 1e-6)
        assert above == pytest.approx(below, abs=1e-6)


def test_path_loss_monotone_in_distance():
    d = np.linspace(10, 2000, 60)
    pl = [hop_path_loss("LOS", float(x), 6e9, d2d_m=float(x)) for x in d]
    assert np.all(np.diff(pl) > 0)


def test_path_loss_validity_range():
    with pytest.raises(ConfigError):
        hop_path_loss("LOS", 0.0, 6e9)
    with pytest.raises(ConfigError):
        hop_path_loss("LOS", 5001.0, 6e9)
    with pytest.raises(ConfigError):
        hop_path_loss("sideways", 10.0, 6e9)


def test_los_probability_values():
    assert los_probability(5.0) == 1.0
    assert los_probability(18.0) == 1.0
    assert los_probability(36.0) == pytest.approx(0.6839397205857212, abs=1e-12)
    assert los_probability(1e4) < 0.01
    with pytest.raises(ConfigError):
        los_probability(-1.0)


# ------------------------------------------------------------- link budget

def test_two_hop_budget_aperture_constant():
    # c^2/(4 pi f^2) at 6 GHz: hand value -37.0127 dB
    got = concatenated_path_loss(0.0, 0.0, 6e9, 1.0)
    assert got == pytest.approx(-37.012698553500584, abs=1e-9)
    assert got == pytest.approx(-37.0, abs=0.05)


def test_two_hop_budget_composition():
    base = concatenated_path_loss(0.0, 0.0, 6e9, 1.0)
    assert concatenated_path_loss(80.0, 95.0, 6e9, 1.0) == pytest.approx(
        175.0 + base, abs=1e-12
    )
    # mean RCS enters as -10*log10(sigma)
    assert concatenated_path_loss(0.0, 0.0, 6e9, 10.0) == pytest.approx(
        base - 10.0, abs=1e-12
    )


def test_two_hop_budget_input_checks():
    with pytest.raises(ConfigError):
        concatenated_path_loss(1.0, 1.0, -6e9, 1.0)
    with pytest.raises(ConfigError):
        concatenated_path_loss(1.0, 1.0, 6e9, 0.0)
    with pytest.raises(ConfigError):
        concatenated_path_loss(np.inf, 1.0, 6e9, 1.0)


def test_combined_path_loss_added_mode():
    cp = CouplingConfig(o_isac=1.0, mode="added")
    got = combine_isac_path_loss(100.0, 100.0, cp)
    assert got == pytest.approx(100.0 + 10 * np.log10(2.0), abs=1e-12)
    # zero coupling leaves the target budget untouched
    cp0 = CouplingConfig(o_isac=0.0, mode="added")
    assert combine_isac_path_loss(87.5, 60.0, cp0) == pytest.approx(87.5, abs=1e-12)


def test_combined_path_loss_embedded_mode():
    cp = CouplingConfig(o_isac=0.5, mode="embedded")
    got = combine_isac_path_loss(100.0, 90.0, cp)
    assert got == pytest.approx(90.0 + 10 * np.log10(0.5), abs=1e-12)
    with pytest.raises(ConfigError):
        combine_isac_path_loss(100.0, 90.0, CouplingConfig(o_isac=0.0, mode="embedded"))


def test_coupling_config_validation():
    with pytest.raises(ConfigError):
        CouplingConfig(o_isac=-0.1)
    with pytest.raises(ConfigError):
        CouplingConfig(mode="multiplied")
    with pytest.raises(ConfigError):
        CouplingConfig(removal_fraction=1.0)


# ---------------------------------------------------------- scenario table

def test_scenario_table_materializes_frequency_laws():
    scen = ScenarioParams.from_table(6e9)
    los = scen.condition_params("LOS")
    nlos = scen.condition_params("NLOS")
    # law: a*log10(1 + f_GHz) + b, here -0.08*log10(7) + 1.73
    assert los.lg_asa_mean == pytest.approx(1.6623921567988593, abs=1e-12)
    assert los.num_clusters == 12
    assert nlos.num_clusters == 19
    assert los.rays_per_cluster == 20
    # int-annotated ConditionParams fields are rounded to int, the rest stay float
    assert type(los.num_clusters) is int and type(los.rays_per_cluster) is int
    assert type(los.c_ds_ns) is float and type(los.k_mean_db) is float
    assert los.k_mean_db is not None
    assert nlos.k_mean_db is None
    with pytest.raises(ConfigError):
        scen.condition_params("fog")


def test_scenario_table_rejects_unknown_scenario(tmp_path):
    # UMi is the one scenario: a section of any other is refused where it is read
    lab = tmp_path / "lab.tbl"
    lab.write_text(bundled_table_text().replace("[UMi NLOS]", "[Lab LOS]"))
    line = bundled_table_text().splitlines().index("[UMi NLOS]") + 1
    with pytest.raises(ConfigError, match=rf"line {line}: section header must be "
                                          r"'\[UMi <LOS\|NLOS>\]', got '\[Lab LOS\]'"):
        ScenarioParams.from_table(6e9, path=lab)
    with pytest.raises(ConfigError):
        ScenarioParams.from_table(-1.0)


def test_scenario_table_parse_errors(tmp_path):
    bad_header = tmp_path / "bad_header.tbl"
    bad_header.write_text("[UMi hazy]\nlg_ds_mean = -7\n")
    with pytest.raises(ConfigError, match="line 1"):
        ScenarioParams.from_table(6e9, path=bad_header)

    orphan = tmp_path / "orphan.tbl"
    orphan.write_text("lg_ds_mean = -7\n")
    with pytest.raises(ConfigError, match="before any section"):
        ScenarioParams.from_table(6e9, path=orphan)

    non_numeric = tmp_path / "nonnum.tbl"
    non_numeric.write_text("[UMi LOS]\nlg_ds_mean = fast\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        ScenarioParams.from_table(6e9, path=non_numeric)

    three = tmp_path / "three.tbl"
    three.write_text("[UMi LOS]\nlg_ds_mean = 1 2 3\n")
    with pytest.raises(ConfigError, match="1 or 2 numbers"):
        ScenarioParams.from_table(6e9, path=three)

    repeated_key = tmp_path / "repeated_key.tbl"
    repeated_key.write_text(bundled_table_text().replace(
        "[UMi LOS]\n", "[UMi LOS]\nnum_clusters = 3\n", 1))
    with pytest.raises(ConfigError, match=r"line \d+: duplicate key 'num_clusters'"):
        ScenarioParams.from_table(6e9, path=repeated_key)

    repeated_section = tmp_path / "repeated_section.tbl"
    repeated_section.write_text("[UMi LOS]\nlg_ds_mean = -7\n\n[UMi LOS]\n")
    with pytest.raises(ConfigError, match="line 4: duplicate section"):
        ScenarioParams.from_table(6e9, path=repeated_section)

    latin1 = tmp_path / "latin1.tbl"
    latin1.write_bytes("# café\n[UMi LOS]\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"cannot read {latin1}"):
        ScenarioParams.from_table(6e9, path=latin1)


def test_scenario_table_missing_and_unknown_keys(tmp_path):
    text = bundled_table_text()

    missing = tmp_path / "missing.tbl"
    missing.write_text(text.replace("sf_std_db", "# sf_std_db", 1))
    with pytest.raises(ConfigError, match="missing"):
        ScenarioParams.from_table(6e9, path=missing)

    unknown = tmp_path / "unknown.tbl"
    unknown.write_text(text + "\nhumidity = 3\n")
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioParams.from_table(6e9, path=unknown)


def zeroed_table(tmp_path, key, section):
    """The bundled table with ``key`` of one section set to 0."""
    text = bundled_table_text()
    at = text.index(section)
    path = tmp_path / f"{key}0.tbl"
    path.write_text(text[:at] + re.sub(rf"^{key} .*$", f"{key} = 0", text[at:], count=1,
                                       flags=re.M))
    return path


@pytest.mark.parametrize("key", ["azimuth_scale", "zenith_scale", "delay_scaling"])
def test_scenario_table_refuses_a_scale_the_cluster_kernel_divides_by(tmp_path, key):
    for section in ("[UMi LOS]", "[UMi NLOS]"):
        path = zeroed_table(tmp_path, key, section)
        with pytest.raises(ConfigError, match=rf"section \{section[:-1]}\]: {key} must be "
                                              r"positive at 6 GHz, got 0\.0"):
            ScenarioParams.from_table(6e9, path=path)


def test_scenario_table_checks_a_scale_after_its_frequency_law(tmp_path):
    law = tmp_path / "law.tbl"  # -log10(1 + f_GHz) + 0.9: positive below 6.94 GHz
    law.write_text(bundled_table_text().replace(
        "delay_scaling           = 3.0", "delay_scaling = -1 0.9", 1))
    assert ScenarioParams.from_table(6e9, path=law).condition_params("LOS").delay_scaling < 0.9
    with pytest.raises(ConfigError, match="delay_scaling must be positive at 10 GHz"):
        ScenarioParams.from_table(10e9, path=law)


# ------------------------------------------------------------------- hops

def make_nodes():
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[30.0, 40.0, 1.5])
    return tx, tgt


def test_build_hop_geometry_and_forcing():
    scen = ScenarioParams.from_table(6e9)
    tx, tgt = make_nodes()
    hop = build_hop(hop_spec(tx, tgt, scen, "NLOS"), scen, RandomStreams(3))
    assert hop.condition == "NLOS"
    # the 2-D distance (50 m) sets the LOS probability of an auto hop
    assert hop_spec(tx, tgt, scen).p_los == los_probability(50.0)
    assert hop.spec.d3d_m == pytest.approx(np.hypot(50.0, 8.5))
    assert hop.k_factor == 0.0
    assert hop.path_loss_db == pytest.approx(
        hop_path_loss("NLOS", hop.spec.d3d_m, 6e9, d2d_m=50.0, h_ut_m=1.5)
    )


def test_build_hop_los_draws_k():
    scen = ScenarioParams.from_table(6e9)
    tx, tgt = make_nodes()
    hop = build_hop(hop_spec(tx, tgt, scen, "LOS"), scen, RandomStreams(3))
    assert hop.k_factor > 0.0


def test_build_hop_is_deterministic():
    scen = ScenarioParams.from_table(6e9)
    tx, tgt = make_nodes()
    a = build_hop(hop_spec(tx, tgt, scen), scen, RandomStreams(11, drop=2))
    b = build_hop(hop_spec(tx, tgt, scen), scen, RandomStreams(11, drop=2))
    assert a.condition == b.condition
    assert a.k_factor == b.k_factor
    assert a.shadow_fading_db == b.shadow_fading_db


def test_build_hop_condition_rate_tracks_los_probability():
    scen = ScenarioParams.from_table(6e9)
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[36.0, 0.0, 10.0])
    spec = hop_spec(tx, tgt, scen)
    n_los = sum(
        build_hop(spec, scen, RandomStreams(500, drop=d)).condition == "LOS"
        for d in range(400)
    )
    p = los_probability(36.0)
    assert abs(n_los / 400 - p) < 4 * np.sqrt(p * (1 - p) / 400)


def test_build_hop_rejects_coincident_nodes():
    scen = ScenarioParams.from_table(6e9)
    node = NodeState(position_m=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        hop_spec(node, NodeState(position_m=[1.0, 2.0, 3.0]), scen)


def test_a_hop_within_18_m_draws_the_same_as_a_los_forced_one():
    scen = ScenarioParams.from_table(6e9)
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[10.0, 5.0, 1.5])  # d2D 11.2 m: LOS probability 1
    auto, los, nlos = (hop_spec(tx, tgt, scen, c) for c in ("auto", "LOS", "NLOS"))
    assert auto == los and list(auto.path_loss_db) == ["LOS"]
    assert (nlos.p_los, list(nlos.path_loss_db)) == (0.0, ["NLOS"])
    for d in range(6):
        streams = RandomStreams(17, drop=d)
        assert build_hop(auto, scen, streams) == build_hop(los, scen, streams)
        hop = build_hop(nlos, scen, streams)
        assert (hop.condition, hop.k_factor) == ("NLOS", 0.0)


def test_hop_spec_refuses_an_unknown_condition():
    scen = ScenarioParams.from_table(6e9)
    with pytest.raises(ConfigError, match="condition must be"):
        hop_spec(*make_nodes(), scen, "los")


def test_k_and_shadow_draw_statistics():
    scen = ScenarioParams.from_table(6e9)
    los = scen.condition_params("LOS")
    spec = hop_spec(*make_nodes(), scen, "LOS")
    hops = [build_hop(spec, scen, RandomStreams(8, drop=d)) for d in range(4000)]
    k_db = 10 * np.log10([hop.k_factor for hop in hops])
    assert np.mean(k_db) == pytest.approx(los.k_mean_db, abs=0.3)
    assert np.std(k_db) == pytest.approx(los.k_std_db, rel=0.1)
    sf = [hop.shadow_fading_db for hop in hops]
    assert np.mean(sf) == pytest.approx(0.0, abs=0.3)
    assert np.std(sf) == pytest.approx(los.sf_std_db, rel=0.1)
    nlos = build_hop(hop_spec(*make_nodes(), scen, "NLOS"), scen, RandomStreams(8))
    assert nlos.k_factor == 0.0
    # a LOS condition without a K-factor law has no specular power either
    no_k = dataclasses.replace(los, k_mean_db=None, k_std_db=None)
    scen_no_k = dataclasses.replace(scen, conditions={"LOS": no_k})
    assert build_hop(spec, scen_no_k, RandomStreams(8)).k_factor == 0.0


def test_spreads_are_the_first_five_lsp_normals():
    """DS, ASD, ASA, ZSA, ZSD are 10 ** (mean + std * z) of the first five
    normals of the hop's lsp stream, in that order, each at most its cap."""
    scen = ScenarioParams.from_table(6e9)
    for condition in ("LOS", "NLOS"):
        spec = hop_spec(*make_nodes(), scen, condition)
        params = scen.condition_params(condition)
        for d in range(5):
            streams = RandomStreams(23, drop=d, hop=1)
            z = streams.stream("lsp").standard_normal(5)
            hop = build_hop(spec, scen, streams)
            caps = {"ds": math.inf, "asd": 104.0, "asa": 104.0, "zsa": 52.0, "zsd": 52.0}
            assert list(hop.spreads) == list(caps)
            for (x, cap), z_x in zip(caps.items(), z):
                mean, std = getattr(params, f"lg_{x}_mean"), getattr(params, f"lg_{x}_std")
                want = min(10.0 ** (mean + std * float(z_x)), cap)
                assert hop.spreads[x] == want, (condition, d, x)


def test_angle_spreads_are_capped():
    """A law far above the caps yields exactly 104 deg in azimuth and
    52 deg in zenith (TR 38.901 sec 7.5 step 4); the delay spread has no cap."""
    assert (AZIMUTH_SPREAD_CAP_DEG, ZENITH_SPREAD_CAP_DEG) == (104.0, 52.0)
    scen = ScenarioParams.from_table(6e9)
    los = scen.condition_params("LOS")
    wide = dataclasses.replace(
        los, lg_asd_mean=math.log10(AZIMUTH_SPREAD_CAP_DEG) + 3.0,
        lg_asa_mean=math.log10(AZIMUTH_SPREAD_CAP_DEG) + 3.0,
        lg_zsa_mean=math.log10(ZENITH_SPREAD_CAP_DEG) + 3.0,
        lg_zsd_mean=math.log10(ZENITH_SPREAD_CAP_DEG) + 3.0, lg_ds_mean=3.0,
    )
    scen_wide = dataclasses.replace(scen, conditions={"LOS": wide})
    spec = hop_spec(*make_nodes(), scen_wide, "LOS")
    for d in range(20):
        hop = build_hop(spec, scen_wide, RandomStreams(5, drop=d))
        assert hop.spreads["asd"] == hop.spreads["asa"] == 104.0
        assert hop.spreads["zsa"] == hop.spreads["zsd"] == 52.0
        assert hop.spreads["ds"] > 10.0  # 10 ** (3 + 0.38 z) s: no cap
