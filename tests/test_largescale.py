"""Scenario tables, path-loss formulas, link budget, large-scale draws."""
import numpy as np
import pytest
from importlib import resources

from isacsim.errors import ConfigError
from isacsim.geometry import NodeState
from isacsim.largescale import (
    CouplingConfig,
    ScenarioParams,
    build_hop,
    combine_isac_path_loss,
    concatenated_path_loss,
    draw_k_factor,
    draw_shadow_fading,
    hop_path_loss,
    los_probability,
)
from isacsim.seeds import RandomStreams


def bundled_table_text():
    return resources.files("isacsim.data").joinpath("umi_38901.tbl").read_text()


# ---------------------------------------------------------------- path loss

def test_los_path_loss_reference_point():
    # hand-computed: 32.4 + 21*log10(100) + 20*log10(6)
    assert hop_path_loss("UMi", "LOS", 100.0, 6e9) == pytest.approx(
        89.96302500767288, abs=1e-9
    )


def test_nlos_path_loss_reference_point():
    # hand-computed: 22.4 + 35.3*log10(100) + 21.3*log10(6)
    assert hop_path_loss("UMi", "NLOS", 100.0, 6e9) == pytest.approx(
        109.5746216331716, abs=1e-9
    )


def test_nlos_lower_bounded_by_los():
    # at 1 m the NLOS formula dips below LOS and must be clamped up
    assert hop_path_loss("UMi", "NLOS", 1.0, 6e9) == pytest.approx(
        hop_path_loss("UMi", "LOS", 1.0, 6e9)
    )


def test_breakpoint_is_continuous():
    # d_bp = 4 * 9 * 0.5 * f / c = 360 m at 6 GHz with 10 m / 1.5 m heights
    h = 10.0 - 1.5
    for eps in (1e-6, -1e-6):
        d2d = 360.0 + eps
        d3d = np.hypot(d2d, h)
        below = hop_path_loss("UMi", "LOS", d3d, 6e9, d2d_m=360.0 - 1e-6)
        above = hop_path_loss("UMi", "LOS", d3d, 6e9, d2d_m=360.0 + 1e-6)
        assert above == pytest.approx(below, abs=1e-6)


def test_path_loss_monotone_in_distance():
    d = np.linspace(10, 2000, 60)
    pl = [hop_path_loss("UMi", "LOS", float(x), 6e9, d2d_m=float(x)) for x in d]
    assert np.all(np.diff(pl) > 0)


def test_path_loss_validity_range():
    with pytest.raises(ConfigError):
        hop_path_loss("UMi", "LOS", 0.0, 6e9)
    with pytest.raises(ConfigError):
        hop_path_loss("UMi", "LOS", 5001.0, 6e9)
    with pytest.raises(ConfigError):
        hop_path_loss("UMi", "sideways", 10.0, 6e9)
    with pytest.raises(ConfigError):
        hop_path_loss("RMa", "LOS", 10.0, 6e9)


def test_los_probability_values():
    assert los_probability("UMi", 5.0) == 1.0
    assert los_probability("UMi", 18.0) == 1.0
    assert los_probability("UMi", 36.0) == pytest.approx(0.6839397205857212, abs=1e-12)
    assert los_probability("UMi", 1e4) < 0.01
    with pytest.raises(ConfigError):
        los_probability("UMi", -1.0)
    with pytest.raises(ConfigError):
        los_probability("InH", 10.0)


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
    scen = ScenarioParams.from_table("UMi", 6e9)
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


def test_scenario_table_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        ScenarioParams.from_table("Mars", 6e9)
    with pytest.raises(ConfigError):
        ScenarioParams.from_table("UMi", -1.0)


def test_scenario_table_parse_errors(tmp_path):
    bad_header = tmp_path / "bad_header.tbl"
    bad_header.write_text("[UMi hazy]\nlg_ds_mean = -7\n")
    with pytest.raises(ConfigError, match="line 1"):
        ScenarioParams.from_table("UMi", 6e9, path=bad_header)

    orphan = tmp_path / "orphan.tbl"
    orphan.write_text("lg_ds_mean = -7\n")
    with pytest.raises(ConfigError, match="before any section"):
        ScenarioParams.from_table("UMi", 6e9, path=orphan)

    non_numeric = tmp_path / "nonnum.tbl"
    non_numeric.write_text("[UMi LOS]\nlg_ds_mean = fast\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        ScenarioParams.from_table("UMi", 6e9, path=non_numeric)

    three = tmp_path / "three.tbl"
    three.write_text("[UMi LOS]\nlg_ds_mean = 1 2 3\n")
    with pytest.raises(ConfigError, match="1 or 2 numbers"):
        ScenarioParams.from_table("UMi", 6e9, path=three)

    repeated_key = tmp_path / "repeated_key.tbl"
    repeated_key.write_text(bundled_table_text().replace(
        "[UMi LOS]\n", "[UMi LOS]\nnum_clusters = 3\n", 1))
    with pytest.raises(ConfigError, match=r"line \d+: duplicate key 'num_clusters'"):
        ScenarioParams.from_table("UMi", 6e9, path=repeated_key)

    repeated_section = tmp_path / "repeated_section.tbl"
    repeated_section.write_text("[UMi LOS]\nlg_ds_mean = -7\n\n[UMi LOS]\n")
    with pytest.raises(ConfigError, match="line 4: duplicate section"):
        ScenarioParams.from_table("UMi", 6e9, path=repeated_section)

    latin1 = tmp_path / "latin1.tbl"
    latin1.write_bytes("# café\n[UMi LOS]\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"cannot read {latin1}"):
        ScenarioParams.from_table("UMi", 6e9, path=latin1)


def test_scenario_table_missing_and_unknown_keys(tmp_path):
    text = bundled_table_text()

    missing = tmp_path / "missing.tbl"
    missing.write_text(text.replace("sf_std_db", "# sf_std_db", 1))
    with pytest.raises(ConfigError, match="missing"):
        ScenarioParams.from_table("UMi", 6e9, path=missing)

    unknown = tmp_path / "unknown.tbl"
    unknown.write_text(text + "\nhumidity = 3\n")
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioParams.from_table("UMi", 6e9, path=unknown)


def test_user_table_with_new_scenario_name(tmp_path):
    text = bundled_table_text().replace("[UMi ", "[Lab ")
    path = tmp_path / "lab.tbl"
    path.write_text(text)
    scen = ScenarioParams.from_table("Lab", 6e9, path=path)
    assert scen.name == "Lab"
    assert scen.condition_params("LOS").num_clusters == 12


# ------------------------------------------------------------------- hops

def make_nodes():
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[30.0, 40.0, 1.5])
    return tx, tgt


def test_build_hop_geometry_and_forcing():
    scen = ScenarioParams.from_table("UMi", 6e9)
    tx, tgt = make_nodes()
    hop = build_hop(tx, tgt, scen, RandomStreams(3), force_condition="NLOS")
    assert hop.condition == "NLOS"
    assert hop.d2d_m == pytest.approx(50.0)
    assert hop.d3d_m == pytest.approx(np.hypot(50.0, 8.5))
    assert hop.k_factor == 0.0
    assert hop.path_loss_db == pytest.approx(
        hop_path_loss("UMi", "NLOS", hop.d3d_m, 6e9, d2d_m=50.0, h_ut_m=1.5)
    )


def test_build_hop_los_draws_k():
    scen = ScenarioParams.from_table("UMi", 6e9)
    tx, tgt = make_nodes()
    hop = build_hop(tx, tgt, scen, RandomStreams(3), force_condition="LOS")
    assert hop.k_factor > 0.0


def test_build_hop_is_deterministic():
    scen = ScenarioParams.from_table("UMi", 6e9)
    tx, tgt = make_nodes()
    a = build_hop(tx, tgt, scen, RandomStreams(11, drop=2))
    b = build_hop(tx, tgt, scen, RandomStreams(11, drop=2))
    assert a.condition == b.condition
    assert a.k_factor == b.k_factor
    assert a.shadow_fading_db == b.shadow_fading_db


def test_build_hop_condition_rate_tracks_los_probability():
    scen = ScenarioParams.from_table("UMi", 6e9)
    tx = NodeState(position_m=[0.0, 0.0, 10.0])
    tgt = NodeState(position_m=[36.0, 0.0, 10.0])
    n_los = sum(
        build_hop(tx, tgt, scen, RandomStreams(500, drop=d)).condition == "LOS"
        for d in range(400)
    )
    p = los_probability("UMi", 36.0)
    assert abs(n_los / 400 - p) < 4 * np.sqrt(p * (1 - p) / 400)


def test_build_hop_rejects_coincident_nodes():
    scen = ScenarioParams.from_table("UMi", 6e9)
    node = NodeState(position_m=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        build_hop(node, NodeState(position_m=[1.0, 2.0, 3.0]), scen, RandomStreams(1))


def test_k_and_shadow_draw_statistics():
    scen = ScenarioParams.from_table("UMi", 6e9)
    los = scen.condition_params("LOS")
    rng = np.random.default_rng(8)
    k_db = 10 * np.log10([draw_k_factor(los, rng) for _ in range(4000)])
    assert np.mean(k_db) == pytest.approx(los.k_mean_db, abs=0.3)
    assert np.std(k_db) == pytest.approx(los.k_std_db, rel=0.1)
    sf = [draw_shadow_fading(los, rng) for _ in range(4000)]
    assert np.mean(sf) == pytest.approx(0.0, abs=0.3)
    assert np.std(sf) == pytest.approx(los.sf_std_db, rel=0.1)
    nlos = scen.condition_params("NLOS")
    assert draw_k_factor(nlos, rng) == 0.0
