"""Configuration text format: parsing, validation, canonical echo."""
import re
from pathlib import Path

import pytest

from isacsim.concatenation import ConcatCase
from isacsim.config import (
    KEYS,
    RunConfig,
    config_echo,
    load_config,
    parse_config_text,
    validate_config,
)
from isacsim.errors import ConfigError

MINIMAL = "frequency_hz = 6e9\n"

# Every key of the table, each set to a value other than its default.
EVERY_KEY = """\
frequency_hz = 28e9
scenario = UMa
scenario_table = tables/uma.tbl
sensing_mode = monostatic
concat_case = Case3N
drops = 7
master_seed = 42
absolute_delay = true
split_strongest = yes
rcs.mean_m2 = 2.5
rcs.b2_mean_db = -1.5
rcs.b2_std_db = 3
rcs.b1_table = tables/b1.tbl
polarization.mode = partial
polarization.alphas = 1, 0.25, 0.5, 1
snapshots.start_s = 0.5
snapshots.step_s = 0.002
snapshots.count = 8
coupling.o_isac = 0.5
coupling.mode = embedded
coupling.removal_fraction = 0.3
background.enabled = on
conditions.tx_target = LOS
conditions.target_rx = NLOS
conditions.background = LOS
output.dir = out/runs
output.cir = false
nodes.tx.position_m = 5, -5, 12
nodes.tx.velocity_mps = 0.5, 0, 0
nodes.tx.elements = 2
nodes.tx.element_spacing_m = 0.02
nodes.tx.pattern = sectorized-38901
nodes.tx.slant_deg = 45
nodes.rx.position_m = 80, 10, 8
nodes.rx.velocity_mps = 0, -0.5, 0
nodes.rx.elements = 3
nodes.rx.element_spacing_m = 0.03
nodes.rx.pattern = sectorized-38901
nodes.rx.slant_deg = -45
nodes.target.position_m = 30, 20, 2
nodes.target.velocity_mps = 1, 2, 3
"""


def test_minimal_config_gets_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.frequency_hz == 6e9
    assert cfg.scenario == "UMi"
    assert cfg.sensing_mode == "bistatic"
    assert cfg.concat_case == ConcatCase.CASE_2RN
    assert cfg.drops == 1 and cfg.master_seed == 1
    assert cfg.tx.position_m == (0.0, 0.0, 10.0)
    assert cfg.target.position_m == (20.0, 15.0, 1.5)
    assert cfg.background_enabled is False
    assert cfg.wavelength_m == pytest.approx(0.05)


def test_parse_text_layout():
    entries = parse_config_text(
        "# comment\n\nfrequency_hz = 6e9\n  drops=4  \n"
    )
    assert entries == {"frequency_hz": ("6e9", 3), "drops": ("4", 4)}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config_text("frequency_hz = 6e9\nnonsense\n")
    with pytest.raises(ConfigError, match="line 1: empty key"):
        parse_config_text("= 5\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'drops'"):
        parse_config_text("drops = 1\nfrequency_hz = 6e9\ndrops = 2\n")


def test_missing_frequency_is_named():
    with pytest.raises(ConfigError, match="frequency_hz"):
        validate_config("drops = 5\n")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'dropz'"):
        validate_config("frequency_hz = 6e9\ndropz = 5\n")


def test_value_parsers():
    cfg = validate_config(
        "frequency_hz = 6e9\n"
        "drops = 12\n"
        "absolute_delay = yes\n"
        "output.cir = off\n"
        "nodes.target.velocity_mps = 1.5, -2, 0\n"
        "polarization.alphas = 1, 0.5, 0.5, 1\n"
    )
    assert cfg.drops == 12
    assert cfg.absolute_delay is True
    assert cfg.emit_cir is False
    assert cfg.target.velocity_mps == (1.5, -2.0, 0.0)
    assert cfg.pol_alphas == (1.0, 0.5, 0.5, 1.0)


def test_value_parser_errors():
    with pytest.raises(ConfigError, match="expects an integer"):
        validate_config("frequency_hz = 6e9\ndrops = 2.5\n")
    with pytest.raises(ConfigError, match="expects a number"):
        validate_config("frequency_hz = six\n")
    with pytest.raises(ConfigError, match="must be finite"):
        validate_config("frequency_hz = inf\n")
    with pytest.raises(ConfigError, match="expects true/false"):
        validate_config("frequency_hz = 6e9\nabsolute_delay = maybe\n")
    with pytest.raises(ConfigError, match="expects 3 comma-separated"):
        validate_config("frequency_hz = 6e9\nnodes.tx.position_m = 1, 2\n")
    with pytest.raises(ConfigError, match="must be one of"):
        validate_config("frequency_hz = 6e9\nsensing_mode = quadstatic\n")


def test_concat_case_error_lists_choices():
    with pytest.raises(ConfigError, match="Case2RN"):
        validate_config("frequency_hz = 6e9\nconcat_case = Case9\n")
    cfg = validate_config("frequency_hz = 6e9\nconcat_case = Case2O\n")
    assert cfg.concat_case == ConcatCase.CASE_2O


def test_range_checks():
    bad = [
        "frequency_hz = -1\n",
        "frequency_hz = 6e9\ndrops = 0\n",
        "frequency_hz = 6e9\nmaster_seed = -3\n",
        "frequency_hz = 6e9\nsnapshots.count = 0\n",
        "frequency_hz = 6e9\nsnapshots.step_s = 0\n",
        "frequency_hz = 6e9\nrcs.mean_m2 = 0\n",
        "frequency_hz = 6e9\nrcs.b2_std_db = -1\n",
        "frequency_hz = 6e9\ncoupling.o_isac = -0.1\n",
        "frequency_hz = 6e9\ncoupling.removal_fraction = 1.0\n",
        "frequency_hz = 6e9\nnodes.rx.elements = 0\n",
        "frequency_hz = 6e9\nnodes.rx.element_spacing_m = 0\n",
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            validate_config(text)
    with pytest.raises(ConfigError, match="line 2: polarization.alphas"):
        validate_config("frequency_hz = 6e9\npolarization.alphas = 1, -0.5, 0, 1\n")


def test_node_overrides_only_touch_named_fields():
    cfg = validate_config(
        "frequency_hz = 6e9\n"
        "nodes.rx.elements = 4\n"
        "nodes.rx.pattern = sectorized-38901\n"
        "nodes.rx.slant_deg = 45\n"
    )
    assert cfg.rx.elements == 4
    assert cfg.rx.pattern == "sectorized-38901"
    assert cfg.rx.slant_deg == 45.0
    assert cfg.rx.position_m == (60.0, 0.0, 10.0)  # untouched default
    assert cfg.tx.elements == 1


def test_conditions_and_modes():
    cfg = validate_config(
        "frequency_hz = 6e9\n"
        "conditions.tx_target = LOS\n"
        "conditions.target_rx = NLOS\n"
        "coupling.mode = embedded\n"
        "coupling.removal_fraction = 0.25\n"
        "polarization.mode = full\n"
    )
    assert cfg.cond_tx_target == "LOS"
    assert cfg.cond_target_rx == "NLOS"
    assert cfg.coupling_mode == "embedded"
    assert cfg.pol_mode == "full"
    with pytest.raises(ConfigError):
        validate_config("frequency_hz = 6e9\nconditions.tx_target = los\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "drops = 3\n")
    cfg = load_config(path)
    assert cfg.drops == 3


def test_config_echo_is_canonical_and_reparseable():
    for text in (
        "frequency_hz = 6e9\ndrops = 7\nnodes.target.velocity_mps = 1, 2, 3\n",
        EVERY_KEY,
    ):
        cfg = validate_config(text)
        lines = config_echo(cfg)
        assert lines == sorted(lines)
        # echoing, reparsing, and echoing again is a fixed point
        cfg2 = validate_config("\n".join(lines) + "\n")
        assert config_echo(cfg2) == lines
        assert cfg2.drops == 7
        assert cfg2.target.velocity_mps == (1.0, 2.0, 3.0)
    # EVERY_KEY sets, and the echo reproduces, every key off its default
    assert set(parse_config_text(EVERY_KEY)) == set(KEYS)
    assert len(lines) == len(KEYS)
    assert not set(lines) & set(config_echo(validate_config(MINIMAL)))


def test_documented_keys_match_the_key_table():
    doc = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"
    documented, section = set(), None
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("### "):
            section = line[4:].strip()
        row = re.match(r"\| `([\w.]+)` \| ([^|]*) \|", line)
        if row is None:
            continue
        if section == "Nodes":  # the second column names the nodes that take the key
            documented |= {f"nodes.{n}.{row[1]}" for n in row[2].split(", ")}
        else:
            documented.add(row[1])
    assert documented == set(KEYS)


def test_echo_skips_unset_optionals():
    cfg = RunConfig(frequency_hz=6e9)
    lines = config_echo(cfg)
    joined = "\n".join(lines)
    assert "scenario_table" not in joined
    assert "rcs.b1_table" not in joined
    assert "output.dir" not in joined
    assert any(line.startswith("frequency_hz = ") for line in lines)
