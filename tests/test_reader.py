"""The one input grammar: every text input parses the same through noise."""
import os
import re
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim.cli import main
from isacsim.config import load_config
from isacsim.largescale import ScenarioParams
from isacsim.rcs import B1Table
from isacsim.reader import data_lines


def fit_file(path):
    with tempfile.TemporaryDirectory() as out:
        assert main(["rcs-fit", path, "--out", out]) == 0
        with open(os.path.join(out, "rcs_fit.txt"), "rb") as fh:
            return fh.read()


def b1_columns(path):
    table = B1Table.from_file(path)
    return table.angles_deg.tolist(), table.gains.tolist()


BUNDLED_TABLE = resources.files("isacsim.data").joinpath("umi_38901.tbl").read_text()

# kind -> (the clean file's data lines, the parser of a file path)
KINDS = {
    "config": (["frequency_hz = 6e9", "drops = 3", "nodes.tx.position_m = 1, 2, 3",
                "absolute_delay = yes", "concat_case = Case3N"], load_config),
    "scenario_table": ([line for _, line in data_lines(BUNDLED_TABLE)],
                       lambda path: ScenarioParams.from_table(6e9, path=path)),
    "b1_table": (["-180 0.5", "0 2.0", "90 1.25", "180 0.5"], b1_columns),
    "samples": (["1.5 2.5", "0.25", "3.0 4.0 5.0"], fit_file),
}

PAD = st.sampled_from(["", " ", "\t", " \t  "])
FILLER = st.sampled_from(["", "   ", "\t", "#", "# note = 1", "  # [UMi NLOS]", "#\t1 2 3"])


@st.composite
def noisy(draw, lines):
    """``lines`` with blank and comment lines between them, padding around
    them, mixed LF/CRLF ends and maybe a byte-order mark."""
    out = []
    for line in lines + [None]:
        out += draw(st.lists(FILLER, max_size=2))
        if line is not None:
            out.append(draw(PAD) + line + draw(PAD))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out)
    return ("\ufeff" if draw(st.booleans()) else "") + text


def parse(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return KINDS[kind][1](path)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_blank_and_comment_lines_padding_crlf_and_a_bom_change_nothing(kind, data):
    lines = KINDS[kind][0]
    clean = parse(kind, "".join(line + "\n" for line in lines))
    assert parse(kind, data.draw(noisy(lines))) == clean



LAW_LINE = next(ln for ln, line in data_lines(BUNDLED_TABLE) if line.startswith("lg_ds_mean"))


def input_with(tmp, kind, value):
    """The argv whose command reads ``value`` as a number of ``kind`` (a run
    of a configuration, but for rcs-fit and detect), and what its error names."""
    files = {  # kind -> (file, text, its config key or None, what the error names)
        "config_scalar": ("run.cfg", f"frequency_hz = {value}\n", None, "line 1: frequency_hz"),
        "config_vector": ("run.cfg", f"frequency_hz = 6e9\nnodes.tx.position_m = 0, {value}, 10\n",
                          None, "line 2: nodes.tx.position_m"),
        "scenario_table_law": ("umi.tbl", re.sub(r"^lg_ds_mean .*$", f"lg_ds_mean = -0.24 {value}",
                                                 BUNDLED_TABLE, count=1, flags=re.M),
                               "scenario_table", f"parameter table line {LAW_LINE}: lg_ds_mean"),
        "b1_row": ("b1.tbl", f"-180 1\n0 {value}\n180 1\n", "rcs.b1_table", f"{tmp / 'b1.tbl'}:2"),
        "sample_line": ("s.txt", f"1.0\n2.0 {value}\n", None, f"{tmp / 's.txt'}:2"),
    }
    if kind == "pfa":
        return ["detect", "--pfa", f"1e-2,{value}"], "--pfa"
    name, text, key, where = files[kind]
    (tmp / name).write_text(text)
    if kind == "sample_line":
        return ["rcs-fit", str(tmp / name)], where
    if key is not None:
        (tmp / "run.cfg").write_text(f"frequency_hz = 6e9\n{key} = {tmp / name}\n")
    return ["run", "--config", str(tmp / "run.cfg")], where


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "x"])
@pytest.mark.parametrize("kind", ["config_scalar", "config_vector", "scenario_table_law",
                                  "b1_row", "sample_line", "pfa"])
def test_every_number_read_is_a_finite_float(tmp_path, capsys, kind, value):
    """One number rule for every input: a number that is not a finite float
    is refused before anything is written, with its key or file:line."""
    argv, where = input_with(tmp_path, kind, value)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    rule = "expects a number" if value == "x" else "must be finite"
    assert capsys.readouterr().err.startswith(f"configuration error: {where} {rule}, got ")
    assert not out.exists()
