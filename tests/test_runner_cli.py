"""End-to-end drop runner and command-line entry points."""
import hashlib
import math
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
import types
from datetime import datetime, timezone
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isacsim import cli, coefficients, runner, text
from isacsim.cli import main
from isacsim.concatenation import ALL_CASES, ConcatCase
from isacsim.config import validate_config
from isacsim.constants import SPEED_OF_LIGHT
from isacsim.largescale import ScenarioParams
from isacsim.metrics import detection_table
from isacsim.runner import concat_study, run

BASE = (
    "frequency_hz = 6e9\n"
    "master_seed = 7\n"
    "concat_case = Case2O\n"
    "conditions.tx_target = LOS\n"
    "conditions.target_rx = LOS\n"
    "snapshots.count = 2\n"
)


def cfg_text(extra="", drops=2):
    return BASE + f"drops = {drops}\n" + extra


def make_cfg(extra="", drops=2):
    return validate_config(cfg_text(extra, drops))


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_stats(out_dir):
    rows = []
    with open(os.path.join(out_dir, "statistics.txt")) as fh:
        header = fh.readline().strip()
        for line in fh:
            parts = line.split()
            rows.append((int(parts[0]), parts[1], parts[2], [float(v) for v in parts[3:]]))
    return header, rows


# --------------------------------------------------------------- run mode

def test_run_writes_cross_checked_outputs(tmp_path):
    out = str(tmp_path / "run")
    manifest = run(make_cfg(), out_dir=out)
    assert manifest.out_dir == out
    names = set(os.listdir(out))
    assert "statistics.txt" in names
    assert "manifest.txt" in names
    assert "cir.txt" in names
    assert "cdf_ds_ns_Case2O.txt" in names
    # checksums recorded in the manifest match the files on disk
    for name, digest in manifest.file_checksums.items():
        assert sha(os.path.join(out, name)) == digest
    with open(os.path.join(out, "manifest.txt")) as fh:
        text = fh.read()
    assert "[files]" in text and "[config]" in text
    assert "frequency_hz = 6000000000.0" in text
    assert "mean_two_hop_path_loss_db" in text


def test_statistics_rows_and_condition(tmp_path):
    out = str(tmp_path / "run")
    run(make_cfg(), out_dir=out)
    header, rows = read_stats(out)
    assert header.startswith("# drop case condition_pair total_power nn_power ds_ns")
    assert len(rows) == 2
    for drop, (d, case, pair, nums) in enumerate(rows):
        assert d == drop
        assert case == "Case2O"
        assert pair == "LL"
        assert len(nums) == 7
        assert 0.0 < nums[0] <= 1.0 + 1e-12  # realized power
        assert nums[2] > 0.0  # delay spread in ns


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    m1 = run(make_cfg(), out_dir=out1)
    m2 = run(make_cfg(), out_dir=out2)
    assert set(m1.file_checksums) == set(m2.file_checksums)
    for name in m1.file_checksums:
        assert m1.file_checksums[name] == m2.file_checksums[name], name


# CaseA under auto conditions at seed 3: drop 8 draws both hops NLOS and has
# no path, so its empty CIR sits between drops that stream rows
AUTO_CASE_A = (
    "frequency_hz = 6e9\nmaster_seed = 3\ndrops = 10\nconcat_case = CaseA\n"
    "snapshots.count = 2\n"
)


def test_worker_count_does_not_change_outputs(tmp_path):
    m1 = run(make_cfg(drops=4), out_dir=str(tmp_path / "w1"), workers=1)
    m2 = run(make_cfg(drops=4), out_dir=str(tmp_path / "w4"), workers=4)
    assert m1.file_checksums == m2.file_checksums


def test_empty_drops_stream_the_same_for_any_worker_count(tmp_path):
    m1 = run(validate_config(AUTO_CASE_A), out_dir=str(tmp_path / "w1"), workers=1)
    m3 = run(validate_config(AUTO_CASE_A), out_dir=str(tmp_path / "w3"), workers=3)
    assert m1.file_checksums == m3.file_checksums
    with open(tmp_path / "w3" / "cir.txt") as fh:
        drops = {int(line.split(maxsplit=1)[0]) for line in fh if not line.startswith("#")}
    # the premise: an empty drop between two that stream rows
    assert any(d not in drops and {d - 1, d + 1} <= drops for d in range(1, 9))


def manifest_header(out_dir):
    """The manifest's ``key = value`` header fields and its [files] digests."""
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        head, rest = fh.read().split("[files]\n")
    fields = dict(line.split(" = ") for line in head.splitlines() if " = " in line)
    files = rest.split("[config]\n")[0].splitlines()
    return fields, dict(line.split(" sha256=") for line in files)


@pytest.fixture
def eight_cpus(monkeypatch):
    """A run starts no more processes than it has CPUs; the pool tests see
    eight, so that they start a pool on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every process pool a run starts, in order."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def test_manifest_cir_digest_rows_and_workers(tmp_path):
    out = str(tmp_path / "run")
    manifest = run(validate_config(AUTO_CASE_A), out_dir=out, workers=2)
    fields, listed = manifest_header(out)
    # the digest is taken while streaming; it must match the bytes on disk
    assert listed["cir.txt"] == sha(os.path.join(out, "cir.txt"))
    with open(os.path.join(out, "cir.txt")) as fh:
        rows = sum(1 for line in fh if not line.startswith("#"))
    assert rows > 0
    assert int(fields["cir_rows"]) == rows == manifest.cir_rows
    assert int(fields["workers"]) == 2 == manifest.workers
    assert not any(name.endswith(".part") for name in os.listdir(out))


def test_pool_has_no_more_workers_than_drops(tmp_path, eight_cpus, pool_sizes):
    one = run(make_cfg(), out_dir=str(tmp_path / "w1"), workers=1)
    out = str(tmp_path / "w8")
    eight = run(make_cfg(), out_dir=out, workers=8)
    assert pool_sizes == [2]  # one process per drop, not the eight requested
    assert eight.file_checksums == one.file_checksums
    assert sha(os.path.join(out, "cir.txt")) == sha(tmp_path / "w1" / "cir.txt")
    assert manifest_header(out)[0]["workers"] == "8"


def test_pool_has_no_more_processes_than_cpus(tmp_path, monkeypatch, pool_sizes):
    serial = run(make_cfg(drops=16), out_dir=str(tmp_path / "serial"), workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    many = run(make_cfg(drops=16), out_dir=str(tmp_path / "many"), workers=10**6)
    assert pool_sizes == [2]
    assert many.file_checksums == serial.file_checksums and many.workers == 10**6
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run(make_cfg(drops=16), out_dir=str(tmp_path / "one"), workers=8)
    assert pool_sizes == [2]  # one CPU: no pool


def test_run_without_paths_writes_no_cir(tmp_path):
    out = str(tmp_path / "nlos")
    text = cfg_text(drops=3).replace("Case2O", "CaseA").replace("= LOS", "= NLOS")
    manifest = run(validate_config(text), out_dir=out)
    assert not {"cir.txt", "cir.txt.part"} & set(os.listdir(out))
    fields, listed = manifest_header(out)
    assert "statistics.txt" in listed
    assert "cir.txt" not in listed
    assert listed == manifest.file_checksums
    assert fields["cir_rows"] == "0"


def test_rerun_into_a_used_directory_clears_the_earlier_outputs(tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    run(make_cfg(), out_dir=out)
    assert "cir.txt" in os.listdir(out)
    for name in ("cir.txt.part", "cir.txt.5.spool", "statistics.txt.part",
                 "cdf_power_Case9.txt", "notes.txt"):
        open(os.path.join(out, name), "w").close()
    write_statistics = runner._write_statistics

    def after_the_cleanup(out_dir, *args):  # the run would reuse the stale part's name
        assert "statistics.txt.part" not in os.listdir(out_dir)
        write_statistics(out_dir, *args)

    monkeypatch.setattr(runner, "_write_statistics", after_the_cleanup)
    run(make_cfg("output.cir = false\n"), out_dir=out)
    _, listed = manifest_header(out)
    assert "cir.txt" not in listed
    # only this run's files, and what the runner does not name itself
    assert set(os.listdir(out)) == set(listed) | {"manifest.txt", "notes.txt"}


def test_failed_run_leaves_no_cir(tmp_path, monkeypatch, eight_cpus):
    calls = []
    synthesize = coefficients.synthesize_cir

    def fail_on_drop_2(group, drop, rcs_model, grid, wavelength, streams, **kwargs):
        calls.append(streams.drop)  # a pool worker appends to its own copy
        if streams.drop == 2:
            raise RuntimeError("drop 2 fails")
        return synthesize(group, drop, rcs_model, grid, wavelength, streams, **kwargs)

    monkeypatch.setattr(coefficients, "synthesize_cir", fail_on_drop_2)
    for workers in (1, 2):
        out = tmp_path / f"fail{workers}"
        with pytest.raises(RuntimeError, match="drop 2 fails"):
            run(make_cfg(drops=4), out_dir=str(out), workers=workers)
        names = set(os.listdir(out))
        assert not names & {"cir.txt", "cir.txt.part", "manifest.txt"}
        assert not [name for name in names if name.endswith(".spool")]
    assert calls == [0, 1, 2]  # the serial run stops at the failed drop


@pytest.mark.parametrize("extra", [
    "rcs.b2_mean_db = 5000\n",
    "snapshots.start_s = 1e308\nnodes.target.velocity_mps = 8, 0, 0\n",
    "snapshots.start_s = 1e308\nsnapshots.step_s = 1e308\nsnapshots.count = 3\n",
])
def test_non_finite_cir_gains_exit_3_and_leave_no_cir(tmp_path, capsys, extra):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("frequency_hz = 6e9\ndrops = 2\n" + extra)
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)]) == 3
        err = capsys.readouterr().err
        assert "numeric error: drop 0: CIR gains" in err
        if workers == 1:  # numpy's warnings are not printed; a pool worker's miss capsys
            assert err == "numeric error: drop 0: CIR gains overflow to non-finite values\n"
        names = set(os.listdir(out))
        assert not names & {"cir.txt", "cir.txt.part", "manifest.txt"}
        assert not [name for name in names if name.endswith(".spool")]


def test_each_hop_is_resolved_once_per_run(tmp_path, monkeypatch):
    calls = dict.fromkeys(("hop_path_loss", "los_probability", "angles_between"), 0)
    for name in calls:
        # count the calls through every package module that looks the name up
        for module in [m for key, m in sorted(sys.modules.items())
                       if key.startswith("isacsim.") and hasattr(m, name)]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    # two auto hops, each of which can take either condition
    concat_study(validate_config("frequency_hz = 6e9\ndrops = 24\n"),
                 out_dir=str(tmp_path / "study"))
    assert 1 <= calls["hop_path_loss"] <= 4
    assert 1 <= calls["los_probability"] <= 2
    assert 1 <= calls["angles_between"] <= 4  # each hop's LOS angles, both ways


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_that_fails_while_writing_leaves_no_part_file(tmp_path, monkeypatch, workers):
    clean = run(make_cfg(drops=4), out_dir=str(tmp_path / "clean"), workers=workers)
    write = runner._Output.write
    for name in ("cir.txt", "statistics.txt", "cdf_ds_ns_Case2O.txt", "manifest.txt"):
        def fail_after_writing(self, chunk, _name=name):
            write(self, chunk)  # the part file exists and holds its first bytes
            if self.name == _name:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner._Output, "write", fail_after_writing)
        out = tmp_path / f"{name}-fails"
        with pytest.raises(OSError, match="No space"):
            run(make_cfg(drops=4), out_dir=str(out), workers=workers)
        names = set(os.listdir(out))
        assert not [n for n in names if n.endswith((".part", ".spool"))]
        assert not names & {name, "manifest.txt"}
        # what a failed run leaves under a final name was written whole
        assert {n: sha(out / n) for n in names} == {n: clean.file_checksums[n] for n in names}


def test_statistics_slices_do_not_change_bytes(tmp_path, monkeypatch):
    cfg = validate_config("frequency_hz = 6e9\nmaster_seed = 4\ndrops = 5\n")
    whole = concat_study(cfg, out_dir=str(tmp_path / "whole"))
    monkeypatch.setattr(text, "SLICE_VALUES", 24)  # 3 rows of 8 values, cut within a drop
    sliced = concat_study(cfg, out_dir=str(tmp_path / "sliced"))
    assert sliced.file_checksums == whole.file_checksums


def test_pool_results_carry_no_cir_text(tmp_path, monkeypatch, eight_cpus):
    import concurrent.futures

    sizes = []

    class Measuring(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            for block in super().map(fn, *iterables, **kwargs):  # each task's RunBlock
                sizes.append(len(pickle.dumps(block)))
                yield block

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Measuring)
    cfg = make_cfg("nodes.tx.elements = 4\nnodes.rx.elements = 4\n")
    run(cfg, out_dir=str(tmp_path / "pool"), workers=2)
    assert os.path.getsize(tmp_path / "pool" / "cir.txt") > 2 * 10**5  # the premise
    assert len(sizes) == 2 and max(sizes) < 4096


def cir_block_oracle(drop, delays, gains):
    """The per-value cir.txt writer the block formatter replaced."""
    lines = []
    n_u, n_s, n_paths, _ = gains.shape
    for u in range(n_u):
        for s in range(n_s):
            for p in range(n_paths):
                vals = " ".join("%.12e %.12e" % (z.real, z.imag) for z in gains[u, s, p])
                lines.append(f"{drop} {u} {s} {p} " + "%.12e " % delays[p] + vals)
    return "".join(line + "\n" for line in lines).encode("ascii")


SPECIAL = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.0, -3.5e-7]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def complex_array(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im  # keeps -0.0 parts that re + 1j * im would lose
    return out


@st.composite
def cir_arrays(draw):
    shape = draw(st.tuples(*[st.integers(1, 3)] * 4))
    parts = [draw(arrays(np.float64, shape, elements=FLOATS)) for _ in range(2)]
    return draw(arrays(np.float64, shape[2], elements=FLOATS)), complex_array(*parts)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.integers(0, 10**6), cir_arrays())
@example(7, (np.array([-0.0]), complex_array([[[[5e-324]]]], [[[[-1e300]]]])))
@example(0, (np.array([1e300]), complex_array([[[[-0.0]]]], [[[[-2.2e-310]]]])))
def test_cir_block_matches_per_value_writer(drop, cir):
    delays, gains = cir
    assert b"".join(runner._cir_block(drop, delays, gains)) == cir_block_oracle(drop, delays, gains)


def test_default_output_directory_is_stamped(tmp_path):
    cfg = make_cfg(f"output.dir = {tmp_path / 'auto'}\n")
    manifest = run(cfg)
    assert str(tmp_path / "auto") in manifest.out_dir
    assert manifest.out_dir.endswith("-seed7")
    assert os.path.exists(os.path.join(manifest.out_dir, "statistics.txt"))


def test_manifest_and_default_directory_share_one_clock_read(tmp_path, monkeypatch):
    reads = iter([datetime(2026, 1, 2, 3, 4, 5, 999999, tzinfo=timezone.utc),
                  datetime(2026, 1, 2, 3, 4, 6, tzinfo=timezone.utc)])  # a second later
    monkeypatch.setattr(runner, "datetime", types.SimpleNamespace(now=lambda tz: next(reads)))
    manifest = run(make_cfg(f"output.dir = {tmp_path}\n", drops=1))
    assert manifest.created_utc == "2026-01-02T03:04:05+00:00"
    assert manifest.out_dir == str(tmp_path / "20260102-030405-seed7")


def test_monostatic_arrival_equals_departure(tmp_path):
    out = str(tmp_path / "mono")
    run(make_cfg("sensing_mode = monostatic\n"), out_dir=out)
    _, rows = read_stats(out)
    for _, _, _, nums in rows:
        asa, asd, zsa, zsd = nums[3], nums[4], nums[5], nums[6]
        assert asa == pytest.approx(asd, abs=1e-9)
        assert zsa == pytest.approx(zsd, abs=1e-9)


def test_background_adds_combined_loss(tmp_path):
    out = str(tmp_path / "bg")
    run(make_cfg("background.enabled = true\n"), out_dir=out)
    with open(os.path.join(out, "manifest.txt")) as fh:
        text = fh.read()
    assert "mean_combined_path_loss_db" in text
    assert "mean_two_hop_path_loss_db" in text


def test_background_weighted_by_zero_is_not_built(tmp_path, monkeypatch):
    backgrounds = []
    synthesize = coefficients.synthesize_cir

    def spy(*args, **kwargs):
        backgrounds.append(kwargs["background"])
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(coefficients, "synthesize_cir", spy)
    zero = str(tmp_path / "zero")
    run(make_cfg("background.enabled = true\ncoupling.o_isac = 0\n"), out_dir=zero)
    plain = str(tmp_path / "plain")
    run(make_cfg("background.enabled = false\n"), out_dir=plain)
    assert backgrounds == [None] * 4  # two drops a run
    assert sha(os.path.join(zero, "cir.txt")) == sha(os.path.join(plain, "cir.txt"))
    fields, _ = manifest_header(zero)
    assert fields["mean_combined_path_loss_db"] == fields["mean_two_hop_path_loss_db"]


def test_a_drop_with_a_background_makes_one_gains_call(tmp_path, monkeypatch):
    paths = []  # the paths of each gains call
    array_gains = coefficients._array_gains

    def spy(*args):
        paths.append(len(args[5]))  # amplitudes
        return array_gains(*args)

    monkeypatch.setattr(coefficients, "_array_gains", spy)
    out = str(tmp_path / "bg")
    manifest = run(make_cfg("background.enabled = true\n", drops=3), out_dir=out)
    # one element a side: one cir.txt row per path, target and background alike
    assert len(paths) == 3 and sum(paths) == manifest.cir_rows
    plain = run(make_cfg(drops=3), out_dir=str(tmp_path / "plain"))
    assert len(paths) == 6 and sum(paths[3:]) == plain.cir_rows < manifest.cir_rows


def test_absolute_delay_applies_to_every_hop(tmp_path):
    # every hop NLOS, so no path is specular and all delays sit on top of
    # the geometric delay of their hops
    text = ("frequency_hz = 6e9\nmaster_seed = 7\ndrops = 2\nconcat_case = Case2O\n"
            "absolute_delay = true\nbackground.enabled = true\n"
            "conditions.tx_target = NLOS\nconditions.target_rx = NLOS\n"
            "conditions.background = NLOS\n")
    cfg = validate_config(text)
    out = str(tmp_path / "abs")
    run(cfg, out_dir=out)
    tx, rx, tgt = (np.asarray(n.position_m) for n in (cfg.tx, cfg.rx, cfg.target))
    direct = np.linalg.norm(rx - tx) / SPEED_OF_LIGHT
    echo = (np.linalg.norm(tgt - tx) + np.linalg.norm(rx - tgt)) / SPEED_OF_LIGHT
    nlos = ScenarioParams.from_table("UMi", 6e9).condition_params("NLOS")
    n_background = nlos.num_clusters * nlos.rays_per_cluster
    rows = np.loadtxt(os.path.join(out, "cir.txt"), usecols=(0, 3, 4))
    for drop in (0, 1):
        paths = rows[rows[:, 0] == drop]
        n_target = int(paths[:, 1].max()) + 1 - n_background
        target, background = paths[paths[:, 1] < n_target], paths[paths[:, 1] >= n_target]
        assert n_target > 0 and len(background) == n_background
        # 13 significant digits in the file
        assert background[:, 2].min() >= direct * (1 - 1e-12)
        assert target[:, 2].min() >= echo * (1 - 1e-12)
    assert direct == pytest.approx(200e-9, rel=1e-3)


# ------------------------------------------------------------ study mode

def test_study_covers_every_case(tmp_path):
    out = str(tmp_path / "study")
    concat_study(make_cfg(), out_dir=out)
    header, rows = read_stats(out)
    assert header.endswith("nn_power_ratio")
    assert len(rows) == 2 * len(ALL_CASES)
    cases = {case for _, case, _, _ in rows}
    assert cases == {c.value for c in ALL_CASES}
    assert "cir.txt" not in os.listdir(out)
    for _, case, _, nums in rows:
        assert len(nums) == 8
        if case == ConcatCase.CASE_0.value:
            assert nums[7] == pytest.approx(1.0, rel=1e-12)
        if case == ConcatCase.CASE_A.value:
            assert nums[7] == 0.0  # no diffuse-diffuse component survives


def test_study_writes_ratio_cdfs(tmp_path):
    out = str(tmp_path / "study")
    concat_study(make_cfg(), out_dir=out)
    names = os.listdir(out)
    assert "cdf_power_ratio_Case2RN.txt" in names
    assert "cdf_power_ratio_Case0.txt" in names
    with open(os.path.join(out, "cdf_power_ratio_Case1.txt")) as fh:
        assert fh.readline().startswith("# value probability")
        value, prob = fh.readline().split()
        assert 0.0 < float(value) < 1.0
        assert 0.0 < float(prob) <= 1.0


# ------------------------------------------------------------------- CLI

def write_cfg(tmp_path, extra="", drops=2):
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text(extra, drops))
    return str(path)


def test_cli_run(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--config", write_cfg(tmp_path), "--out", out,
                 "--drops", "1"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "statistics.txt"))
    _, rows = read_stats(out)
    assert len(rows) == 1  # --drops override wins


def test_cli_seed_override_changes_draws(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
    assert sha(os.path.join(out1, "statistics.txt")) != sha(
        os.path.join(out2, "statistics.txt")
    )


def test_cli_concat_study(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["concat-study", "--config", write_cfg(tmp_path, drops=1),
                 "--out", out])
    assert code == 0
    _, rows = read_stats(out)
    assert len(rows) == len(ALL_CASES)


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("frequency_hz = 6e9\nbogus_key = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", write_cfg(tmp_path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_cli_unsupported_feature_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sensing_mode = monostatic\nbackground.enabled = true\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
    assert "unsupported" in capsys.readouterr().err


def test_bad_runs_are_refused_before_any_output(tmp_path, capsys):
    out = tmp_path / "refused"
    for workers in ("0", "-3"):
        assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out),
                     "--workers", workers]) == 2
        assert not out.exists()
    assert "workers must be >= 1" in capsys.readouterr().err
    mono_bg = write_cfg(tmp_path, "sensing_mode = monostatic\nbackground.enabled = true\n")
    assert main(["run", "--config", mono_bg, "--out", str(out)]) == 4
    assert not out.exists()
    # embedded coupling keeps only the background, so a zero factor keeps nothing
    no_channel = str(tmp_path / "no_channel.cfg")
    with open(no_channel, "w") as fh:
        fh.write(cfg_text("background.enabled = yes\ncoupling.mode = embedded\n"
                          "coupling.o_isac = 0\n"))
    assert main(["run", "--config", no_channel, "--out", str(out)]) == 2
    assert not out.exists()
    assert "embedded coupling with zero factor" in capsys.readouterr().err
    # a B1 table must cover every aspect azimuth, [-180, 180] deg
    narrow = tmp_path / "b1.tbl"
    narrow.write_text("0.0 1.0\n90.0 0.2\n180.0 0.6\n270.0 0.2\n")
    b1_cfg = str(tmp_path / "b1.cfg")
    with open(b1_cfg, "w") as fh:
        fh.write(cfg_text(f"rcs.b1_table = {narrow}\n"))
    assert main(["run", "--config", b1_cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "rcs.b1_table spans [0.0, 270.0] deg" in capsys.readouterr().err
    # a study never synthesizes the background or looks up B1, so it still runs
    for cfg in (mono_bg, no_channel):
        assert main(["concat-study", "--config", cfg, "--drops", "1",
                     "--out", str(out)]) == 0
    assert main(["concat-study", "--config", b1_cfg, "--drops", "1",
                 "--out", str(tmp_path / "study_b1")]) == 0
    # nor reads the B1 file at all, while a run with that file is refused
    no_b1 = write_cfg(tmp_path, f"rcs.b1_table = {tmp_path / 'nope.tbl'}\n")
    study_out = tmp_path / "study_no_b1"
    assert main(["concat-study", "--config", no_b1, "--drops", "1",
                 "--out", str(study_out)]) == 0
    assert {"statistics.txt", "manifest.txt"} <= set(os.listdir(study_out))
    assert main(["run", "--config", no_b1, "--out", str(tmp_path / "run_no_b1")]) == 2
    assert not (tmp_path / "run_no_b1").exists()
    # a table can name any scenario, but only UMi has LOS probability and path loss
    uma = tmp_path / "uma.tbl"
    uma.write_text(resources.files("isacsim.data").joinpath("umi_38901.tbl")
                   .read_text(encoding="utf-8").replace("[UMi ", "[UMa "))
    uma_cfg = write_cfg(tmp_path, f"scenario = UMa\nscenario_table = {uma}\n")
    for command in ("run", "concat-study"):
        assert main([command, "--config", uma_cfg, "--out", str(tmp_path / "uma")]) == 2
        assert not (tmp_path / "uma").exists()
    assert capsys.readouterr().err.count("unsupported scenario 'UMa'") == 2
    # identity polarization ignores its alphas, but they must still be valid
    negative = write_cfg(tmp_path, "polarization.alphas = 1, -0.5, 0, 1\n")
    assert main(["run", "--config", negative, "--out", str(tmp_path / "neg")]) == 2
    assert not (tmp_path / "neg").exists()


def table_with_rays(tmp_path, rays):
    path = tmp_path / f"rays{rays}.tbl"
    path.write_text(resources.files("isacsim.data").joinpath("umi_38901.tbl")
                    .read_text(encoding="utf-8")
                    .replace("rays_per_cluster        = 20", f"rays_per_cluster = {rays}"))
    return path


def los_only_table(tmp_path):
    """The bundled table without its [UMi NLOS] section."""
    text = resources.files("isacsim.data").joinpath("umi_38901.tbl").read_text(encoding="utf-8")
    path = tmp_path / "los_only.tbl"
    path.write_text(text[:text.index("[UMi NLOS]")])
    return path


def cfg_with(extra, drops=2):
    """cfg_text, with the keys that ``extra`` sets taken out of BASE."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines() if "=" in line}
    base = "".join(line + "\n" for line in BASE.splitlines()
                   if line.split("=")[0].strip() not in keys)
    return base + f"drops = {drops}\n" + extra


# what every drop would refuse, so the run refuses it before clearing --out
EVERY_DROP_REFUSES = {
    "21_rays": (lambda tmp: f"scenario_table = {table_with_rays(tmp, 21)}\n",
                "rays per cluster must be in [1, 20], got 21"),
    "split_19_rays": (lambda tmp: f"split_strongest = yes\n"
                      f"scenario_table = {table_with_rays(tmp, 19)}\n",
                      "sub-cluster delay split requires the full 20-ray layout"),
    "target_on_tx": (lambda tmp: "nodes.target.position_m = 0, 0, 10\n",
                     "degenerate geometry: hop endpoints coincide"),
    "target_6_km": (lambda tmp: "nodes.target.position_m = 6000, 0, 10\n",
                    "3-D distance 6000.0 m outside the supported range (0, 5000] m"),
    # auto hops at 25 m and 43 m ground distance can draw NLOS
    "no_nlos_section": (lambda tmp: "conditions.tx_target = auto\nconditions.target_rx = auto\n"
                        f"scenario_table = {los_only_table(tmp)}\n",
                        "no parameters for condition 'NLOS'"),
}


@pytest.mark.parametrize("name", sorted(EVERY_DROP_REFUSES))
def test_refused_config_keeps_the_earlier_outputs(tmp_path, capsys, name):
    out = tmp_path / "study"
    assert main(["concat-study", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    before = {f: sha(out / f) for f in os.listdir(out)}
    extra, error = EVERY_DROP_REFUSES[name]
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg_with(extra(tmp_path)))
    capsys.readouterr()
    assert main(["concat-study", "--config", str(bad), "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert {f: sha(out / f) for f in os.listdir(out)} == before


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_a_statistics_table_too_large_to_allocate_keeps_the_earlier_outputs(tmp_path):
    import resource

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))  # 1.5 GiB

    out = tmp_path / "study"
    out.mkdir()
    (out / "statistics.txt").write_bytes(b"an earlier run\n")
    # 10^7 drops x 10 cases x 8 columns of float64: a 6.4 GB table
    argv = [sys.executable, "-m", "isacsim.cli", "concat-study", "--config",
            write_cfg(tmp_path), "--drops", "10000000", "--out", str(out)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(argv, env=env, preexec_fn=cap_address_space, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    error, = proc.stderr.splitlines()
    assert error.startswith("configuration error: the statistics table of 10000000 drops")
    assert os.listdir(out) == ["statistics.txt"]
    assert (out / "statistics.txt").read_bytes() == b"an earlier run\n"


def test_los_only_table_runs_where_every_hop_is_los(tmp_path):
    # every hop within 18 m ground distance, where UMi's LOS probability is 1
    extra = ("conditions.tx_target = auto\nconditions.target_rx = auto\n"
             "conditions.background = auto\nbackground.enabled = yes\n"
             "nodes.target.position_m = 7, 5, 1.5\nnodes.rx.position_m = 15, 0, 10\n"
             f"scenario_table = {los_only_table(tmp_path)}\n")
    run(validate_config(cfg_with(extra, drops=3)), out_dir=str(tmp_path / "run"))
    concat_study(validate_config(cfg_with(extra, drops=3)), out_dir=str(tmp_path / "study"))
    for out in ("run", "study"):
        _, rows = read_stats(tmp_path / out)
        assert rows and {pair for _, _, pair, _ in rows} == {"LL"}


def test_run_boundaries_do_not_change_bytes(tmp_path, monkeypatch, eight_cpus):
    import concurrent.futures

    # 13 drops: a serial run takes runs of 3 and a short last one, and three
    # workers take one drop per task. 17 drops: a serial run takes runs of 4,
    # and two workers take 2-drop tasks and a short last one.
    tasks = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, runs, **kwargs):
            tasks.append([len(drops) for drops in runs])
            return super().map(fn, runs, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)

    def study(drops):
        return validate_config(f"frequency_hz = 6e9\nmaster_seed = 5\ndrops = {drops}\n")

    def cir(drops):
        return validate_config(AUTO_CASE_A.replace("drops = 10", f"drops = {drops}")
                               + "background.enabled = yes\n")

    mono = validate_config("frequency_hz = 6e9\nmaster_seed = 6\ndrops = 13\n"
                           "sensing_mode = monostatic\nsplit_strongest = yes\n")
    for entry, cfg, workers in ((concat_study, study(13), 3), (concat_study, mono, 3),
                                (run, cir(13), 3), (concat_study, study(17), 2),
                                (run, cir(17), 2)):
        m1 = entry(cfg, out_dir=str(tmp_path / "w1"), workers=1)
        pooled = entry(cfg, out_dir=str(tmp_path / "pooled"), workers=workers)
        assert m1.file_checksums == pooled.file_checksums
    assert "cir.txt" in m1.file_checksums and m1.cir_rows > 0
    assert tasks == [[1] * 13] * 3 + [[2] * 8 + [1]] * 2


# The configuration every key is changed from: bi-static, moving nodes, two
# snapshots, 2-element arrays, full polarization, a B2 fluctuation and a
# background at half weight, so that every key has something to change.
GUARD_BASE = {
    "frequency_hz": "6e9", "master_seed": "5", "drops": "3", "concat_case": "Case2R",
    "nodes.tx.elements": "2", "nodes.rx.elements": "2",
    "nodes.tx.velocity_mps": "1, 0, 0", "nodes.rx.velocity_mps": "0, 1, 0",
    "nodes.target.velocity_mps": "4, -3, 0", "snapshots.count": "2",
    "polarization.mode": "full", "polarization.alphas": "1, 0.5, 0.5, 1",
    "rcs.b2_std_db": "3", "background.enabled": "true", "coupling.o_isac": "0.5",
}
# key -> (the keys it needs to be read, one other value). The files are
# written into the working directory by the test.
GUARD_CASES = {
    "frequency_hz": ({}, "28e9"),
    "scenario": ({}, "UMa"),  # refused: UMi is the one runnable scenario
    "scenario_table": ({}, "umi.tbl"),
    "sensing_mode": ({"background.enabled": "false"}, "monostatic"),
    "concat_case": ({}, "Case0"),
    "drops": ({}, "4"),
    "master_seed": ({}, "6"),
    "absolute_delay": ({}, "true"),
    "split_strongest": ({}, "true"),
    "rcs.mean_m2": ({}, "2"),
    "rcs.b2_mean_db": ({}, "1"),
    "rcs.b2_std_db": ({}, "0"),
    "rcs.b1_table": ({}, "b1.tbl"),
    "polarization.mode": ({}, "identity"),
    "polarization.alphas": ({}, "1, 0.25, 0.5, 1"),
    "snapshots.start_s": ({}, "0.5"),
    "snapshots.step_s": ({}, "0.01"),
    "snapshots.count": ({}, "3"),
    "coupling.o_isac": ({}, "0.25"),
    "coupling.mode": ({}, "embedded"),
    "coupling.removal_fraction": ({"coupling.mode": "embedded"}, "0.5"),
    "background.enabled": ({}, "false"),
    "conditions.tx_target": ({}, "NLOS"),
    "conditions.target_rx": ({}, "NLOS"),
    "conditions.background": ({}, "NLOS"),
    "output.dir": ({}, "elsewhere"),
    "output.cir": ({}, "false"),
    "nodes.tx.position_m": ({}, "5, -5, 12"),
    "nodes.rx.position_m": ({}, "80, 10, 8"),
    "nodes.target.position_m": ({}, "30, 20, 2"),
    **{f"nodes.{node}.velocity_mps": ({}, "0, 0, 0") for node in ("tx", "rx", "target")},
    **{f"nodes.{node}.{name}": ({}, value) for node in ("tx", "rx") for name, value in (
        ("elements", "3"), ("element_spacing_m", "0.02"), ("pattern", "sectorized-38901"),
        ("slant_deg", "45"))},
}


def test_every_key_has_a_guard_case():
    from isacsim.config import KEYS

    assert set(GUARD_CASES) == set(KEYS)


def guard_outputs(entries, out_dir):
    """What a run writes, but its timing: the digest of every file but the
    manifest and the manifest lines above [config]; with no ``out_dir``, the
    directory the run chose to write into."""
    cfg = validate_config("".join(f"{key} = {value}\n" for key, value in entries.items()))
    manifest = run(cfg, out_dir=out_dir)
    with open(os.path.join(manifest.out_dir, "manifest.txt")) as fh:
        head = fh.read().split("[config]\n")[0].splitlines()
    head = [line for line in head if not line.startswith(("created_utc", "elapsed_s"))]
    where = os.path.dirname(manifest.out_dir) if out_dir is None else None
    return manifest.file_checksums, head, where


@pytest.mark.parametrize("key", GUARD_CASES)
def test_every_key_changes_the_run_or_is_refused(key, tmp_path, monkeypatch):
    from isacsim.errors import ConfigError, UnsupportedFeatureError

    monkeypatch.chdir(tmp_path)
    table = resources.files("isacsim.data").joinpath("umi_38901.tbl").read_text()
    (tmp_path / "umi.tbl").write_text(table.replace("sf_std_db               = 4.0",
                                                    "sf_std_db               = 5.0", 1))
    (tmp_path / "b1.tbl").write_text("-180 0.5\n0 2.0\n180 0.5\n")
    needs, value = GUARD_CASES[key]
    base = {**GUARD_BASE, **needs}
    out = None if key == "output.dir" else "out"
    before = guard_outputs(base, out)
    try:
        after = guard_outputs({**base, key: value}, out)
    except (ConfigError, UnsupportedFeatureError):
        assert key == "scenario"
        return
    assert after != before


@pytest.mark.parametrize("key", [
    "nodes.target.elements", "nodes.target.element_spacing_m", "nodes.target.pattern",
    "nodes.target.slant_deg", "nodes.tx.micro_velocity_mps", "nodes.rx.micro_velocity_mps",
    "nodes.target.micro_velocity_mps", "rcs.target_class",
])
def test_removed_keys_are_refused_before_any_output(key, tmp_path, capsys):
    out = tmp_path / "never"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"frequency_hz = 6e9\n{key} = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"line 2: unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_table_files_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "never"
    missing = str(tmp_path / "nope.tbl")
    latin1 = tmp_path / "latin1.tbl"  # not UTF-8
    latin1.write_bytes("# café\n".encode("latin-1"))
    for path in (missing, str(latin1)):
        for command, key in (("run", "rcs.b1_table"), ("concat-study", "scenario_table")):
            cfg = write_cfg(tmp_path, f"{key} = {path}\n")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()
        assert capsys.readouterr().err.count(f"cannot read {path}") == 2
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes((cfg_text() + "# café\n").encode("latin-1"))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"cannot read {cfg}" in capsys.readouterr().err


def test_a_config_with_a_byte_order_mark_runs_as_one_without(tmp_path, capsys):
    echoes = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + cfg_text(drops=1).encode("utf-8"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        manifest = (tmp_path / name / "manifest.txt").read_text()
        echoes.append(manifest[manifest.index("[config]"):])
    assert echoes[0] == echoes[1]
    assert "frequency_hz = 6000000000.0" in echoes[0]


def test_cli_detect_stdout(capsys):
    code = main(["detect", "--pfa", "1e-2,1e-3", "--snr-min", "0",
                 "--snr-max", "2", "--snr-step", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# snr_db pfa pd"
    assert len(lines) == 1 + 2 * 3
    snr, pfa_v, pd_v = (float(x) for x in lines[1].split())
    assert (snr, pfa_v) == (0.0, 1e-2)
    assert 0.0 < pd_v < 1.0


def test_cli_detect_out_file_and_errors(tmp_path, capsys):
    out = str(tmp_path / "det")
    assert main(["detect", "--out", out]) == 0
    capsys.readouterr()
    path = os.path.join(out, "detection.txt")
    assert os.path.exists(path)
    assert main(["detect", "--pfa", "nope"]) == 2
    assert main(["detect", "--snr-min", "5", "--snr-max", "0"]) == 2
    assert main(["detect", "--snr-step", "0"]) == 2
    capsys.readouterr()


def test_a_failed_side_file_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    parts = []

    class NoSpace:  # takes a few bytes, then the disk is full
        def __init__(self, path, mode):
            parts.append(path)
            self.fh = open(path, mode)

        def write(self, data):
            self.fh.write(data[:8])
            raise OSError(28, "No space left on device")

        def close(self):
            self.fh.close()

    monkeypatch.setattr(text, "open", NoSpace, raising=False)
    out = tmp_path / "det"
    with pytest.raises(OSError, match="No space"):
        main(["detect", "--out", str(out)])
    assert parts == [str(out / "detection.txt.part")]
    assert os.listdir(out) == []
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [
    ("--snr-min", "nan"), ("--snr-max", "inf"), ("--snr-step", "inf"), ("--sigma", "nan"),
])
def test_cli_detect_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "det"
    assert main(["detect", flag, value, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-12", "5e-324"])
def test_cli_detect_refuses_oversized_grid(tmp_path, capsys, step):
    out = tmp_path / "det"
    t0 = time.perf_counter()
    assert main(["detect", "--snr-step", step, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "concat-study", "detect", "rcs-fit"])
def test_out_that_is_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    samples = tmp_path / "rcs.txt"
    samples.write_text("1.0\n2.0\n")
    argv = {"run": ["run", "--config", write_cfg(tmp_path)],
            "concat-study": ["concat-study", "--config", write_cfg(tmp_path)],
            "detect": ["detect"],
            "rcs-fit": ["rcs-fit", str(samples)]}[command]
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: pytest.fail("command ran"))
    for out, where in ((taken, ""), (taken / "sub", f" lies under {taken}, which")):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --out {out}{where} exists and is not a directory\n"
    assert taken.read_bytes() == b"not a directory\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# What the command line loads at start-up, and for detect: the package init
# imports no submodule, and each command imports its own when it starts.
CLI_MODULES = {"isacsim", "isacsim.cli", "isacsim.errors", "isacsim.text"}
DETECT_MODULES = CLI_MODULES | {"isacsim.metrics", "isacsim.constants"}
# detect writes --out through the runner's writer (text._Output), which
# loads hashlib only for a run's checksums
NOT_LOADED = ("isacsim.runner", "isacsim.concatenation", "isacsim.coefficients",
              "isacsim.smallscale", "isacsim.largescale", "isacsim.stats",
              "isacsim.config", "isacsim.seeds", "multiprocessing", "concurrent.futures",
              "hashlib", "scipy", "numpy.ma")


def fresh_python(script, *args, **env):
    """Run ``script`` in a new interpreter without OPENBLAS_NUM_THREADS or an
    allocator setting, plus ``env``; returns the lines it prints."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"
            and k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    base["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def assert_cli_modules_only(loaded, modules=CLI_MODULES):
    assert {m for m in loaded if m.split(".")[0] == "isacsim"} == modules
    assert not [m for m in loaded if m in NOT_LOADED or m.startswith("scipy.")]


PRINT_MODULES = "print(*sorted(sys.modules))\n"


def test_cli_start_up_loads_only_what_detect_uses():
    script = "import os, sys\nimport isacsim.cli\n" + PRINT_MODULES
    script += "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    modules, blas = fresh_python(script)
    assert_cli_modules_only(modules.split())
    assert blas == "1"
    assert fresh_python(script, OPENBLAS_NUM_THREADS="3")[1] == "3"  # the caller's wins


# Minor page faults of 50 rounds of four 1 MiB arrays, after the CLI ran one
# command: glibc's own thresholds give each array back and fault it in again
# (~51,000), the CLI's policy keeps it in the heap.
HEAP_CHURN = (
    "import resource, sys\n"
    "import numpy as np\n"
    "import isacsim.cli\n"
    "assert isacsim.cli.main(['detect', '--snr-max', '-5', '--out', sys.argv[1]]) == 0\n"
    "def churn():\n"
    "    for _ in range(50):\n"
    "        arrays = [np.ones(1 << 17) for _ in range(4)]\n"
    "        del arrays\n"
    "churn()\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "churn()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)
glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc")


@glibc_only
def test_cli_keeps_freed_memory_in_the_heap(tmp_path):
    assert int(fresh_python(HEAP_CHURN, str(tmp_path))[-1]) < 1000


@glibc_only
@pytest.mark.parametrize("env", [{"MALLOC_TRIM_THRESHOLD_": "131072"},
                                 {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}])
def test_a_callers_allocator_setting_wins(tmp_path, env):
    assert int(fresh_python(HEAP_CHURN, str(tmp_path), **env)[-1]) > 10000


@pytest.mark.parametrize("env, calls", [
    ({}, [(-3, 32 << 20), (-1, 64 << 20)]),  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    ({"MALLOC_ARENA_MAX": "2"}, []),
    ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=2"}, []),
])
def test_heap_policy_is_set_unless_the_caller_set_one(monkeypatch, env, calls):
    import ctypes
    from isacsim import cli

    made = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: made.append((param, value)))
    for name in [k for k in os.environ if k == "GLIBC_TUNABLES" or k.startswith("MALLOC_")]:
        monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli._keep_heap()
    assert made == calls


def test_a_libc_without_mallopt_still_runs(tmp_path, monkeypatch):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert main(["detect", "--snr-max", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "detection.txt").exists()


def test_cli_detect_does_not_load_scipy(tmp_path):
    script = (
        "import sys\n"
        "import isacsim, isacsim.cli\n"
        "assert isacsim.cli.main(['detect', '--snr-max', '0', '--out', sys.argv[1]]) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    ) + PRINT_MODULES
    assert_cli_modules_only(fresh_python(script, str(tmp_path))[-1].split(), DETECT_MODULES)
    assert (tmp_path / "detection.txt").exists()


def per_row_detection_text(pfa, snr_min, snr_max, snr_step, sigma=1.0):
    """detection.txt as detect wrote it row by row before the text kernel."""
    n = math.floor((snr_max - snr_min) / snr_step + 1e-9) + 1
    rows = detection_table(pfa, [snr_min + i * snr_step for i in range(n)], noise_std=sigma)
    lines = ["# snr_db pfa pd"] + ["%.6f %.6e %.12e" % tuple(row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def detect_argv(pfa, snr_min, snr_max, snr_step, sigma=1.0):
    return ["detect", "--pfa", ",".join(map(repr, pfa)), f"--snr-min={snr_min!r}",
            f"--snr-max={snr_max!r}", f"--snr-step={snr_step!r}", f"--sigma={sigma!r}"]


def detection_file(out_dir, *grid):
    assert main(detect_argv(*grid) + ["--out", str(out_dir)]) == 0
    with open(os.path.join(out_dir, "detection.txt"), "rb") as fh:
        return fh.read()


def test_detection_file_matches_the_per_row_writer_on_the_benchmark_grid(tmp_path):
    grid = ((1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8), -10.0, 30.0, 0.01)
    data = detection_file(tmp_path, *grid)
    assert data.count(b"\n") == 1 + 6 * 4001
    assert data == per_row_detection_text(*grid).encode("ascii")


def test_detection_sweep_stops_at_snr_max(tmp_path):
    data = detection_file(tmp_path, (1e-2,), 0.0, 1.0, 0.28)
    assert data.splitlines()[-1].startswith(b"0.840000 ")
    assert data == per_row_detection_text((1e-2,), 0.0, 1.0, 0.28).encode("ascii")


def test_detection_edge_rows_match_the_per_row_writer(tmp_path, capsys):
    # SNR -0.9 + 3 * 0.3 is -1.1e-16 dB; Pfa 1 has Pd exactly 1 everywhere;
    # at low SNR, Pd near Pfa 1e-320 is below the text kernel's fast range
    grid = ((1.0, 1e-320, 1e-3), -0.9, 60.0, 0.3, 2.5)
    expect = per_row_detection_text(*grid)
    assert "\n-0.000000 1.000000e+00 1.000000000000e+00\n" in expect
    assert min(float(line.split()[2]) for line in expect.splitlines()[1:]) < 1e-290
    assert detection_file(tmp_path, *grid) == expect.encode("ascii")
    capsys.readouterr()
    assert main(detect_argv(*grid)) == 0
    assert capsys.readouterr().out == expect


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.one_of(st.just(1.0), st.floats(-320.0, 0.0).map(lambda e: 10.0 ** e)),
                min_size=1, max_size=4),
       st.floats(-30.0, 0.0), st.floats(0.01, 4.0), st.integers(0, 40),
       st.floats(1e-3, 1e3))
def test_detection_file_matches_the_per_row_writer(pfa, snr_min, snr_step, extra, sigma):
    snr_max = snr_min + (math.ceil(-snr_min / snr_step) + extra) * snr_step  # crosses 0 dB
    grid = (pfa, snr_min, snr_max, snr_step, sigma)
    with tempfile.TemporaryDirectory() as out:
        assert detection_file(out, *grid) == per_row_detection_text(*grid).encode("ascii")


def test_cli_rcs_fit(tmp_path, capsys):
    rng = np.random.default_rng(0)
    samples = 10.0 ** ((5.0 + 2.0 * rng.standard_normal(10000)) / 10.0)
    path = tmp_path / "samples.txt"
    path.write_text(
        "# one sample per line\n" + "\n".join("%.12e" % s for s in samples) + "\n"
    )
    assert main(["rcs-fit", str(path)]) == 0
    out = capsys.readouterr().out
    fitted = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert abs(float(fitted["mean_db"]) - 5.0) < 0.1
    assert abs(float(fitted["std_db"]) - 2.0) < 0.1
    assert int(fitted["samples"]) == 10000


def test_cli_rcs_fit_errors(tmp_path, capsys):
    assert main(["rcs-fit", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    assert main(["rcs-fit", str(bad)]) == 2
    assert "bad.txt:2" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# café\n1.0\n2.0\n".encode("latin-1"))
    out = tmp_path / "fit"
    assert main(["rcs-fit", str(latin1), "--out", str(out)]) == 2
    assert f"cannot read {latin1}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rcs_fit_reads_samples_in_any_line_layout(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("1.0 2.0\n0.5\n")
    assert main(["rcs-fit", str(path)]) == 0
    assert capsys.readouterr().out.endswith("samples = 3\n")


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
