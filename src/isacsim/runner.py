"""Drop-loop orchestration: build links, concatenate, synthesize, write outputs.

Each hop's geometry, LOS probability, path loss and LOS angles are resolved
once per run (largescale.HopSpec). A run goes through its drops in runs of
consecutive drops, the unit of work with any worker count. A run of drops
first draws every hop of its drops (its seven large-scale parameters) for
the two target hops and, when enabled, the background hop, and generates
the cluster tables of the hops of one condition together. The drops whose
two target tables share a layout form a group, and each group is
concatenated under the configured cases and reduced to drop statistics in
one pass. Then, drop by drop: the two-hop link budget and optionally one
CIR synthesis of the target paths and the background hop table (the only
stage that loads coefficients). Each drop writes its CIR rows out
slice by slice as it formats them (to cir.txt.part, or from a pool task to
a spool the parent appends in run order), and a run of drops hands back one
RunBlock of numbers, which the parent copies into one statistics table. So
the output files are identical for any worker count, no drop's gains
outlive its drop, no text crosses a pipe and no per-drop object outlives
its run. Every output file goes through one writer (text._Output), which
hashes all but the manifest.
"""
from __future__ import annotations

import glob
import os
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .concatenation import ALL_CASES, ConcatCase, concatenate_group
from .config import RunConfig, config_echo
from .errors import ConfigError, NumericError, UnsupportedFeatureError
from .geometry import NodeState, uniform_linear_array
from .largescale import (
    CouplingConfig,
    ScenarioParams,
    build_hop,
    combine_isac_path_loss,
    concatenated_path_loss,
    hop_spec,
)
from .rcs import PolarizationScattering
from .seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
)
from .smallscale import check_ray_layout, generate_sublinks, mono_static_reciprocal
from .stats import empirical_cdf, group_statistics
from .text import _format_rows, _Output, _row_slices, _text

if TYPE_CHECKING:  # runs that emit no CIRs load neither
    from .coefficients import SnapshotGrid
    from .rcs import RcsModel

STAT_COLUMNS = (
    "total_power", "nn_power", "ds_ns", "asa_deg", "asd_deg", "zsa_deg", "zsd_deg"
)
# cdf_<metric>_<case>.txt reads this statistics column
CDF_METRICS = {
    "power": "total_power", "ds_ns": "ds_ns", "asa_deg": "asa_deg", "asd_deg": "asd_deg",
    "zsa_deg": "zsa_deg", "zsd_deg": "zsd_deg", "power_ratio": "nn_power_ratio",
}
CIR_HEADER = (
    b"# one record per (drop, rx_element, tx_element, path)\n"
    b"# drop u s path delay_s re/im per snapshot\n"
)
CONDITION_PAIRS = ("LL", "LN", "NL", "NN", "none")  # by code; "none" for an empty set
# The files a run writes. A run into a used directory first removes these,
# their part files and pool tasks' spools, so the directory never mixes two runs.
OUTPUTS = ("cir.txt", "statistics.txt", "cdf_*.txt", "manifest.txt")
CIR_SPOOLS = "cir.txt.*.spool"
OUTPUT_PATTERNS = (*OUTPUTS, *(name + ".part" for name in OUTPUTS), CIR_SPOOLS)
RUN_DROPS = 12  # the most consecutive drops a task builds, groups and reduces at once


@dataclass
class RunBlock:
    """What a run of consecutive drops hands back, in drop order."""

    stats: np.ndarray  # (drops, cases, STAT_COLUMNS)
    pairs: np.ndarray  # (drops, cases) uint8 codes into CONDITION_PAIRS
    path_loss_db: np.ndarray  # (2, drops): two-hop, and combined (NaN without one)
    cir_rows: int = 0  # cir.txt data rows of its drops
    spool: str | None = None  # a pool task's file of its drops' cir.txt rows


@dataclass
class RunManifest:
    version: str
    out_dir: str
    created_utc: str
    elapsed_s: float
    workers: int = 1
    cir_rows: int = 0  # data rows in cir.txt
    file_checksums: dict = field(default_factory=dict)
    config_lines: list = field(default_factory=list)


def build_node(node_cfg, wavelength_m: float) -> NodeState:
    spacing = node_cfg.element_spacing_m
    if spacing is None:
        spacing = wavelength_m / 2.0
    return NodeState(
        position_m=np.asarray(node_cfg.position_m, dtype=float),
        velocity_mps=np.asarray(node_cfg.velocity_mps, dtype=float),
        element_offsets_m=uniform_linear_array(node_cfg.elements, spacing),
        pattern=node_cfg.pattern,
        slant_deg=node_cfg.slant_deg,
    )


def build_rcs_model(cfg: RunConfig) -> RcsModel:
    from .rcs import B1Table, RcsModel

    b1 = None
    if cfg.rcs_b1_table is not None:
        b1 = B1Table.from_file(cfg.rcs_b1_table)
    return RcsModel(
        mean_rcs_m2=cfg.rcs_mean_m2,
        b1=b1,
        b2_mean_db=cfg.rcs_b2_mean_db,
        b2_std_db=cfg.rcs_b2_std_db,
    )


def _run_drops(cfg: RunConfig, cases: tuple, emit_cir: bool, drops: range, *,
               scenario: ScenarioParams, hops: list, rcs_model: RcsModel | None,
               polarization: PolarizationScattering, grid: SnapshotGrid,
               coupling: CouplingConfig, cir_out) -> RunBlock:
    """Worker body: simulate consecutive drops for every requested case.

    Every hop of the drops is built first, and the hops of one condition get
    their cluster tables from one generate_sublinks call; the drops of one
    hop-table layout are concatenated and reduced as a group, and each drop
    is then written in drop order. Returns the drops' RunBlock. The keyword
    arguments are the per-run objects, built once by _execute: ``hops``
    holds (largescale.HopSpec, stream scope) of the tx->target hop, the
    bi-static target->rx hop and the background hop, those of them a drop
    builds. ``cir_out`` takes the cir.txt rows as they are formatted: in a
    serial run it is the cir.txt writer; in a pool it is the path of
    cir.txt, and the task writes its rows to the spool
    ``<cir_out>.<first drop>.spool``. A drop whose gains are not finite
    raises NumericError.
    """
    if emit_cir:  # only runs that emit CIRs load the CIR synthesis
        from . import coefficients
    streams = [RandomStreams(cfg.master_seed, drop=drop) for drop in drops]
    links = []  # (hop, its streams) of every hop, drop by drop
    for drop_streams in streams:
        for spec, scope in hops:
            hop_streams = drop_streams.scoped(scope)
            links.append((build_hop(spec, scenario, hop_streams), hop_streams))
    tables = {}  # link index -> its hop table
    for condition in sorted({hop.condition for hop, _ in links}):
        group = [i for i, (hop, _) in enumerate(links) if hop.condition == condition]
        group_hops, group_streams = zip(*(links[i] for i in group))
        tables.update(zip(group, generate_sublinks(
            group_hops, scenario.condition_params(condition), group_streams,
            cfg.split_strongest, cfg.absolute_delay,
        )))

    per_drop = []  # (tx->target table, target->rx table, background table or None) by drop
    groups = {}  # hop-table layout -> the drops with it
    for k in range(len(drops)):
        table1, *rest = (tables[i] for i in range(k * len(hops), (k + 1) * len(hops)))
        table2 = mono_static_reciprocal(table1) if cfg.sensing_mode == "monostatic" else rest.pop(0)
        per_drop.append((table1, table2, rest[0] if rest else None))
        layout = (table1.shape, table1.has_los, table2.shape, table2.has_los)
        groups.setdefault(layout, []).append(k)
    n = len(drops)
    block = RunBlock(np.empty((n, len(cases), len(STAT_COLUMNS))),
                     np.empty((n, len(cases)), np.uint8), np.full((2, n), np.nan))
    cir_groups = {}  # drop -> its CIR case's group and its index there
    for members in groups.values():
        tx, rx = (tuple(per_drop[k][side] for k in members) for side in (0, 1))
        concat_streams = [streams[k].scoped(SCOPE_CONCAT) for k in members]
        sets = concatenate_group(tx, rx, cases, concat_streams)
        block.stats[members] = group_statistics(sets)
        block.pairs[members] = [CONDITION_PAIRS.index(sets[0].condition_pair if len(group)
                                                      else "none") for group in sets]
        cir_group = sets[cases.index(cfg.concat_case)] if emit_cir else None  # the rest go now
        cir_groups.update((k, (cir_group, i)) for i, k in enumerate(members))
    block.stats[..., STAT_COLUMNS.index("ds_ns")] *= 1e9

    sink = None if isinstance(cir_out, str) else cir_out  # a pool task opens its spool
    with ExitStack() as files:
        for k, (drop, drop_streams) in enumerate(zip(drops, streams)):
            (table1, table2, background), (group, i) = per_drop[k], cir_groups[k]
            pl = block.path_loss_db[:, k]
            pl[0] = concatenated_path_loss(table1.hop.path_loss_db, table2.hop.path_loss_db,
                                           cfg.frequency_hz, cfg.rcs_mean_m2)
            if group is None or not len(group):
                continue
            # gains that overflow are reported once, by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                if cfg.background_enabled:  # weighted by 0, the background hop is not built
                    pl[1] = combine_isac_path_loss(
                        pl[0], 0.0 if background is None else background.hop.path_loss_db,
                        coupling)
                cir = coefficients.synthesize_cir(
                    group, i, rcs_model, grid, cfg.wavelength_m, drop_streams.scoped(SCOPE_COEFF),
                    polarization=polarization, background=background, coupling=coupling,
                )
            if not np.isfinite(cir.gains).all():
                raise NumericError(f"drop {drop}: CIR gains overflow to non-finite values")
            block.cir_rows += int(np.prod(cir.gains.shape[:3]))
            if sink is None:
                block.spool = f"{cir_out}.{drops.start}.spool"
                sink = files.enter_context(open(block.spool, "wb"))
            for chunk in _cir_block(drop, cir.delays, cir.gains):
                sink.write(chunk)
    return block


def _cir_block(drop: int, delays: np.ndarray, gains: np.ndarray):
    """cir.txt rows of one drop, ``drop u s path delay re im re im ...``,
    yielded as bytes slices of at most SLICE_VALUES values each."""
    n_u, n_s, n_paths, n_t = gains.shape
    heads = _text([f"{drop} {u} {s} " for u in range(n_u) for s in range(n_s)])
    lines = _format_rows(_text([f"{p} " for p in range(n_paths)]), delays[:, None])
    paths = _text(lines.replace(b"\n", b" \n").splitlines())  # "p delay "
    values = np.ascontiguousarray(gains).reshape(-1, n_t).view(np.float64)  # re im ...
    for rows in _row_slices(len(values), values.shape[1]):
        r = np.arange(rows.start, rows.stop)
        prefix = np.hstack([heads[r // n_paths], paths[r % n_paths]])
        yield _format_rows(prefix, values[rows])


def _write_statistics(out_dir: str, checksums: dict, cases: tuple, table: np.ndarray,
                      pairs: np.ndarray, columns: tuple) -> None:
    """One row per (drop, case) of the (drops x cases x columns) table, with
    the condition pairs of the (drops x cases) codes, a slice at a time."""
    head = ("# drop case condition_pair " + " ".join(columns) + "\n").encode("ascii")
    values, codes = table.reshape(-1, len(columns)), pairs.ravel()
    case_text = _text([f"{case.value} " for case in cases])
    pair_text = _text([f"{pair} " for pair in CONDITION_PAIRS])
    with _Output(out_dir, "statistics.txt", checksums, head) as out:
        for rows in _row_slices(*values.shape):
            r = np.arange(rows.start, rows.stop)
            drops = r // len(cases)
            drop_text = _text([f"{d} " for d in range(drops[0], drops[-1] + 1)])
            prefix = np.hstack([drop_text[drops - drops[0]], case_text[r % len(cases)],
                                pair_text[codes[rows]]])
            out.write(_format_rows(prefix, values[rows]))


def _write_cdfs(out_dir: str, checksums: dict, cases: tuple, table: np.ndarray,
                columns: tuple) -> None:
    """One value-probability file per metric per case, of its finite values."""
    for i, case in enumerate(cases):
        for metric, column in CDF_METRICS.items():
            if column in columns:
                values = table[:, i, columns.index(column)]
                values = values[np.isfinite(values)]
                if values.size:
                    cdf = empirical_cdf(values)
                    rows = np.column_stack([cdf.values, cdf.probabilities])
                    with _Output(out_dir, f"cdf_{metric}_{case.value}.txt", checksums,
                                 b"# value probability\n") as out:
                        out.write(_format_rows(np.zeros((len(rows), 0), np.uint8), rows))


def _remove(out_dir: str, patterns) -> None:
    for pattern in patterns:
        for name in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.unlink(name)


def _execute(cfg: RunConfig, cases: tuple, out_dir: str | None, workers: int,
             emit_cir: bool, study: bool) -> RunManifest:
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # no more processes than CPUs this process may run on
    procs = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if emit_cir and cfg.background_enabled and cfg.sensing_mode != "bistatic":
        raise UnsupportedFeatureError("mono-static runs have no background channel")
    if emit_cir and cfg.background_enabled and cfg.coupling_mode == "embedded" \
            and cfg.coupling_o_isac == 0:
        raise ConfigError("embedded coupling with zero factor leaves no channel")
    rcs_model = build_rcs_model(cfg) if emit_cir else None  # only CIRs look aspects up
    if rcs_model is not None and rcs_model.b1 is not None:
        lo, hi = rcs_model.b1.angles_deg[[0, -1]]
        if lo > -180.0 or hi < 180.0:
            raise ConfigError(
                f"rcs.b1_table spans [{lo}, {hi}] deg; aspect azimuths need [-180, 180]"
            )
    now = datetime.now(timezone.utc)  # one read: the manifest and the directory agree
    created = now.isoformat(timespec="seconds")
    if out_dir is None:
        stamp = now.strftime("%Y%m%d-%H%M%S")
        out_dir = os.path.join(cfg.out_dir or "runs", f"{stamp}-seed{cfg.master_seed}")
    scenario = ScenarioParams.from_table(
        cfg.scenario, cfg.frequency_hz, path=cfg.scenario_table
    )
    tx, rx, target = (build_node(node, cfg.wavelength_m)
                      for node in (cfg.tx, cfg.rx, cfg.target))
    ends = [(tx, target, HOP_TX_TARGET, cfg.cond_tx_target)]
    if cfg.sensing_mode == "bistatic":
        ends.append((target, rx, HOP_TARGET_RX, cfg.cond_target_rx))
    if emit_cir and cfg.background_enabled and cfg.coupling_o_isac > 0:  # not built if 0
        ends.append((tx, rx, HOP_BACKGROUND, cfg.cond_background))
    # Each hop is resolved once, so what every drop would refuse (a hop's
    # geometry, the parameters and ray layout of a condition it can take) is
    # refused before --out is cleared.
    hops = [(hop_spec(a, b, scenario, condition), scope) for a, b, scope, condition in ends]
    for spec, _ in hops:
        for cond in spec.path_loss_db:
            check_ray_layout(scenario.condition_params(cond), cfg.split_strongest)
    columns = STAT_COLUMNS + ("nn_power_ratio",) * study
    try:  # so is a statistics table too large to allocate
        table = np.empty((cfg.drops, len(cases), len(columns)))  # drops x cases x columns
        pairs = np.empty((cfg.drops, len(cases)), np.uint8)
        path_loss, cir_rows = np.empty((2, cfg.drops)), 0
    except MemoryError:
        gb = cfg.drops * len(cases) * len(columns) * 8e-9  # float64
        raise ConfigError(f"the statistics table of {cfg.drops} drops ({gb:.3g} GB) "
                          "cannot be allocated; run fewer drops") from None
    checksums = {}
    cir = _Output(out_dir, "cir.txt", checksums, CIR_HEADER)
    if emit_cir:
        from .coefficients import SnapshotGrid
    worker = partial(
        _run_drops, cfg, cases, emit_cir, scenario=scenario, hops=hops, rcs_model=rcs_model,
        polarization=PolarizationScattering(cfg.pol_mode, cfg.pol_alphas),
        grid=SnapshotGrid(cfg.snap_start_s, cfg.snap_step_s, cfg.snap_count) if emit_cir else None,
        coupling=CouplingConfig(
            o_isac=cfg.coupling_o_isac, mode=cfg.coupling_mode,
            removal_fraction=cfg.coupling_removal_fraction,
        ),
        cir_out=cir.path if procs > 1 else cir,
    )
    os.makedirs(out_dir, exist_ok=True)
    _remove(out_dir, OUTPUT_PATTERNS)

    # Runs of up to RUN_DROPS drops, each run's hop tables built at once, and
    # at least four tasks per process, so that a pool's spool appends overlap
    # with its compute.
    size = max(1, min(RUN_DROPS, cfg.drops // (4 * procs)))
    runs = [range(d, min(d + size, cfg.drops)) for d in range(0, cfg.drops, size)]
    # On a failure the pool cancels the drops not yet started and waits for
    # the running ones; it kills no worker (one killed while it sends its
    # result can hang the parent). The spools go after the pool, when no
    # task still writes one.
    pool = None
    if procs > 1:  # imported by pooled runs only
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # the fork context starts every worker at the first submit, so no
        # more are asked for than there are tasks
        pool = ProcessPoolExecutor(min(procs, len(runs)), mp_context=get_context("fork"))
    with pool or nullcontext():
        try:
            with cir:
                for drops, block in zip(runs, (pool.map if pool else map)(worker, runs)):
                    at = slice(drops.start, drops.stop)
                    table[at, :, :len(STAT_COLUMNS)], pairs[at] = block.stats, block.pairs
                    path_loss[:, at], cir_rows = block.path_loss_db, cir_rows + block.cir_rows
                    if block.spool is not None:
                        with open(block.spool, "rb") as fh:
                            for chunk in iter(partial(fh.read, 1 << 20), b""):  # 1 MiB
                                cir.write(chunk)
                        os.unlink(block.spool)
        except BaseException:
            if pool:
                pool.shutdown(cancel_futures=True)
            _remove(out_dir, [CIR_SPOOLS])
            raise

    if study:  # each row's NN power against its drop's full convolution
        nn = table[..., columns.index("nn_power")]
        ref = nn[:, [cases.index(ConcatCase.CASE_0)]]
        table[..., -1] = np.nan
        np.divide(nn, ref, out=table[..., -1], where=ref > 0)

    _write_statistics(out_dir, checksums, cases, table, pairs, columns)
    _write_cdfs(out_dir, checksums, cases, table, columns)

    manifest = RunManifest(
        version=__version__,
        out_dir=out_dir,
        created_utc=created,
        elapsed_s=time.perf_counter() - t0,
        workers=workers,
        cir_rows=cir_rows,
        file_checksums=checksums,
        config_lines=config_echo(cfg),
    )
    _write_manifest(out_dir, manifest, path_loss)
    return manifest


def _write_manifest(out_dir: str, manifest: RunManifest, path_loss: np.ndarray) -> None:
    lines = [
        "# run manifest",
        f"version = {manifest.version}",
        f"created_utc = {manifest.created_utc}",
        "elapsed_s = %.3f" % manifest.elapsed_s,
        f"workers = {manifest.workers}",
        f"cir_rows = {manifest.cir_rows}",
    ]
    # means over the drops, the combined one over those that wrote a CIR with a background
    lines.append("mean_two_hop_path_loss_db = %.6f" % np.mean(path_loss[0]))
    pli = path_loss[1][np.isfinite(path_loss[1])]
    if pli.size:
        lines.append("mean_combined_path_loss_db = %.6f" % np.mean(pli))
    lines.append("[files]")
    for name, digest in sorted(manifest.file_checksums.items()):
        lines.append(f"{name} sha256={digest}")
    lines.append("[config]")
    lines.extend(manifest.config_lines)
    with _Output(out_dir, "manifest.txt") as out:
        out.write(("\n".join(lines) + "\n").encode("utf-8"))


def run(cfg: RunConfig, out_dir: str | None = None, workers: int = 1) -> RunManifest:
    """Simulate the configured case for all drops and write run outputs."""
    return _execute(
        cfg, (cfg.concat_case,), out_dir, workers,
        emit_cir=cfg.emit_cir, study=False,
    )


def concat_study(cfg: RunConfig, out_dir: str | None = None,
                 workers: int = 1) -> RunManifest:
    """Run every concatenation case on shared per-drop cluster realizations."""
    return _execute(cfg, ALL_CASES, out_dir, workers, emit_cir=False, study=True)
