"""Drop-loop orchestration: build links, concatenate, synthesize, write outputs.

Each hop's geometry, LOS probability and path loss are resolved once per
run (largescale.HopSpec). A run goes through its drops in runs of
consecutive drops (one drop per task in a pool). A run first draws every
hop of its drops (condition, K-factor, shadow fading) for the two target
hops and, when enabled, the background hop, and generates the cluster
tables of the hops of one condition together. The drops whose two target
tables share a layout form a group, and each group is concatenated under
the configured cases and reduced to drop statistics in one pass. Then,
drop by drop: the two-hop link budget and optionally CIR synthesis of the
target and background hop tables and their combination (the only stage
that loads coefficients). Each drop writes its CIR rows out slice by slice
as it formats them (to cir.txt.part, or from a pool worker to a spool the
parent appends in drop order), so the output files are identical for any
worker count, no drop's gains outlive its drop and no text crosses a pipe.
"""
from __future__ import annotations

import glob
import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import chain
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
from .rcs import PolarizationScattering, TargetClass
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
from .text import _format_rows, _row_slices, _text

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
# The files a run writes, pool workers' spools included; a run into a used
# directory first removes these, so the directory never mixes two runs.
CIR_TEMPORARY = ("cir.txt.part", "cir.txt.*.spool")
OUTPUT_PATTERNS = ("cir.txt", *CIR_TEMPORARY, "statistics.txt", "cdf_*.txt", "manifest.txt")
RUN_DROPS = 12  # consecutive drops a serial run builds, groups and reduces at once


@dataclass
class DropResult:
    drop: int
    condition_pairs: list  # one per case, "none" for an empty set
    stats: np.ndarray  # (cases, STAT_COLUMNS)
    pl_target_db: float
    pl_isac_db: float = np.nan
    cir_rows: int = 0
    cir_spool: str | None = None  # a pool worker's file of this drop's cir.txt rows


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
    elements = uniform_linear_array(
        node_cfg.elements, spacing, pattern=node_cfg.pattern,
        slant_deg=node_cfg.slant_deg,
    )
    return NodeState(
        position_m=np.asarray(node_cfg.position_m, dtype=float),
        velocity_mps=np.asarray(node_cfg.velocity_mps, dtype=float),
        micro_velocity_mps=np.asarray(node_cfg.micro_velocity_mps, dtype=float),
        elements=elements,
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
        target_class=TargetClass(cfg.rcs_target_class),
    )


def _run_drops(cfg: RunConfig, cases: tuple, emit_cir: bool, drops: range, *,
               scenario: ScenarioParams, hops: list, rcs_model: RcsModel | None,
               polarization: PolarizationScattering, grid: SnapshotGrid,
               coupling: CouplingConfig, cir_sink) -> list:
    """Worker body: simulate consecutive drops for every requested case.

    Every hop of the drops is built first, and the hops of one condition get
    their cluster tables from one generate_sublinks call; the drops of one
    hop-table layout are concatenated and reduced as a group, and each drop
    is then written in drop order. Returns each drop's record. The keyword
    arguments are the per-run objects, built once by _execute: ``hops``
    holds (largescale.HopSpec, stream scope) of the tx->target hop, the
    bi-static target->rx hop and the background hop, those of them a drop
    builds. ``cir_sink(drop, slices)`` writes out a drop's cir.txt rows as
    they are formatted and returns the name of the spool it wrote them to,
    if any. A drop whose gains are not finite raises NumericError.
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

    per_drop = []  # (tx->target table, target->rx table, background tables) of each drop
    groups = {}  # hop-table layout -> the drops with it
    for k in range(len(drops)):
        table1, *rest = (tables[i] for i in range(k * len(hops), (k + 1) * len(hops)))
        table2 = mono_static_reciprocal(table1) if cfg.sensing_mode == "monostatic" else rest.pop(0)
        per_drop.append((table1, table2, rest))
        layout = (table1.shape, table1.has_los, table2.shape, table2.has_los)
        groups.setdefault(layout, []).append(k)
    reduced = {}  # drop -> its statistics, their condition pairs, its CIR case's group, its index
    for members in groups.values():
        tx, rx = (tuple(per_drop[k][side] for k in members) for side in (0, 1))
        concat_streams = [streams[k].scoped(SCOPE_CONCAT) for k in members]
        sets = concatenate_group(tx, rx, cases, concat_streams)
        stats = group_statistics(sets)
        stats[..., STAT_COLUMNS.index("ds_ns")] *= 1e9
        pairs = [sets[0].condition_pair if len(group) else "none" for group in sets]
        cir_group = sets[cases.index(cfg.concat_case)] if emit_cir else None  # the rest go now
        reduced.update((k, (stats[i], pairs, cir_group, i)) for i, k in enumerate(members))

    results = []
    for k, (drop, drop_streams) in enumerate(zip(drops, streams)):
        (table1, table2, rest), (stats, pairs, group, i) = per_drop[k], reduced[k]
        pl_target = concatenated_path_loss(table1.hop.path_loss_db, table2.hop.path_loss_db,
                                           cfg.frequency_hz, cfg.rcs_mean_m2)
        rec = DropResult(drop, pairs, stats, pl_target)
        if group is not None and len(group):
            cir = coefficients.synthesize_target_cir(
                group, i, rcs_model, grid, cfg.wavelength_m,
                drop_streams.scoped(SCOPE_COEFF), polarization=polarization,
            )
            if rest:
                background = rest[0]
                rec.pl_isac_db = combine_isac_path_loss(
                    pl_target, background.hop.path_loss_db, coupling
                )
                cir = coefficients.combine_channels(cir, coefficients.synthesize_background_cir(
                    background, grid, cfg.wavelength_m), coupling)
            elif cfg.background_enabled:  # weighted by 0, the background hop is not built
                rec.pl_isac_db = combine_isac_path_loss(pl_target, 0.0, coupling)
            if not np.isfinite(cir.gains).all():
                raise NumericError(f"drop {drop}: CIR gains overflow to non-finite values")
            rec.cir_rows = int(np.prod(cir.gains.shape[:3]))
            rec.cir_spool = cir_sink(drop, _cir_block(drop, cir.delays, cir.gains))
        results.append(rec)
    return results


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


def _write_text(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` and return its SHA-256."""
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _write_statistics(out_dir: str, records: list, cases: tuple, table: np.ndarray,
                      columns: tuple) -> str:
    """One row per (drop, case) of the (drops x cases x columns) table."""
    prefix = _text([f"{rec.drop} {case.value} {pair} "
                    for rec in records for case, pair in zip(cases, rec.condition_pairs)])
    data = (("# drop case condition_pair " + " ".join(columns) + "\n").encode("ascii")
            + _format_rows(prefix, table.reshape(-1, len(columns))))
    return _write_text(os.path.join(out_dir, "statistics.txt"), data)


def _write_cdf(path: str, values: np.ndarray) -> str:
    cdf = empirical_cdf(values)
    rows = np.column_stack([cdf.values, cdf.probabilities])
    no_prefix = np.zeros((len(rows), 0), np.uint8)
    return _write_text(path, b"# value probability\n" + _format_rows(no_prefix, rows))


def _write_cdfs(out_dir: str, cases: tuple, table: np.ndarray, columns: tuple) -> dict:
    """One value-probability file per metric per case, of its finite values."""
    checksums = {}
    for i, case in enumerate(cases):
        for metric, column in CDF_METRICS.items():
            if column in columns:
                values = table[:, i, columns.index(column)]
                values = values[np.isfinite(values)]
                if values.size:
                    name = f"cdf_{metric}_{case.value}.txt"
                    checksums[name] = _write_cdf(os.path.join(out_dir, name), values)
    return checksums


class CirFile:
    """``cir.txt`` as it is written: ``cir.txt.part``, opened with the header
    on the first rows, and the SHA-256 of every byte written to it. On a
    clean exit the part file becomes ``cir.txt``; on an exception it and
    every spool are removed."""

    def __init__(self, path: str):
        self.path, self.fh, self.digest = path, None, hashlib.sha256(CIR_HEADER)

    def take(self, drop: int, chunks) -> None:
        """Serial sink, and the parent's copy of each spool."""
        for chunk in chunks:
            if self.fh is None:
                self.fh = open(self.path + ".part", "wb")
                self.fh.write(CIR_HEADER)
            self.fh.write(chunk)
            self.digest.update(chunk)

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        if self.fh is not None:
            self.fh.close()
        if failed:
            _remove(os.path.dirname(self.path), CIR_TEMPORARY)
        elif self.fh is not None:
            os.replace(self.path + ".part", self.path)


def _spool(cir_path: str, drop: int, chunks) -> str:
    """Pool worker sink: a drop's slices go into its own spool file."""
    name = f"{cir_path}.{drop}.spool"
    with open(name, "wb") as fh:
        fh.writelines(chunks)
    return name


def _remove(out_dir: str, patterns) -> None:
    for pattern in patterns:
        for name in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.unlink(name)


def _stream_drops(records, cir: CirFile):
    """Pass every drop's record on in drop order, first appending its spool
    to ``cir`` and deleting it."""
    for rec in records:
        if rec.cir_spool is not None:
            with open(rec.cir_spool, "rb") as fh:
                cir.take(rec.drop, iter(partial(fh.read, 1 << 20), b""))  # 1 MiB
            os.unlink(rec.cir_spool)
        yield rec


def _execute(cfg: RunConfig, cases: tuple, out_dir: str | None, workers: int,
             emit_cir: bool, study: bool) -> RunManifest:
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
    cir = CirFile(os.path.join(out_dir, "cir.txt"))
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
        cir_sink=partial(_spool, cir.path) if workers > 1 else cir.take,
    )
    os.makedirs(out_dir, exist_ok=True)
    _remove(out_dir, OUTPUT_PATTERNS)

    # A pool takes one drop per task; a serial run goes through its drops in
    # runs of RUN_DROPS, each run's hop tables built at once.
    size = 1 if workers > 1 else RUN_DROPS
    runs = [range(d, min(d + size, cfg.drops)) for d in range(0, cfg.drops, size)]
    # On a failure the pool cancels the drops not yet started and waits for
    # the running ones; it kills no worker (one killed while it sends its
    # result can hang the parent). cir exits after the pool, when no worker
    # still writes a spool.
    pool = None
    if workers > 1:  # imported by pooled runs only
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # the fork context starts every worker at the first submit, so no
        # more are asked for than there are tasks
        pool = ProcessPoolExecutor(min(workers, len(runs)), mp_context=get_context("fork"))
    with cir, pool or nullcontext():
        try:
            per_run = pool.map(worker, runs) if pool else map(worker, runs)
            records = list(_stream_drops(chain.from_iterable(per_run), cir))
        except BaseException:
            if pool:
                pool.shutdown(cancel_futures=True)
            raise

    table, columns = np.array([r.stats for r in records]), STAT_COLUMNS  # drops x cases x columns
    if study:  # each row's NN power against its drop's full convolution
        nn = table[..., columns.index("nn_power")]
        ref = nn[:, [cases.index(ConcatCase.CASE_0)]]
        ratio = np.divide(nn, ref, out=np.full_like(nn, np.nan), where=ref > 0)
        table, columns = np.dstack([table, ratio]), columns + ("nn_power_ratio",)

    checksums = {"statistics.txt": _write_statistics(out_dir, records, cases, table, columns)}
    checksums.update(_write_cdfs(out_dir, cases, table, columns))
    if cir.fh is not None:
        checksums["cir.txt"] = cir.digest.hexdigest()

    manifest = RunManifest(
        version=__version__,
        out_dir=out_dir,
        created_utc=created,
        elapsed_s=time.perf_counter() - t0,
        workers=workers,
        cir_rows=sum(r.cir_rows for r in records),
        file_checksums=checksums,
        config_lines=config_echo(cfg),
    )
    _write_manifest(out_dir, manifest, records)
    return manifest


def _write_manifest(out_dir: str, manifest: RunManifest, records: list) -> None:
    lines = [
        "# run manifest",
        f"version = {manifest.version}",
        f"created_utc = {manifest.created_utc}",
        "elapsed_s = %.3f" % manifest.elapsed_s,
        f"workers = {manifest.workers}",
        f"cir_rows = {manifest.cir_rows}",
    ]
    # means over the drops, the combined one over those that wrote a CIR with a background
    lines.append("mean_two_hop_path_loss_db = %.6f" % np.mean([r.pl_target_db for r in records]))
    pli = [r.pl_isac_db for r in records if np.isfinite(r.pl_isac_db)]
    if pli:
        lines.append("mean_combined_path_loss_db = %.6f" % np.mean(pli))
    lines.append("[files]")
    for name, digest in sorted(manifest.file_checksums.items()):
        lines.append(f"{name} sha256={digest}")
    lines.append("[config]")
    lines.extend(manifest.config_lines)
    _write_text(os.path.join(out_dir, "manifest.txt"), ("\n".join(lines) + "\n").encode("utf-8"))


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
