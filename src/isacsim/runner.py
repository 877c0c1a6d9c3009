"""Drop-loop orchestration: build links, concatenate, synthesize, write outputs.

A run executes, per drop: hop construction (condition draw, path loss,
K-factor, shadow fading), per-hop cluster generation, the two-hop link
budget, path concatenation under the configured case, drop statistics, and
optionally CIR synthesis plus the background channel and its combination
with the target channel. Each drop formats its own CIR rows; the parent
writes and hashes them in drop order as they arrive, so the output files
are identical for any worker count and no drop's gains outlive its drop.
"""
from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import __version__
from .concatenation import (
    ALL_CASES,
    ConcatCase,
    HopTable,
    concatenate,
)
from .config import RunConfig, config_echo
from .coefficients import (
    SnapshotGrid,
    combine_channels,
    synthesize_background_cir,
    synthesize_target_cir,
)
from .errors import ConfigError, UnsupportedFeatureError
from .geometry import NodeState, uniform_linear_array
from .largescale import (
    CouplingConfig,
    ScenarioParams,
    build_hop,
    combine_isac_path_loss,
    concatenated_path_loss,
)
from .rcs import B1Table, PolarizationScattering, RcsModel, TargetClass
from .seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
)
from .smallscale import generate_sublink, mono_static_reciprocal
from .stats import empirical_cdf, statistics_table

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


@dataclass
class DropResult:
    drop: int
    case: str
    condition_pair: str
    stats: np.ndarray  # one value per STAT_COLUMNS
    pl_target_db: float = np.nan
    pl_background_db: float = np.nan
    pl_isac_db: float = np.nan
    cir_block: bytes | None = None  # this drop's cir.txt rows, formatted
    cir_rows: int = 0


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


def build_polarization(cfg: RunConfig) -> PolarizationScattering | None:
    if cfg.pol_mode == "identity":
        return None
    return PolarizationScattering(mode=cfg.pol_mode, alphas=cfg.pol_alphas)


def _force(condition: str):
    return None if condition == "auto" else condition


def _run_drop(cfg: RunConfig, cases: tuple, emit_cir: bool, drop: int, *,
              scenario: ScenarioParams, tx: NodeState, rx: NodeState,
              target: NodeState, rcs_model: RcsModel | None,
              polarization: PolarizationScattering | None, grid: SnapshotGrid,
              coupling: CouplingConfig) -> list:
    """Worker body: simulate one drop for every requested concatenation case.

    The keyword arguments are the per-run objects, built once by _execute.
    """
    wavelength = cfg.wavelength_m

    streams = RandomStreams(cfg.master_seed, drop=drop)
    hop1 = build_hop(
        tx, target, scenario, streams.scoped(HOP_TX_TARGET),
        force_condition=_force(cfg.cond_tx_target),
    )
    sub1 = generate_sublink(
        hop1, scenario.condition_params(hop1.condition),
        streams.scoped(HOP_TX_TARGET),
        split_strongest=cfg.split_strongest, absolute_delay=cfg.absolute_delay,
    )
    if cfg.sensing_mode == "monostatic":
        sub2 = mono_static_reciprocal(sub1)
        hop2 = sub2.hop
    else:
        hop2 = build_hop(
            target, rx, scenario, streams.scoped(HOP_TARGET_RX),
            force_condition=_force(cfg.cond_target_rx),
        )
        sub2 = generate_sublink(
            hop2, scenario.condition_params(hop2.condition),
            streams.scoped(HOP_TARGET_RX),
            split_strongest=cfg.split_strongest, absolute_delay=cfg.absolute_delay,
        )

    pl_target = concatenated_path_loss(
        hop1.path_loss_db, hop2.path_loss_db, cfg.frequency_hz, cfg.rcs_mean_m2
    )

    table1, table2 = HopTable.from_sublink(sub1), HopTable.from_sublink(sub2)
    sets = [concatenate(table1, table2, case, streams=streams.scoped(SCOPE_CONCAT))
            for case in cases]
    stats = statistics_table(sets)
    stats[:, STAT_COLUMNS.index("ds_ns")] *= 1e9
    results = []
    for case, paths, row in zip(cases, sets, stats):
        pair = paths.condition_pair if len(paths) else "none"
        rec = DropResult(drop, case.value, pair, row, pl_target_db=pl_target)

        if emit_cir and case == cfg.concat_case and len(paths) > 0:
            coeff_streams = streams.scoped(SCOPE_COEFF)
            cir = synthesize_target_cir(
                paths, tx.elements, rx.elements, rcs_model, grid, wavelength,
                coeff_streams, polarization=polarization,
            )
            if cfg.background_enabled:
                bg, bg_hop = synthesize_background_cir(
                    tx, rx, scenario, grid, wavelength,
                    streams.scoped(HOP_BACKGROUND),
                    tx_elements=tx.elements, rx_elements=rx.elements,
                    sensing_mode=cfg.sensing_mode,
                    force_condition=_force(cfg.cond_background),
                )
                rec.pl_background_db = bg_hop.path_loss_db
                rec.pl_isac_db = combine_isac_path_loss(
                    pl_target, bg_hop.path_loss_db, coupling
                )
                cir = combine_channels(cir, bg, coupling)
            rec.cir_block = _cir_block(drop, cir.delays, cir.gains)
            rec.cir_rows = int(np.prod(cir.gains.shape[:3]))
        results.append(rec)
    return results


def _format_rows(prefixes: list, values: np.ndarray) -> str:
    """One text line per row: its prefix, then each value as ``%.12e``.

    ``values`` is (len(prefixes), n). A prefix ends in a space unless it is
    empty, and holds no ``%``. One template formats every row at once.
    """
    fields = " ".join(["%.12e"] * values.shape[1]) + "\n"
    template = "".join(prefix + fields for prefix in prefixes)
    return template % tuple(values.ravel().tolist())


def _cir_block(drop: int, delays: np.ndarray, gains: np.ndarray) -> bytes:
    """cir.txt rows of one drop: ``drop u s path delay re im re im ...``."""
    n_u, n_s, n_paths, n_t = gains.shape
    vals = np.empty((n_u, n_s, n_paths, 1 + 2 * n_t))
    vals[..., 0] = delays
    vals[..., 1::2] = gains.real
    vals[..., 2::2] = gains.imag
    prefixes = [f"{drop} {u} {s} {p} "
                for u in range(n_u) for s in range(n_s) for p in range(n_paths)]
    return _format_rows(prefixes, vals.reshape(-1, 1 + 2 * n_t)).encode("ascii")


def _write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` and return the SHA-256 of its bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _write_statistics(out_dir: str, records: list, table: np.ndarray,
                      columns: tuple) -> str:
    prefixes = [f"{rec.drop} {rec.case} {rec.condition_pair} " for rec in records]
    text = ("# drop case condition_pair " + " ".join(columns) + "\n"
            + _format_rows(prefixes, table))
    return _write_text(os.path.join(out_dir, "statistics.txt"), text)


def _write_cdf(path: str, values: np.ndarray) -> str:
    cdf = empirical_cdf(values)
    rows = np.column_stack([cdf.values, cdf.probabilities])
    return _write_text(path, "# value probability\n" + _format_rows([""] * len(rows), rows))


def _write_cdfs(out_dir: str, records: list, table: np.ndarray, columns: tuple) -> dict:
    """One value-probability file per metric per case, of its finite values."""
    cases = np.array([rec.case for rec in records])
    checksums = {}
    for case in sorted(set(cases)):
        for metric, column in CDF_METRICS.items():
            if column in columns:
                values = table[cases == case, columns.index(column)]
                values = values[np.isfinite(values)]
                if values.size:
                    name = f"cdf_{metric}_{case}.txt"
                    checksums[name] = _write_cdf(os.path.join(out_dir, name), values)
    return checksums


def _stream_drops(per_drop, cir_path: str) -> tuple:
    """Collect every drop's records in drop order, streaming its CIR block out.

    Each block is appended to ``cir_path + ".part"`` and to a running SHA-256
    as soon as its drop arrives, then released. After the last drop the part
    file becomes ``cir_path``; if a drop raises it is removed. No file is
    made when no drop has a CIR. Returns (records, cir.txt digest or None,
    cir.txt data rows).
    """
    part = cir_path + ".part"
    records, rows, fh = [], 0, None
    digest = hashlib.sha256(CIR_HEADER)
    try:
        for drop_records in per_drop:
            for rec in drop_records:
                records.append(rec)
                if rec.cir_block is None:
                    continue
                if fh is None:
                    fh = open(part, "wb")
                    fh.write(CIR_HEADER)
                fh.write(rec.cir_block)
                digest.update(rec.cir_block)
                rows += rec.cir_rows
                rec.cir_block = None
        if fh is not None:
            fh.close()
            os.replace(part, cir_path)
    except BaseException:
        if fh is not None:
            fh.close()
            os.unlink(part)
        raise
    return records, (digest.hexdigest() if fh is not None else None), rows


def _execute(cfg: RunConfig, cases: tuple, out_dir: str | None, workers: int,
             emit_cir: bool, study: bool) -> RunManifest:
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if emit_cir and cfg.background_enabled and cfg.sensing_mode != "bistatic":
        raise UnsupportedFeatureError("mono-static runs have no background channel")
    rcs_model = build_rcs_model(cfg) if emit_cir else None  # only CIRs look aspects up
    if rcs_model is not None and rcs_model.b1 is not None:
        lo, hi = rcs_model.b1.angles_deg[[0, -1]]
        if lo > -180.0 or hi < 180.0:
            raise ConfigError(
                f"rcs.b1_table spans [{lo}, {hi}] deg; aspect azimuths need [-180, 180]"
            )
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    wavelength = cfg.wavelength_m
    rx_node_cfg = cfg.tx if cfg.sensing_mode == "monostatic" else cfg.rx
    worker = partial(
        _run_drop, cfg, cases, emit_cir,
        scenario=ScenarioParams.from_table(
            cfg.scenario, cfg.frequency_hz, path=cfg.scenario_table
        ),
        tx=build_node(cfg.tx, wavelength),
        rx=build_node(rx_node_cfg, wavelength),
        target=build_node(cfg.target, wavelength),
        rcs_model=rcs_model,
        polarization=build_polarization(cfg),
        grid=SnapshotGrid(cfg.snap_start_s, cfg.snap_step_s, cfg.snap_count),
        coupling=CouplingConfig(
            o_isac=cfg.coupling_o_isac, mode=cfg.coupling_mode,
            removal_fraction=cfg.coupling_removal_fraction,
        ),
    )
    if out_dir is None:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        out_dir = os.path.join(
            cfg.out_dir or "runs", f"{stamp}-seed{cfg.master_seed}"
        )
    os.makedirs(out_dir, exist_ok=True)

    drops = range(cfg.drops)
    with get_context("fork").Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        per_drop = pool.imap(worker, drops) if pool else map(worker, drops)
        records, cir_digest, cir_rows = _stream_drops(
            per_drop, os.path.join(out_dir, "cir.txt")
        )

    table, columns = np.array([r.stats for r in records]), STAT_COLUMNS
    if study:  # each row's NN power against its drop's full convolution
        nn = table[:, columns.index("nn_power")]
        ref = {r.drop: v for r, v in zip(records, nn) if r.case == ConcatCase.CASE_0.value}
        ratio = [v / ref[r.drop] if ref.get(r.drop, 0) > 0 else np.nan
                 for r, v in zip(records, nn)]
        table, columns = np.column_stack([table, ratio]), columns + ("nn_power_ratio",)

    checksums = {"statistics.txt": _write_statistics(out_dir, records, table, columns)}
    checksums.update(_write_cdfs(out_dir, records, table, columns))
    if cir_digest is not None:
        checksums["cir.txt"] = cir_digest

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
    pl = [r.pl_target_db for r in records if np.isfinite(r.pl_target_db)]
    if pl:
        lines.append("mean_two_hop_path_loss_db = %.6f" % float(np.mean(pl)))
    pli = [r.pl_isac_db for r in records if np.isfinite(r.pl_isac_db)]
    if pli:
        lines.append("mean_combined_path_loss_db = %.6f" % float(np.mean(pli)))
    lines.append("[files]")
    for name, digest in sorted(manifest.file_checksums.items()):
        lines.append(f"{name} sha256={digest}")
    lines.append("[config]")
    lines.extend(manifest.config_lines)
    _write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


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
