"""Drop-loop orchestration: build links, concatenate, synthesize, write outputs.

A run executes, per drop: hop construction (condition draw, path loss,
K-factor, shadow fading), per-hop cluster generation, the two-hop link
budget, path concatenation under the configured case, drop statistics, and
optionally CIR synthesis plus the background channel and its combination
with the target channel. Results are merged in drop order so the output
files are identical for any worker count.
"""
from __future__ import annotations

import hashlib
import os
import time
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


@dataclass
class DropResult:
    drop: int
    case: str
    condition_pair: str
    stats: np.ndarray  # one value per STAT_COLUMNS
    pl_target_db: float = np.nan
    pl_background_db: float = np.nan
    pl_isac_db: float = np.nan
    cir_delays: np.ndarray | None = None
    cir_gains: np.ndarray | None = None


@dataclass
class RunManifest:
    version: str
    out_dir: str
    created_utc: str
    elapsed_s: float
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
            rec.cir_delays = cir.delays
            rec.cir_gains = cir.gains
        results.append(rec)
    return results


def _write_text(path: str, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_statistics(out_dir: str, records: list, table: np.ndarray,
                      columns: tuple) -> str:
    lines = ["# drop case condition_pair " + " ".join(columns)]
    for rec, row in zip(records, table):
        body = " ".join("%.12e" % v for v in row)
        lines.append(f"{rec.drop} {rec.case} {rec.condition_pair} {body}")
    path = os.path.join(out_dir, "statistics.txt")
    _write_text(path, lines)
    return path


def _write_cdf(path: str, values: np.ndarray) -> str:
    cdf = empirical_cdf(values)
    lines = ["# value probability"]
    lines += ["%.12e %.12e" % (v, p) for v, p in zip(cdf.values, cdf.probabilities)]
    _write_text(path, lines)
    return path


def _write_cdfs(out_dir: str, records: list, table: np.ndarray, columns: tuple) -> list:
    """One value-probability file per metric per case, of its finite values."""
    cases = np.array([rec.case for rec in records])
    paths = []
    for case in sorted(set(cases)):
        for metric, column in CDF_METRICS.items():
            if column in columns:
                values = table[cases == case, columns.index(column)]
                values = values[np.isfinite(values)]
                if values.size:
                    paths.append(_write_cdf(
                        os.path.join(out_dir, f"cdf_{metric}_{case}.txt"), values
                    ))
    return paths


def _write_cir(out_dir: str, records: list) -> str | None:
    lines = [
        "# one record per (drop, rx_element, tx_element, path)",
        "# drop u s path delay_s re/im per snapshot",
    ]
    any_cir = False
    for rec in records:
        if rec.cir_gains is None:
            continue
        any_cir = True
        gains = rec.cir_gains
        n_u, n_s, n_paths, _ = gains.shape
        for u in range(n_u):
            for s in range(n_s):
                for p in range(n_paths):
                    g = gains[u, s, p]
                    vals = " ".join(
                        "%.12e %.12e" % (z.real, z.imag) for z in g
                    )
                    lines.append(
                        f"{rec.drop} {u} {s} {p} "
                        + "%.12e " % rec.cir_delays[p] + vals
                    )
    if not any_cir:
        return None
    path = os.path.join(out_dir, "cir.txt")
    _write_text(path, lines)
    return path


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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

    if workers == 1:
        per_drop = [worker(d) for d in range(cfg.drops)]
    else:
        ctx = get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            per_drop = pool.map(worker, range(cfg.drops))

    records = [r for drop_records in per_drop for r in drop_records]  # in drop order
    table, columns = np.array([r.stats for r in records]), STAT_COLUMNS
    if study:  # each row's NN power against its drop's full convolution
        nn = table[:, columns.index("nn_power")]
        ref = {r.drop: v for r, v in zip(records, nn) if r.case == ConcatCase.CASE_0.value}
        ratio = [v / ref[r.drop] if ref.get(r.drop, 0) > 0 else np.nan
                 for r, v in zip(records, nn)]
        table, columns = np.column_stack([table, ratio]), columns + ("nn_power_ratio",)

    written = [_write_statistics(out_dir, records, table, columns)]
    written += _write_cdfs(out_dir, records, table, columns)
    cir_path = _write_cir(out_dir, records)
    if cir_path:
        written.append(cir_path)

    manifest = RunManifest(
        version=__version__,
        out_dir=out_dir,
        created_utc=created,
        elapsed_s=time.perf_counter() - t0,
        file_checksums={os.path.basename(p): _sha256(p) for p in written},
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
    _write_text(os.path.join(out_dir, "manifest.txt"), lines)


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
