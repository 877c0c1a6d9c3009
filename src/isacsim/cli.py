"""Command-line entry points.

Subcommands:
  run           simulate the configured concatenation case and write outputs
  concat-study  run every concatenation case on shared cluster realizations
  detect        tabulate false-alarm and detection probabilities over SNR
  rcs-fit       fit a dB-domain normal model to measured RCS samples

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 unsupported feature.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

# Set before numpy is first imported (the package init imports nothing). An
# idle OpenBLAS worker thread spins and burns CPU, and the package gains
# nothing from more: its largest matrix product is (elements x 3) @ (3 x
# paths), and np.einsum runs its own C loops, not BLAS. A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import ConfigError, NumericError, UnsupportedFeatureError
from .text import _format_rows, _Output, _text, check_out_dir

# A detect grid with more rows is refused before anything is allocated: its
# row prefixes and text alone would take hundreds of megabytes.
MAX_DETECT_ROWS = 1_000_000


def _add_common(parser: argparse.ArgumentParser, need_config: bool) -> None:
    parser.add_argument(
        "--config", required=need_config, help="path to the run configuration file"
    )
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--drops", type=int, help="override drop count")
    parser.add_argument("--out", help="output directory (created if missing)")
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel drop workers (default 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="Geometry-based stochastic sensing channel simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate the configured case")
    _add_common(p_run, need_config=True)

    p_study = sub.add_parser(
        "concat-study", help="compare all concatenation cases drop by drop"
    )
    _add_common(p_study, need_config=True)

    p_det = sub.add_parser(
        "detect", help="threshold detection table over an SNR sweep"
    )
    p_det.add_argument(
        "--pfa", default="1e-2,1e-3,1e-4",
        help="comma-separated false-alarm probabilities (default 1e-2,1e-3,1e-4)",
    )
    p_det.add_argument("--snr-min", type=float, default=-5.0, help="sweep start, dB")
    p_det.add_argument("--snr-max", type=float, default=20.0, help="sweep end, dB")
    p_det.add_argument("--snr-step", type=float, default=1.0, help="sweep step, dB")
    p_det.add_argument("--out", help="write detection.txt here instead of stdout")

    p_fit = sub.add_parser(
        "rcs-fit", help="fit dB-domain mean/std to RCS samples (square meters)"
    )
    p_fit.add_argument(
        "samples", help="text file of RCS samples in square meters, whitespace-separated "
        "in any line layout ('#' comment lines allowed)"
    )
    p_fit.add_argument("--out", help="write rcs_fit.txt here instead of stdout")

    return parser


def _load_run_config(args):
    from .config import load_config, set_value

    cfg = load_config(args.config)
    for key, flag, value in (("master_seed", "--seed", args.seed),
                             ("drops", "--drops", args.drops)):
        if value is not None:
            set_value(cfg, key, str(value), flag)
    return cfg


def _cmd_simulate(entry: str, args) -> int:
    """``run`` or ``concat-study``: the runner function ``entry`` on the config."""
    from . import runner

    manifest = getattr(runner, entry)(_load_run_config(args), out_dir=args.out,
                                      workers=args.workers)
    print(f"wrote {len(manifest.file_checksums) + 1} files to {manifest.out_dir}")
    return 0


def _parse_pfa_list(text: str):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v = float(part)
        except ValueError:
            raise ConfigError(f"--pfa entry {part!r} is not a number") from None
        values.append(v)
    if not values:
        raise ConfigError("--pfa needs at least one value")
    return values


def _cmd_detect(args) -> int:
    pfa_values = _parse_pfa_list(args.pfa)
    for flag in ("snr_min", "snr_max", "snr_step"):
        if not math.isfinite(getattr(args, flag)):
            raise ConfigError(
                f"--{flag.replace('_', '-')} must be finite, got {getattr(args, flag)}"
            )
    if args.snr_step <= 0:
        raise ConfigError(f"--snr-step must be positive, got {args.snr_step}")
    if args.snr_max < args.snr_min:
        raise ConfigError("--snr-max must be >= --snr-min")
    steps = (args.snr_max - args.snr_min) / args.snr_step
    if (steps + 1) * len(pfa_values) > MAX_DETECT_ROWS:
        raise ConfigError(
            f"the detection grid would have {(steps + 1) * len(pfa_values):.4g} rows, "
            f"more than {MAX_DETECT_ROWS}; raise --snr-step or narrow the sweep"
        )
    n = math.floor(steps + 1e-9) + 1  # the last point does not pass --snr-max
    snr_values = [args.snr_min + i * args.snr_step for i in range(n)]
    from .metrics import detection_grid

    grid = detection_grid(pfa_values, snr_values)
    # "snr pfa " of each row, pfa-major; each number is formatted once
    snr_text = _text(["%.6f " % snr for snr in snr_values])
    pfa_text = _text(["%.6e " % target for target in pfa_values])
    prefix = np.hstack([np.tile(snr_text, (len(pfa_values), 1)),
                        np.repeat(pfa_text, n, axis=0)])
    data = b"# snr_db pfa pd\n" + _format_rows(prefix, grid.reshape(-1, 1))
    _write_side_file(args.out, "detection.txt", data)
    return 0


def _cmd_rcs_fit(args) -> int:
    from .rcs import fit_lognormal_db
    from .reader import data_lines, read_text

    samples = []
    for ln, line in data_lines(read_text(args.samples)):
        try:
            samples += [float(v) for v in line.split()]
        except ValueError:
            raise ConfigError(f"{args.samples}:{ln}: expected numbers, got {line!r}") from None
    mean_db, std_db = fit_lognormal_db(samples)
    text = "mean_db = %.6f\nstd_db = %.6f\nsamples = %d\n" % (mean_db, std_db, len(samples))
    _write_side_file(args.out, "rcs_fit.txt", text.encode("ascii"))
    return 0


def _write_side_file(out, name: str, data: bytes) -> None:
    """Write ``data`` to ``<out>/<name>`` (creating ``out``), which appears
    only when complete, and say so; or to stdout."""
    if out:
        os.makedirs(out, exist_ok=True)
        with _Output(out, name) as sink:
            sink.write(data)
        print(f"wrote {sink.path}")
    else:
        sys.stdout.write(data.decode("ascii"))


def _keep_heap() -> None:
    """Keep freed memory in the heap, for the command and the pool workers
    it forks.

    glibc gives each freed block above its dynamic thresholds back to the
    kernel and faults it in again when it is next allocated: the numpy
    temporaries of every text slice and statistics group. Fixing both
    thresholds (fixing either one turns the dynamic ones off) keeps them. A
    caller's GLIBC_TUNABLES or MALLOC_* variable wins, and a libc without
    ``mallopt`` is left alone; only ``main`` calls this, not library code.
    """
    if "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_") for k in os.environ):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: the heap shrinks only above 64 MiB free


_COMMANDS = {
    "run": partial(_cmd_simulate, "run"),
    "concat-study": partial(_cmd_simulate, "concat_study"),
    "detect": _cmd_detect,
    "rcs-fit": _cmd_rcs_fit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_heap()
    try:
        check_out_dir(args.out, "--out")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedFeatureError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
