"""Workload table of the benchmark and the parsing of its checked-in inputs.

Each workload's input file lives in ``perfbench/inputs/`` and starts with a
``# <name>: <why>`` line that says why the workload exists; BENCHMARK.json
repeats that reason. The seed is never written into an input: the harness
passes it to the program as ``--seed``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")

# Every down-selection case a concat-study writes, one statistics row each
# per drop. Spelled out here so a case that silently disappears is caught.
STUDY_CASES = (
    "CaseA", "Case0", "Case1", "Case2O", "Case2R", "Case3",
    "Case1N", "Case2ON", "Case2RN", "Case3N",
)

# name -> (CLI subcommand, input file, drop workers)
_TABLE = {
    "study": ("concat-study", "study.cfg", 1),
    "run_cir": ("run", "run_cir.cfg", 2),
    "detect": ("detect", "detect.args", None),
}
NAMES = tuple(_TABLE)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    input_path: str
    why: str
    workers: int | None
    drops: int = 0
    cases: tuple = ()
    detect_args: tuple = ()
    pfa: tuple = ()
    snr_db: tuple = ()
    sigma: float = 1.0

    @property
    def items(self) -> int:
        """Work per invocation: drops, or detection grid points."""
        return self.drops if self.command != "detect" else len(self.pfa) * len(self.snr_db)

    @property
    def items_unit(self) -> str:
        return "drops" if self.command != "detect" else "pd points"


def _lines(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    why = lines[0].lstrip("#").split(":", 1)[1].strip() if lines else ""
    return why, [ln for ln in lines if ln and not ln.startswith("#")]


def detect_grid(args: dict) -> tuple:
    """Pfa list, SNR grid and sigma exactly as ``isacsim detect`` builds them."""
    pfa = tuple(float(v) for v in args["--pfa"].split(",") if v.strip())
    lo, hi = float(args["--snr-min"]), float(args["--snr-max"])
    step = float(args["--snr-step"])
    n = int(round((hi - lo) / step)) + 1
    return pfa, tuple(lo + i * step for i in range(n)), float(args.get("--sigma", 1.0))


def load(name: str) -> Workload:
    command, filename, workers = _TABLE[name]
    path = os.path.join(INPUTS, filename)
    why, body = _lines(path)
    if command == "detect":
        tokens = tuple(tok for ln in body for tok in ln.split())
        args = dict(zip(tokens[::2], tokens[1::2]))
        pfa, snr, sigma = detect_grid(args)
        return Workload(name, command, path, why, workers, detect_args=tokens,
                        pfa=pfa, snr_db=snr, sigma=sigma)
    keys = dict(
        (k.strip(), v.strip()) for k, v in (ln.split("=", 1) for ln in body)
    )
    cases = STUDY_CASES if command == "concat-study" else (
        keys.get("concat_case", "Case2RN"),
    )
    return Workload(name, command, path, why, workers,
                    drops=int(keys.get("drops", 1)), cases=cases)
