"""Benchmark of the isacsim command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 7 --seconds 30 --trace 0

``--workload`` is ``study``, ``run_cir``, ``detect`` or ``all`` (each in
turn, metric names prefixed with the workload). The program is run from
``src/`` of this checkout (``python3 -m isacsim.cli``), one child process at
a time in a closed loop, for ``--seconds`` seconds; invocation ``i`` gets the
seed ``seed + 1000003 * i``:

* ``setup_s``: fresh interpreters that import ``isacsim.cli`` and load the
  workload's input, the work done before the first drop; median of several.
* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: per CLI invocation, spawn to exit,
  with CPU time and the largest resident set of the process tree taken from
  ``os.wait4`` (pool workers are reaped by the CLI, so they are included).
* ``items_per_s``: drops per second (``study``, ``run_cir``) or detection
  grid points per second (``detect``) at the workload's fixed size.

Every output is checked (see checks.py); an invocation that exits non-zero
or fails a check counts as failed. ``--trace 1`` adds one in-process run
with every layer entry point wrapped (tracer.py) and reports the per-layer
metrics instead. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import checks
import workloads

ROOT = workloads.ROOT
SETUP_WARMUP = 1  # discarded: fills the bytecode and page caches
SETUP_SAMPLES = 5
RUN_BUDGET_S = 160.0  # every child of a run is killed by then

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "items_per_s": "1/s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Ledger:
    """One workload run: where its children write temporary files, when they
    must have ended, and how many attempted operations failed."""

    tmp: str
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def child(self, argv: list) -> Child:
        return run_child(argv, self.tmp, max(1.0, self.deadline - time.perf_counter()))

    def attempt(self, what: str, argv: list, wl: workloads.Workload, out_dir: str,
                reference) -> tuple:
        """Run one child that writes ``out_dir``, check the output, delete it.
        Returns (child, digests); digests is None if the attempt failed."""
        try:
            child = self.child(argv)
            problems = _exit_problems(child)
            digests = None
            if not problems:
                problems, digests = check_outputs(wl, out_dir, reference)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return child, (digests if self.record(what, problems) else None)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(argv: list, tmp: str, timeout: float) -> Child:
    """Run ``argv`` from the checkout root as the leader of a new process
    group and reap it with ``os.wait4``; whatever it leaves running in that
    group is killed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err, start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def _exit_problems(child: Child) -> list:
    if child.code == 0:
        return []
    tail = child.stderr.strip().splitlines()[-3:]
    return [f"exit code {child.code}" + (": " + " | ".join(tail) if tail else "")]


def setup_argv(wl: workloads.Workload) -> list:
    if wl.command == "detect":
        code = "import sys, isacsim.cli; isacsim.cli.build_parser().parse_args(['detect'] + sys.argv[1:])"
        return [sys.executable, "-c", code, *wl.detect_args]
    code = "import sys, isacsim.cli; from isacsim.config import load_config; load_config(sys.argv[1])"
    return [sys.executable, "-c", code, wl.input_path]


def cli_argv(wl: workloads.Workload, seed: int, out_dir: str, workers: int | None) -> list:
    argv = [sys.executable, "-m", "isacsim.cli", wl.command]
    if wl.command == "detect":
        return argv + [*wl.detect_args, "--out", out_dir]
    return argv + ["--config", wl.input_path, "--seed", str(seed),
                   "--workers", str(workers), "--out", out_dir]


def invocation_seed(seed: int, i: int) -> int:
    """Seed of invocation ``i`` of a run. Each invocation draws its own drops,
    so a run's median spans several seeds' LOS draws instead of one."""
    return (seed + 1_000_003 * i) % 2**32


def check_outputs(wl: workloads.Workload, out_dir: str, reference) -> tuple:
    """(problems, {file: sha256}) of one output directory. ``reference`` is,
    for ``detect``, the expected Pd of every row; otherwise None or the
    digests of another run of the same seed that this one must equal. A check
    that cannot even parse the output reports that instead of raising."""
    try:
        if wl.command == "detect":
            path = os.path.join(out_dir, "detection.txt")
            if reference is None:
                return ["no Pd reference to check against"], {}
            return checks.check_detection(path, wl.pfa, wl.snr_db, reference), {
                "detection.txt": checks.sha256(path)}
        return checks.check_run_outputs(
            out_dir, wl.drops, wl.cases, wl.command == "concat-study", reference)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"output unreadable: {exc!r}"], {}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """One benchmark run of ``wl``: set-up samples, the reference its outputs
    are checked against, the optional traced run, then the closed loop of
    CLI invocations.

    numpy and scipy are never imported here: a child's ``ru_maxrss`` also
    counts the resident set it inherits from this process before ``exec``,
    so this process must stay smaller than any CLI child.
    """
    began = time.perf_counter()
    ledger = Ledger(tmp, began + RUN_BUDGET_S)

    setup = []
    for i in range(SETUP_WARMUP + SETUP_SAMPLES):
        child = ledger.child(setup_argv(wl))
        if ledger.record("setup", _exit_problems(child)) and i >= SETUP_WARMUP:
            setup.append(child.wall_s)

    reference, traced = None, None
    if wl.command == "detect":
        # detect takes no seed, so every invocation is checked against one reference.
        child = ledger.child([sys.executable, os.path.join(workloads.HERE, "checks.py"), wl.name])
        if ledger.record("pd reference", _exit_problems(child)):
            reference = json.loads(child.stdout)
    if trace:
        out_dir = tempfile.mkdtemp(dir=tmp)
        argv = [sys.executable, os.path.join(workloads.HERE, "tracer.py"),
                "--workload", wl.name, "--seed", str(seed), "--out", out_dir]
        try:
            child = ledger.child(argv)
            problems = _exit_problems(child)
            if not problems:
                traced = json.loads(child.stdout.strip().splitlines()[-1])
                if wl.command == "detect":
                    if traced["items"] != wl.items:
                        problems = [f"traced run made {traced['items']} rows, expected {wl.items}"]
                else:
                    problems, reference = check_outputs(wl, out_dir, None)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not ledger.record("traced run", problems):
            traced = None
    elif wl.workers is not None and wl.workers > 1:
        # The byte-identity rule: N workers write what one worker writes.
        out_dir = tempfile.mkdtemp(dir=tmp)
        _, reference = ledger.attempt(
            "one-worker reference", cli_argv(wl, seed, out_dir, 1), wl, out_dir, None)

    samples, digests = [], None
    loop_start = time.perf_counter()
    for i in itertools.count():
        out_dir = tempfile.mkdtemp(dir=tmp)
        check_against = reference if i == 0 or wl.command == "detect" else None
        argv = cli_argv(wl, invocation_seed(seed, i), out_dir, wl.workers)
        child, got = ledger.attempt(f"invocation {i}", argv, wl, out_dir, check_against)
        samples.append(child)
        if i == 0:
            digests = got
        now = time.perf_counter()
        if now - loop_start + child.wall_s > seconds or now + child.wall_s > ledger.deadline:
            break

    ok = [s for s in samples if s.code == 0] or samples
    values = {
        "wall_s": [s.wall_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
        "setup_s": setup or [0.0],
        "items_per_s": [wl.items / s.wall_s for s in ok],
    }
    e2e = {name: statistics.median(v) for name, v in values.items()}
    layers = {}
    if traced is not None:
        layers = dict(traced["metrics"])
        layers["trace.overhead_s"] = {
            "value": traced["traced_s"] - (e2e["wall_s"] - e2e["setup_s"]), "unit": "s"}
    return {
        "workload": wl,
        "seed": seed,
        "ledger": ledger,
        "values": values,
        "e2e": e2e,
        "traced": traced,
        "layers": layers,
        "digests": {k: v for k, v in (digests or {}).items()
                    if k in ("statistics.txt", "cir.txt", "detection.txt")},
    }


def report(res: dict, env: dict) -> None:
    """Human-readable summary of one workload run, printed before the JSON line."""
    wl, ledger = res["workload"], res["ledger"]
    print(f"== {wl.name}: {wl.why}")
    print(f"   {wl.items} {wl.items_unit} per invocation; closed loop, 1 client; seed {res['seed']}; "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in res["e2e"].items():
        print(f"   {name:<14} {value:12.4f} {E2E_UNITS[name]:<5} median of {len(res['values'][name])}"
              f" ({min(res['values'][name]):.4f} .. {max(res['values'][name]):.4f})")
    print(f"   {'error_rate':<14} {ledger.error_rate:12.4f} ratio "
          f"{ledger.failed} failed of {ledger.attempted} attempted")
    for name, digest in sorted(res["digests"].items()):
        print(f"   sha256 {name} {digest}")
    for problem in ledger.problems:
        print(f"   FAILED {problem}")
    if res["traced"] is not None:
        traced = res["traced"]
        total = traced["traced_s"]
        print(f"   traced in-process run: {total:.3f} s; self time by layer:")
        for name, s in traced["self_s"].items():
            if s >= 0.001 * total:
                print(f"     {name:<44} {s:9.3f} s {100 * s / total:6.1f} %")
        if traced["absent"]:
            print("   absent layers (reported as 0): " + ", ".join(traced["absent"]))
        for name, m in res["layers"].items():
            if m["value"]:
                print(f"   {name:<46} {m['value']:14.4f} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "isacsim", "cli.py")):
        print(f"no isacsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind like an interrupt so the running child's group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = args.seed % 2**32  # the CLI takes non-negative seeds only
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = environment()

    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        results = [measure(workloads.load(n), seed, args.seconds, bool(args.trace), tmp)
                   for n in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass

    metrics = {}
    for res in results:
        report(res, env)
        prefix = f"{res['workload'].name}." if len(results) > 1 else ""
        if args.trace:
            chosen = res["layers"]
        else:
            chosen = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["e2e"].items()}
        metrics.update({prefix + k: v for k, v in chosen.items()})
    attempted = sum(r["ledger"].attempted for r in results)
    failed = sum(r["ledger"].failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
