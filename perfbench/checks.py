"""Output checks run on every benchmark invocation.

Each check returns a list of problems; an empty list means the output is
correct. A non-empty list makes the invocation count as failed.
"""
from __future__ import annotations

import hashlib
import os

PD_TOLERANCE = 1e-9


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_files(out_dir: str) -> dict:
    """``{file name: sha256}`` from the ``[files]`` section of manifest.txt."""
    files, section = {}, None
    with open(os.path.join(out_dir, "manifest.txt"), "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("["):
                section = line
            elif section == "[files]" and line:
                name, _, digest = line.partition(" sha256=")
                files[name] = digest
    return files


def check_manifest(out_dir: str) -> tuple:
    """Recompute every ``[files]`` digest; returns (problems, {name: sha256})."""
    try:
        listed = manifest_files(out_dir)
    except OSError as exc:
        return [f"manifest.txt unreadable: {exc}"], {}
    if "statistics.txt" not in listed:
        return ["manifest.txt lists no statistics.txt"], listed
    problems = []
    for name, digest in sorted(listed.items()):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} listed in manifest.txt is missing")
        elif sha256(path) != digest:
            problems.append(f"{name} does not match its manifest sha256")
    return problems, listed


def check_statistics(out_dir: str, drops: int, cases: tuple, study: bool) -> list:
    """One row per (drop, case); on a study, Case0's nn_power_ratio is 1."""
    seen, bad_ratio, problems = {}, [], []
    with open(os.path.join(out_dir, "statistics.txt"), "r", encoding="utf-8") as fh:
        for raw in fh:
            if raw.startswith("#") or not raw.strip():
                continue
            cols = raw.split()
            key = (int(cols[0]), cols[1])
            seen[key] = seen.get(key, 0) + 1
            if study and cols[1] == "Case0" and float(cols[-1]) != 1.0:
                bad_ratio.append(f"drop {cols[0]}: {cols[-1]}")
    if bad_ratio:
        problems.append(f"{len(bad_ratio)} Case0 rows have nn_power_ratio != 1, first {bad_ratio[0]}")
    expected = {(d, c) for d in range(drops) for c in cases}
    if sum(seen.values()) != len(expected) or set(seen) != expected:
        problems.append(
            f"statistics.txt has {sum(seen.values())} rows over {len(seen)} "
            f"(drop, case) keys, expected {drops} x {len(cases)} = {len(expected)}"
        )
    return problems


def pd_reference(pfa: tuple, snr_db: tuple) -> list:
    """Pd of every grid point in ``detection.txt`` row order, from the Marcum Q
    form ``ncx2.sf(V_T^2/sigma^2, 2, A^2/sigma^2)``. With SNR = A^2/(2 sigma^2)
    and Pfa = exp(-V_T^2/(2 sigma^2)), sigma cancels."""
    import numpy as np
    from scipy.stats import ncx2

    p = np.repeat(np.asarray(pfa, dtype=float), len(snr_db))
    s = np.tile(np.asarray(snr_db, dtype=float), len(pfa))
    return ncx2.sf(-2.0 * np.log(p), 2, 2.0 * 10.0 ** (s / 10.0)).tolist()


def check_detection(path: str, pfa: tuple, snr_db: tuple, expected: list) -> list:
    """Rows in (pfa, snr) grid order, each Pd within PD_TOLERANCE of
    ``expected`` (see pd_reference) and no smaller than its Pfa."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    grid = [("%.6f" % s, "%.6e" % p) for p in pfa for s in snr_db]
    if [tuple(r[:2]) for r in rows] != grid:
        return [f"detection.txt rows are not the {len(grid)}-point (pfa, snr) grid in order"]
    got = [float(r[2]) for r in rows]
    problems = []
    worst = max(range(len(got)), key=lambda i: abs(got[i] - expected[i]))
    if not abs(got[worst] - expected[worst]) <= PD_TOLERANCE:
        problems.append(
            f"pd row {worst} differs from ncx2.sf by {abs(got[worst] - expected[worst]):.3g}")
    below = sum(g < p for g, p in zip(got, (p for p in pfa for _ in snr_db)))
    if below:
        problems.append(f"{below} rows have pd < pfa")
    return problems


def check_run_outputs(out_dir: str, drops: int, cases: tuple, study: bool,
                      reference: dict | None = None) -> tuple:
    """All checks of a run or study output; returns (problems, {name: sha256}).

    With ``reference`` (the digests of another run of the same inputs), every
    output file must be byte-identical to it.
    """
    problems, digests = check_manifest(out_dir)
    if problems:
        return problems, digests
    problems = check_statistics(out_dir, drops, cases, study)
    if reference is not None and digests != reference:
        differ = sorted(k for k in set(digests) | set(reference)
                        if digests.get(k) != reference.get(k))
        problems.append("outputs differ from the reference run: " + ", ".join(differ))
    return problems, digests


if __name__ == "__main__":
    # Prints pd_reference of one detect workload as JSON. Run as a child so
    # that numpy and scipy never load into the harness process.
    import json
    import sys

    import workloads

    wl = workloads.load(sys.argv[1])
    print(json.dumps(pd_reference(wl.pfa, wl.snr_db)))
