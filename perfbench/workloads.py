"""The four benchmark workloads: what each runs and how its output is checked.

Three workloads are CLI scenarios at their default settings; ``certify`` is
a library workload.  The seed only permutes the order in which a workload
runs its cases.  The set of cases, and so the work done, is the same for
every seed, which is what lets every case be checked against a pinned value.

An *op* is one case: one CSV row of ``ratio_sweep.csv``, ``dt_sweep.csv``
or ``tps_summary.csv``, or one (ratio, version) pair of ``certify``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random

VERSIONS = ("I", "II", "III")

# Table 1 of the paper, as given in the README.
TABLE1 = {
    (10.0, "I"): 15, (10.0, "II"): 14, (10.0, "III"): 13,
    (100.0, "I"): 21, (100.0, "II"): 11, (100.0, "III"): 8,
    (1000.0, "I"): 39, (1000.0, "II"): 9, (1000.0, "III"): 6,
    (10000.0, "I"): 169, (10000.0, "II"): 9, (10000.0, "III"): 6,
}

# `oswr dt-sweep` at its defaults, recorded at the commit that added this
# benchmark.  Keys are (ratio, version, dt).
LONG_WINDOW = {
    (10.0, "I", 0.05): 13, (10.0, "I", 0.025): 15,
    (10.0, "I", 0.0125): 18, (10.0, "I", 0.00625): 22,
    (10.0, "II", 0.05): 12, (10.0, "II", 0.025): 14,
    (10.0, "II", 0.0125): 17, (10.0, "II", 0.00625): 20,
    (10.0, "III", 0.05): 12, (10.0, "III", 0.025): 13,
    (10.0, "III", 0.0125): 14, (10.0, "III", 0.00625): 14,
    (1000.0, "I", 0.05): 35, (1000.0, "I", 0.025): 39,
    (1000.0, "I", 0.0125): 43, (1000.0, "I", 0.00625): 49,
    (1000.0, "II", 0.05): 8, (1000.0, "II", 0.025): 9,
    (1000.0, "II", 0.0125): 11, (1000.0, "II", 0.00625): 15,
    (1000.0, "III", 0.05): 6, (1000.0, "III", 0.025): 6,
    (1000.0, "III", 0.0125): 6, (1000.0, "III", 0.00625): 7,
}

# `oswr tps` at its defaults, recorded at the same commit.  Keys are versions.
LAYERED = {"I": 40, "II": 16, "III": 13}

CERTIFY_RATIOS = (10.0, 1e2, 1e4, 1e6, 1e8)
CERTIFY_GRID = (512, 128)  # parameter grid, frequency grid of the oracle
CERTIFY_BAND = (5.0, 1.0 / 40.0)  # final time, time step
# The analytic min-max value may exceed the oracle's grid minimum only by
# rounding; anything larger means the analytic optimum is not optimal.
CERTIFY_RTOL = 1e-9
# Ops that already fail at the commit that added this benchmark: the grid
# oracle beats Version III's analytic optimum at ratios 1e6 and 1e8 (see
# NOTES.md).  They count as failed ops like any other; only a failure
# outside this set makes a run incorrect.
KNOWN_FAILURES = frozenset({"certify 1e+06 III", "certify 1e+08 III"})

WORKLOADS = ("table1", "long_window", "layered", "certify")
OPS = {"table1": len(TABLE1), "long_window": len(LONG_WINDOW),
       "layered": len(LAYERED), "certify": len(CERTIFY_RATIOS) * len(VERSIONS)}


def _shuffled(seed: int, items) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _csv_list(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_argv(workload: str, seed: int, out_dir: str) -> list[str]:
    """Arguments for ``oswr.cli.main``: the default scenario, cases reordered."""
    versions = ",".join(_shuffled(seed, VERSIONS))
    if workload == "table1":
        ratios = _shuffled(seed + 1, sorted({r for r, _ in TABLE1}))
        return ["ratio-sweep", "--out-dir", out_dir,
                "--ratios", _csv_list(ratios), "--versions", versions]
    if workload == "long_window":
        ratios = _shuffled(seed + 1, sorted({r for r, _, _ in LONG_WINDOW}))
        dts = _shuffled(seed + 2, sorted({dt for _, _, dt in LONG_WINDOW}, reverse=True))
        return ["dt-sweep", "--out-dir", out_dir, "--ratios", _csv_list(ratios),
                "--versions", versions, "--dts", _csv_list(dts)]
    if workload == "layered":
        return ["tps", "--out-dir", out_dir, "--versions", versions]
    raise ValueError(f"{workload} is not a CLI workload")


def certify_cases(seed: int) -> list[tuple[float, str]]:
    return _shuffled(seed, [(r, v) for r in CERTIFY_RATIOS for v in VERSIONS])


def run_certify(seed: int) -> list[dict]:
    """Analytic optimum and grid oracle for every certify case, in seed order."""
    from oswr import DiffusionPair, brute_force_minmax, frequency_band_from_grid
    from oswr import optimize as optimize_fn

    band = frequency_band_from_grid(*CERTIFY_BAND)
    ops = []
    for ratio, version in certify_cases(seed):
        pair = DiffusionPair(1.0, 1.0 / ratio)
        analytic = optimize_fn(version, band, pair)
        _, oracle = brute_force_minmax(band, pair, version, *CERTIFY_GRID)
        ops.append({"ratio": ratio, "version": version,
                    "rho_star": analytic.rho_star, "oracle": oracle})
    return ops


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _case_ok(row: dict | None, pinned: int, history: str | None = None) -> bool:
    """A case passes when its row exists, has no error and hits its pin.

    When the case also writes an error history, the history must have one
    row per iteration.
    """
    if row is None or row.get("error") or row.get("iterations") != str(pinned):
        return False
    if history is None:
        return True
    return os.path.exists(history) and len(_rows(history)) == pinned


def check(workload: str, out_dir: str, exit_code: int, certify_ops=None) -> list[str]:
    """Names of the failed ops of one repetition (an empty list is a pass)."""
    if workload == "certify":
        got = {(op["ratio"], op["version"]): op for op in certify_ops or ()}
        failed = []
        for ratio in CERTIFY_RATIOS:
            for version in VERSIONS:
                op = got.get((ratio, version))
                if op is None or op["rho_star"] > op["oracle"] * (1.0 + CERTIFY_RTOL):
                    failed.append(f"certify {ratio:g} {version}")
        return failed
    if exit_code != 0:
        return [f"{workload} exit code {exit_code}"] * OPS[workload]
    failed = []
    if workload == "table1":
        path = os.path.join(out_dir, "ratio_sweep.csv")
        rows = _rows(path) if os.path.exists(path) else []
        by_key = {(float(r["ratio"]), r["version"]): r for r in rows}
        for key, pinned in TABLE1.items():
            if not _case_ok(by_key.get(key), pinned):
                failed.append(f"table1 {key[0]:g} {key[1]}")
    elif workload == "long_window":
        path = os.path.join(out_dir, "dt_sweep.csv")
        rows = _rows(path) if os.path.exists(path) else []
        by_key = {(float(r["ratio"]), r["version"], float(r["dt"])): r for r in rows}
        for (ratio, version, dt), pinned in LONG_WINDOW.items():
            history = os.path.join(
                out_dir, f"dt_sweep_history_ratio{ratio:g}_v{version}_dt{dt:g}.csv")
            if not _case_ok(by_key.get((ratio, version, dt)), pinned, history):
                failed.append(f"long_window {ratio:g} {version} {dt:g}")
    elif workload == "layered":
        path = os.path.join(out_dir, "tps_summary.csv")
        rows = _rows(path) if os.path.exists(path) else []
        by_key = {r["version"]: r for r in rows}
        field_ok = os.path.exists(os.path.join(out_dir, "tps_field.csv"))
        for version, pinned in LAYERED.items():
            history = os.path.join(out_dir, f"tps_history_v{version}.csv")
            if not (field_ok and _case_ok(by_key.get(version), pinned, history)):
                failed.append(f"layered {version}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return failed


def output_digest(out_dir: str, certify_ops=None) -> str:
    """SHA-256 over every written file (name and bytes), or the certify values."""
    digest = hashlib.sha256()
    if certify_ops is not None:
        digest.update(json.dumps(certify_ops, sort_keys=True).encode())
        return digest.hexdigest()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def csv_stats(out_dir: str) -> tuple[int, int]:
    """Number of CSV files in ``out_dir`` and their total size in bytes."""
    if not os.path.isdir(out_dir):
        return 0, 0
    sizes = [os.path.getsize(os.path.join(out_dir, n))
             for n in os.listdir(out_dir) if n.endswith(".csv")]
    return len(sizes), sum(sizes)
