"""Benchmark of the oswr package: time to solution, failed ops, per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  NAME is one of table1, long_window, layered, certify,
or ``all``, which runs every workload in both modes and prints one
result line for each, labelled with its workload.

The loop is closed with one client: one repetition at a time, each in a
fresh interpreter (every CLI call is a new process, so no module-level
state may carry over).  Repetitions start while the next one is expected
to end within S seconds; at least one always runs.  Every repetition's
output is checked (see workloads.py) and hashed: a repetition whose output
differs from the run's first one fails all of its ops.

With --trace 0 the end-to-end metrics are the medians over repetitions.
With --trace 1 every repetition is followed by a traced one, which gives
the per-layer metrics; the tracing overhead is the difference of the
median wall times.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 120
CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# Per-layer metrics taken from span summaries: span name -> fields, each
# reported as "<span name>.<field>".
SPAN_METRICS = {
    "fem.solve_subdomain_robin": ("calls", "self_s"),
    "fem.TridiagonalSolver.solve": ("calls", "self_s"),
    "fem.solve_monolithic": ("calls", "self_s"),
    "fem.variational_flux": ("calls", "self_s"),
    "fem.assemble_operators": ("calls",),
    "schwarz.oswr_iterate": ("calls", "self_s"),
    "schwarz.combined_error": ("calls", "self_s"),
    "optimize.optimize": ("calls", "self_s"),
    "optimize.brute_force_minmax": ("calls", "self_s"),
    "frequency.rho": ("calls", "self_s"),
    "frequency.max_rho_over_band": ("calls", "self_s"),
    "experiments.run_scenario": ("self_s",),
    "cli.main": ("self_s",),
}

PER_LAYER = {f"{span}.{field}": ("count" if field == "calls" else "s")
             for span, fields in SPAN_METRICS.items() for field in fields}
PER_LAYER.update({
    "fem.solve_subdomain_robin.p50_ms": "ms",
    "fem.solve_subdomain_robin.p90_ms": "ms",
    "schwarz.wr_iterations": "count",
    "schwarz.iter_ms": "ms",
    "optimize.oracle_excess_max": "ratio",
    "experiments.csv_files": "count",
    "experiments.csv_bytes": "bytes",
    "trace.overhead_s": "s",
})


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def run_rep(workload: str, seed: int, rep_dir: str, trace: bool) -> dict:
    """Run one repetition in a child interpreter, check and hash its output."""
    out_dir = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "result.json")
    os.makedirs(rep_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           out_dir, result_path, "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = None, exc.stderr or b""
    if returncode != 0 or not os.path.exists(result_path):
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        return {"ok": False, "failed": [f"{workload} child exited {returncode}"]
                * workloads.OPS[workload], "why": " | ".join(tail)}
    with open(result_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["ok"] = os.path.dirname(os.path.dirname(rep["oswr_file"])) == SRC
    if not rep["ok"]:
        rep["why"] = f"oswr imported from {rep['oswr_file']}, not from {SRC}"
    ops = rep["certify_ops"]
    rep["failed"] = workloads.check(workload, out_dir, rep["exit_code"], ops)
    rep["digest"] = workloads.output_digest(out_dir, ops)
    rep["csv_files"], rep["csv_bytes"] = workloads.csv_stats(out_dir)
    if trace:
        from spans import summarize

        rep["summary"] = summarize(rep["spans"], rep["span_names"])
    return rep


def _trace_metrics(reps: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every traced repetition counted the same."""
    per_rep = []
    for rep in traced:
        summary = rep["summary"]
        zero = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "durations": []}
        values = {f"{span}.{field}": summary.get(span, zero)[field]
                  for span, fields in SPAN_METRICS.items() for field in fields}
        robin = summary.get("fem.solve_subdomain_robin", zero)["durations"]
        values["fem.solve_subdomain_robin.p50_ms"] = 1e3 * _percentile(robin, 50)
        values["fem.solve_subdomain_robin.p90_ms"] = 1e3 * _percentile(robin, 90)
        iterations = rep["wr_iterations"]
        iterate_s = summary.get("schwarz.oswr_iterate", zero)["inclusive_s"]
        values["schwarz.wr_iterations"] = iterations
        values["schwarz.iter_ms"] = 1e3 * iterate_s / iterations if iterations else 0.0
        per_rep.append(values)
    counts = [m for m, unit in PER_LAYER.items() if unit == "count" and m in per_rep[0]]
    same = all(v[m] == per_rep[0][m] for v in per_rep for m in counts)
    metrics = {m: (per_rep[0][m] if m in counts else statistics.median(v[m] for v in per_rep))
               for m in per_rep[0]}
    ops = reps[0].get("certify_ops")
    metrics["optimize.oracle_excess_max"] = max(
        ((op["rho_star"] - op["oracle"]) / op["oracle"] for op in ops), default=0.0
    ) if ops else 0.0
    metrics["experiments.csv_files"] = reps[0]["csv_files"]
    metrics["experiments.csv_bytes"] = reps[0]["csv_bytes"]
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in reps))
    return metrics, same


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for about ``seconds`` and reduce them to one result."""
    run_dir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    reps, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            reps.append(run_rep(workload, seed, os.path.join(run_dir, f"r{len(reps)}"), False))
            if trace:
                traced.append(run_rep(workload, seed,
                                      os.path.join(run_dir, f"t{len(traced)}"), True))
            elapsed = time.perf_counter() - start
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(OUT) and not os.listdir(OUT):
            os.rmdir(OUT)

    everything = reps + traced
    problems = [r["why"] for r in everything if "why" in r]
    digest = next((r["digest"] for r in everything if r["ok"]), None)
    failed_ops = []
    for rep in everything:
        if rep["ok"] and rep["digest"] != digest:
            problems.append("output differs between repetitions")
            failed_ops += [f"{workload} output differs"] * workloads.OPS[workload]
        else:
            failed_ops += rep["failed"]
    attempted = workloads.OPS[workload] * len(everything)
    unexpected = sorted(set(failed_ops) - workloads.KNOWN_FAILURES)
    correct = not problems and not unexpected and all(r["ok"] for r in everything)

    good = [r for r in reps if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    if trace and good and good_traced:
        metrics, same_counts = _trace_metrics(good, good_traced)
        if not same_counts:
            correct = False
            problems.append("per-layer counts differ between traced repetitions")
        units = PER_LAYER
    else:
        metrics = {m: statistics.median(r[m] for r in good) for m in END_TO_END
                   if m != "ok_share"} if good else {}
        metrics["ok_share"] = 1.0 - len(failed_ops) / attempted
        units = END_TO_END
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
        "failed_ops": sorted(set(failed_ops)),
        "problems": problems,
        "walls": [r["wall_s"] for r in good],
        "env": next((r["env"] for r in good), None),
    }


def report(result: dict) -> None:
    """Human-readable lines: environment, samples, failures, every metric."""
    print(f"[{result['workload']}] env {json.dumps(result['env'])}")
    walls = sorted(result["walls"])
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"[{result['workload']}] wall_s over {len(walls)} repetitions: "
              f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}")
    print(f"[{result['workload']}] failed {result['failed']}/{result['attempted']} ops"
          + (f": {', '.join(result['failed_ops'])}" if result["failed_ops"] else ""))
    for problem in result["problems"]:
        print(f"[{result['workload']}] problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"[{result['workload']}] {name} = {metric['value']} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oswr", "__init__.py")):
        print(f"perfbench: no oswr package under {SRC}", file=sys.stderr)
        return 2
    print(f"host nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"loadavg={os.getloadavg()}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = [measure(w, args.seed, args.seconds, t) for w in names for t in modes]
    for result in results:
        report(result)
    for result in results:
        labels = {"workload": result["workload"]} if args.workload == "all" else {}
        print(json.dumps({**labels, **{k: result[k] for k in CONTRACT_KEYS}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
