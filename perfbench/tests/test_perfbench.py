"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real repetitions of the ``table1`` workload, so they take about
ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _oswr_attributes():
    import oswr.cli  # noqa: F401  (loads every layer)
    from oswr.fem import TridiagonalSolver

    held = {(name, attr): value for name, mod in spans._oswr_modules().items()
            for attr, value in vars(mod).items()}
    held[("TridiagonalSolver", "solve")] = TridiagonalSolver.__dict__["solve"]
    return held


def test_tracer_wraps_every_holder_and_restores_it(tmp_path):
    before = _oswr_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for holder, attr, owner in (
            ("oswr.fem", "solve_subdomain_robin", "oswr.fem"),
            ("oswr.schwarz", "solve_subdomain_robin", "oswr.fem"),
            ("oswr.experiments", "optimize", "oswr.optimize"),
            ("oswr", "optimize", "oswr.optimize"),
            ("oswr.cli", "run_scenario", "oswr.experiments"),
        ):
            wrapped = getattr(sys.modules[holder], attr).__wrapped__
            assert wrapped is before[(owner, attr)], (holder, attr)
        code = sys.modules["oswr.cli"].main(
            ["tps", "--out-dir", str(tmp_path), "--versions", "III", "--T", "0.5"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert _oswr_attributes() == before
    assert tracer.wr_iterations > 0
    path = str(tmp_path / "spans.npy")
    tracer.write(path)
    summary = spans.summarize(path, tracer.names)
    assert summary["cli.main"]["calls"] == 1
    assert summary["schwarz.combined_error"]["calls"] == tracer.wr_iterations
    assert summary["fem.TridiagonalSolver.solve"]["calls"] > 0
    for entry in summary.values():
        assert entry["self_s"] <= entry["inclusive_s"] + 1e-9


def test_layer_counts_repeat_between_runs():
    first = run.measure("table1", seed=1, seconds=0, trace=True)
    second = run.measure("table1", seed=2, seconds=0, trace=True)
    assert first["correct"] and second["correct"]
    counts = [m for m, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    for metric in counts:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["fem.TridiagonalSolver.solve.calls"]["value"] == 130_400
    assert first["metrics"]["schwarz.wr_iterations"]["value"] == 320
    assert not os.path.exists(run.OUT)


def test_check_counts_a_wrong_iteration_count(tmp_path):
    rows = ["ratio,version,iterations,error"]
    rows += [f"{r:g},{v},{n},"
             for (r, v), n in workloads.TABLE1.items() if (r, v) != (10.0, "I")]
    rows.append("10,I,16,")
    (tmp_path / "ratio_sweep.csv").write_text("\n".join(rows) + "\n")
    assert workloads.check("table1", str(tmp_path), 0) == ["table1 10 I"]
    assert len(workloads.check("table1", str(tmp_path), 2)) == 12


def test_certify_failure_rule():
    ops = [{"ratio": r, "version": v, "rho_star": 0.5, "oracle": 0.5}
           for r, v in workloads.certify_cases(0)]
    assert workloads.check("certify", "", 0, ops) == []
    ops[0]["rho_star"] = 0.5 * (1 + 1e-6)
    assert len(workloads.check("certify", "", 0, ops)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_metric_lists_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.SPAN_METRICS) == {f"{mod}.{path}" for mod, path in spans.TARGETS}
