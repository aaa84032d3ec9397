"""Configuration parsing, CSV artifacts, and the command-line surface."""

import argparse
import importlib.util
import math
import os
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oswr import schwarz
from oswr.cli import _SCENARIO_COMMANDS, build_parser, main
from oswr.experiments import (
    CONFIG_KEYS,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    ScenarioError,
    _field_chunks,
    _fmt,
    parse_config,
    run_dt_sweep,
    run_custom,
    run_dx_sweep,
    run_ratio_sweep,
    run_rho_curves,
    run_scenario,
    run_tps_three_layer,
    run_v3_root_scan,
    tps_defaults,
)
from oswr.fem import DiffusionProfile, HeatProblem, Mesh1D, solve_monolithic
from oswr.frequency import DiffusionPair, frequency_band_from_grid, rho
from oswr.optimize import VERSIONS, OptimizationError, optimize, v3_bracket
from oswr.schwarz import (
    INIT_MODES,
    SWEEP_MODES,
    IterationDiverged,
    decompose,
    interface_diffusion_pairs,
    oswr_iterate,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


# ------------------------------------------------------------ configuration


def test_parse_config_defaults_match_table_settings(tmp_path):
    cfg = parse_config(_write(tmp_path, "c.txt", "scenario=ratio_sweep\n"))
    assert cfg.scenario == "ratio_sweep"
    assert cfg.T == 5.0
    assert cfg.dx == cfg.dt == pytest.approx(1.0 / 40.0)
    assert cfg.u0 == 20.0
    assert cfg.g_left == cfg.g_right == 0.0
    assert cfg.nu1 == 1.0
    assert cfg.tolerance == 1e-8
    assert cfg.max_iter == 1000
    assert cfg.effective_ratios() == (10.0, 100.0, 1000.0, 10000.0)


def test_parse_config_lists_and_comments(tmp_path):
    text = "# full sweep\nscenario=ratio_sweep\nratios=10,100,1000,10000\nversions=I,III\n"
    cfg = parse_config(_write(tmp_path, "c.txt", text))
    assert cfg.ratios == (10.0, 100.0, 1000.0, 10000.0)
    assert cfg.versions == ("I", "III")


def test_parse_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        parse_config(_write(tmp_path, "c.txt", "dt=0\n"))
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(_write(tmp_path, "c.txt", "scenario=ratio_sweep\nnot_a_key=3\n"))
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(_write(tmp_path, "c.txt", "just some text\n"))
    with pytest.raises(ConfigError, match="dt"):
        parse_config(_write(tmp_path, "c.txt", "dt=fast\n"))
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(_write(tmp_path, "c.txt", "scenario=warp\n"))
    with pytest.raises(ConfigError, match="versions"):
        parse_config(_write(tmp_path, "c.txt", "versions=I,IV\n"))
    with pytest.raises(ConfigError, match="dts"):
        parse_config(_write(tmp_path, "c.txt", "dts=\n"))


def test_config_validate_layer_counts():
    cfg = ExperimentConfig(scenario="custom", nu_layers=(1.0, 2.0), interfaces=(0.2, 0.4))
    with pytest.raises(ConfigError, match="nu_layers"):
        cfg.validate()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("tolerance", True, "tolerance expects a number, got True"),
        ("T", True, "T expects a number, got True"),
        ("max_iter", True, "max_iter expects an integer, got True"),
        ("max_iter", 10.0, "max_iter expects an integer, got 10.0"),
        ("rho_points", 600.5, "rho_points expects an integer, got 600.5"),
        ("ratios", (10.0, True), "ratios expects a number, got True"),
        ("nu1", "2", "nu1 expects a number, got '2'"),
        ("out_dir", True, "out_dir expects a string, got True"),
        ("ratios", 10.0, "ratios expects a list, got 10.0"),
        ("interfaces", 0.5, "interfaces expects a list, got 0.5"),
        ("versions", "I", "versions expects a list, got 'I'"),
        ("nu_layers", None, "nu_layers expects a list, got None"),
        ("T", None, "T expects a number, got None"),
        ("max_iter", None, "max_iter expects an integer, got None"),
    ],
)
def test_library_values_of_another_kind_are_config_errors(tmp_path, key, value, message):
    # True ran as 1 for tolerance, T and max_iter; 10.0 ended in a ValueError
    # from oswr_iterate and 600.5 in a TypeError from np.geomspace.  A scalar
    # for a list key, or None for a key whose default is not None, ended in
    # a TypeError; "I" passed as versions because a one-letter string
    # iterates as itself.
    settings = {"scenario": "rho_curves" if key == "rho_points" else "ratio_sweep",
                "out_dir": str(tmp_path / "out"), key: value}
    with pytest.raises(ConfigError) as caught:
        run_scenario(ExperimentConfig(**settings))
    assert str(caught.value) == message
    assert not (tmp_path / "out").exists()


_HOSTILE_VALUES = [
    True, False, None, 0, -1, 0.0, 1e-320, 1e308, math.nan, math.inf, -math.inf, 2**70,
    np.int64(3), np.float64(0.5), "", "x", [0.5], {"x": 1},
]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_key_takes_hostile_values_as_a_pass_or_a_config_error(scenario):
    # Any other exception, or a numpy warning, fails: validate is the one
    # gate between a library caller's values and the scenario runners.
    base = ExperimentConfig(scenario=scenario)
    if scenario == "custom":
        base = replace(tps_defaults(base), scenario=scenario)
    elif scenario == "tps_three_layer":
        base = tps_defaults(base)
    base.validate()
    for key in CONFIG_KEYS:
        for value in _HOSTILE_VALUES:
            cfg = replace(base, **{key.name: value})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    cfg.validate()
                except ConfigError:
                    pass


def test_library_values_may_be_numpy_numbers_and_paths(tmp_path):
    ExperimentConfig(
        T=np.float64(5.0), max_iter=np.int64(5), ratios=(np.float64(10.0),), out_dir=tmp_path
    ).validate()


def test_allowed_choices_come_from_the_library():
    assert VERSIONS == ("I", "II", "III")
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == [*_SCENARIO_COMMANDS, "run"]
    flags = {"--" + k.name.replace("_", "-"): k.name for k in CONFIG_KEYS if k.name != "scenario"}
    for command, parser in commands.choices.items():
        # Every command takes every key but the file-only scenario as a flag.
        options = parser._option_string_actions
        assert set(options) == {"-h", "--help", *flags}, command
        assert all(options[flag].dest == dest for flag, dest in flags.items()), command
        choices = {a.dest: a.choices for a in parser._actions}
        assert tuple(choices["init"]) == INIT_MODES, command
        assert tuple(choices["sweep"]) == SWEEP_MODES, command
    for init in INIT_MODES:
        ExperimentConfig(init=init).validate()
    for sweep in SWEEP_MODES:
        ExperimentConfig(sweep=sweep).validate()
    ExperimentConfig(versions=VERSIONS).validate()
    for bad, message in (
        ({"init": "ones"}, "init must be zero, from_initial or exact, got 'ones'"),
        ({"sweep": "sor"}, "sweep must be gauss_seidel or jacobi, got 'sor'"),
        ({"versions": ()}, "versions must be a nonempty subset of I,II,III, got ()"),
    ):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**bad).validate()
        assert str(err.value) == message


# -------------------------------------------------------------- CSV writing


def _small_cfg(tmp_path, **kw):
    cfg = ExperimentConfig(
        scenario="ratio_sweep",
        T=1.0,
        dx=1.0 / 8.0,
        dt=1.0 / 8.0,
        ratios=(4.0,),
        versions=("II",),
        out_dir=str(tmp_path / "out"),
    )
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def test_ratio_sweep_schema_and_precision(tmp_path):
    paths = run_ratio_sweep(_small_cfg(tmp_path))
    header, rows = _read_rows(paths[0])
    assert header == [
        "ratio",
        "version",
        "p",
        "q",
        "sigma1",
        "sigma2",
        "rho_star_analytic",
        "iterations",
        "final_error",
        "error",
    ]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["version"] == "II"
    assert row["error"] == ""
    assert int(row["iterations"]) > 0
    # 17 significant digits survive a round trip
    q = math.sqrt(2.0 * math.sqrt(math.pi / 4.0) * math.sqrt(4.0 * math.pi))
    assert float(row["q"]) == pytest.approx(q, rel=1e-16)
    with open(paths[0], "rb") as fh:
        blob = fh.read()
    assert b"\r" not in blob


def test_reruns_are_byte_identical(tmp_path):
    # Every artifact the iteration writes: counts, error histories and the
    # merged field.
    inputs = {
        "ratio_sweep": {},
        "dt_sweep": {"dts": (1.0 / 4.0, 1.0 / 8.0)},
        "tps_three_layer": {"nu_layers": (1.0, 0.1, 0.01), "interfaces": (0.25, 0.5)},
    }
    for scenario, extra in inputs.items():
        written = []
        for run in ("a", "b"):
            out = tmp_path / scenario / run
            cfg = _small_cfg(tmp_path, scenario=scenario, out_dir=str(out), **extra)
            run_scenario(cfg)
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1], scenario


def _text(header, lines):
    return "".join(f"{line}\n" for line in [header, *lines]).encode("utf-8")


@pytest.mark.parametrize("versions", [("II", "III"), ("III", "II"), ("II", "I")], ids="-".join)
def test_artifacts_hold_the_values_the_library_computes(tmp_path, versions):
    # Each line's text, rebuilt from the library's own results: every error
    # history, and in time-major order the merged field of the version the
    # layered scenario writes, Version III if it converged, else the first
    # version that converged.
    cfg = _small_cfg(tmp_path, scenario="custom", nu_layers=(1.0, 0.1), versions=versions)
    run_scenario(cfg)
    out = tmp_path / "out"
    mesh = Mesh1D.uniform(0.0, 1.0, 8)
    deco = decompose(mesh, cfg.interfaces)
    diffusion = DiffusionProfile(cfg.nu_layers, cfg.interfaces)
    problem = HeatProblem(diffusion, None, cfg.u0, cfg.g_left, cfg.g_right, cfg.T, cfg.dt)
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    pairs = interface_diffusion_pairs(problem, deco)
    merges = {}
    for version in cfg.versions:
        history, merges[version] = oswr_iterate(
            problem, deco, [optimize(version, band, pair).params for pair in pairs],
            tol=cfg.tolerance, max_iter=cfg.max_iter, init=cfg.init, sweep=cfg.sweep,
            reference=reference,
        )
        assert history.converged
        assert (out / f"custom_history_v{version}.csv").read_bytes() == _text(
            "iteration,error", (f"{k},{e:.17g}" for k, e in enumerate(history.errors, 1))
        )
    written = "III" if "III" in versions else versions[0]
    merged = merges[written]()
    assert (out / "custom_field.csv").read_bytes() == _text(
        "x,t,u",
        (
            f"{x:.17g},{t:.17g},{u:.17g}"
            for t, values in zip(merged.times, merged.values)
            for x, u in zip(merged.mesh.nodes, values)
        ),
    )
    # The other version's field differs, so the bytes pin which one is written.
    (other,) = set(versions) - {written}
    assert not np.array_equal(merges[other]().values, merged.values)


def test_rho_curves_artifact_holds_the_values_the_library_computes(tmp_path):
    # Each line's text, rebuilt from rho over the band grid.
    cfg = ExperimentConfig(
        scenario="rho_curves", ratios=(100.0,), rho_points=500, out_dir=str(tmp_path / "rho")
    )
    run_scenario(cfg)
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    grid = band.geometric_grid(cfg.rho_points)
    pair = DiffusionPair(cfg.nu1, cfg.nu1 / 100.0)
    curves = [
        f"100,{version},{w:.17g},{r:.17g}"
        for version in cfg.versions
        for w, r in zip(grid, rho(grid, optimize(version, band, pair).params, pair))
    ]
    assert len(curves) == 3 * 500
    written = (tmp_path / "rho" / "rho_curves.csv").read_bytes()
    assert written == _text("ratio,version,wt,rho", curves)


def test_field_chunks_are_the_cell_formatter_rows_one_chunk_per_level():
    # Awkward reals: signed zero, the least subnormal, values near the
    # largest double, a repeating fraction, an integral value, and x and t
    # values that print in exponent form.
    x = np.array([-2.5e-20, -0.0, 1.0 / 3.0, 20.0, 1.5e17])
    t = np.array([0.0, 1e-30, 7.25e21])
    u = np.array(
        [
            [-0.0, 5e-324, 1.7e308, -1.7e308, 1.0 / 3.0],
            [20.0, -5e-324, 0.1, 2.5e-300, -1.0 / 3.0],
            [1e16, 123456789.0, -20.0, 0.0, 1.7976931348623157e308],
        ]
    )
    chunks = list(_field_chunks(x, t, u))
    assert chunks == [
        "".join(",".join(map(_fmt, (xi, tk, ui))) + "\n" for xi, ui in zip(x.tolist(), row))
        for tk, row in zip(t.tolist(), u.tolist())
    ]
    assert chunks[0].startswith("-2.4999999999999999e-20,0,-0\n-0,0,4.9406564584124654e-324\n")
    assert chunks[1].startswith("-2.4999999999999999e-20,1.0000000000000001e-30,20\n")


def test_ratio_sweep_records_row_failure_and_continues(tmp_path):
    # dx that does not divide the domain fails per-row, not the whole run
    cfg = _small_cfg(tmp_path, dx=0.3)
    header, rows = _read_rows(run_ratio_sweep(cfg)[0])
    row = dict(zip(header, rows[0]))
    assert row["iterations"] == ""
    assert "dx" in row["error"]


@pytest.mark.parametrize(
    "override, fragment",
    [
        ({"dt": 0.3}, "dt=0.3 does not divide"),
        ({"dx": 1.0 / 3.0}, "does not fit the interfaces"),
    ],
)
def test_case_that_does_not_fit_its_grid_is_a_row_error(tmp_path, override, fragment):
    cfg = _small_cfg(tmp_path, versions=("I", "II"), **override)
    header, rows = _read_rows(run_ratio_sweep(cfg)[0])
    assert len(rows) == 2
    for row in rows:
        row = dict(zip(header, row))
        assert row["iterations"] == ""
        assert fragment in row["error"]


def test_case_runner_lets_untyped_errors_through(tmp_path, monkeypatch):
    # Only typed scenario failures become a CSV error; a bug propagates.
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("oswr.experiments.oswr_iterate", broken)
    with pytest.raises(ValueError, match="broadcast"):
        run_ratio_sweep(_small_cfg(tmp_path))


def test_case_that_diverges_or_defeats_the_optimizer_is_a_row_error(tmp_path, monkeypatch):
    # At ratio 16, Version II diverges and Version I's optimizer fails; both
    # become that row's error, the run goes on and exits 0.
    def run(name):
        out = tmp_path / name
        argv = ["ratio-sweep", "--out-dir", str(out), "--ratios", "4,16"]
        argv += ["--versions", "I,II,III", "--T", "1", "--dx", "0.125", "--dt", "0.125"]
        assert main(argv) == 0
        return _rows_as_dicts(out / "ratio_sweep.csv")

    def failing_optimize(version, band, pair):
        if version == "I" and pair.nu1 / pair.nu2 == 16.0:
            raise OptimizationError("no certified bracket")
        return optimize(version, band, pair)

    def diverging_iterate(problem, deco, params, **kwargs):
        if params[0].version == "II" and problem.diffusion.values[1] == 1.0 / 16.0:
            raise IterationDiverged("error grew by 1e3")
        return oswr_iterate(problem, deco, params, **kwargs)

    expected = run("plain")
    monkeypatch.setattr("oswr.experiments.optimize", failing_optimize)
    monkeypatch.setattr("oswr.experiments.oswr_iterate", diverging_iterate)
    rows = run("failing")
    assert [(r["ratio"], r["version"]) for r in rows] == [
        (r["ratio"], r["version"]) for r in expected
    ]
    failed = {("16", "I"): "no certified bracket", ("16", "II"): "error grew by 1e3"}
    for row, plain in zip(rows, expected):
        message = failed.get((row["ratio"], row["version"]))
        if message is None:
            assert row == plain
            continue
        assert plain["error"] == "" and plain["iterations"] != ""
        assert row["error"] == message
        assert row["iterations"] == row["final_error"] == ""
        kept = ("p", "q", "sigma1", "sigma2", "rho_star_analytic")
        if row["version"] == "II":
            assert all(row[key] == plain[key] != "" for key in kept)
        else:
            assert all(row[key] == "" for key in kept)


def test_dt_sweep_histories(tmp_path):
    cfg = _small_cfg(tmp_path, scenario="dt_sweep", dts=(1.0 / 4.0, 1.0 / 8.0))
    paths = run_dt_sweep(cfg)
    header, rows = _read_rows(paths[0])
    assert header == ["ratio", "version", "dt", "iterations", "rho_star", "error"]
    assert len(rows) == 2
    assert len(paths) == 3  # sweep + one history per (ratio, version, dt)
    hist_header, hist_rows = _read_rows(paths[1])
    assert hist_header == ["iteration", "error"]
    assert [int(r[0]) for r in hist_rows] == list(range(1, len(hist_rows) + 1))
    errors = [float(r[1]) for r in hist_rows]
    assert errors[-1] <= cfg.tolerance


def _rows_as_dicts(path):
    header, rows = _read_rows(path)
    return [dict(zip(header, r)) for r in rows]


def test_sweep_columns_match_ratio_sweep(tmp_path):
    # the shared grid point of the sweeps reproduces the ratio-sweep row
    base = dict(
        T=1.0, dx=1.0 / 8.0, dt=1.0 / 8.0, ratios=(4.0,), versions=("I", "II")
    )
    cfg_r = ExperimentConfig(scenario="ratio_sweep", out_dir=str(tmp_path / "r"), **base)
    ratio_rows = {r["version"]: r for r in _rows_as_dicts(run_ratio_sweep(cfg_r)[0])}
    cfg_t = ExperimentConfig(
        scenario="dt_sweep", dts=(1.0 / 4.0, 1.0 / 8.0), out_dir=str(tmp_path / "t"), **base
    )
    for row in _rows_as_dicts(run_dt_sweep(cfg_t)[0]):
        if float(row["dt"]) == 1.0 / 8.0:
            assert row["iterations"] == ratio_rows[row["version"]]["iterations"]
    cfg_x = ExperimentConfig(
        scenario="dx_sweep", dxs=(1.0 / 8.0, 1.0 / 16.0), out_dir=str(tmp_path / "x"), **base
    )
    for row in _rows_as_dicts(run_dx_sweep(cfg_x)[0]):
        if float(row["dx"]) == 1.0 / 8.0:
            assert row["iterations"] == ratio_rows[row["version"]]["iterations"]


def test_rho_curves_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="rho_curves",
        ratios=(100.0,),
        rho_points=500,
        out_dir=str(tmp_path / "out"),
    )
    paths = run_rho_curves(cfg)
    header, rows = _read_rows(paths[0])
    assert header == ["ratio", "version", "wt", "rho"]
    assert len(rows) == 3 * 500
    values = {}
    for row in rows:
        values.setdefault(row[1], []).append(float(row[3]))
    for version, curve in values.items():
        assert all(0.0 < r < 1.0 for r in curve)
    assert max(values["III"]) < max(values["II"]) < max(values["I"])
    # endpoint equioscillation of the single-parameter cross scaling
    assert abs(values["II"][0] - values["II"][-1]) <= 1e-10
    assert os.path.exists(paths[1])
    compile(open(paths[1], encoding="utf-8").read(), paths[1], "exec")


def test_v3_root_scan_outputs_and_refinement(tmp_path):
    cfg = ExperimentConfig(
        scenario="v3_root_scan", scan_points=500, out_dir=str(tmp_path / "out")
    )
    paths = run_v3_root_scan(cfg)
    header, rows = _read_rows(paths[0])
    assert header == ["p", "lhs", "rhs", "residual"]
    assert len(rows) == 500
    residuals = [float(r[3]) for r in rows]
    assert residuals[0] * residuals[-1] < 0.0  # bracket endpoints straddle the root
    _, summary = _read_rows(paths[1])
    sign_changes, scan_root, bis_root, spacing = summary[0]
    assert int(sign_changes) == 1
    assert abs(float(scan_root) - float(bis_root)) <= 2.0 * float(spacing)
    # 10x resolution moves the detected root by less than 1e-3
    cfg_fine = ExperimentConfig(
        scenario="v3_root_scan", scan_points=5000, out_dir=str(tmp_path / "fine")
    )
    _, summary_fine = _read_rows(run_v3_root_scan(cfg_fine)[1])
    assert abs(float(summary_fine[0][1]) - float(scan_root)) < 1e-3


def test_v3_root_scan_spans_the_optimizer_bracket_in_either_orientation(tmp_path):
    def scan(mu):
        cfg = ExperimentConfig(
            scenario="v3_root_scan", mu=mu, scan_points=500, out_dir=str(tmp_path / f"{mu}")
        )
        paths = run_v3_root_scan(cfg)
        return cfg, paths, [Path(path).read_bytes() for path in paths]

    cfg, paths, written = scan(2.0)
    # a jump below 1 is the same problem seen from the other side
    assert scan(0.5)[2] == written
    _, rows = _read_rows(paths[0])
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    assert (float(rows[0][0]), float(rows[-1][0])) == v3_bracket(band, 2.0)


def test_v3_root_scan_flags_missing_sign_change(tmp_path):
    cfg = ExperimentConfig(
        scenario="v3_root_scan",
        T=1.0,
        dt=0.125,
        mu=2.0,
        scan_points=500,
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ScenarioError):
        run_v3_root_scan(cfg)
    # the scan and its summary are still written for inspection
    _, summary = _read_rows(str(tmp_path / "out" / "v3_root_scan_summary.csv"))
    assert int(summary[0][0]) == 0


def test_tps_scenario_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="tps_three_layer",
        dx=1.0 / 100.0,
        nu_layers=(1.0, 1e-2, 1e-3),
        interfaces=(0.2, 0.4),
        g_right=50.0,
        out_dir=str(tmp_path / "out"),
    )
    paths = run_tps_three_layer(cfg)
    header, rows = _read_rows(paths[0])
    assert header == ["version", "iterations", "final_error", "error"]
    iters = {r[0]: int(r[1]) for r in rows}
    assert iters["III"] <= iters["II"] < iters["I"]
    field_path = str(tmp_path / "out" / "tps_field.csv")
    fheader, frows = _read_rows(field_path)
    assert fheader == ["x", "t", "u"]
    assert len(frows) == 101 * 201
    # hot right boundary held, left half cooled down by the final time
    final = {float(r[0]): float(r[2]) for r in frows if float(r[1]) == 5.0}
    assert final[1.0] == pytest.approx(50.0)
    assert abs(final[0.01]) < 1.0
    assert final[0.99] > 40.0


def test_only_the_layered_scenarios_merge_a_field(tmp_path, monkeypatch):
    # The sweeps write counts and histories, never a field, so they must not
    # form one; a layered run forms exactly the one it writes.
    combine = schwarz._combine_fields

    def refuse(*args):
        raise AssertionError("a sweep formed a merged field")

    monkeypatch.setattr("oswr.schwarz._combine_fields", refuse)
    sweeps = {
        "ratio_sweep": {},
        "dt_sweep": {"dts": (1.0 / 4.0, 1.0 / 8.0)},
        "dx_sweep": {"dxs": (1.0 / 8.0, 1.0 / 16.0)},
    }
    for scenario, extra in sweeps.items():
        out_dir = str(tmp_path / scenario)
        run_scenario(
            _small_cfg(tmp_path, scenario=scenario, versions=VERSIONS, out_dir=out_dir, **extra)
        )

    calls = []

    def counting(*args):
        calls.append(1)
        return combine(*args)

    monkeypatch.setattr("oswr.schwarz._combine_fields", counting)
    cfg = _small_cfg(tmp_path, scenario="custom", nu_layers=(1.0, 0.1), versions=VERSIONS)
    run_custom(cfg)
    assert len(calls) == 1


def test_no_converged_version_is_a_runtime_error_after_the_histories(tmp_path, capsys):
    # The summary and every history are written for inspection; with no
    # converged version there is no field to write, and the CLI exits 2.
    out = tmp_path / "out"
    assert main(["tps", "--max-iter", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "runtime error: no version converged; no field to write\n"
    histories = [f"tps_history_v{version}.csv" for version in VERSIONS]
    assert sorted(p.name for p in out.iterdir()) == sorted(["tps_summary.csv", *histories])
    rows = _rows_as_dicts(str(out / "tps_summary.csv"))
    assert [row["version"] for row in rows] == list(VERSIONS)
    for row, name in zip(rows, histories):
        assert row["iterations"] == ""
        assert row["error"] == "did not converge within 1 iterations"
        assert len(_read_rows(str(out / name))[1]) == 1
    with pytest.raises(ScenarioError, match="^no version converged; no field to write$"):
        run_tps_three_layer(tps_defaults(ExperimentConfig(max_iter=1, out_dir=str(out))))


def test_one_monolithic_reference_per_problem(tmp_path, monkeypatch):
    # Every version of a (layers, dx, dt) problem shares one reference; the
    # rows still come out in the configured (ratio, version[, dt]) order.
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_monolithic(*args, **kwargs)

    monkeypatch.setattr("oswr.experiments.solve_monolithic", counting)
    ratios, versions, dts = (16.0, 4.0), ("III", "I", "II"), (1.0 / 4.0, 1.0 / 8.0)

    cfg = _small_cfg(tmp_path, ratios=ratios, versions=versions)
    _, rows = _read_rows(run_ratio_sweep(cfg)[0])
    assert len(calls) == 2
    assert [(float(r[0]), r[1]) for r in rows] == [(r, v) for r in ratios for v in versions]

    calls.clear()
    cfg = _small_cfg(
        tmp_path, scenario="dt_sweep", ratios=ratios, versions=versions[:2], dts=dts,
        out_dir=str(tmp_path / "dt"),
    )
    paths = run_dt_sweep(cfg)
    assert len(calls) == 4
    _, rows = _read_rows(paths[0])
    order = [(r, v, dt) for r in ratios for v in versions[:2] for dt in dts]
    assert [(float(r[0]), r[1], float(r[2])) for r in rows] == order
    assert [os.path.basename(p) for p in paths[1:]] == [
        f"dt_sweep_history_ratio{r:g}_v{v}_dt{dt:g}.csv" for r, v, dt in order
    ]
    assert all(r[5] == "" for r in rows)

    calls.clear()
    cfg = ExperimentConfig(
        scenario="tps_three_layer", T=1.0, dx=0.1, dt=1.0 / 8.0,
        nu_layers=(1.0, 1e-2, 1e-3), interfaces=(0.2, 0.4), g_right=50.0,
        versions=versions, out_dir=str(tmp_path / "tps"),
    )
    _, rows = _read_rows(run_tps_three_layer(cfg)[0])
    assert len(calls) == 1
    assert [r[0] for r in rows] == list(versions)


def test_grid_that_does_not_fit_is_an_error_on_each_of_its_rows(tmp_path):
    cfg = _small_cfg(
        tmp_path, scenario="dt_sweep", versions=("II", "I"), dts=(0.3, 1.0 / 8.0)
    )
    _, rows = _read_rows(run_dt_sweep(cfg)[0])
    cases = [(r[1], float(r[2])) for r in rows]
    assert cases == [("II", 0.3), ("II", 0.125), ("I", 0.3), ("I", 0.125)]
    for row in rows:
        failed = float(row[2]) == 0.3
        assert (row[5] == "dt=0.3 does not divide T=1.0") == failed
        assert (row[3] == "") == failed


# ---------------------------------------------------------------------- CLI


def test_cli_run_config_and_overrides(tmp_path):
    config = _write(
        tmp_path, "exp.txt", "scenario=ratio_sweep\nratios=4\nversions=II\nT=1\ndx=0.125\ndt=0.125\n"
    )
    out = tmp_path / "cli_out"
    assert main(["run", config, "--out-dir", str(out)]) == 0
    assert (out / "ratio_sweep.csv").exists()


def test_cli_exit_codes(tmp_path):
    bad = _write(tmp_path, "bad.txt", "dt=0\n")
    assert main(["run", bad, "--out-dir", str(tmp_path / "x")]) == 1
    assert main(["run", str(tmp_path / "missing.txt"), "--out-dir", str(tmp_path / "x")]) == 1
    assert main(["ratio-sweep"]) == 1  # out_dir is mandatory
    # a band too narrow for the scan to find a root is a configuration
    # error (it was a runtime failure, exit 2, after writing both CSVs)
    assert (
        main(
            [
                "v3-root-scan",
                "--out-dir",
                str(tmp_path / "y"),
                "--T",
                "1",
                "--dt",
                "0.125",
                "--mu",
                "2",
            ]
        )
        == 1
    )
    assert not (tmp_path / "y").exists()


def test_cli_scenario_subcommand_with_flags(tmp_path):
    out = tmp_path / "flags"
    code = main(
        [
            "ratio-sweep",
            "--out-dir",
            str(out),
            "--ratios",
            "4",
            "--versions",
            "II",
            "--T",
            "1",
            "--dx",
            "0.125",
            "--dt",
            "0.125",
        ]
    )
    assert code == 0
    header, rows = _read_rows(str(out / "ratio_sweep.csv"))
    assert len(rows) == 1
    assert rows[0][0] == "4"


def test_cli_tps_presets(tmp_path):
    out = tmp_path / "tps"
    assert main(["tps", "--out-dir", str(out), "--versions", "III", "--max-iter", "50"]) == 0
    assert (out / "tps_summary.csv").exists()
    assert (out / "tps_field.csv").exists()


def test_cli_custom_scenario_requires_layers(tmp_path):
    assert main(["custom", "--out-dir", str(tmp_path / "c")]) == 1
    out = tmp_path / "c2"
    code = main(
        [
            "custom",
            "--out-dir",
            str(out),
            "--nu-layers",
            "1,0.25",
            "--interfaces",
            "0.5",
            "--versions",
            "II",
            "--T",
            "1",
            "--dx",
            "0.125",
            "--dt",
            "0.125",
        ]
    )
    assert code == 0
    assert (out / "custom_summary.csv").exists()
    assert (out / "custom_field.csv").exists()


def test_cli_out_dir_from_config_file(tmp_path):
    out = tmp_path / "from_file"
    config = _write(
        tmp_path,
        "withdir.txt",
        f"scenario=ratio_sweep\nratios=4\nversions=II\nT=1\ndx=0.125\ndt=0.125\nout_dir={out}\n",
    )
    assert main(["run", config]) == 0
    assert (out / "ratio_sweep.csv").exists()


def _config_seen_by_run(monkeypatch, argv):
    """The configuration ``main`` would run, without running it."""
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return []

    monkeypatch.setattr("oswr.cli.run_scenario", capture)
    assert main(argv) == 0
    (cfg,) = seen
    return cfg


_SAMPLE_TEXT = {"float": "0.125", "int": "700", "floats": "0.25,0.5", "strs": "II,I"}
_SAMPLE_TEXT_BY_KEY = {"init": "exact", "sweep": "jacobi", "interfaces": "0.25"}


_COMMANDS = {scenario: command for command, scenario in _SCENARIO_COMMANDS.items()}


@pytest.mark.parametrize(
    "key", [k for k in CONFIG_KEYS if k.name != "scenario"], ids=lambda k: k.name
)
def test_flag_and_file_agree(tmp_path, monkeypatch, key):
    out = str(tmp_path / "out")
    text = out if key.name == "out_dir" else _SAMPLE_TEXT_BY_KEY.get(
        key.name, _SAMPLE_TEXT.get(key.kind)
    )
    out_args = [] if key.name == "out_dir" else ["--out-dir", out]
    # A scenario that reads the key; the tps command would add its presets.
    scenario = "ratio_sweep" if "ratio_sweep" in key.read_by else key.read_by[0]
    config = _write(tmp_path, "c.txt", f"scenario={scenario}\n{key.name}={text}\n")
    from_file = _config_seen_by_run(monkeypatch, ["run", config, *out_args])
    flag = "--" + key.name.replace("_", "-")
    from_flag = _config_seen_by_run(
        monkeypatch, [_COMMANDS[scenario], flag, text, *out_args]
    )
    assert from_file == from_flag
    assert getattr(from_flag, key.name) != getattr(ExperimentConfig(), key.name)


def _config_text(value):
    if isinstance(value, tuple):
        return ",".join(_config_text(v) for v in value)
    return str(value)


def test_help_lists_every_key_with_its_default():
    lines = build_parser().format_help().splitlines()
    defaults = ExperimentConfig()
    for key in CONFIG_KEYS:
        value = getattr(defaults, key.name)
        if value is None:
            assert any(line.split()[:1] == [key.name] for line in lines), key.name
        else:
            entry = f"{key.name}={_config_text(value)}"
            assert any(line.split()[:1] == [entry] for line in lines), entry
            assert key.parse(_config_text(value)) == value
    assert len(CONFIG_KEYS) == 22


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        ("ratios=\n", [], "ratios must not be empty"),
        ("interfaces=\n", [], "interfaces must not be empty"),
        ("scenario=custom\nnu_layers=\n", [], "nu_layers must have exactly one more entry"),
        ("", ["--ratios", ""], "ratios must not be empty"),
        ("", ["--interfaces", ""], "interfaces must not be empty"),
        ("", ["--dt", "fast"], "dt expects a number, got 'fast'"),
        ("", ["--max-iter", "1e3"], "max_iter expects an integer, got '1e3'"),
        ("", ["--ratios", "10,x"], "ratios expects a number, got 'x'"),
        ("param_grid_size=512\n", [], "line 1: unknown key 'param_grid_size'"),
    ],
)
def test_empty_or_malformed_values_are_config_errors(tmp_path, capsys, lines, flags, message):
    config = _write(tmp_path, "c.txt", lines)
    assert main(["run", config, "--out-dir", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["u0", "g_left", "g_right"])
def test_non_finite_initial_and_boundary_values_are_config_errors(
    tmp_path, capsys, key, value
):
    flag = "--" + key.replace("_", "-")
    empty = _write(tmp_path, "empty.txt", "")
    in_file = _write(tmp_path, "c.txt", f"{key}={value}\n")
    out = str(tmp_path / "out")
    for argv in (
        ["ratio-sweep", "--out-dir", out, f"{flag}={value}"],
        ["run", empty, "--out-dir", out, f"{flag}={value}"],
        ["run", in_file, "--out-dir", out],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{key} must be finite, got {float(value)!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, key, text, message",
    [
        (
            "ratio_sweep", "scenario", "warp",
            "scenario must be ratio_sweep, dt_sweep, dx_sweep, rho_curves, v3_root_scan, "
            "tps_three_layer or custom, got 'warp'",
        ),
        ("ratio_sweep", "out_dir", "", "out_dir is required (use --out-dir)"),
        ("ratio_sweep", "T", "0", "T must be positive, got 0.0"),
        ("ratio_sweep", "dx", "-1", "dx must be positive, got -1.0"),
        ("ratio_sweep", "dt", "inf", "dt must be positive, got inf"),
        ("dt_sweep", "dts", "0.1,0", "dts must be positive, got 0.0"),
        ("dx_sweep", "dxs", "", "dxs must not be empty"),
        ("ratio_sweep", "ratios", "10,-1", "ratios must be positive, got -1.0"),
        (
            "ratio_sweep", "versions", "I,IV",
            "versions must be a nonempty subset of I,II,III, got ('I', 'IV')",
        ),
        ("ratio_sweep", "nu1", "nan", "nu1 must be positive, got nan"),
        ("custom", "nu_layers", "1,0", "nu_layers must be positive, got 0.0"),
        ("custom", "nu_layers", "1", "nu_layers must have exactly one more entry than interfaces"),
        ("ratio_sweep", "interfaces", "0.5,0.25", "interfaces must be strictly increasing"),
        ("ratio_sweep", "interfaces", "1.5", "interfaces must lie inside (0, 1), got 1.5"),
        ("ratio_sweep", "u0", "inf", "u0 must be finite, got inf"),
        ("ratio_sweep", "g_left", "-inf", "g_left must be finite, got -inf"),
        ("ratio_sweep", "g_right", "nan", "g_right must be finite, got nan"),
        ("ratio_sweep", "tolerance", "0", "tolerance must be positive, got 0.0"),
        ("ratio_sweep", "max_iter", "0", "max_iter must be >= 1, got 0"),
        ("ratio_sweep", "init", "ones", "init must be zero, from_initial or exact, got 'ones'"),
        ("ratio_sweep", "sweep", "sor", "sweep must be gauss_seidel or jacobi, got 'sor'"),
        ("rho_curves", "rho_points", "499", "rho_points must be >= 500 for rho_curves"),
        ("v3_root_scan", "scan_points", "10", "scan_points must be >= 500 for v3_root_scan"),
        ("v3_root_scan", "mu", "0", "mu must be positive, got 0.0"),
    ],
)
def test_every_key_rejects_a_bad_value_with_its_own_message(
    tmp_path, capsys, scenario, key, text, message
):
    # The whole stderr is pinned, from a file and from the flag, which
    # prints no file name.  The init/sweep flags are argparse choices
    # (usage errors, see below), and scenario is file-only.
    out = str(tmp_path / "out")
    out_args = [] if key == "out_dir" else ["--out-dir", out]
    lines = "" if key == "scenario" else f"scenario={scenario}\n"
    config = _write(tmp_path, "c.txt", f"{lines}{key}={text}\n")
    assert main(["run", config, *out_args]) == 1
    where = "" if key == "out_dir" else f"{config}: "
    assert capsys.readouterr().err == f"config error: {where}{message}\n"
    if key not in ("scenario", "init", "sweep"):
        flag = "--" + key.replace("_", "-")
        assert main([_COMMANDS[scenario], f"{flag}={text}", *out_args]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, key, count",
    [
        ("rho_curves", "rho_points", "100000000000000000000"),
        ("v3_root_scan", "scan_points", "100000000000000000000"),
        ("rho_curves", "rho_points", "3000000000"),
    ],
)
def test_point_counts_above_the_cap_are_config_errors(tmp_path, capsys, scenario, key, count):
    # Each ended in a numpy allocation error, with a traceback and no message.
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert main([_COMMANDS[scenario], flag, count, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {key} must be <= 1000000 for {scenario}: "
        "each point is a CSV row per curve\n"
    )
    assert not out.exists()
    # The cap itself is a valid count; it is validated, not run.
    ExperimentConfig(scenario=scenario, **{key: 10**6}).validate()


@pytest.mark.parametrize(
    "cfg, nodes, levels",
    [
        (ExperimentConfig(dt=1e-7, ratios=(10.0,), versions=("II",)), "41", "5e+07"),
        (ExperimentConfig(dx=1e-4, ratios=(10.0,), versions=("II",)), "10001", "200"),
        (ExperimentConfig(T=1e300, dt=1e-10), "41", "inf"),
        (replace(tps_defaults(ExperimentConfig()), dt=1e-6), "101", "5e+06"),
    ],
    ids=["ratio-sweep-dt", "ratio-sweep-dx", "overflow", "tps-dt"],
)
def test_grids_too_large_to_solve_are_config_errors(cfg, nodes, levels):
    # The first and last ended in a MemoryError from a solve's allocations,
    # the second in the mesh check and the third in an OverflowError.
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as caught:
            cfg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        f"grid dx={cfg.dx}, dt={cfg.dt} is too large: a solve on {nodes} nodes and {levels} "
        "levels holds nodes x (nodes + levels) > 2e+07 entries"
    )
    assert peak < 2**20


def test_every_ci_grid_fits_the_solve_size_limit():
    # The stress grid: 321 nodes and 6,400 levels.
    ExperimentConfig(dx=0.003125, dt=0.00078125, ratios=(1e6,), versions=("III",)).validate()
    # 1,001 nodes: 18,000 levels fit the limit, 20,000 do not.
    ExperimentConfig(dx=0.001, T=4.5, dt=0.00025).validate()
    with pytest.raises(ConfigError, match="too large"):
        ExperimentConfig(dx=0.001, T=5.0, dt=0.00025).validate()


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("init", "ones", "init must be zero, from_initial or exact, got 'ones'"),
        ("sweep", "sor", "sweep must be gauss_seidel or jacobi, got 'sor'"),
    ],
)
def test_choice_flags_are_usage_errors_and_choice_keys_config_errors(
    tmp_path, capsys, key, text, message
):
    # argparse checks the flag against the key's choices (exit 2); the same
    # value in a file reaches validation (exit 1).
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main(["ratio-sweep", "--out-dir", out, f"--{key}", text])
    assert exc.value.code == 2
    assert f"invalid choice: '{text}'" in capsys.readouterr().err
    config = _write(tmp_path, "c.txt", f"{key}={text}\n")
    assert main(["run", config, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"config error: {config}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--param-grid-size", "--freq-grid-size", "--scenario"])
def test_unknown_flags_are_usage_errors(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["ratio-sweep", "--out-dir", str(tmp_path), flag, "512"])
    assert exc.value.code == 2


# ------------------------------------------------------------ unread keys


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        (
            "",
            ["--nu-layers", "5,6,7", "--dts", "0.3", "--scan-points", "3"],
            "scenario ratio_sweep does not read dts, nu_layers, scan_points",
        ),
        ("scenario=ratio_sweep\nmu=2\n", [], "c.txt: scenario ratio_sweep does not read mu"),
        ("scenario=v3_root_scan\n", ["--versions", "I"], "v3_root_scan does not read versions"),
        ("scenario=dt_sweep\ndt=0.125\n", [], "dt_sweep does not read dt"),
        ("scenario=dx_sweep\n", ["--dx", "0.125"], "dx_sweep does not read dx"),
        ("scenario=custom\nnu_layers=1,2\nnu1=3\n", [], "custom does not read nu1"),
    ],
)
def test_keys_the_scenario_does_not_read_are_config_errors(
    tmp_path, capsys, lines, flags, message
):
    config = _write(tmp_path, "c.txt", lines)
    assert main(["run", config, "--out-dir", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_unread_keys_as_subcommand_flags(tmp_path, capsys):
    argv = ["ratio-sweep", "--out-dir", str(tmp_path / "out"), "--nu-layers", "5,6,7"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")
    # keys a scenario reads only through its presets are still flags of it
    argv = ["tps", "--out-dir", str(tmp_path / "out"), "--ratios", "10"]
    assert main(argv) == 1


def test_benchmark_command_lines_are_accepted(tmp_path, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in ("table1", "long_window", "layered"):
        for seed in (0, 1):
            argv = workloads.cli_argv(workload, seed, str(tmp_path / workload))
            _config_seen_by_run(monkeypatch, argv)


def test_every_scenario_reads_its_keys_and_ignores_the_rest(tmp_path):
    # ``read_by`` is checked against the runners: a key left out of it must
    # not change a single byte a scenario writes.
    assert {s for key in CONFIG_KEYS for s in key.read_by} == set(SCENARIOS)
    other = {
        "dx": 0.5, "dt": 0.5, "dts": (0.5,), "dxs": (0.5,), "ratios": (7.0,),
        "versions": ("I",), "nu1": 3.0, "nu_layers": (2.0, 3.0), "interfaces": (0.25,),
        "u0": 3.0, "g_left": 1.0, "g_right": 1.0, "tolerance": 1e-3, "max_iter": 5,
        "init": "exact", "sweep": "jacobi", "rho_points": 600, "scan_points": 600, "mu": 5.0,
    }
    small = dict(
        T=1.0, dx=1.0 / 8.0, dt=1.0 / 8.0, ratios=(4.0,), versions=("II",),
        dts=(1.0 / 8.0,), dxs=(1.0 / 8.0,), nu_layers=(1.0, 0.1),
    )

    def written(cfg, name):
        out = tmp_path / name
        run_scenario(replace(cfg, out_dir=str(out)))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    for scenario in SCENARIOS:
        if scenario in ("rho_curves", "v3_root_scan"):
            cfg = ExperimentConfig(scenario=scenario, ratios=(10.0,), scan_points=500)
        else:
            cfg = ExperimentConfig(scenario=scenario, **small)
        expected = written(cfg, scenario)
        for key in CONFIG_KEYS:
            if scenario not in key.read_by:
                changed = replace(cfg, **{key.name: other[key.name]})
                assert written(changed, f"{scenario}-{key.name}") == expected, key.name


# ------------------------------------------------------ edges of the range


@pytest.mark.parametrize(
    "argv",
    [["rho-curves", "--T", "0.01", "--ratios", "10"], ["v3-root-scan", "--T", "0.01"]],
)
def test_collapsed_band_is_a_config_error(tmp_path, capsys, argv):
    # dt = 1/40 resolves no frequency of a window shorter than dt/2.
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: time_step=0.025 >= 2*final_time=0.02: frequency band collapses\n"
    )
    assert not (tmp_path / "out").exists()


_RHO_FINITE = "outside [5.53e-76, 1.81e+75] where rho stays finite\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["ratio-sweep", "--T", "1e-300", "--dt", "1e-301", "--ratios", "10"],
            "T=1e-300 and dt=1e-301 give the frequency band [8.86e+149, 3.96e+150], ",
        ),
        (
            ["ratio-sweep", "--T", "1e300", "--dt", "1e299", "--ratios", "10"],
            "T=1e+300 and dt=1e+299 give the frequency band [8.86e-151, 3.96e-150], ",
        ),
        (
            ["rho-curves", "--T", "1e300", "--dt", "1e-300"],
            "T=1e+300 and dt=1e-300 give the frequency band [8.86e-151, 1.25e+150], ",
        ),
        (
            ["v3-root-scan", "--T", "1e300", "--dt", "1e-300"],
            "T=1e+300 and dt=1e-300 give the frequency band [8.86e-151, 1.25e+150], ",
        ),
        # Just outside each edge of the bound 2**250.
        (
            ["rho-curves", "--T", "3e150", "--dt", "1e-150"],
            "T=3e+150 and dt=1e-150 give the frequency band [5.12e-76, 1.25e+75], ",
        ),
        (
            ["rho-curves", "--T", "2e150", "--dt", "4e-151"],
            "T=2e+150 and dt=4e-151 give the frequency band [6.27e-76, 1.98e+75], ",
        ),
    ],
    ids=["tiny", "huge", "wide", "v3-wide", "below-lower-edge", "above-upper-edge"],
)
def test_band_where_rho_is_not_finite_is_a_config_error(tmp_path, capsys, argv, message):
    # rho**2 = (N1*N2)/(D1*D2) with factors of order wt**2: beyond the bound
    # the products over- or underflow, and the runs wrote nan or ended in an
    # OverflowError traceback.
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: " + message + _RHO_FINITE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["rho-curves", "--T", "2e150", "--dt", "1e-150"], "rho_curves.csv"),
        (["ratio-sweep", "--T", "1e-149", "--dt", "1e-150"], "ratio_sweep.csv"),
        (["ratio-sweep", "--T", "1e150", "--dt", "1e149"], "ratio_sweep.csv"),
    ],
    ids=["wide", "top", "bottom"],
)
def test_band_just_inside_where_rho_is_finite_runs_clean(tmp_path, argv, csv):
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    for row in _rows_as_dicts(str(out / csv)):
        assert row.get("error", "") == ""
        for name, value in row.items():
            if name not in ("version", "error", "iterations"):
                assert math.isfinite(float(value)), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", ["1e100", "1e300"])
def test_version_i_on_the_lowest_band_at_huge_jumps_gives_a_finite_rho_star(tmp_path, ratio):
    # At wt ~ 1e-75 Version I's factors of rho**2 are of order wt**2 and
    # wt**2/ratio, so both products underflowed to 0 and rho* read 0/0 = nan.
    out = tmp_path / "out"
    argv = ["ratio-sweep", "--T", "1e150", "--dt", "1e149", "--ratios", ratio, "--versions", "I"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    (row,) = _rows_as_dicts(str(out / "ratio_sweep.csv"))
    # rho* depends on the band only through k_r = sqrt(2T/dt), here sqrt(20).
    same_ratio = optimize("I", frequency_band_from_grid(10.0, 1.0), DiffusionPair(1.0, 1.0 / float(ratio)))
    assert float(row["rho_star_analytic"]) == pytest.approx(same_ratio.rho_star, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", ["1e16", "1e100", "1e300"])
def test_version_i_on_the_widest_band_runs_clean(tmp_path, ratio):
    # Version I's case data held rho at wt1 for p at the top of its center
    # range, a value nothing read; at k_r = 2e150 its square overflowed and
    # the run ended in an OverflowError traceback.
    out = tmp_path / "out"
    argv = ["rho-curves", "--T", "2e150", "--dt", "1e-150", "--ratios", ratio, "--versions", "I"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    rows = _rows_as_dicts(str(out / "rho_curves.csv"))
    assert len(rows) == 512
    # Across 150 decades of frequency rho reaches 1 in doubles at the ends.
    assert all(0.0 < float(row["rho"]) <= 1.0 for row in rows)


@pytest.mark.parametrize("mu", [1e38, 1e40, 1e50, 1e76])
def test_v3_bisection_finds_the_scan_root_at_huge_jumps(tmp_path, mu):
    # The residual scales like mu**-4: a product of two residuals underflows
    # from mu of about 1e39 on, so residual signs must be compared directly.
    cfg = ExperimentConfig(scenario="v3_root_scan", mu=mu, out_dir=str(tmp_path / "out"))
    _, summary = _read_rows(run_scenario(cfg)[1])
    sign_changes, scan_root, bis_root, spacing = summary[0]
    assert int(sign_changes) == 1
    assert abs(float(bis_root) - float(scan_root)) <= float(spacing)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--T", "5e40"], ["--T", "5", "--dt", "1e-40"], ["--T", "5e40", "--mu", "0.1"]])
def test_root_below_the_scans_first_point_is_a_config_error(tmp_path, capsys, argv):
    # Beyond a band ratio of about 1e20 the root lies between the lower end
    # of the p range and the scan's first point, so no sign change is seen;
    # that is a resolution limit of the scan, not a failed run.
    out = tmp_path / "out"
    assert main(["v3-root-scan", *argv, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: resolution limit of the root scan: ")
    assert "below the scan's first point" in err
    assert not out.exists()


@pytest.mark.parametrize("T", ["0.05", "0.1", "0.2"])
def test_root_scan_of_a_band_too_narrow_for_a_root_is_a_config_error(tmp_path, capsys, T):
    # Below a band ratio of about 4.2 the residual is positive across the
    # bracket, so the scalar equation has no root to scan; the scan wrote
    # both CSVs and then exited 2 ("found 0").
    out = tmp_path / "out"
    assert main(["v3-root-scan", "--T", T, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: band too narrow for the root scan: ")
    assert "has no root" in err
    assert not out.exists()


@pytest.mark.parametrize("T", ["5e20", "5e30", "0.25"])
def test_root_scan_resolves_the_root_up_to_its_limit(tmp_path, T):
    out = tmp_path / "out"
    assert main(["v3-root-scan", "--T", T, "--out-dir", str(out)]) == 0
    _, summary = _read_rows(str(out / "v3_root_scan_summary.csv"))
    assert int(summary[0][0]) == 1


@pytest.mark.filterwarnings("error")
def test_tiny_diffusion_gives_a_finite_ratio_sweep(tmp_path):
    # rho**2 multiplies four quadratics in sigma ~ sqrt(nu); at nu ~ 1e-300
    # their products underflowed to 0/0 = nan.
    out = tmp_path / "out"
    assert main(["ratio-sweep", "--nu1", "1e-300", "--ratios", "10", "--out-dir", str(out)]) == 0
    header, rows = _read_rows(str(out / "ratio_sweep.csv"))
    assert len(rows) == 3
    for row in rows:
        row = dict(zip(header, row))
        assert row["error"] == ""
        for name in ("p", "q", "sigma1", "sigma2", "rho_star_analytic", "final_error"):
            assert math.isfinite(float(row[name])), (row["version"], name)
        assert 0.0 < float(row["rho_star_analytic"]) < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", ["1e77", "1e200", "1e-77", "1e-200"])
def test_root_scan_beyond_the_double_range_is_a_config_error(tmp_path, capsys, mu):
    out = tmp_path / "out"
    assert main(["v3-root-scan", "--mu", mu, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: mu must lie within")
    assert err.rstrip().endswith(f"got {float(mu)!r}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tps", "--dt", "0.1", "--T", "0.05"], "dt=0.1 does not divide T=0.05"),
        (["ratio-sweep", "--dt", "0.03"], "dt=0.03 does not divide T=5.0"),
        (["dt-sweep", "--dts", "0.03,0.3"], "dt=0.03 does not divide T=5.0"),
        (["dx-sweep", "--dxs", "0.3,0.7"], "dx=0.3 does not divide the unit domain"),
    ],
)
def test_configuration_whose_every_grid_fails_is_a_config_error(
    tmp_path, capsys, argv, message
):
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_with_some_failing_grids_still_runs(tmp_path):
    # Only a grid that fails among grids that fit is a per-row error.
    out = tmp_path / "out"
    argv = ["dt-sweep", "--T", "1", "--dx", "0.125", "--dts", "0.3,0.125", "--ratios", "4",
            "--versions", "II", "--out-dir", str(out)]
    assert main(argv) == 0
    _, rows = _read_rows(str(out / "dt_sweep.csv"))
    assert [row[5] for row in rows] == ["dt=0.3 does not divide T=1.0", ""]


_SWEEP_II = ["--versions", "II", "--T", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["tps", "--versions", "III,III", "--T", "0.5"],
            "versions must be a nonempty subset of I,II,III, got ('III', 'III')",
        ),
        (
            ["rho-curves", "--versions", "I,II,I"],
            "versions must be a nonempty subset of I,II,III, got ('I', 'II', 'I')",
        ),
        (
            ["ratio-sweep", "--ratios", "10,100,10", *_SWEEP_II],
            "ratios must not repeat, got (10.0, 100.0, 10.0)",
        ),
        (
            ["rho-curves", "--ratios", "10,10", "--versions", "II"],
            "ratios must not repeat, got (10.0, 10.0)",
        ),
        (
            ["dt-sweep", "--ratios", "1e6,1000001", "--dts", "0.05", *_SWEEP_II],
            "ratios 1000000.0 and 1000001.0 give the same history file name ratio1e+06",
        ),
        (
            ["dx-sweep", "--ratios", "10,10", "--dxs", "0.05", *_SWEEP_II],
            "ratios 10.0 and 10.0 give the same history file name ratio10",
        ),
        (
            ["dt-sweep", "--ratios", "10", "--dts", "0.05,0.0500000001", *_SWEEP_II],
            "dts 0.05 and 0.0500000001 give the same history file name dt0.05",
        ),
        (
            ["dx-sweep", "--ratios", "10", "--dxs", "0.05,0.05000000000001", *_SWEEP_II],
            "dxs 0.05 and 0.05000000000001 give the same history file name dx0.05",
        ),
    ],
    ids=[
        "tps-versions", "rho-versions", "ratio-ratios", "rho-ratios", "dt-ratios", "dx-ratios",
        "dts", "dxs",
    ],
)
def test_repeated_versions_and_colliding_history_names_are_config_errors(
    tmp_path, capsys, argv, message
):
    # A repeated version wrote its summary row twice and its history twice,
    # a repeated ratio its rows or its curve twice; sweep values with the
    # same {:g} text wrote one history over another.
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ratio-sweep", "dt-sweep", "dx-sweep"])
def test_two_domain_sweep_with_several_interfaces_is_a_config_error(tmp_path, capsys, command):
    # nu1 and nu1/ratio are two layers, so no row of such a sweep can run.
    out = tmp_path / "out"
    argv = [command, "--interfaces", "0.25,0.5", "--ratios", "10", "--versions", "II"]
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: the two-domain sweeps need exactly one interface, got 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, quotient",
    [
        (["ratio-sweep", "--nu1", "1e-300", "--ratios", "1e30", "--versions", "II"], 0.0),
        (["rho-curves", "--nu1", "1e-300", "--ratios", "1e30"], 0.0),
        (["ratio-sweep", "--nu1", "1e300", "--ratios", "1e-10"], math.inf),
        (["dt-sweep", "--nu1", "1e-300", "--ratios", "10,1e30"], 0.0),
    ],
)
def test_second_coefficient_outside_the_double_range_is_a_config_error(
    tmp_path, capsys, argv, quotient
):
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: nu1/ratio must be positive and finite, got {quotient!r}\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, csv", [("ratio-sweep", "ratio_sweep.csv"), ("rho-curves", "rho_curves.csv")]
)
def test_subnormal_second_coefficient_runs_clean(tmp_path, command, csv):
    # nu1/ratio = 1e-310 is subnormal but positive: a valid configuration.
    out = tmp_path / "out"
    argv = [command, "--nu1", "1e-300", "--ratios", "1e10", "--versions", "II"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    for row in _rows_as_dicts(str(out / csv)):
        assert row.get("error", "") == ""
        for name, value in row.items():
            if name not in ("version", "error", "iterations"):
                assert math.isfinite(float(value)), name


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--u0", "1e308", "iterate 1 is not finite"),
        ("--g-left", "1e307", "iterate 1 is not finite"),
        ("--u0", "1.7e308", "iterate 1 is not finite"),
    ],
)
def test_data_that_overflow_the_arithmetic_are_a_runtime_error(
    tmp_path, capsys, flag, value, message
):
    # The values are finite, so the configuration is valid, but the Robin
    # data sigma * u + flux they give overflow; each ended in a ValueError
    # traceback.  (1.7e308 overflowed the stepped monolithic solve; the
    # blocked one stays finite, and the first iterate overflows.)
    out = tmp_path / "out"
    argv = ["ratio-sweep", f"{flag}={value}", "--ratios", "10", "--versions", "I"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "u0, ratio, versions",
    [("1e306", "1e4", "I"), ("1e307", "1e4", "I,II,III"), ("1e308", "10", "I,II,III")],
)
def test_data_near_the_double_limit_end_typed_with_no_warning(
    tmp_path, capsys, u0, ratio, versions
):
    # The first iterate's inverse FFT (1e306), or the exact data's flux
    # and the first error (1e307, 1e308), overflow; each printed a numpy
    # RuntimeWarning, a traceback with exit 1 when warnings are errors.
    out = tmp_path / "out"
    argv = ["ratio-sweep", "--u0", u0, "--ratios", ratio, "--versions", versions]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "runtime error: iterate 1 is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("nested", [False, True], ids=["a-file", "below-a-file"])
def test_out_dir_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, nested):
    # An existing file, or a path below one, as out_dir ended in a
    # FileExistsError or NotADirectoryError traceback after every case had run.
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if nested else blocker
    argv = ["ratio-sweep", "--ratios", "10", "--versions", "III", "--out-dir", str(out)]
    assert main(argv) == 1
    message = f"config error: out_dir {out}: {blocker} is not a directory\n"
    assert capsys.readouterr().err == message
    assert blocker.read_text() == "kept\n"


def test_a_write_that_fails_is_a_runtime_error(tmp_path, capsys):
    # The name of the output file is taken by a directory.
    out = tmp_path / "out"
    (out / "ratio_sweep.csv").mkdir(parents=True)
    argv = ["ratio-sweep", "--ratios", "10", "--versions", "III", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "ratio_sweep.csv" in err


def test_version_iii_converges_at_a_jump_of_1e200(tmp_path):
    # The bisection's residual, of order mu**-4, underflowed to 0 at the
    # bracket ends beyond a ratio of about 1.5e154, and the left end came out.
    out = tmp_path / "out"
    argv = ["ratio-sweep", "--ratios", "1e200", "--versions", "III", "--out-dir", str(out)]
    assert main(argv) == 0
    (row,) = _rows_as_dicts(str(out / "ratio_sweep.csv"))
    assert row["error"] == ""
    assert float(row["p"]) == pytest.approx(0.555420969392117, rel=1e-12)
    assert int(row["iterations"]) == 6


@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_the_largest_double_ratio_runs(tmp_path, version):
    # nu1/ratio is the subnormal 5.56e-309: nu1/nu2 overflows, although
    # mu = sqrt(nu1/nu2) is 1.34e154.  Version I ended in a CaseDataError
    # traceback (mu=inf).
    out = tmp_path / "out"
    argv = ["ratio-sweep", "--ratios", repr(sys.float_info.max), "--versions", version]
    assert main([*argv, "--out-dir", str(out)]) == 0
    (row,) = _rows_as_dicts(str(out / "ratio_sweep.csv"))
    assert math.isfinite(float(row["rho_star_analytic"]))


@pytest.mark.xfail(strict=True, reason="Version I stalls at large jumps (README, known defects)")
def test_version_i_converges_at_a_jump_of_1e12(tmp_path):
    # rho* is 0.733, yet after 1000 iterations the error is 15.70 of u0 = 20.
    out = tmp_path / "out"
    argv = ["ratio-sweep", "--ratios", "1e12", "--versions", "I", "--out-dir", str(out)]
    assert main(argv) == 0
    (row,) = _rows_as_dicts(str(out / "ratio_sweep.csv"))
    assert row["error"] == ""
