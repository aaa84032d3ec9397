"""Command-line harness: one subcommand per scenario plus ``run <config>``.

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime or
divergence errors.  Flags override configuration-file keys.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    ScenarioError,
    parse_config,
    run_scenario,
    tps_defaults,
)
from .optimize import VERSIONS, OptimizationError
from .schwarz import INIT_MODES, SWEEP_MODES, IterationDiverged

_EPILOG = f"""\
configuration keys (key=value, one per line, '#' comments, lists comma-separated):
  {", ".join(CONFIG_KEYS)}

defaults: T=5, dx=dt=0.025, u0=20, g_left=g_right=0, nu1=1, interfaces=0.5,
versions=I,II,III, tolerance=1e-8, max_iter=1000, init=zero,
sweep=gauss_seidel, param_grid_size=512, freq_grid_size=128, rho_points=512,
scan_points=1000, mu=sqrt(10), dts=0.05,0.025,0.0125,0.00625,
dxs=0.05,0.025,0.0125.  Ratio lists default per scenario: ratio_sweep
10,100,1000,10000; dt/dx sweeps 10,1000; rho_curves 10,100.
"""

_SCENARIO_COMMANDS = {
    "ratio-sweep": "ratio_sweep",
    "dt-sweep": "dt_sweep",
    "dx-sweep": "dx_sweep",
    "rho-curves": "rho_curves",
    "v3-root-scan": "v3_root_scan",
    "tps": "tps_three_layer",
    "custom": "custom",
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", help="directory for CSV artifacts (required to write)")
    parser.add_argument("--T", type=float, dest="T", help="final time")
    parser.add_argument("--dx", type=float, help="mesh size")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--dts", help="comma-separated time-step list")
    parser.add_argument("--dxs", help="comma-separated mesh-size list")
    parser.add_argument("--ratios", help="comma-separated diffusion-ratio list")
    parser.add_argument("--versions", help=f"comma-separated subset of {','.join(VERSIONS)}")
    parser.add_argument("--nu1", type=float, help="left diffusion coefficient")
    parser.add_argument("--nu-layers", help="comma-separated layer coefficients")
    parser.add_argument("--interfaces", help="comma-separated interface coordinates")
    parser.add_argument("--u0", type=float, help="constant initial value")
    parser.add_argument("--g-left", type=float, help="left Dirichlet value")
    parser.add_argument("--g-right", type=float, help="right Dirichlet value")
    parser.add_argument("--tolerance", type=float, help="iteration tolerance")
    parser.add_argument("--max-iter", type=int, help="iteration cap")
    parser.add_argument("--init", choices=INIT_MODES, help="first transmission data")
    parser.add_argument("--sweep", choices=SWEEP_MODES, help="update order")
    parser.add_argument("--param-grid-size", type=int, help="oracle parameter grid")
    parser.add_argument("--freq-grid-size", type=int, help="oracle frequency grid")
    parser.add_argument("--rho-points", type=int, help="curve resolution")
    parser.add_argument("--scan-points", type=int, help="root-scan resolution")
    parser.add_argument("--mu", type=float, help="diffusion jump sqrt(nu1/nu2) for the root scan")


def _parse_list(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"{key} expects comma-separated numbers, got {raw!r}") from None


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    mapping = {
        "out_dir": "out_dir",
        "T": "final_time",
        "dx": "dx",
        "dt": "dt",
        "nu1": "nu1",
        "u0": "initial_value",
        "g_left": "bc_left",
        "g_right": "bc_right",
        "tolerance": "tolerance",
        "max_iter": "max_iter",
        "init": "init",
        "sweep": "sweep",
        "param_grid_size": "param_grid_size",
        "freq_grid_size": "freq_grid_size",
        "rho_points": "rho_points",
        "scan_points": "scan_points",
        "mu": "mu",
    }
    updates = {}
    for arg_name, field_name in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            updates[field_name] = value
    for arg_name, field_name in (
        ("dts", "dt_list"),
        ("dxs", "dx_list"),
        ("ratios", "ratios"),
        ("nu_layers", "nu_layers"),
        ("interfaces", "interfaces"),
    ):
        raw = getattr(args, arg_name, None)
        if raw is not None:
            updates[field_name] = _parse_list(raw, arg_name)
    raw = getattr(args, "versions", None)
    if raw is not None:
        updates["versions"] = tuple(s.strip() for s in raw.split(",") if s.strip())
    return replace(cfg, **updates)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oswr",
        description="Schwarz waveform-relaxation experiments for layered heat transfer",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SCENARIO_COMMANDS:
        p = sub.add_parser(command, help=f"run the {_SCENARIO_COMMANDS[command]} scenario")
        _add_override_flags(p)
    p_run = sub.add_parser("run", help="run the scenario named in a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    _add_override_flags(p_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config)
        else:
            cfg = ExperimentConfig(scenario=_SCENARIO_COMMANDS[args.command])
            if args.command == "tps":
                cfg = tps_defaults(cfg)
        cfg = _apply_overrides(cfg, args)
        cfg.validate()
        if not cfg.out_dir:
            raise ConfigError("out_dir is required (use --out-dir)")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        paths = run_scenario(cfg)
    except (ScenarioError, IterationDiverged, OptimizationError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
