"""Command-line harness: one subcommand per scenario plus ``run <config>``.

Exit codes: 0 on success, 1 for configuration errors (an ``out_dir`` that
cannot be a directory among them), 2 for runtime or divergence errors,
for errors while writing results and for usage errors.  Flags override
configuration-file keys and are read like them, so a malformed flag value
is a configuration error too; the exception is a value outside the
choices of ``--init`` or ``--sweep``, which argparse rejects as a usage
error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    CONFIG_KEYS,
    DEFAULT_RATIOS,
    ConfigError,
    ExperimentConfig,
    ScenarioError,
    parse_config,
    reject_unread_keys,
    run_scenario,
    tps_defaults,
)
from .fem import NonFiniteSolution
from .optimize import OptimizationError
from .schwarz import IterationDiverged

_SCENARIO_COMMANDS = {
    "ratio-sweep": "ratio_sweep",
    "dt-sweep": "dt_sweep",
    "dx-sweep": "dx_sweep",
    "rho-curves": "rho_curves",
    "v3-root-scan": "v3_root_scan",
    "tps": "tps_three_layer",
    "custom": "custom",
}


def _config_text(value) -> str:
    """A value as it is written in a configuration file."""
    if isinstance(value, tuple):
        return ",".join(_config_text(v) for v in value)
    return str(value)


def _epilog() -> str:
    defaults = ExperimentConfig()
    lines = [
        "configuration keys (key=value, one per line, '#' comments, lists comma-separated;",
        "every key but scenario is also a flag: --key, with '-' for '_'), with defaults:",
    ]
    for key in CONFIG_KEYS:
        value = getattr(defaults, key.name)
        entry = key.name if value is None else f"{key.name}={_config_text(value)}"
        lines.append(f"  {entry:<31} {key.help}")
    lines.append("ratios default per scenario:")
    lines += [f"  {s}: {_config_text(r)}" for s, r in DEFAULT_RATIOS.items()]
    return "\n".join(lines) + "\n"


def _check_out_dir(path: str) -> None:
    """ConfigError unless ``path`` is a directory or can be made one.

    Checked before any case runs, and without creating anything, so a run
    that fails leaves no directory behind.
    """
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out_dir {path}: {existing} is not a directory")


def build_parser() -> argparse.ArgumentParser:
    # The override flags, declared once and shared by every subcommand.
    flags = argparse.ArgumentParser(add_help=False)
    for key in CONFIG_KEYS:
        if key.name != "scenario":
            flags.add_argument(
                "--" + key.name.replace("_", "-"),
                dest=key.name,
                choices=key.choices if key.kind == "str" else None,
                help=key.help,
            )
    parser = argparse.ArgumentParser(
        prog="oswr",
        description="Schwarz waveform-relaxation experiments for layered heat transfer",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, scenario in _SCENARIO_COMMANDS.items():
        sub.add_parser(command, parents=[flags], help=f"run the {scenario} scenario")
    p_run = sub.add_parser("run", parents=[flags], help="run the scenario named in a config file")
    p_run.add_argument("config", help="path to a key=value config file")
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
        flags = []
        for key in CONFIG_KEYS:
            raw = getattr(args, key.name, None)
            if raw is not None:
                setattr(cfg, key.name, key.parse(raw))
                flags.append(key.name)
        cfg.validate()
        reject_unread_keys(cfg.scenario, flags)
        if not cfg.out_dir:
            raise ConfigError("out_dir is required (use --out-dir)")
        _check_out_dir(cfg.out_dir)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        paths = run_scenario(cfg)
    except (
        ScenarioError, IterationDiverged, OptimizationError, NonFiniteSolution, OSError
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
