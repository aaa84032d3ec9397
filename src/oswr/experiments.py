"""Scenario runners and the plain-text experiment configuration.

Configuration files are ``key=value`` lines (one key per line, ``#`` starts
a comment, lists are comma-separated).  Unknown keys are rejected with the
line number; validation errors name the offending key.  Every runner writes
deterministic CSV artifacts (header row, comma-separated, 17 significant
digits for reals, LF endings, UTF-8, no timestamps) into ``out_dir``.

Runners hand their rows, built straight from arrays, to one writer:
``_write_csv`` formats every cell with ``_fmt`` and passes the lines to
``_write_text``, which also writes the plot scripts and the layered field
(``_field_chunks``, one chunk per time level) and is the only code that
reads ``out_dir``.  ``_fmt`` and the field's line templates write reals with
the one spec ``_REAL``.  A scenario never writes a file or a row twice:
versions may not repeat, nor may the ratios of a sweep or of the curves, and
the ratios and grid values of the dt and dx sweeps may not share the
``{:g}`` text of their history file names.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .fem import DiffusionProfile, HeatProblem, Mesh1D, SpaceTimeField, solve_monolithic
from .frequency import DiffusionPair, TransmissionParams, frequency_band_from_grid, rho
from .optimize import (
    VERSIONS,
    OptimizationError,
    optimize,
    optimize_v3,
    restriction_intervals_v3,
    v3_bracket,
    v3_equation_sides,
    v3_residual,
)
from .schwarz import (
    INIT_MODES,
    SWEEP_MODES,
    Decomposition,
    IterationDiverged,
    decompose,
    interface_diffusion_pairs,
    oswr_iterate,
)

__all__ = [
    "ConfigError",
    "ScenarioError",
    "ExperimentConfig",
    "parse_config",
    "run_ratio_sweep",
    "run_dt_sweep",
    "run_dx_sweep",
    "run_rho_curves",
    "run_v3_root_scan",
    "run_tps_three_layer",
    "run_custom",
    "run_scenario",
    "SCENARIOS",
]


class ConfigError(ValueError):
    """Invalid configuration file or option."""


class ScenarioError(RuntimeError):
    """A scenario could not produce its contracted result."""


DEFAULT_RATIOS = {
    "ratio_sweep": (10.0, 100.0, 1000.0, 10000.0),
    "dt_sweep": (10.0, 1000.0),
    "dx_sweep": (10.0, 1000.0),
    "rho_curves": (10.0, 100.0),
}


# The scenarios, in the order error messages list them, and groups of them
# for the keys' ``read_by``.
_SWEEPS = ("ratio_sweep", "dt_sweep", "dx_sweep")
_LAYERED = ("custom", "tps_three_layer")
_WR = _SWEEPS + _LAYERED  # the scenarios that run the waveform relaxation
SCENARIOS = _SWEEPS + ("rho_curves", "v3_root_scan", "tps_three_layer", "custom")

# Beyond this jump (or below its inverse) the sides of the Version III
# equation, of order mu**-4, are not normal doubles: the scan can't resolve them.
_V3_MU_MAX = sys.float_info.min ** -0.25

# rho**2 is a product of two factors of order wt**2 over two more: with the
# band inside [1/_WT_MAX, _WT_MAX] both products stay normal doubles, with
# room (2**22) for the factors' constants.
_WT_MAX = 2.0 ** 250

# A key's own rule, named by the words its error message uses.
_RULES = {
    "positive": lambda v: isinstance(v, (int, float)) and math.isfinite(v) and v > 0,
    "finite": math.isfinite,
    ">= 1": lambda v: v >= 1,
}


class ConfigKey(NamedTuple):
    """One configuration key, as its ``ExperimentConfig`` field declares it.

    ``name`` is the field's name; the flag is ``--`` + name with ``-`` for
    ``_``.  ``kind`` is ``float``, ``int``, ``str``, ``floats`` or
    ``strs``; the last two are comma-separated lists, and an empty one is
    ``()``.  ``read_by`` names the scenarios whose results depend on the
    key; set explicitly for any other scenario, it is a configuration
    error.  ``rule`` (positive, finite or >= 1) must hold for the value or
    for each entry of a list, ``nonempty`` forbids an empty list, and
    ``choices`` are the allowed values of a ``str`` or of each entry of a
    ``strs``.
    """

    name: str
    kind: str
    help: str
    read_by: tuple[str, ...]
    rule: str | None = None
    nonempty: bool = False
    choices: tuple[str, ...] | None = None

    def parse(self, raw: str):
        """The value of ``raw`` for this key; ConfigError if it has the wrong kind."""
        if self.kind == "str":
            return raw
        if self.kind == "int":
            try:
                return int(raw)
            except ValueError:
                raise ConfigError(f"{self.name} expects an integer, got {raw!r}") from None
        if self.kind == "float":
            return self._number(raw)
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if self.kind == "strs":
            return tuple(items)
        return tuple(self._number(s) for s in items)

    def _number(self, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.name} expects a number, got {raw!r}") from None

    def check(self, value) -> None:
        """ConfigError unless ``value`` keeps this key's own rule and choices."""
        if value is None:  # out_dir unset, or ratios left to the scenario
            return
        if self.kind == "strs":
            if not value or len(set(value)) < len(value) or not set(value) <= set(self.choices):
                raise ConfigError(
                    f"{self.name} must be a nonempty subset of {','.join(self.choices)}, "
                    f"got {value!r}"
                )
            return
        items = value if self.kind == "floats" else (value,)
        if self.nonempty and not items:
            raise ConfigError(f"{self.name} must not be empty")
        for v in items:
            if self.choices is not None and v not in self.choices:
                *most, last = self.choices
                raise ConfigError(f"{self.name} must be {', '.join(most)} or {last}, got {v!r}")
            if self.rule is not None and not _RULES[self.rule](v):
                raise ConfigError(f"{self.name} must be {self.rule}, got {v!r}")


def _key(default, kind, help, read_by, rule=None, *, nonempty=False, choices=None):
    """An ``ExperimentConfig`` field declaring its configuration key; the field names it."""
    key = ConfigKey("", kind, help, read_by, rule, nonempty, choices)
    return field(default=default, metadata={"key": key})


@dataclass
class ExperimentConfig:
    """Validated settings for one scenario run; each field is a configuration key.

    A field is the one declaration of its key: the field's name and default
    are the key's, and its metadata holds the rest of the ``ConfigKey``.
    The config-file parser, the command-line flags (``scenario`` is
    file-only), their ``--help`` listing and ``validate`` all read the keys
    through ``CONFIG_KEYS``, in field order.

    ``ratios`` left as None picks the scenario's default list.  For the
    layered scenarios (``tps_three_layer``, ``custom``) the diffusion field
    is given by ``nu_layers`` split at ``interfaces``; the two-domain sweeps
    use ``nu1`` on the left and ``nu1/ratio`` on the right of the single
    interface.
    """

    scenario: str = _key(
        "ratio_sweep", "str", "scenario to run (config files only)", SCENARIOS, choices=SCENARIOS
    )
    out_dir: str | None = _key(
        None, "str", "directory for CSV artifacts (required to write)", SCENARIOS
    )
    T: float = _key(5.0, "float", "final time", SCENARIOS, "positive")
    dx: float = _key(
        1.0 / 40.0, "float", "mesh size", ("ratio_sweep", "dt_sweep") + _LAYERED, "positive"
    )
    dt: float = _key(
        1.0 / 40.0, "float", "time step",
        ("ratio_sweep", "dx_sweep") + _LAYERED + ("rho_curves", "v3_root_scan"), "positive",
    )
    dts: tuple[float, ...] = _key(
        (1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0), "floats",
        "comma-separated time-step list", ("dt_sweep",), "positive", nonempty=True,
    )
    dxs: tuple[float, ...] = _key(
        (1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0), "floats",
        "comma-separated mesh-size list", ("dx_sweep",), "positive", nonempty=True,
    )
    ratios: tuple[float, ...] | None = _key(
        None, "floats", "comma-separated diffusion-ratio list", _SWEEPS + ("rho_curves",),
        "positive", nonempty=True,
    )
    versions: tuple[str, ...] = _key(
        VERSIONS, "strs", f"comma-separated subset of {','.join(VERSIONS)}",
        _WR + ("rho_curves",), choices=VERSIONS,
    )
    nu1: float = _key(
        1.0, "float", "left diffusion coefficient", _SWEEPS + ("rho_curves",), "positive"
    )
    nu_layers: tuple[float, ...] = _key(
        (), "floats", "comma-separated layer coefficients", _LAYERED, "positive"
    )
    interfaces: tuple[float, ...] = _key(
        (0.5,), "floats", "comma-separated interface coordinates", _WR, nonempty=True
    )
    u0: float = _key(20.0, "float", "constant initial value", _WR, "finite")
    g_left: float = _key(0.0, "float", "left Dirichlet value", _WR, "finite")
    g_right: float = _key(0.0, "float", "right Dirichlet value", _WR, "finite")
    tolerance: float = _key(1e-8, "float", "iteration tolerance", _WR, "positive")
    max_iter: int = _key(1000, "int", "iteration cap", _WR, ">= 1")
    init: str = _key("zero", "str", "first transmission data", _WR, choices=INIT_MODES)
    sweep: str = _key("gauss_seidel", "str", "update order", _WR, choices=SWEEP_MODES)
    rho_points: int = _key(512, "int", "curve resolution", ("rho_curves",))
    scan_points: int = _key(1000, "int", "root-scan resolution", ("v3_root_scan",))
    mu: float = _key(
        math.sqrt(10.0), "float", "diffusion jump sqrt(nu1/nu2) for the root scan",
        ("v3_root_scan",), "positive",
    )

    def validate(self) -> None:
        """ConfigError unless every key keeps its own rule and the keys agree.

        A configuration none of whose grids fits is an error; a grid that
        fails among grids that fit is an error on its own rows only.
        """
        for key in CONFIG_KEYS:
            key.check(getattr(self, key.name))
        if list(self.interfaces) != sorted(set(self.interfaces)):
            raise ConfigError("interfaces must be strictly increasing")
        for v in self.interfaces:
            if not (0.0 < v < 1.0):
                raise ConfigError(f"interfaces must lie inside (0, 1), got {v}")
        if self.scenario == "rho_curves" and self.rho_points < 500:
            raise ConfigError("rho_points must be >= 500 for rho_curves")
        if self.scenario == "v3_root_scan" and self.scan_points < 500:
            raise ConfigError("scan_points must be >= 500 for v3_root_scan")
        if self.scenario in _LAYERED and len(self.nu_layers) != len(self.interfaces) + 1:
            raise ConfigError("nu_layers must have exactly one more entry than interfaces")
        if self.scenario in _SWEEPS and len(self.interfaces) != 1:
            raise ConfigError(
                f"the two-domain sweeps need exactly one interface, got {len(self.interfaces)}"
            )
        if self.scenario in _SWEEPS + ("rho_curves",):
            for nu2 in [self.nu1 / ratio for ratio in self.effective_ratios()]:
                if not _RULES["positive"](nu2):
                    raise ConfigError(f"nu1/ratio must be positive and finite, got {nu2!r}")
        if self.scenario in ("ratio_sweep", "rho_curves"):
            ratios = self.effective_ratios()
            if len(set(ratios)) < len(ratios):
                raise ConfigError(f"ratios must not repeat, got {ratios!r}")
        if self.scenario in ("dt_sweep", "dx_sweep"):
            kind = self.scenario[:2]
            for key, tag in (("ratios", "ratio"), (kind + "s", kind)):
                values = self.effective_ratios() if tag == "ratio" else getattr(self, key)
                names = [f"{tag}{v:g}" for v in values]  # as history file names spell them
                for i, name in enumerate(names):
                    first = names.index(name)
                    if first < i:
                        raise ConfigError(
                            f"{key} {values[first]!r} and {values[i]!r} give the same "
                            f"history file name {name}"
                        )
        if self.scenario in ("rho_curves", "v3_root_scan"):
            _check_band(self.T, self.dt)
        if self.scenario == "v3_root_scan" and not 1.0 / _V3_MU_MAX <= self.mu <= _V3_MU_MAX:
            raise ConfigError(
                f"mu must lie within [{1.0 / _V3_MU_MAX:.3g}, {_V3_MU_MAX:.3g}], got {self.mu!r}"
            )
        if self.scenario == "v3_root_scan":
            _check_root_scan_band(self)
        if self.scenario in _WR:
            errors = []
            for dx, dt in self._grids():
                try:
                    _fit_grid(self, dx, dt)
                except ConfigError as exc:
                    errors.append(exc)
            if len(errors) == len(self._grids()):
                raise errors[0]

    def _grids(self) -> list[tuple[float, float]]:
        """(dx, dt) of every grid the scenario runs, in order."""
        if self.scenario == "dt_sweep":
            return [(self.dx, dt) for dt in self.dts]
        if self.scenario == "dx_sweep":
            return [(dx, self.dt) for dx in self.dxs]
        return [(self.dx, self.dt)]

    def effective_ratios(self) -> tuple[float, ...]:
        if self.ratios is not None:
            return self.ratios
        return DEFAULT_RATIOS.get(self.scenario, (10.0,))


# Every configuration key, in the order ``--help`` lists them.
CONFIG_KEYS = tuple(f.metadata["key"]._replace(name=f.name) for f in fields(ExperimentConfig))
_KEYS_BY_NAME = {key.name: key for key in CONFIG_KEYS}


def reject_unread_keys(scenario: str, names) -> None:
    """ConfigError naming every key in ``names`` that ``scenario`` does not read."""
    unread = [name for name in names if scenario not in _KEYS_BY_NAME[name].read_by]
    if unread:
        raise ConfigError(f"scenario {scenario} does not read {', '.join(unread)}")


def parse_config(path: str) -> ExperimentConfig:
    """Parse a key=value configuration file and validate it."""
    cfg = ExperimentConfig()
    names = {}  # the keys set in the file, in order
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected key=value, got {text!r}")
            name, raw = (part.strip() for part in text.split("=", 1))
            key = _KEYS_BY_NAME.get(name)
            if key is None:
                raise ConfigError(f"line {lineno}: unknown key {name!r}")
            try:
                setattr(cfg, key.name, key.parse(raw))
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            names[name] = None
    try:
        cfg.validate()
        reject_unread_keys(cfg.scenario, names)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


_REAL = "%.17g"  # how a real is written, in a cell and in a field line template


def _fmt(value) -> str:
    if isinstance(value, float):
        return _REAL % value
    if value is None:
        return ""
    return str(value)


def _write_text(cfg: ExperimentConfig, name: str, chunks) -> str:
    """Write the strings of ``chunks`` to ``name`` in ``out_dir``; returns the path."""
    if not cfg.out_dir:
        raise ConfigError("out_dir is required to write results")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
    return path


def _write_csv(cfg: ExperimentConfig, name: str, header, rows) -> str:
    """Write ``header`` and then ``rows``, one line each, cells through ``_fmt``."""
    lines = (",".join(map(_fmt, row)) + "\n" for row in itertools.chain([header], rows))
    return _write_text(cfg, name, lines)


def _field_chunks(x: np.ndarray, t: np.ndarray, u: np.ndarray) -> Iterator[str]:
    """The ``x,t,u`` lines of ``u[k, i]`` at (x[i], t[k]), one chunk per time level.

    The text of ``_write_csv``'s rows (x, t, u) in time-major order: each x
    is formatted once, and a level is one line template, its t written in,
    filled with the level's values by one ``%``.
    """
    xs = [_fmt(v) for v in x.tolist()]
    for time, level in zip(t.tolist(), u):
        line = f",{_fmt(time)},{_REAL}\n"
        yield (line.join(xs) + line) % tuple(level.tolist())


def _check_band(T: float, dt: float) -> None:
    """ConfigError unless the band of (T, dt) exists and lies inside [1/_WT_MAX, _WT_MAX]."""
    try:
        band = frequency_band_from_grid(T, dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 1.0 / _WT_MAX <= band.wt1 <= band.wt2 <= _WT_MAX:
        raise ConfigError(
            f"T={T!r} and dt={dt!r} give the frequency band [{band.wt1:.3g}, {band.wt2:.3g}], "
            f"outside [{1.0 / _WT_MAX:.3g}, {_WT_MAX:.3g}] where rho stays finite"
        )


def _check_root_scan_band(cfg: ExperimentConfig) -> None:
    """ConfigError when the root scan's bracket holds no root it can see.

    The scan runs over ``v3_bracket``, whose left end is V3_BRACKET_SHRINK
    of the bracket above the lower end p_lo of the p range.  Two bands
    defeat it:

    - from a band ratio of about 1e20 on the root lies between p_lo and
      the scan's first point (the residual is negative at p_lo and
      positive at the first point), so the scan sees no sign change
      however many points it takes;
    - below a band ratio of about 4.2 the residual is positive at both
      ends of the bracket and the scalar equation has no root
      (``optimize_v3`` minimizes the endpoint level instead).
    """
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    mu = max(cfg.mu, 1.0 / cfg.mu)
    (p_lo, _), _ = restriction_intervals_v3(band, mu)
    start, end = v3_bracket(band, mu)
    k = math.frexp(mu)[1]
    if not v3_residual(start, band, mu, k) > 0.0:
        return
    grid = f"T={cfg.T!r} and dt={cfg.dt!r} give the band ratio k_r={band.k_r:.3g}"
    if v3_residual(p_lo, band, mu, k) < 0.0:
        raise ConfigError(
            f"resolution limit of the root scan: {grid}, which puts the root below the "
            f"scan's first point p={start:.3g}"
        )
    if v3_residual(end, band, mu, k) > 0.0:
        raise ConfigError(
            f"band too narrow for the root scan: {grid}, for which the scalar equation "
            f"has no root (its residual is positive at both ends of the bracket)"
        )


def _fit_grid(cfg: ExperimentConfig, dx: float, dt: float) -> tuple[Mesh1D, Decomposition]:
    """Mesh and split of a grid; ConfigError unless it fits T, (0, 1) and the interfaces.

    The grid's frequency band must also keep rho finite (``_check_band``).
    """
    n_steps = round(cfg.T / dt)
    if n_steps < 1 or abs(n_steps * dt - cfg.T) > 1e-9 * cfg.T:
        raise ConfigError(f"dt={dt} does not divide T={cfg.T}")
    _check_band(cfg.T, dt)
    n_elements = round(1.0 / dx)
    if n_elements < 2 or abs(n_elements * dx - 1.0) > 1e-9:
        raise ConfigError(f"dx={dx} does not divide the unit domain")
    mesh = Mesh1D.uniform(0.0, 1.0, n_elements)
    try:
        return mesh, decompose(mesh, cfg.interfaces)
    except ValueError as exc:
        raise ConfigError(f"dx={dx} does not fit the interfaces: {exc}") from None


@dataclass(frozen=True)
class _Case:
    """One version's waveform-relaxation run on one (geometry, grid).

    ``params`` are the first interface's, ``rho_star`` the largest over
    the interfaces.  ``iterations`` is set exactly when the run converged;
    ``error`` says why a case did not.  ``merge`` forms the run's merged
    field on request (``oswr_iterate``); it is None when no iteration
    finished.
    """

    version: str
    params: TransmissionParams | None = None
    rho_star: float | None = None
    errors: tuple[float, ...] = ()
    iterations: int | None = None
    error: str = ""
    merge: Callable[[], SpaceTimeField] | None = None

    @property
    def final_error(self) -> float | None:
        return self.errors[-1] if self.errors else None


def _cases(
    cfg: ExperimentConfig, layers: tuple[float, ...], dx: float, dt: float
) -> Iterator[_Case]:
    """One case per configured version on one (geometry, grid), in order.

    The monolithic reference is solved once and shared by the versions;
    it lives only while the cases are generated.  A grid that does not fit
    gives every version its ``ConfigError`` text; a case that diverges or
    defeats the optimizer gives its own.  Any other exception is a bug and
    propagates.
    """
    try:
        mesh, deco = _fit_grid(cfg, dx, dt)
    except ConfigError as exc:
        for version in cfg.versions:
            yield _Case(version, error=str(exc))
        return
    diffusion = DiffusionProfile(layers, cfg.interfaces)
    problem = HeatProblem(diffusion, None, cfg.u0, cfg.g_left, cfg.g_right, cfg.T, dt)
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(cfg.T, problem.time_step)
    pairs = interface_diffusion_pairs(problem, deco)
    for version in cfg.versions:
        params = rho_star = None
        try:
            results = [optimize(version, band, pair) for pair in pairs]
            params, rho_star = results[0].params, max(r.rho_star for r in results)
            history, merge = oswr_iterate(
                problem,
                deco,
                [r.params for r in results],
                tol=cfg.tolerance,
                max_iter=cfg.max_iter,
                init=cfg.init,
                sweep=cfg.sweep,
                reference=reference,
            )
        except (IterationDiverged, OptimizationError) as exc:
            yield _Case(version, params, rho_star, error=str(exc))
            continue
        iterations = history.iterations_to_tolerance
        error = "" if history.converged else f"did not converge within {cfg.max_iter} iterations"
        yield _Case(version, params, rho_star, history.errors, iterations, error, merge)
        del merge  # how long a case's spectra live is the caller's choice


def run_ratio_sweep(cfg: ExperimentConfig) -> list[str]:
    """Iteration counts over the diffusion-ratio list at fixed grid."""
    header = [
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
    rows = []
    for ratio in cfg.effective_ratios():
        for case in _cases(cfg, (cfg.nu1, cfg.nu1 / ratio), cfg.dx, cfg.dt):
            p = case.params
            coefficients = (p.p, p.q, p.sigma1, p.sigma2) if p else (None,) * 4
            rows.append(
                [ratio, case.version, *coefficients, case.rho_star, case.iterations,
                 case.final_error, case.error]
            )
    return [_write_csv(cfg, "ratio_sweep.csv", header, rows)]


def _run_grid_sweep(cfg: ExperimentConfig, kind: str) -> list[str]:
    header = ["ratio", "version", kind, "iterations", "rho_star", "error"]
    values = cfg.dts if kind == "dt" else cfg.dxs
    rows = []
    paths = []
    for ratio in cfg.effective_ratios():
        layers = (cfg.nu1, cfg.nu1 / ratio)
        # Solved grid by grid, so each reference serves every version, and
        # written version by version: by_value[i][v] is (row, history path).
        by_value = []
        for value, (dx, dt) in zip(values, cfg._grids()):
            per_version = []
            for case in _cases(cfg, layers, dx, dt):
                row = [ratio, case.version, value, case.iterations, case.rho_star, case.error]
                name = f"{kind}_sweep_history_ratio{ratio:g}_v{case.version}_{kind}{value:g}.csv"
                path = _write_csv(cfg, name, ["iteration", "error"], enumerate(case.errors, 1))
                per_version.append((row, path))
            by_value.append(per_version)
        for per_value in zip(*by_value):
            for row, path in per_value:
                rows.append(row)
                paths.append(path)
    paths.insert(0, _write_csv(cfg, f"{kind}_sweep.csv", header, rows))
    return paths


def run_dt_sweep(cfg: ExperimentConfig) -> list[str]:
    """Iteration counts across the time-step list, plus error histories."""
    return _run_grid_sweep(cfg, "dt")


def run_dx_sweep(cfg: ExperimentConfig) -> list[str]:
    """Iteration counts across the mesh-size list, plus error histories."""
    return _run_grid_sweep(cfg, "dx")


_RHO_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the convergence-factor curves written by the rho_curves scenario.\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(lambda: ([], []))
with open("rho_curves.csv", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        key = (float(row["ratio"]), row["version"])
        curves[key][0].append(float(row["wt"]))
        curves[key][1].append(float(row["rho"]))

ratios = sorted({k[0] for k in curves})
fig, axes = plt.subplots(1, len(ratios), figsize=(6 * len(ratios), 4.5), squeeze=False)
for ax, ratio in zip(axes[0], ratios):
    for version in ("I", "II", "III"):
        if (ratio, version) in curves:
            wt, r = curves[(ratio, version)]
            ax.semilogx(wt, r, label=f"Version {version}")
    ax.set_xlabel("transformed frequency")
    ax.set_ylabel("convergence factor")
    ax.set_title(f"diffusion ratio {ratio:g}")
    ax.legend()
fig.tight_layout()
fig.savefig("rho_curves.png", dpi=150)
print("wrote rho_curves.png")
"""


def run_rho_curves(cfg: ExperimentConfig) -> list[str]:
    """Convergence-factor curves over the band for the optimized parameters."""
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    grid = band.geometric_grid(cfg.rho_points)
    header = ["ratio", "version", "wt", "rho"]
    rows = []
    for ratio in cfg.effective_ratios():
        pair = DiffusionPair(cfg.nu1, cfg.nu1 / ratio)
        for version in cfg.versions:
            params = optimize(version, band, pair).params
            values = rho(grid, params, pair)
            rows += ((ratio, version, w, r) for w, r in zip(grid.tolist(), values.tolist()))
    return [
        _write_csv(cfg, "rho_curves.csv", header, rows),
        _write_text(cfg, "plot_rho_curves.py", [_RHO_PLOT_SCRIPT]),
    ]


def run_v3_root_scan(cfg: ExperimentConfig) -> list[str]:
    """Scan of the two-parameter scalar equation over its bracket.

    Writes the pointwise left/right sides and residual, plus a one-row
    summary with the sign-change count and the root located by bisection.
    A jump mu < 1 is scanned as 1/mu, the orientation both the bracket and
    the bisection work in.  Raises ScenarioError unless exactly one sign
    change is found.
    """
    band = frequency_band_from_grid(cfg.T, cfg.dt)
    mu = max(cfg.mu, 1.0 / cfg.mu)
    ps = np.linspace(*v3_bracket(band, mu), cfg.scan_points)
    lhs, rhs = v3_equation_sides(ps, band, mu)
    residual = lhs - rhs
    sign = np.sign(residual)
    changes = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    scan_root = 0.5 * (ps[changes[0]] + ps[changes[0] + 1]) if changes.size else None

    result = optimize_v3(band, DiffusionPair(mu * mu, 1.0))
    rows = zip(ps.tolist(), lhs.tolist(), rhs.tolist(), residual.tolist())
    summary = [(changes.size, scan_root, result.params.p, ps[1] - ps[0])]
    paths = [
        _write_csv(cfg, "v3_root_scan.csv", ["p", "lhs", "rhs", "residual"], rows),
        _write_csv(
            cfg,
            "v3_root_scan_summary.csv",
            ["sign_changes", "scan_root", "bisection_root", "grid_spacing"],
            summary,
        ),
    ]
    if changes.size != 1:
        raise ScenarioError(
            f"expected exactly one sign change in the bracket, found {changes.size}"
        )
    return paths


_FIELD_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the space-time field written by the layered scenario.\"\"\"
import csv

import matplotlib.pyplot as plt
import numpy as np

xs, ts, us = [], [], []
with open("{name}", encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        xs.append(float(row["x"]))
        ts.append(float(row["t"]))
        us.append(float(row["u"]))
x = np.unique(xs)
t = np.unique(ts)
u = np.array(us).reshape(t.size, x.size)

fig, ax = plt.subplots(figsize=(7, 4.5))
mesh = ax.pcolormesh(x, t, u, shading="auto")
fig.colorbar(mesh, ax=ax, label="temperature")
ax.set_xlabel("x")
ax.set_ylabel("t")
fig.tight_layout()
fig.savefig("{png}", dpi=150)
print("wrote {png}")
"""


def _run_layered_scenario(cfg: ExperimentConfig, prefix: str) -> list[str]:
    summary_rows = []
    paths = []
    written = None  # the case whose field is written: III if converged, else the first converged
    for case in _cases(cfg, cfg.nu_layers, cfg.dx, cfg.dt):
        summary_rows.append([case.version, case.iterations, case.final_error, case.error])
        name = f"{prefix}_history_v{case.version}.csv"
        paths.append(_write_csv(cfg, name, ["iteration", "error"], enumerate(case.errors, 1)))
        if case.iterations is not None and (written is None or case.version == "III"):
            written = case
        del case  # only the written case's spectra outlive its turn
    header = ["version", "iterations", "final_error", "error"]
    paths.insert(0, _write_csv(cfg, f"{prefix}_summary.csv", header, summary_rows))
    if written is None:
        raise ScenarioError("no version converged; no field to write")
    merged = written.merge()
    field_name = f"{prefix}_field.csv"
    lines = _field_chunks(merged.mesh.nodes, merged.times, merged.values)
    script = _FIELD_PLOT_SCRIPT.format(name=field_name, png=f"{prefix}_field.png")
    return [
        *paths,
        _write_text(cfg, field_name, itertools.chain(["x,t,u\n"], lines)),
        _write_text(cfg, f"plot_{prefix}_field.py", [script]),
    ]


def run_tps_three_layer(cfg: ExperimentConfig) -> list[str]:
    """Three-layer protection-stack scenario with asymmetric subdomains."""
    return _run_layered_scenario(cfg, "tps")


def run_custom(cfg: ExperimentConfig) -> list[str]:
    """Layered scenario fully driven by the configuration keys."""
    return _run_layered_scenario(cfg, "custom")


def tps_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """The protection-stack presets: three layers, hot right boundary."""
    return replace(
        cfg,
        scenario="tps_three_layer",
        dx=1.0 / 100.0,
        dt=1.0 / 40.0,
        T=5.0,
        nu_layers=(1.0, 1e-2, 1e-3),
        interfaces=(0.2, 0.4),
        g_left=0.0,
        g_right=50.0,
    )


_RUNNERS = {
    "ratio_sweep": run_ratio_sweep,
    "dt_sweep": run_dt_sweep,
    "dx_sweep": run_dx_sweep,
    "rho_curves": run_rho_curves,
    "v3_root_scan": run_v3_root_scan,
    "tps_three_layer": run_tps_three_layer,
    "custom": run_custom,
}


def run_scenario(cfg: ExperimentConfig) -> list[str]:
    """Validate the configuration and run its scenario; returns written paths."""
    cfg.validate()
    return _RUNNERS[cfg.scenario](cfg)
