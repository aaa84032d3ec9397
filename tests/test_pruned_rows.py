"""The iteration inverse-transforms only the rows that can hold the error.

``oswr_iterate`` evaluates every interface row of a subdomain's deviation,
and every other row only when its bound B_i (``_SubdomainResponse.bound``)
reaches the largest deviation found so far.  These tests pin what that
rests on and what it must keep:

- B_i bounds every level of row i;
- numpy's ``irfft`` of a subset of rows equals those rows of the full
  batch, bit for bit, so the interface values and the error do not depend
  on which rows are evaluated;
- errors, counts and every artifact equal the unpruned evaluation, in
  which each application transforms the whole field, bit for bit.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

import oswr.schwarz as schwarz
from oswr.cli import main
from oswr.fem import DiffusionProfile, HeatProblem, Mesh1D, solve_monolithic
from oswr.frequency import frequency_band_from_grid
from oswr.optimize import optimize
from oswr.schwarz import decompose, interface_diffusion_pairs, oswr_iterate


def _unpruned(monkeypatch):
    """Make every application transform the whole field and keep every row."""
    rows = schwarz._SubdomainResponse.rows

    def whole_field(self, g_hat, nodes=slice(None)):
        return rows(self, g_hat)[nodes]

    def no_bound(self, g_hat):
        return np.full(self.spectra.shape[1], np.inf)

    monkeypatch.setattr(schwarz._SubdomainResponse, "rows", whole_field)
    monkeypatch.setattr(schwarz._SubdomainResponse, "bound", no_bound)


@pytest.mark.parametrize("n_steps", [1, 2, 7, 100, 200, 800])
@pytest.mark.parametrize("n_rows", [1, 2, 3, 21, 61, 161])
def test_irfft_of_a_row_subset_is_those_rows_of_the_full_batch(rng, n_rows, n_steps):
    spectrum = rng.normal(size=(n_rows, n_steps + 1)) + 1j * rng.normal(size=(n_rows, n_steps + 1))
    full = np.fft.irfft(spectrum, 2 * n_steps)
    last = n_rows - 1
    drawn = np.flatnonzero(rng.random(n_rows) < 0.3)
    for rows in ([0], [last], sorted({0, last}), drawn, np.arange(1, last)):
        rows = np.asarray(rows, dtype=int)
        assert np.array_equal(np.fft.irfft(spectrum[rows], 2 * n_steps), full[rows])


@pytest.mark.parametrize("sides", [("right",), ("left",), ("left", "right")])
def test_bound_covers_every_level_of_its_row(rng, sides):
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.05), (0.375,)), None, 0.0, 0.0, 0.0, 2.0, 1.0 / 32.0
    )
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    response = schwarz._SubdomainResponse(problem, mesh, {side: 1.5 for side in sides})
    for scale in (1e-200, 1.0, 1e200):
        g_hat = response.transform(scale * rng.normal(size=(len(sides), problem.n_steps)))
        deviation = response.rows(g_hat)
        bound = response.bound(g_hat)
        assert np.all(np.abs(deviation).max(axis=1) <= bound)
        # Not vacuous: the bound of the largest row is within a factor 100.
        assert bound.max() <= 100.0 * np.abs(deviation).max()


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio-sweep"],
        ["dt-sweep"],
        ["tps"],
        ["ratio-sweep", "--sweep", "jacobi", "--init", "from_initial", "--ratios", "10,1e4"],
    ],
    ids=["table1", "dt-sweep", "tps", "jacobi-from-initial"],
)
def test_artifacts_equal_the_unpruned_evaluation(tmp_path, monkeypatch, argv):
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--out-dir", str(tmp_path / "pruned")]) == 0
        _unpruned(monkeypatch)
        assert main([*argv, "--out-dir", str(tmp_path / "whole")]) == 0
    names = sorted(p.name for p in (tmp_path / "pruned").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "whole").iterdir())
    for name in names:
        pruned = (tmp_path / "pruned" / name).read_bytes()
        assert pruned == (tmp_path / "whole" / name).read_bytes(), name


def _drawn_case(rng):
    """A layered problem, split and parameters drawn from ``rng``."""
    n_layers = int(rng.integers(2, 5))
    layers = tuple(float(v) for v in np.cumprod(10.0 ** rng.uniform(-3.0, 0.0, n_layers)))
    interfaces = tuple(float(x) for x in np.arange(1, n_layers) / n_layers)
    n_elements = n_layers * int(rng.choice([5, 10, 20]))
    dt = float(rng.choice([1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0]))
    problem = HeatProblem(
        DiffusionProfile(layers, interfaces), None, float(rng.uniform(1.0, 30.0)),
        float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)), 2.0, dt,
        bool(rng.integers(2)),
    )
    mesh = Mesh1D.uniform(0.0, 1.0, n_elements)
    deco = decompose(mesh, interfaces)
    band = frequency_band_from_grid(2.0, dt)
    version = str(rng.choice(["I", "II", "III"]))
    params = [
        optimize(version, band, pair).params for pair in interface_diffusion_pairs(problem, deco)
    ]
    options = {
        "init": str(rng.choice(schwarz.INIT_MODES)),
        "sweep": str(rng.choice(schwarz.SWEEP_MODES)),
    }
    return problem, deco, params, solve_monolithic(problem, mesh), options


def test_drawn_cases_equal_the_unpruned_evaluation(rng, monkeypatch):
    cases = [_drawn_case(rng) for _ in range(6)]
    pruned = []
    for problem, deco, params, reference, options in cases:
        history, merge = oswr_iterate(
            problem, deco, params, max_iter=60, reference=reference, **options
        )
        pruned.append((history, merge()))
    _unpruned(monkeypatch)
    for (problem, deco, params, reference, options), (history, field) in zip(cases, pruned):
        whole_history, whole_merge = oswr_iterate(
            problem, deco, params, max_iter=60, reference=reference, **options
        )
        assert history.errors == whole_history.errors
        assert np.array_equal(field.values, whole_merge().values)
