"""Many subdomains: the measured counts, pinned (dt = 1/40, T = 5, tolerance 1e-8).

Under Gauss-Seidel subdomain j's interface rows depend on the first j + 1
state rows, so their kernels grow with the square of the subdomain count;
under Jacobi each depends on its own two rows.  These runs are the
largest splits the suite makes, on both sweeps.  With 32 layers Version III
diverges: it ends as a typed row error, not as a crash.
"""

import csv
import io
import re
from contextlib import redirect_stdout

import pytest

from oswr.cli import main

# 32 layers of width 1/32, at dx = 1/160.
LAYERS_32 = (
    "1e-4,1,1e-4,0.01,0.01,0.1,0.1,0.1,1e-3,1e-3,0.1,1e-4,1e-3,1e-4,1e-3,1e-3,"
    "0.01,1e-4,1e-4,0.01,1e-3,0.1,1e-4,0.01,0.01,1e-3,0.1,1e-4,0.01,0.01,1,0.01"
)


def _custom(tmp_path, layers, n_subdomains, *flags):
    """The custom summary of ``layers`` split into equal subdomains, by version."""
    interfaces = ",".join(repr(k / n_subdomains) for k in range(1, n_subdomains))
    out = tmp_path / "out"
    argv = ["custom", "--nu-layers", layers, "--interfaces", interfaces, *flags]
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--out-dir", str(out)]) == 0
    with open(out / "custom_summary.csv", newline="", encoding="utf-8") as fh:
        return {row["version"]: row for row in csv.DictReader(fh)}


@pytest.mark.parametrize(
    "sweep, counts, diverges_at",
    [("gauss_seidel", ("89", "69"), 11), ("jacobi", ("159", "138"), 24)],
)
def test_32_layers(tmp_path, sweep, counts, diverges_at):
    rows = _custom(tmp_path, LAYERS_32, 32, "--dx", "0.00625", "--sweep", sweep)
    assert (rows["I"]["iterations"], rows["II"]["iterations"]) == counts
    assert rows["I"]["error"] == rows["II"]["error"] == ""
    assert rows["III"]["iterations"] == ""
    assert re.fullmatch(
        rf"error \S+ exceeds 1000000.0 x first-iterate error \S+ at iteration {diverges_at}",
        rows["III"]["error"],
    )


@pytest.mark.parametrize(
    "n_subdomains, counts",
    [(2, ("17", "17", "18")), (4, ("21", "21", "51")), (8, ("63", "63", "170"))],
)
def test_homogeneous_splits(tmp_path, n_subdomains, counts):
    # nu = 1 everywhere at dx = 1/40: Version III degrades as the split refines.
    rows = _custom(tmp_path, ",".join(["1"] * n_subdomains), n_subdomains)
    assert tuple(rows[v]["iterations"] for v in ("I", "II", "III")) == counts
