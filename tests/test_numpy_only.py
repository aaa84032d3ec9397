"""The package stays numpy-only and calls no BLAS or LAPACK routine.

Dense products through BLAS run on its thread pool: a 101x101 propagator
loop took 134 ms with default OpenBLAS threading against 2 ms on one
thread, and the first LAPACK call maps pages that show in the peak RSS.
Plain ``np.einsum`` runs in numpy's own loops, so it is the one dense
product allowed; ``optimize=`` would hand it to BLAS again.

The pool itself starts when numpy loads OpenBLAS, even if no BLAS call is
ever made, and its idle workers spin for a while.  So the package
``__init__`` loads numpy with ``OPENBLAS_NUM_THREADS=1`` when nothing
chose otherwise, and removes the variable again; the last tests below
check that guard in fresh interpreters.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oswr

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "oswr").glob("*.py"))
BLAS_ATTRIBUTES = {"linalg", "dot", "vdot", "matmul", "inner", "tensordot"}


def blas_uses(tree: ast.AST) -> list[str]:
    """Each construct of ``tree`` that may reach BLAS or LAPACK, with its line."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
            found.append(f"{line}: .{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and any(kw.arg == "optimize" for kw in node.keywords)
        ):
            found.append(f"{line}: einsum(optimize=...)")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            for alias in node.names:
                parts = (prefix + alias.name).split(".")
                if parts[0] == "scipy" or BLAS_ATTRIBUTES.intersection(parts):
                    found.append(f"{line}: import {prefix}{alias.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_calls_no_blas(path):
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"fem.py", "schwarz.py", "optimize.py"}


@pytest.mark.parametrize(
    "code",
    [
        "power = power @ power",
        "power @= power",
        "x = np.linalg.solve(a, b)",
        "from numpy.linalg import eigh",
        "x = a.dot(b)",
        "x = np.vdot(a, b)",
        "x = np.matmul(a, b)",
        "x = np.inner(a, b)",
        "x = np.tensordot(a, b, 1)",
        "x = np.einsum('ij,jk->ik', a, b, optimize=True)",
        "import scipy.linalg",
        "from scipy import sparse",
        "from numpy import dot",
    ],
)
def test_each_blas_construct_is_caught(code):
    assert len(blas_uses(ast.parse(code))) == 1, code


def test_plain_einsum_is_allowed():
    assert blas_uses(ast.parse("x = np.einsum('ij,jk->ik', a, b)")) == []


def run_fresh(code: str, **env: str) -> None:
    """Run ``code`` in a fresh interpreter that finds this ``oswr``, with no
    BLAS thread variable but those in ``env``; fail if ``code`` does."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(oswr.__file__).parent.parent), child_env.get("PYTHONPATH"))))
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_thread():
    run_fresh("import oswr, os; n = len(os.listdir('/proc/self/task')); assert n == 1, n")


def test_import_leaves_no_thread_variable():
    run_fresh("import oswr, os; assert 'OPENBLAS_NUM_THREADS' not in os.environ")


def test_user_thread_count_is_kept():
    run_fresh("import oswr, os; v = os.environ['OPENBLAS_NUM_THREADS']; assert v == '3', v",
              OPENBLAS_NUM_THREADS="3")


def test_numpy_imported_first_leaves_environment_untouched():
    run_fresh("import os; before = dict(os.environ); import numpy; import oswr; "
              "assert dict(os.environ) == before")
