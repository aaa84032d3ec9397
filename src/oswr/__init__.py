"""Optimized Schwarz waveform relaxation for 1D heterogeneous heat transfer.

Subpackages:

* ``frequency``: convergence-factor model over the analyzed frequency band.
* ``optimize``: analytic transmission-parameter optimizers plus a grid oracle.
* ``fem``: P1 finite elements, backward Euler, monolithic and Robin solves.
* ``schwarz``: the waveform-relaxation driver over a nonoverlapping split.
* ``experiments``: scenario runners writing CSV artifacts.
* ``cli``: the ``oswr`` command-line entry point.
"""

import os
import sys

# oswr makes no BLAS call, yet OpenBLAS starts its thread pool when numpy
# loads it, and the idle workers spin.  OpenBLAS reads its thread count
# only at load time, so numpy is loaded here with one thread unless the
# user chose a count or imported numpy first; the variable is removed
# again, and the user's environment and child processes never see it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# Each module's ``__all__`` is the one list of its public names; the
# package re-exports them all.  The function ``optimize`` replaces its
# module as the package attribute ``oswr.optimize``.
from . import fem, frequency, optimize, schwarz

__all__ = [*frequency.__all__, *optimize.__all__, *fem.__all__, *schwarz.__all__]

from .frequency import *  # noqa: F403
from .optimize import *  # noqa: F403
from .fem import *  # noqa: F403
from .schwarz import *  # noqa: F403

__version__ = "0.1.0"
