"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR RESULT_JSON TRACE

Run with ``src`` on PYTHONPATH.  Set-up time runs from the start of this
script to the point where ``oswr`` is imported and the workload can start.
Wall and CPU time run from there to the last output written.  CPU time is
the process's, over all threads, so BLAS threads that spin show in it.
With TRACE=1 the public functions of every layer are wrapped (see
spans.py) and the spans are written next to RESULT_JSON.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv) -> int:
    workload, seed, out_dir, result_path, trace = argv
    seed, trace = int(seed), trace == "1"
    if workload == "certify":
        import oswr  # noqa: F401
    else:
        import oswr.cli
    ready = time.perf_counter()

    import workloads  # the benchmark's own module, found next to this script

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    certify_ops = None
    if workload == "certify":
        certify_ops = workloads.run_certify(seed)
        exit_code = 0
    else:
        exit_code = oswr.cli.main(workloads.cli_argv(workload, seed, out_dir))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    result = {
        "setup_s": ready - _START,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": exit_code,
        "certify_ops": certify_ops,
        "oswr_file": sys.modules["oswr"].__file__,
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        spans_path = result_path + ".spans.npy"
        tracer.write(spans_path)
        result.update(spans=spans_path, span_names=tracer.names,
                      wr_iterations=tracer.wr_iterations)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
