"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions named in ``TARGETS`` by
wrappers that record one span per call: name, parent span, start and end
in nanoseconds.  A function is replaced in every ``oswr`` module that holds
it, so ``oswr.schwarz.solve_subdomain_robin`` is traced as well as
``oswr.fem.solve_subdomain_robin``.  Spans stay in memory until ``write``;
``summarize`` turns a written trace into calls, self time and inclusive
time per name.  The self time of a span is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path) of every traced function, by layer.
TARGETS = (
    ("fem", "solve_subdomain_robin"),
    ("fem", "TridiagonalSolver.solve"),
    ("fem", "solve_monolithic"),
    ("fem", "variational_flux"),
    ("fem", "assemble_operators"),
    ("schwarz", "oswr_iterate"),
    ("schwarz", "combined_error"),
    ("optimize", "optimize"),
    ("optimize", "brute_force_minmax"),
    ("frequency", "rho"),
    ("frequency", "max_rho_over_band"),
    ("experiments", "run_scenario"),
    ("cli", "main"),
)


def _oswr_modules():
    # ``oswr.optimize`` as a package attribute is the function of that name,
    # so modules are looked up in sys.modules, never through the package.
    return {name: mod for name, mod in sys.modules.items()
            if name == "oswr" or name.startswith("oswr.")}


class Tracer:
    """Span recorder for one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.wr_iterations = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns
        count_iterations = name == "schwarz.oswr_iterate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count_iterations:
                self.wr_iterations += len(result[0].errors)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists in a loaded module.

        A target the program no longer has is skipped and reads 0 calls.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _oswr_modules()
        for mod_name, path in TARGETS:
            mod = modules.get(f"oswr.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is not None:
                    self._patch(owner, attr, original,
                                self._wrap(f"{mod_name}.{path}", original))
                continue
            original = getattr(mod, path, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            for holder in modules.values():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as an (n, 4) int64 array: name id, parent, start, end."""
        import numpy as np

        rows = np.stack([np.frombuffer(a, dtype=np.int64) for a in
                         (self.name_ids, self.parents, self.starts, self.ends)], axis=1)
        np.save(path, rows)


def summarize(path: str, names: list[str]) -> dict[str, dict]:
    """Calls, self seconds, inclusive seconds and durations for each name."""
    import numpy as np

    rows = np.load(path)
    name_ids, parents = rows[:, 0], rows[:, 1]
    durations = (rows[:, 3] - rows[:, 2]).astype(float) * 1e-9
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=durations[has_parent],
                             minlength=len(rows))
    self_time = durations - child_time
    out = {}
    for name_id, name in enumerate(names):
        mine = name_ids == name_id
        out[name] = {
            "calls": int(mine.sum()),
            "self_s": float(self_time[mine].sum()),
            "inclusive_s": float(durations[mine].sum()),
            "durations": durations[mine],
        }
    return out
