"""The README's "Library use" example runs as written."""

from pathlib import Path

import numpy as np

from oswr import solve_monolithic

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("\n```", start)]


def test_library_use_example_reproduces_table1_and_the_monolithic_solution():
    # Table 1, ratio 100, Version III: 8 iterations.  The example leaves
    # oswr_iterate to solve its own reference (reference=None).
    scope = {}
    exec(compile(_library_use_block(), str(README), "exec"), scope)
    history, field = scope["history"], scope["field"]
    assert history.iterations_to_tolerance == 8
    assert history.errors[-1] <= 1e-8
    reference = solve_monolithic(scope["problem"], scope["mesh"])
    assert np.abs(field.values - reference.values).max() <= 1e-8
