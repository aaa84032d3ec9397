"""``tools/code_lines.py`` counts code lines only: no blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment line
class Shape:
    """Class docstring."""

    def area(self, r):
        """Function docstring."""
        text = """a string, not a docstring,
        over two lines"""
        return (math.pi
                * r ** 2)
'''


def test_counts_code_lines_and_skips_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    # import, class, def, the string's two lines and the return's two.
    assert tool.code_lines(sample) == 7
