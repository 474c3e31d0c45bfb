"""tools/code_lines.py counts the lines that hold code, leaving out
docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 9 code lines: the import, the class line, x = 1, the def line, the
# three lines of the call, the string statement that is not a docstring,
# and the return
SOURCE = '''"""A module docstring,
over two lines."""
import math


class A:
    """A class docstring."""

    # a comment line
    x = 1  # a trailing comment

    def f(self):
        """A function
        docstring."""
        y = max(
            1,
            2)
        "a string statement, not a docstring"
        return math.sqrt(y)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_and_leaves_out_docstrings_comments_and_blanks(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    tool = _tool()
    assert tool.code_lines(path) == 9
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "     9  total"
