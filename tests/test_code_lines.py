"""The code-line counter in `tools/code_lines.py`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string
    that is data"""
    return (x,
            text)


class C:
    "Class docstring."
    y = 1
'''


def test_counts_lines_with_code_tokens(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of `text`, the two of the return, class
    # and `y`: no blank line, comment line or docstring.
    assert code_lines.code_lines(path) == 8


def test_counts_the_package(capsys):
    code_lines.main()
    *modules, total = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in modules]
    assert len(counts) == len(list(code_lines.SRC.glob("*.py")))
    assert total.split() == [str(sum(counts)), "total"]
