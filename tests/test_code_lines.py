"""The code-line counter of ``tools/code_lines.py`` on a canned source and
on the package."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", _ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment


class A:
    """A class docstring."""


def f(x):
    """A function docstring."""
    # a comment line

    total = (x +
             1)
    return [
        total,
        os.sep,
    ]
'''


def test_a_canned_source_counts_its_unparsed_statements():
    # import; class A with its docstring body as one pass; def f, the
    # continued assignment as one line, and the return as one line
    assert code_lines.code_lines(SOURCE) == 6


def test_the_package_count(capsys):
    assert code_lines.main([str(_ROOT / "src" / "cuntzr")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["1369", "total"]
    assert sum(int(line.split()[0]) for line in out[:-1]) == 1369
