"""The code-line counter ``tests/code_lines.py`` on a fixed snippet."""

from code_lines import code_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    s = """a string
that spans lines"""
    return (x +
            1)


class C:
    """One line."""

    y = 1
'''


def test_counts_code_lines_only():
    # import, def, the string's two lines, the return's two, class, y = 1
    assert code_lines(SNIPPET) == 8
