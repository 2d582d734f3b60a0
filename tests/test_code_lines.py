"""The code-line rule of tools/code_lines.py on a fixed snippet."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    text = """a string over
two lines is code"""
    return x, text


class C:
    """A class docstring
    over two lines."""

    value = os.sep
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, def, the two lines of text, return, class, value
    assert code_lines.code_lines(SNIPPET) == 7


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    assert code_lines.main([]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert modules and int(total.split()[0]) == sum(int(m.split()[0]) for m in modules)
