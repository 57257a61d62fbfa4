"""The code-line rule of ``tools/code_lines.py``, pinned on a small source."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,

        with a blank line inside."""
        total = (1 +
                 2)
        text = """not a docstring,
spanning two lines"""
        return total, text


async def later():
    """Docstring of an async function."""
    return os.sep
'''
# import, class, def, the two lines of the statement, the two lines of
# the string, return, async def, return
CODE_LINES = 10


def test_the_rule_on_a_small_source():
    assert code_lines.code_lines(SOURCE) == CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"a.py {CODE_LINES}",
        "sub/b.py 1",
        f"total {CODE_LINES + 1}",
    ]
