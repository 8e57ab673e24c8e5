"""``tools/code_lines.py``, the code-line count of ``src/polyurn``.

The script is loaded from its file, as it is run: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load()

SYNTHETIC = '''"""A module docstring
over two lines."""

# A comment line.
import os  # code with a trailing comment


def area(width, height):
    """A function docstring."""

    total = (width
             * height)  # a multi-line expression: 2 lines
    "a bare string statement"
    return total


NAME = "a string that is a value"
TEXT = """a string value
over two lines"""
'''
#: ``import os``, ``def area``, the 2 lines of ``total``, ``return total``,
#: ``NAME`` and the 2 lines of ``TEXT``.
SYNTHETIC_CODE_LINES = 8


def test_counts_only_lines_that_hold_code(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    assert code_lines.code_lines(path) == SYNTHETIC_CODE_LINES


def test_prints_one_line_per_module_and_their_sum(capsys):
    source = REPO_ROOT / "src" / "polyurn"
    assert code_lines.main([str(source)]) == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in modules] == sorted(p.name for p in source.glob("*.py"))
    assert all(int(count) > 0 for count, _ in modules)
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]
