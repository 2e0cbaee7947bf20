"""tools/line_split.py, the code/prose split of the package's lines."""
import importlib.util
from pathlib import Path

import qgrad13 as q

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("line_split", ROOT / "tools" / "line_split.py")
line_split = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_split)

_SAMPLE = '''"""Module doc.

    More."""
x = 1  # a trailing comment keeps the line code

# a comment line
def f():
    """One line."""
    return """not a docstring"""
'''


def test_line_split_parts_sum_to_each_file():
    """Each line is exactly one of code, docstring, comment or blank, and
    `__all__` is counted from the source as the package exports it."""
    assert line_split.split(_SAMPLE) == {"code": 3, "docstring": 4, "comment": 1,
                                         "blank": 1}
    package = ROOT / "src" / "qgrad13"
    for path in package.glob("*.py"):
        source = path.read_text()
        assert sum(line_split.split(source).values()) == len(source.splitlines()), path
    assert line_split.all_names((package / "__init__.py").read_text()) == len(q.__all__)
