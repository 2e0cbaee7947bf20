"""Split a Python package's lines into code, docstrings, comments and blanks.

    python tools/line_split.py [PACKAGE_DIR]     # default: src/qgrad13

A docstring line lies inside the string that opens a module, class or
function body (found with `ast`).  A comment line holds a comment and nothing
else (found with `tokenize`).  A blank line holds only whitespace, unless it
lies inside a docstring.  Every other line is code, a code line with a
trailing comment included.  Prints one row per file, the total, and the
number of names in the package's `__all__`, read from `__init__.py` without
importing it.  Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict

PARTS = ("code", "docstring", "comment", "blank")


def split(source: str) -> Dict[str, int]:
    """Lines of one module's source by part; the parts sum to its line count."""
    kind = ["blank" if not line.strip() else "code" for line in source.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                kind[first.lineno - 1:first.end_lineno] = \
                    ["docstring"] * (first.end_lineno - first.lineno + 1)
    return {part: kind.count(part) for part in PARTS}


def all_names(init_source: str) -> int:
    """The length of the literal `__all__` list in a package's `__init__`."""
    for node in ast.parse(init_source).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return len(ast.literal_eval(node.value))
    raise ValueError("no literal __all__ assignment")


def main() -> int:
    package = Path(sys.argv[1] if len(sys.argv) > 1 else
                   Path(__file__).resolve().parent.parent / "src" / "qgrad13")
    total = dict.fromkeys(("lines",) + PARTS, 0)
    print(f"{'file':<16}" + "".join(f"{h:>11}" for h in total))
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        row = {"lines": len(source.splitlines()), **split(source)}
        for key in total:
            total[key] += row[key]
        print(f"{path.name:<16}" + "".join(f"{v:>11}" for v in row.values()))
    print(f"{'total':<16}" + "".join(f"{v:>11}" for v in total.values()))
    print(f"__all__: {all_names((package / '__init__.py').read_text())} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
