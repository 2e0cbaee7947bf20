"""The README's library tour runs as written against the public API."""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert "HyperbolicDegenerate" in out.getvalue()
