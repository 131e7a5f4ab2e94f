"""The README's Python quick start runs and prints what it promises."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "finite 3"
    assert ast.literal_eval(lines[1]) == [(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)]
    assert abs(float(lines[3]) - 92.0 / 15.0) <= 1e-12
