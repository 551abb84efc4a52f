"""The README's quickstart runs against the current API."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs():
    text = README.read_text()
    quickstart = text[text.index("## Quickstart"):]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) == math.sqrt(2)
    assert float(lines[1]) == 20.25
