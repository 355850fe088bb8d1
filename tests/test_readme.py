"""The README's Python examples run as written, so an example that names a
function the package no longer has fails here."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # Pad with the lines above the block, so a traceback names README lines.
        code = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, str(README), "exec"), {})
