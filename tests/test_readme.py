"""The README's Python examples are doctests: each line runs against the
package and its printed value must match the one the README shows."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed
