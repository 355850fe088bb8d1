"""What a command or an import loads.  Each case runs in a fresh
interpreter, since this test process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collatz_lab

SRC = str(Path(collatz_lab.__file__).resolve().parent.parent)

# Prints the modules loaded after running ``code``, as a JSON list.
_MODULES_AFTER = "import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code):
    return set(json.loads(_fresh(_MODULES_AFTER.format(code=code)).splitlines()[-1]))


def test_import_package_loads_no_submodule():
    loaded = _modules_after("import collatz_lab")
    assert sorted(m for m in loaded if m.startswith("collatz_lab.")) == []


# Modules that none of the commands below runs; of these, ``verify blocks``
# runs only ``blocks``.
_NEVER = {
    "collatz_lab.cycles",
    "collatz_lab.blocks",
    "fractions",
    "csv",
    "pickle",
    "signal",
    "dataclasses",
    "inspect",
}

# The parser reads nothing from ``sweeps``; only ``verify`` and ``cycles`` load it.
_SWEEPS = "collatz_lab.sweeps"


def _run_code(argv):
    return (
        "import contextlib, io\n"
        "from collatz_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0"
    )


@pytest.mark.parametrize(
    "argv, also_unused",
    [
        (["classify", "100"], {_SWEEPS, "collatz_lab.polyline", "collatz_lab.beta_chain"}),
        (["trajectory", "--start", "27"], {_SWEEPS}),
        (["polyline", "7"], {_SWEEPS}),
        (["verify", "transitions", "--max", "300", "--workers", "1"], set()),
        (
            ["verify", "beta-chain", "--max", "300", "--workers", "1"],
            {"collatz_lab.residues", "collatz_lab.polyline"},
        ),
        (["records", "delay", "--max", "300"], {_SWEEPS}),
        (["tree", "--depth", "5"], {_SWEEPS}),
    ],
    ids=[
        "classify",
        "trajectory",
        "polyline",
        "verify-transitions",
        "verify-beta-chain",
        "records-delay",
        "tree",
    ],
)
def test_command_loads_only_what_it_runs(argv, also_unused):
    loaded = _modules_after(_run_code(argv))
    assert sorted(loaded & (_NEVER | also_unused)) == []


def test_verify_blocks_loads_neither_cycles_nor_fractions():
    # The blocks sweep is the one command that needs ``blocks``; the cycle
    # closure and its Fraction stay in ``cycles``, and the chain it builds on
    # needs no residue classes.
    loaded = _modules_after(_run_code(["verify", "blocks", "--max", "300", "--workers", "1"]))
    assert "collatz_lab.blocks" in loaded
    unused = (_NEVER - {"collatz_lab.blocks"}) | {"collatz_lab.residues"}
    assert sorted(loaded & unused) == []


def test_every_submodule_star_imports():
    # A name left in a submodule's ``__all__`` after its definition went
    # would fail here.  ``__main__`` runs the CLI on import, so it is left out.
    code = """
import pkgutil
import collatz_lab

names = sorted(m.name for m in pkgutil.iter_modules(collatz_lab.__path__))
for name in names:
    if name != "__main__":
        exec(f"from collatz_lab.{name} import *", {})
print(" ".join(names))
"""
    names = _fresh(code).split()
    assert {"blocks", "cycles", "sweeps", "errors"} <= set(names)


def test_lazy_exports_match_their_modules():
    code = """
import importlib
from collatz_lab import *
import collatz_lab

names = collatz_lab.__all__
assert [name for name in names if name not in globals()] == []
for name in names:
    owner = importlib.import_module("collatz_lab." + collatz_lab._SOURCES[name])
    assert globals()[name] is getattr(collatz_lab, name) is getattr(owner, name), name
assert set(names) | {"__version__"} <= set(dir(collatz_lab))
try:
    collatz_lab.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'collatz_lab' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("an unknown name resolved")
print(len(names))
"""
    assert _fresh(code) == f"{len(collatz_lab.__all__)}\n"
