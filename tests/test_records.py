"""The record contract: every record is an immutable NamedTuple with the
field order it has always had, and ``BlockSequence`` is the one class
(its chain check is in test_blocks.py)."""

from types import MappingProxyType

import pytest

from collatz_lab.blocks import decompose
from collatz_lab.core import backward_tree, records_sweep, trajectory
from collatz_lab.polyline import shape_residual, to_polyline
from collatz_lab.report import VerificationReport
from collatz_lab.residues import class_sequence, transition_graph
from collatz_lab.sweeps import Sweep

# The field order of each record when it was a dataclass.
_FIELDS = {
    "Trajectory": ("start", "values", "reached_one"),
    "BackwardTree": ("depth", "nodes"),
    "RecordTable": ("kind", "entries"),
    "ClassSequence": ("start", "classes", "counts"),
    "TransitionGraph": ("edges",),
    "ShapeReport": ("pattern", "boundaries", "residual", "tail"),
    "VerificationReport": ("command", "checked", "counterexamples", "elapsed_ms", "config"),
}


def test_record_contract():
    records = [
        trajectory(27),
        backward_tree(3),
        records_sweep(100, "delay"),
        class_sequence(27),
        transition_graph(),
        shape_residual([to_polyline(1), to_polyline(2)], "pure_ab"),
        VerificationReport("probe", 1),
    ]
    assert {type(r).__name__: r._fields for r in records} == _FIELDS
    for r in records:
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)

    a, b = VerificationReport("probe", 0), VerificationReport("probe", 0)
    assert a == b and a.counterexamples == () and a.passed
    for default in (a.config, Sweep("sweeps._drop_check", 2, "n_max").config):
        assert type(default) is MappingProxyType
        with pytest.raises(TypeError):
            default["max"] = "1"
    assert a._replace(elapsed_ms=5).elapsed_ms == 5 and a.elapsed_ms == 0

    bs = decompose(7, 3)
    assert len(bs) == 3 and bs == decompose(7, 3) and bs != decompose(7, 2)
    assert repr(decompose(0, 1)) == "BlockSequence(blocks=[Block(k_in=0, m=0, h=0, g=0, e=1, k_out=0)])"
