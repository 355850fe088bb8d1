"""The record contract: every record is an immutable NamedTuple with the
field order it has always had, and a result which is one sequence is that
sequence: a trajectory, a record table, a class sequence and a block
decomposition are lists, and the transition graph is a frozenset.  The
per-input results of the sweep kernels are exact tuples, never a subclass:
(tag, k), (k, m, h) and (x, s), and so is each backward-tree node,
(depth, parent)."""

from types import MappingProxyType

import pytest

from collatz_lab.beta_chain import solve_beta_chain, solve_beta_chain_paper
from collatz_lab.blocks import decompose
from collatz_lab.core import backward_tree, records_sweep, trajectory
from collatz_lab.polyline import shape_residual, to_polyline
from collatz_lab.report import VerificationReport
from collatz_lab.residues import (
    ResidueClass,
    class_sequence,
    classify,
    transition_graph,
    transition_symbolic,
)
from collatz_lab.sweeps import Sweep

# The field order of each record when it was a dataclass.
_FIELDS = {
    "BackwardTree": ("depth", "nodes"),
    "ShapeReport": ("pattern", "boundaries", "residual"),
    "VerificationReport": ("command", "checked", "counterexamples", "elapsed_ms", "config"),
}


def test_record_contract():
    records = [
        backward_tree(3),
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
    for default in (a.config, Sweep("core.drop_counterexample", 2, "n_max").config):
        assert type(default) is MappingProxyType
        with pytest.raises(TypeError):
            default["max"] = "1"
    assert a._replace(elapsed_ms=5).elapsed_ms == 5 and a.elapsed_ms == 0

    for seq in (trajectory(27), records_sweep(100, "delay"), class_sequence(27)):
        assert type(seq) is list
    assert type(transition_graph()) is frozenset

    bs = decompose(7, 3)
    assert type(bs) is list and len(bs) == 3
    assert repr(decompose(0, 1)) == "[Block(k_in=0, m=0, h=0, g=0, e=1, k_out=0)]"


def test_per_input_results_are_exact_tuples():
    a, g = ResidueClass.ALPHA, ResidueClass.GAMMA
    for got, want in [
        (classify(5), (a, 1)),
        (transition_symbolic((a, 1)), (g, 3)),
        (solve_beta_chain(7), (7, 3, 13)),
        (solve_beta_chain_paper(7), (7, 3, 13)),
        (to_polyline(7), (4, 4)),
        (backward_tree(3).nodes[8], (3, 4)),
    ]:
        assert type(got) is tuple and got == want
