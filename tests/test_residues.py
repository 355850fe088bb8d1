from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatz_lab import residues
from collatz_lab.core import step_c, trajectory
from collatz_lab.errors import DomainError
from collatz_lab.report import Counterexample
from collatz_lab.residues import (
    GraphEdge,
    ResidueClass,
    class_sequence,
    classify,
    declassify,
    transition_counterexample,
    transition_graph,
    transition_symbolic,
)
from collatz_lab.sweeps import verify_transitions

A, B, E, G = ResidueClass.ALPHA, ResidueClass.BETA, ResidueClass.ETA, ResidueClass.GAMMA

# The six edges as once written out by hand; transition_graph derives them
# from the class table and must give exactly this set.
_EDGES = frozenset(
    {
        GraphEdge(A, G, "any"),
        GraphEdge(B, E, "odd"),
        GraphEdge(B, A, "even"),
        GraphEdge(E, B, "any"),
        GraphEdge(G, G, "odd"),
        GraphEdge(G, B, "even"),
    }
)


@pytest.mark.parametrize(
    "z,tag,k",
    [(1, A, 0), (2, B, 0), (3, E, 0), (4, G, 0), (5, A, 1), (100, G, 24), (27, E, 6)],
)
def test_classify_spots(z, tag, k):
    assert classify(z) == (tag, k)


def test_classify_rejects_nonpositive():
    with pytest.raises(DomainError):
        classify(0)


@given(st.integers(min_value=1, max_value=10**50))
def test_classify_roundtrip(z):
    assert declassify(classify(z)) == z


@given(st.sampled_from(list(ResidueClass)), st.integers(min_value=0, max_value=10**40))
def test_declassify_roundtrip(tag, k):
    assert classify(declassify((tag, k))) == (tag, k)


@given(st.integers(min_value=1, max_value=10**40))
def test_symbolic_transition_matches_map(z):
    c = classify(z)
    assert declassify(transition_symbolic(c)) == step_c(z)


def test_symbolic_transition_case_table():
    # one spot check per (class, parity-of-k) cell
    assert transition_symbolic((A, 2)) == (G, 6)  # 9 -> 28
    assert transition_symbolic((A, 1)) == (G, 3)  # 5 -> 16
    assert transition_symbolic((B, 2)) == (A, 1)  # 10 -> 5
    assert transition_symbolic((B, 1)) == (E, 0)  # 6 -> 3
    assert transition_symbolic((E, 0)) == (B, 2)  # 3 -> 10
    assert transition_symbolic((E, 1)) == (B, 5)  # 7 -> 22
    assert transition_symbolic((G, 0)) == (B, 0)  # 4 -> 2
    assert transition_symbolic((G, 1)) == (G, 0)  # 8 -> 4


def test_member_attributes():
    assert [(c.offset, c.symbol, c.ascii_name) for c in ResidueClass] == [
        (1, "α", "alpha"), (2, "β", "beta"), (3, "η", "eta"), (4, "γ", "gamma"),
    ]
    assert all(ResidueClass(c.offset) is c for c in ResidueClass)


@pytest.mark.parametrize("tag", [1, "alpha", None, 4.0])
def test_non_class_tag_rejected(tag):
    # a bare offset in the tag slot once fell through to the gamma row
    with pytest.raises(DomainError, match="ResidueClass"):
        transition_symbolic((tag, 3))
    with pytest.raises(DomainError, match="ResidueClass"):
        declassify((tag, 3))


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        transition_symbolic((A, -1))
    with pytest.raises(DomainError):
        declassify((A, -1))


def test_transition_sweep_clean():
    report = verify_transitions(20000, workers=1)
    assert report.passed
    assert report.checked == 20000


def test_transition_counterexample_none_on_range():
    assert all(transition_counterexample(z) is None for z in range(1, 3000))


def test_class_sequence_of_7():
    seq = class_sequence(7)
    names = [t.ascii_name for t in seq]
    assert names == [
        "eta", "beta", "eta", "beta", "alpha", "gamma", "beta", "alpha",
        "gamma", "gamma", "beta", "alpha", "gamma", "gamma", "gamma", "beta",
    ]
    assert Counter(seq) == {A: 3, B: 5, E: 2, G: 6}


def test_class_sequence_of_1():
    assert class_sequence(1) == [A]


@given(st.integers(min_value=2, max_value=3000))
def test_class_sequence_tracks_trajectory(z):
    seq = class_sequence(z)
    values = trajectory(z)[:-1]
    assert len(seq) == len(values)
    for v, tag in zip(values, seq):
        assert classify(v)[0] is tag


def _taken(src, k):
    """The targets of the graph's edges out of src whose parity admits k."""
    parity = "odd" if k & 1 else "even"
    return {e.dst for e in transition_graph() if e.src is src and e.parity in ("any", parity)}


def test_graph_edges():
    assert _taken(A, 0) == _taken(A, 1) == {G}
    assert _taken(B, 0) == {A} and _taken(B, 1) == {E}
    assert _taken(E, 0) == _taken(E, 5) == {B}
    assert _taken(G, 0) == {B} and _taken(G, 1) == {G}


def test_graph_edges_derived_from_table():
    assert transition_graph() == _EDGES


@given(st.integers(min_value=1, max_value=10**6))
def test_graph_agrees_with_symbolic_table(z):
    # Exactly one edge leaves (tag, k), and it goes where the table says.
    c = classify(z)
    tag, k = c
    assert _taken(tag, k) == {transition_symbolic(c)[0]}


def _plant_row(monkeypatch, row, wrong):
    table = list(residues._TABLE)
    table[row] = wrong
    monkeypatch.setattr(residues, "_TABLE", tuple(table))


def test_planted_table_row_fails_verify_transitions(monkeypatch):
    # eta, k odd: 6l+4 in place of 6l+5, so every z = 8l+7 lands 4 short
    _plant_row(monkeypatch, 5, (B, 6, 4))
    bad = verify_transitions(100, workers=1).counterexamples
    assert [int(c.input) for c in bad] == list(range(7, 101, 8))
    assert bad[0] == Counterexample("7", "22", "18")


def test_planted_table_row_reaches_the_graph(monkeypatch):
    # gamma, k odd: beta in place of gamma, so z = 8l+8 goes astray and the
    # gamma self-loop leaves the graph
    _plant_row(monkeypatch, 7, (B, 1, 0))
    bad = verify_transitions(100, workers=1).counterexamples
    assert [int(c.input) for c in bad] == list(range(8, 101, 8))
    graph = transition_graph()
    assert len(graph) == 5 and GraphEdge(G, G, "odd") not in graph
