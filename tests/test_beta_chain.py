from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatz_lab.beta_chain import (
    chain_counterexample,
    chain_path,
    chain_residues,
    solve_beta_chain,
    solve_beta_chain_paper,
    v2,
)
from collatz_lab.core import step_c
from collatz_lab.errors import DomainError
from collatz_lab.residues import ResidueClass, classify


def test_v2():
    assert v2(1) == 0
    assert v2(2) == 1
    assert v2(12) == 2
    assert v2(2**40) == 40
    with pytest.raises(DomainError):
        v2(0)


@given(st.integers(min_value=1, max_value=10**30))
def test_v2_definition(n):
    m = v2(n)
    assert n % 2**m == 0 and (n // 2**m) % 2 == 1


@pytest.mark.parametrize(
    "k,m,h",
    [(0, 0, 0), (3, 2, 4), (7, 3, 13), (4, 0, 2), (1, 1, 1), (11, 2, 13)],
)
def test_solver_spots(k, m, h):
    assert solve_beta_chain(k) == (k, m, h)
    assert solve_beta_chain_paper(k) == (k, m, h)


@given(st.integers(min_value=0, max_value=10**25))
def test_solvers_agree(k):
    assert solve_beta_chain(k) == solve_beta_chain_paper(k)


@given(st.integers(min_value=0, max_value=10**25))
def test_exact_identity(k):
    _, m, h = solve_beta_chain(k)
    assert (k + 1) * 3**m == (2 * h + 1) * 2**m


@given(st.integers(min_value=0, max_value=10**6))
def test_closed_form_of_landing(k):
    # (2k+2)*(3/2)^m - 1, evaluated exactly, is the landing alpha
    _, m, h = solve_beta_chain(k)
    landing = (2 * k + 2) * Fraction(3, 2) ** m - 1
    assert landing == 4 * h + 1


def test_chain_path_spot():
    assert chain_path(3, 2) == [14, 7, 22, 11, 34, 17]
    assert chain_path(0, 0) == [2, 1]


@given(st.integers(min_value=0, max_value=20000))
def test_chain_path_matches_map(k):
    _, m, _ = solve_beta_chain(k)
    path = chain_path(k, m)
    assert len(path) == 2 * m + 2
    v = 4 * k + 2
    for expected in path:
        assert v == expected
        v = step_c(v)


def test_chain_residues_are_those_of_the_chain():
    for m in range(31):
        for odd in (1, 3, 5, 7):
            k = odd * 2**m - 1  # v2(k + 1) = m
            assert chain_residues(m) == [v & 3 for v in chain_path(k, m)]


def _pattern(k):
    """The classes along the chain from 4k+2, read off by ``classify``."""
    _, m, _ = solve_beta_chain(k)
    return [classify(v)[0] for v in chain_path(k, m)]


def test_chain_pattern_k3():
    assert chain_counterexample(3) is None
    assert chain_path(3, 2)[-1] == 17
    names = [t.ascii_name for t in _pattern(3)]
    assert names == ["beta", "eta", "beta", "eta", "beta", "alpha"]


def test_chain_pattern_trivial():
    assert chain_counterexample(0) is None
    assert _pattern(0) == [ResidueClass.BETA, ResidueClass.ALPHA]


@given(st.integers(min_value=0, max_value=50000))
def test_alternation_everywhere(k):
    assert chain_counterexample(k) is None
    pattern = _pattern(k)
    body, last = pattern[:-1], pattern[-1]
    assert last is ResidueClass.ALPHA
    for i, tag in enumerate(body):
        assert tag is (ResidueClass.BETA if i % 2 == 0 else ResidueClass.ETA)


def test_chain_counterexample_sweep():
    assert all(chain_counterexample(k) is None for k in range(30000))


def test_negative_k_rejected():
    with pytest.raises(DomainError):
        solve_beta_chain(-1)
    with pytest.raises(DomainError):
        solve_beta_chain_paper(-2)
