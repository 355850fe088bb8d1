import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import collatz_lab
from collatz_lab import cli, cycles
from collatz_lab.blocks import decompose
from collatz_lab.cycles import (
    CycleCandidate,
    count_candidates,
    cycle_equation_general,
    cycle_k_n1,
    search_cycles,
    search_cycles_n1,
)
from collatz_lab.errors import DomainError


def _param_lists(n: int, budget: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reference enumerator: all (m_seq, e_seq) of length n with m_j >= 0,
    e_j >= 1 and sum(m) + sum(e) <= budget, in lexicographic order of the
    interleaved tuple (m_1, e_1, m_2, e_2, ...)."""

    def extend(prefix: list[int], remaining: int, slots: int) -> Iterator[list[int]]:
        if slots == 0:
            yield prefix
            return
        # Even interleave positions are m entries (floor 0), odd are e (floor 1).
        on_e = len(prefix) % 2
        floor = 1 if on_e else 0
        # Later slots still need at least their own floors' worth of budget.
        later_floor = (slots - 1) // 2 if on_e else slots // 2
        for value in range(floor, remaining - later_floor + 1):
            yield from extend(prefix + [value], remaining - value, slots - 1)

    for flat in extend([], budget, 2 * n):
        yield tuple(flat[0::2]), tuple(flat[1::2])


@cache
def _per_candidate(n: int, budget: int) -> tuple:
    """The length-n hits of the box, one cycle_equation_general per candidate."""
    sols = (cycle_equation_general(CycleCandidate(m, e)) for m, e in _param_lists(n, budget))
    return tuple(s for s in sols if s.is_integer and s.is_nonneg)


def test_k_n1_spots():
    assert cycle_k_n1(0, 1) == 0
    assert type(cycle_k_n1(0, 1)) is Fraction
    assert cycle_k_n1(1, 2) == Fraction(-1, 7)
    assert cycle_k_n1(0, 2) == Fraction(-2, 5)


def test_k_n1_guards():
    with pytest.raises(DomainError):
        cycle_k_n1(-1, 1)
    with pytest.raises(DomainError):
        cycle_k_n1(0, 0)


def test_sign_lemma_m0():
    # for m=0 and e >= 2 the numerator is negative, the denominator positive
    for e in range(2, 61):
        num = 3 - 1 - 2**e
        den = 2 ** (e + 1) - 3
        assert num < 0 < den
        assert cycle_k_n1(0, e) < 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
def test_general_equation_matches_n1(m, e):
    sol = cycle_equation_general(CycleCandidate((m,), (e,)))
    assert sol.k0 == cycle_k_n1(m, e)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=60))
def test_denominator_never_vanishes(m, e):
    assert 2 ** (e + m + 1) != 3 ** (m + 1)


def test_general_equation_spots():
    trivial_twice = cycle_equation_general(CycleCandidate((0, 0), (1, 1)))
    assert trivial_twice.k0 == 0 and trivial_twice.simulated_ok
    rejected = cycle_equation_general(CycleCandidate((1,), (3,)))
    assert rejected.k0 == Fraction(-9, 23) and not rejected.is_integer
    mixed = cycle_equation_general(CycleCandidate((0, 1), (1, 1)))
    assert mixed.k0 == Fraction(12, 5) and not mixed.is_integer


def test_odd_negative_fixed_point_is_rejected():
    # (m=1, e=1) closes formally at k0 = -3; integral, but out of domain
    sol = cycle_equation_general(CycleCandidate((1,), (1,)))
    assert sol.k0 == -3
    assert sol.is_integer and not sol.is_nonneg and not sol.simulated_ok


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=4,
    )
)
def test_simulated_ok_implies_integral_nonneg(pairs):
    cand = CycleCandidate(tuple(m for m, _ in pairs), tuple(e for _, e in pairs))
    sol = cycle_equation_general(cand)
    if sol.simulated_ok:
        assert sol.is_integer and sol.is_nonneg
        blocks = decompose(int(sol.k0), cand.n).blocks
        assert [b.m for b in blocks] == list(cand.m_seq)
        assert [b.e for b in blocks] == list(cand.e_seq)
        assert blocks[-1].k_out == sol.k0


@pytest.mark.parametrize("box", [(1, 1), (5, 5), (25, 25)])
def test_n1_box_known_result(box):
    sols = search_cycles_n1(*box)
    assert len(sols) == 1
    only = sols[0]
    assert only.candidate == ((0,), (1,))
    assert only.k0 == 0 and only.simulated_ok


def test_n1_solution_is_the_trivial_loop():
    sol = search_cycles_n1(1, 1)[0]
    blocks = decompose(int(sol.k0), 1).blocks
    from collatz_lab.blocks import block_path

    assert block_path(blocks[0]) == [2, 1, 4, 2]


def test_param_lists_exhaustive_and_ordered():
    got = list(_param_lists(2, 5))
    for m_seq, e_seq in got:
        assert len(m_seq) == len(e_seq) == 2
        assert all(m >= 0 for m in m_seq) and all(e >= 1 for e in e_seq)
        assert sum(m_seq) + sum(e_seq) <= 5
    flat = [tuple(v for pair in zip(m, e) for v in pair) for m, e in got]
    assert flat == sorted(flat)
    assert len(got) == len(set(got))
    # count agrees with a direct product filter
    brute = [
        ((m1, m2), (e1, e2))
        for m1 in range(6)
        for e1 in range(1, 6)
        for m2 in range(6)
        for e2 in range(1, 6)
        if m1 + m2 + e1 + e2 <= 5
    ]
    assert set(got) == set(brute)


def test_search_cycles_budget_forces_trivial():
    sols = search_cycles(2, 2)
    assert [s.candidate for s in sols] == [CycleCandidate((0,), (1,)), CycleCandidate((0, 0), (1, 1))]


def test_search_cycles_n3_budget12():
    sols = search_cycles(3, 12)
    assert [s.candidate for s in sols] == [
        CycleCandidate((0,), (1,)),
        CycleCandidate((0, 0), (1, 1)),
        CycleCandidate((0, 0, 0), (1, 1, 1)),
    ]
    assert all(s.k0 == 0 and s.simulated_ok for s in sols)
    assert count_candidates(3, 12) == 6084


def test_count_candidates_closed_form_equals_enumeration():
    for n_max in range(1, 5):
        for budget in range(n_max, 15):
            enumerated = sum(
                1 for n in range(1, n_max + 1) for _ in _param_lists(n, budget)
            )
            assert count_candidates(n_max, budget) == enumerated, (n_max, budget)


def test_search_guards():
    with pytest.raises(DomainError):
        search_cycles(0, 5)
    with pytest.raises(DomainError):
        search_cycles(3, 2)
    with pytest.raises(DomainError):
        search_cycles_n1(0, 3)


@pytest.mark.parametrize(
    "n_max,budget",
    [(n, b) for n in range(1, 5) for b in range(n, 14)] + [(5, 11)],
)
def test_search_equals_per_candidate_closure(n_max, budget):
    expected = [s for n in range(1, n_max + 1) for s in _per_candidate(n, budget)]
    assert search_cycles(n_max, budget) == expected


def test_n1_search_equals_per_candidate_closure():
    sols = (
        cycle_equation_general(CycleCandidate((m,), (e,)))
        for m in range(61)
        for e in range(1, 61)
    )
    assert search_cycles_n1(60, 60) == [s for s in sols if s.is_integer and s.is_nonneg]


def test_planted_simulation_fault_surfaces(monkeypatch, capsys):
    monkeypatch.setattr(cycles, "_simulate", lambda c, k0: False)
    sols = search_cycles(3, 12)
    assert [s.candidate.n for s in sols] == [1, 2, 3]
    assert all(s.k0 == 0 and not s.simulated_ok for s in sols)
    assert not any(s.simulated_ok for s in search_cycles_n1(5, 5))
    assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 2
    assert "unsimulated" in capsys.readouterr().out


def test_vanishing_closure_raises_under_optimize():
    code = (
        "import collatz_lab.cycles as C\n"
        "from collatz_lab.errors import IdentityViolation\n"
        "C._extend = lambda state, m, e: (8, 8, 1)\n"
        "for call in (lambda: C.cycle_k_n1(0, 1),\n"
        "             lambda: C.cycle_equation_general(C.CycleCandidate((0,), (1,)))):\n"
        "    try:\n"
        "        call()\n"
        "    except IdentityViolation:\n"
        "        print('raised')\n"
    )
    src = str(Path(collatz_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\n"
