import errno
import inspect
import os
import signal
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import collatz_lab
from collatz_lab import blocks, cli, cycles, sweeps
from collatz_lab.blocks import START, block_step, decompose, make_block
from collatz_lab.cycles import (
    CycleCandidate,
    CycleSolution,
    _first_block_names,
    count_candidates,
    cycle_equation_general,
    search_cycles,
    search_cycles_n1,
)
from collatz_lab.errors import DomainError, IdentityViolation, SweepWorkerError


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


def _k_n1(m, e):
    """The fixed point of the single formal block (m, e)."""
    return cycle_equation_general(CycleCandidate((m,), (e,))).k0


def _solution(pairs, k0):
    """The solution of a list that a reference walk found closing at the
    integer k0 >= 0, built without the search's closure."""
    c = CycleCandidate(*map(tuple, zip(*pairs)))
    return CycleSolution(c, Fraction(k0), True, True, cycles._simulate(c, k0))


def test_k_n1_spots():
    assert _k_n1(0, 1) == 0
    assert type(_k_n1(0, 1)) is Fraction
    assert _k_n1(1, 2) == Fraction(-1, 7)
    assert _k_n1(0, 2) == Fraction(-2, 5)


def test_sign_lemma_m0():
    # for m=0 and e >= 2 the numerator is negative, the denominator positive
    for e in range(2, 61):
        num = 3 - 1 - 2**e
        den = 2 ** (e + 1) - 3
        assert num < 0 < den
        assert _k_n1(0, e) < 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
def test_general_equation_matches_n1(m, e):
    # against the single-block formula, written out apart from the block step
    sol = cycle_equation_general(CycleCandidate((m,), (e,)))
    assert sol.k0 == Fraction(3 ** (m + 1) - 2**m - 2 ** (e + m), 2 ** (e + m + 1) - 3 ** (m + 1))


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
        blocks = decompose(int(sol.k0), cand.n)
        assert [b.m for b in blocks] == list(cand.m_seq)
        assert [b.e for b in blocks] == list(cand.e_seq)
        assert blocks[-1].k_out == sol.k0


def test_simulate_stops_at_the_first_mismatched_block(monkeypatch):
    calls = []

    def counting(k_in):
        calls.append(k_in)
        return make_block(k_in)

    monkeypatch.setattr("collatz_lab.blocks.make_block", counting)
    # The real block at k = 0 is (m, e) = (0, 1), so the first block fails.
    assert not cycles._simulate(CycleCandidate((5, 0, 0), (1, 1, 1)), 0)
    assert calls == [0]


@pytest.mark.parametrize("box", [(1, 1), (5, 5), (25, 25)])
def test_n1_box_known_result(box):
    sols = search_cycles_n1(*box)
    assert len(sols) == 1
    only = sols[0]
    assert only.candidate == ((0,), (1,))
    assert only.k0 == 0 and only.simulated_ok


def test_n1_solution_is_the_trivial_loop():
    sol = search_cycles_n1(1, 1)[0]
    blocks = decompose(int(sol.k0), 1)
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


def _least_rotation(pairs):
    return min(pairs[i:] + pairs[:i] for i in range(len(pairs)))


def _is_necklace(pairs):
    """Is the list of (m, e) pairs the least of its rotations?"""
    return pairs == _least_rotation(pairs)


def _firsts(budget):
    """The first blocks of a walk with this budget, in walk order: the
    children of the start, which leave room for one more block."""
    return [(m, e) for m in range(budget) for e in range(1, budget - m)]


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.parametrize(
    "n_max,budget",
    [(n, b) for n in range(1, 5) for b in range(n, 14)]
    + [(5, 11), (2, 28), (3, 19), (4, 15), (2, 46), (6, 13), (3, 24)],
)
def test_search_is_the_same_at_one_two_and_three_workers(n_max, budget):
    # The necklace walk, expanded into rotations, against the slow paths,
    # which divide every candidate or step every node of every list.
    if n_max <= 4 and budget <= 13 or (n_max, budget) == (5, 11):
        expected = [s for n in range(1, n_max + 1) for s in _per_candidate(n, budget)]
    else:
        expected = _search_every_leaf(n_max, budget)
    for workers in (1, 2, 3):
        assert search_cycles(n_max, budget, workers=workers) == expected, workers


def _lemma_by_steps(step):
    """``blocks._lemma`` at the last depth, for a node with no blocks
    before it, as it was before the last-block lemma: every last block
    within the budget is stepped by ``step`` and divided."""

    def lemma(p, t, q, budget, depth, path, period, found):
        state = (p, t, (q + t) // 2 - p)
        for m in range(budget):
            for e in range(1, budget - m + 1):
                cp, ct, cs = step(state, m, e)
                k, r = divmod(cs, cp - ct)
                if not r and k >= 0:
                    found.append((path + ((m, e),), k))

    return lemma


# The map x -> 3x + d for an odd d, read at its betas 4k + 2 through the
# same blocks (m, e).  Its block map is the conjugate of 3x + 1's by
# k -> d*k + (d - 1)/2, so its c is a*(d + 1)/2 - d*2^m - 2^(e+m), and
# the lemma reads W = a*Q - d*b*P with Q = 2S + (d + 1)P - T and the
# child's Q' = W + d*P'.  A rotation of one of its cycles is again a
# cycle: 2k' + 1 = (a*(2k + 1) + d*(a - b)) / 2^(e+m+1) > 0 when
# 2k + 1 > 0, and an integer when k is, as the fixed point's denominator
# 2^E - 3^M is odd.  With d a product of small primes the box holds many
# cycles besides the trivial one.
_D = 5 * 7 * 11 * 13 * 17 * 19 * 23


def _step_d(state, m, e):
    """``block_step`` for the map 3x + _D."""
    p, t, s = state
    a = 3 ** (m + 1)
    c = a * (_D + 1) // 2 - _D * (1 << m) - (1 << (e + m))
    return p << (e + m + 1), t * a, s * a + c * p


def _closing_lists_d():
    """``blocks._closing_lists`` over the real ``_lemma``, necklace rule
    and period included, with the three terms of 3x + 1 made those of
    3x + _D."""
    namespace = dict(vars(blocks), _D=_D)
    edits = {
        "_lemma": [("w = aq - bp\n", "w = aq - _D * bp\n"), ("w + pe", "w + _D * pe")],
        "_closing_lists": [("2 * (s + p) - t", "2 * s + (_D + 1) * p - t")],
    }
    for name, pairs in edits.items():
        source = inspect.getsource(getattr(blocks, name))
        for old, new in pairs:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        exec(source, namespace)
    return namespace["_closing_lists"]


@pytest.mark.usefixtures("split_any_box")
# (2, 46) has 1,035 first blocks, more than the claim pipe's tokens.
@pytest.mark.parametrize("n_max,budget", [(3, 12), (4, 13), (2, 46)])
def test_planted_hits_come_back_in_walk_order_at_any_worker_count(n_max, budget, monkeypatch):
    if n_max == 2:
        assert len(_firsts(budget)) > sweeps._MAX_TOKENS
    expected = []
    for n in range(1, n_max + 1):
        for m_seq, e_seq in _param_lists(n, budget):
            state = START
            for m, e in zip(m_seq, e_seq):
                state = _step_d(state, m, e)
            p, t, s = state
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                expected.append((CycleCandidate(m_seq, e_seq), q))
    # The walk steps each first block by cycles._extend and takes every
    # other node and every closure from the lemma; the rotations are solved
    # by cycle_equation_general, which folds blocks.block_step.
    monkeypatch.setattr(cycles, "_extend", _step_d)
    monkeypatch.setattr(cycles, "_closing_lists", _closing_lists_d())
    monkeypatch.setattr(blocks, "block_step", _step_d)
    monkeypatch.setattr(cycles, "_simulate", lambda c, k0: False)
    for workers in (1, 2, 3):
        got = [(s.candidate, s.k0) for s in search_cycles(n_max, budget, workers=workers)]
        assert got == expected, workers
    k0 = {tuple(zip(*c)): k for c, k in expected}
    # the walk finds the necklaces, in more than 3 first blocks
    assert len({pairs[0] for pairs in k0 if len(pairs) > 1 and _is_necklace(pairs)}) > 3
    assert len([c for c, _ in expected if c.n == n_max]) > 3  # hits at the last depth
    # and the other rotations, each with a k0 of its own, come from the expansion
    turned = [pairs for pairs in k0 if not _is_necklace(pairs)]
    assert len(turned) > 3
    assert all(k0[pairs] != k0[_least_rotation(pairs)] for pairs in turned)


@pytest.mark.parametrize(
    "box, workers, forks",
    [
        ((3, 19), 1, 0),
        ((4, 15), 2, 0),
        ((2, 40), 8, 1),
        ((2, 45), 3, 2),
        ((2, 42), 2, 1),
        ((1, 447), 2, 0),
    ],
)
def test_each_search_worker_gets_at_least_a_min_share(box, workers, forks, monkeypatch):
    # (3, 19) holds 80788 candidates, (4, 15) 96646, (2, 40) 112750,
    # (2, 42) 136654 and (2, 45) 179400: a fork pays only above
    # _MIN_SHARE = 50,000 per worker.  (1, 447) holds 100128, but single
    # blocks are the closing blocks of the start, which need no walk.
    forked, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or real_fork())
    search_cycles(*box, workers=workers)
    assert len(forked) == forks


def test_the_ci_search_box_forks_on_two_cpus(monkeypatch, capsys):
    # CI's console-script step runs this box as a forked search whose claims
    # come in runs: 195,661 candidates give two workers a _MIN_SHARE each,
    # and its 1,035 first blocks leave more than _MAX_TOKENS to claim.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, real_fork = [], os.fork
    writes, real_write = [], os.write
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    monkeypatch.setattr(os, "write", lambda fd, b: writes.append(len(b)) or real_write(fd, b))
    assert cli.run(["cycles", "search", "--n-max", "2", "--budget", "46"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith("cycle: ")]) == 2
    assert len(_firsts(46)) == 1035 and len(forks) == 1
    assert writes == [sweeps._INDEX * sweeps._MAX_TOKENS]


def _n1_by_e_loop(m_max, e_max):
    """search_cycles_n1 as it was before the single-block lemma: a
    division for every (m, e) of the box."""
    found = []
    for m in range(m_max + 1):
        for e in range(1, e_max + 1):
            p, t, s = block_step(START, m, e)
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                found.append(_solution([(m, e)], q))
    return found


@pytest.mark.parametrize("box", [(60, 60), (159, 75), (400, 400)])
def test_n1_closed_form_equals_the_e_loop(box):
    assert search_cycles_n1(*box) == _n1_by_e_loop(*box)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=120))
def test_n1_closed_form_equals_the_e_loop_on_any_box(m_max, e_max):
    assert search_cycles_n1(m_max, e_max) == _n1_by_e_loop(m_max, e_max)


def test_n1_stops_near_m_max_whatever_e_max():
    # A budget of m_max + e_max would run the lemma's m loop to about
    # 630,000, on numbers of about 10^6 bits.
    assert [s.candidate for s in search_cycles_n1(2, 10**6)] == [CycleCandidate((0,), (1,))]


@pytest.mark.parametrize("box", [(40, 40), (40, 10)])
def test_n1_keeps_every_block_the_lemma_allows(box, monkeypatch):
    # A closure planted at the one e per m that the single-block lemma
    # allows: a budget too small for some of them would lose a hit.  The
    # search solves each hit again by folding blocks.block_step, so the
    # closure is planted there too.
    def e_of(m):
        return (3 ** (m + 1)).bit_length() - m - 1

    def step(state, m, e):
        p, t, s = block_step(state, m, e)
        return (p, t, (p - t) * m) if e == e_of(m) else (p, t, s)

    monkeypatch.setattr(blocks, "_lemma", _lemma_by_steps(step))
    monkeypatch.setattr(blocks, "block_step", step)
    m_max, e_max = box
    got = [(s.candidate, s.k0) for s in search_cycles_n1(m_max, e_max)]
    want = [m for m in range(m_max + 1) if e_of(m) <= e_max]
    assert got == [(CycleCandidate((m,), (e_of(m),)), m) for m in want]
    assert len(want) > 10


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_only_the_bit_length_e_closes_at_a_non_negative_point(m, e):
    # The single-block lemma of search_cycles_n1, against the exact fixed point.
    if _k_n1(m, e) >= 0:
        assert e == (3 ** (m + 1)).bit_length() - m - 1


# ---- the last-block lemma -------------------------------------------------


def _leaf_closures(state, budget):
    """Every last block within the budget, stepped and divided."""
    p, t, s = state
    found = []
    _lemma_by_steps(block_step)(p, t, 2 * (s + p) - t, budget, 1, (), 1, found)
    return found


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=40),
    st.one_of(st.integers(min_value=-400, max_value=400), st.integers()),
    st.integers(min_value=0, max_value=16),
)
def test_closing_blocks_equal_every_last_block_stepped_and_divided(i, j, s, budget):
    # A formal state: P a power of 2, T a power of 3 and any S, negative
    # ones included, so that W = 2S' + (P' - T') takes either sign.
    state = (2**i, 3**j, s)
    assert blocks._closing_lists(state, budget, 1) == _leaf_closures(state, budget)
    for m in range(budget):
        ws = set()
        for e in range(1, budget - m + 1):
            p, t, s1 = block_step(state, m, e)
            ws.add(2 * s1 + p - t)
        assert len(ws) == 1


def test_closing_blocks_on_a_grid_of_small_states():
    # Small states close often: 873 last blocks, 373 of them with W < 0,
    # where D_e = P' - T', which has W's sign, is negative.  With an odd T,
    # D_e and W are odd, so a quotient W / D_e is odd; the states with T of
    # 10 or 20, whose 5 keeps D_e from 0, also have even quotients to reject.
    powers = [(2**i, 3**j) for i in range(6) for j in range(5)]
    others = [(p, t) for p in range(1, 7) for t in (5, 10, 20)]
    states = [(p, t, s) for p, t in powers + others for s in range(-60, 61)]
    got = {state: blocks._closing_lists(state, 8, 1) for state in states}
    assert got == {state: _leaf_closures(state, 8) for state in states}
    formal = [(s, m, e) for s, found in got.items() if s[:2] in powers for ((m, e),), _ in found]
    negative = [(s, m, e) for s, m, e in formal if block_step(s, m, e)[0] < block_step(s, m, e)[1]]
    assert (len(formal), len(negative)) == (873, 373)


def test_closing_blocks_from_the_start_are_the_single_block_solutions():
    # The single-block lemma is the last-block lemma's case n = 1.
    budget = 400
    single = [(tuple(zip(*s.candidate)), s.k0) for s in search_cycles_n1(budget, budget)]
    within = [(path, k) for path, k in single if sum(path[0]) <= budget]
    assert blocks._closing_lists(START, budget, 1) == within == [(((0, 1),), 0)]


def test_a_vanishing_last_block_raises():
    # 3 * 2^(0+1) * 2^1 == 4 * 3^(0+1): the interval holds e = 1, D_1 = 0.
    with pytest.raises(IdentityViolation, match="^a power of 2 equalled a power of 3: 12$"):
        blocks._closing_lists((3, 4, 1), 1, 1)


def _lyndon_period(pairs):
    """The length of the longest prefix of ``pairs`` that is strictly less
    than each of its other rotations; 1 for no blocks."""
    lyndon = [
        i for i in range(1, len(pairs) + 1)
        if all(pairs[:i] < pairs[j:i] + pairs[:j] for j in range(1, i))
    ]
    return max(lyndon, default=1)


def test_the_lemma_steps_each_child_as_block_step_does(monkeypatch):
    # The lemma derives each child in its own coordinates, (P, T, Q) with
    # Q = 2(S + P) - T, from the quantities of its closing test.  Every node
    # that the walk of (4, 13) reaches, against block_step from its parent:
    # the start's node holds the closing blocks of length 1, and its
    # children are the first blocks.
    nodes, real = [], blocks._lemma

    def recording(p, t, q, budget, depth, path, period, found):
        nodes.append((path, (p, t, (q + t) // 2 - p), period))
        return real(p, t, q, budget, depth, path, period, found)

    monkeypatch.setattr(blocks, "_lemma", recording)
    search_cycles(4, 13, workers=1)
    state = {path: s for path, s, _ in nodes}
    assert len(state) == len(nodes)
    for path, s, period in nodes:
        assert s == (block_step(state[path[:-1]], *path[-1]) if path else START), path
        assert period == _lyndon_period(path), path
    # the start, and the prenecklaces of 1 to 3 blocks that leave room for
    # one more, and no other node: a list is a prenecklace, a prefix of a
    # necklace, when it is the least rotation of itself followed by a block
    # above every block of the box
    above = ((13, 1),)
    prenecklaces = {
        pairs
        for n in range(1, 4)
        for m_seq, e_seq in _param_lists(n, 12)
        if _is_necklace((pairs := tuple(zip(m_seq, e_seq))) + above)
    }
    assert set(state) == {()} | prenecklaces
    # of the 6,084 lists of 1 to 3 blocks that leave room for one more
    assert len(prenecklaces) == 2430


def test_a_rotation_closes_exactly_when_the_list_does():
    # The necklace walk finds each list that closes as its least rotation,
    # so each rotation must agree on the integrality of k0 and, for an
    # integer k0, on its sign and on the simulation.  A rotation is the same
    # cycle read from another beta.  Across all lists of these boxes.
    sols = {
        tuple(zip(m_seq, e_seq)): cycle_equation_general(CycleCandidate(m_seq, e_seq))
        for n, budget in [(1, 12), (2, 12), (3, 12), (4, 12), (5, 11)]
        for m_seq, e_seq in _param_lists(n, budget)
    }
    signs_differ = 0
    for pairs, sol in sols.items():
        for i in range(1, len(pairs)):
            turned = sols[pairs[i:] + pairs[:i]]
            assert turned.is_integer == sol.is_integer, pairs
            if sol.is_integer:
                assert (turned.is_nonneg, turned.simulated_ok) == (sol.is_nonneg, sol.simulated_ok)
            else:
                signs_differ += turned.is_nonneg != sol.is_nonneg
    # The sign of a k0 that is not an integer does differ between rotations,
    # in 16,944 (list, rotation) pairs: nothing may prune on the sign of k0
    # before its integrality.
    assert (len(sols), signs_differ) == (26962, 16944)


def _walk_every_leaf(n_max, exp_budget, pairs, first):
    """cycles._walk as it was before the last-block lemma: every node, each
    leaf included, is stepped by ``blocks.block_step`` and divided."""
    path, found = [], []

    def walk(state, todo, remaining):
        deeper = len(path) + 1 < n_max
        for pair in todo:
            m, e = pair
            child = blocks.block_step(state, m, e)
            p, t, s = child
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                found.append(_solution(path + [pair], q))
            left = remaining - m - e
            if deeper and left:
                path.append(pair)
                walk(child, pairs[left], left)
                path.pop()

    walk(START, [first], exp_budget)
    return found


@cache
def _search_every_leaf(n_max, exp_budget):
    """search_cycles on one worker before the last-block lemma."""
    rows = [[(m, e) for e in range(1, exp_budget - m + 1)] for m in range(exp_budget)]
    pairs = [[p for m in range(r) for p in rows[m][: r - m]] for r in range(exp_budget)]
    found = [
        sol
        for row in rows
        for first in row
        for sol in _walk_every_leaf(n_max, exp_budget, pairs, first)
    ]
    return sorted(found, key=lambda sol: sol.candidate.n)


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.parametrize(
    "n_max,budget",
    [(4, 15), (3, 19), (4, 13), (2, 28), (5, 11), (5, 16), (2, 40), (1, 120), (1, 447)],
)
def test_search_equals_the_walk_over_every_leaf(n_max, budget):
    # The benchmark's cycle-search boxes, two wider ones and two of single
    # blocks, the wider with 100,128 candidates.
    expected = _search_every_leaf(n_max, budget)
    assert len(expected) == n_max
    for workers in (1, 2, 3):
        assert search_cycles(n_max, budget, workers=workers) == expected, workers


def test_a_wrong_c_in_the_leaf_rule_loses_a_known_solution(monkeypatch):
    # W = a*Q - b*P with b*P for c's 2^m term doubled, as from
    # c = 3^(m+1) - 2^(m+1) - 2^(e+m): the same leaf rule with a wrong c,
    # in every node of the walk, as the lemma walks the children too.
    source = inspect.getsource(blocks._lemma)
    assert source.count("w = aq - bp\n") == 1
    namespace = dict(vars(blocks))
    exec(source.replace("w = aq - bp\n", "w = aq - 2 * bp\n"), namespace)
    monkeypatch.setattr(blocks, "_lemma", namespace["_lemma"])
    found = [s.candidate for s in search_cycles(3, 12, workers=1)]
    assert CycleCandidate((0, 0, 0), (1, 1, 1)) not in found
    assert found != [s.candidate for s in _search_every_leaf(3, 12)]


def test_a_wrong_k0_from_the_lemma_fails_the_search(monkeypatch):
    # The lemma decides which lists close; each solution's k0 comes from
    # cycle_equation_general, which must agree with the lemma's.
    real = blocks._closing_lists
    monkeypatch.setattr(
        cycles, "_closing_lists", lambda *a: [(path, k0 + 1) for path, k0 in real(*a)]
    )
    says = "^the lemma's k0 = 1 for {} is not the closure's 0$"
    with pytest.raises(IdentityViolation, match=says.format(r"\[\(0, 1\), \(0, 1\)\]")):
        search_cycles(3, 12, workers=1)
    with pytest.raises(IdentityViolation, match=says.format(r"\[\(0, 1\)\]")):
        search_cycles_n1(4, 4)


def _planted_step(action, at, in_child=True, parent=os.getpid()):
    """A block step that runs ``action`` when the walk extends the start by
    first block ``at``, only in a forked worker (or, with ``in_child=False``,
    only in the test process)."""

    def step(state, m, e):
        if state == START and (m, e) == at and (os.getpid() != parent) == in_child:
            action()
        return block_step(state, m, e)

    return step


def _planted_lemma(action, in_child=True, parent=os.getpid(), real=blocks._lemma):
    """``blocks._lemma``, but running ``action`` whenever the walk takes a
    node's last blocks, only in a forked worker (or, with
    ``in_child=False``, only in the test process)."""

    def lemma(*node):
        if (os.getpid() != parent) == in_child:
            action()
        return real(*node)

    return lemma


def _plant_at_first_block(patch, action, at, in_child=True):
    planted = _planted_step(action, at, in_child)
    patch.setattr(cycles, "_extend", planted)
    return planted


def _plant_at_last_depth(patch, action, at, in_child=True):
    planted = _planted_lemma(action, in_child)
    patch.setattr(blocks, "_lemma", planted)
    return planted


# A fault where the walk extends the start by a given first block, and one
# where it takes last blocks: the two ways the walk reaches a node.
_PLANTS = (_plant_at_first_block, _plant_at_last_depth)


def _raise(exc):
    raise exc


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


# The first block that the one child walks first at two workers.  A fault
# planted in it fails the child before it claims any other first block.
_CHILD_FIRST = _firsts(12)[1]


@pytest.mark.parametrize(
    "action, says",
    [
        (partial(os._exit, 3), "exited with status 3"),
        (_kill_self, f"was killed by signal {int(signal.SIGKILL)} (SIGKILL)"),
        (partial(os._exit, 0), "exited with status 0 but sent a short payload (0 bytes)"),
    ],
    ids=["exit-3", "sigkill", "short-payload"],
)
@pytest.mark.usefixtures("split_any_box")
def test_crashed_search_worker_names_its_first_blocks(action, says, monkeypatch):
    for plant in _PLANTS:
        with monkeypatch.context() as patch:
            plant(patch, action, _CHILD_FIRST)
            with pytest.raises(SweepWorkerError) as info:
                search_cycles(3, 12, workers=2)
        assert str(info.value) == f"the worker for first blocks (m, e) {_CHILD_FIRST} {says}", plant
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("split_any_box")
def test_crashed_search_worker_fails_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for plant in _PLANTS:
        with monkeypatch.context() as patch:
            plant(patch, partial(os._exit, 3), _CHILD_FIRST)
            assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the worker for first blocks (m, e) {_CHILD_FIRST} exited with status 3\n"


@pytest.mark.usefixtures("split_any_box")
def test_search_worker_exception_keeps_its_type(monkeypatch):
    for plant in _PLANTS:
        with monkeypatch.context() as patch:
            action = partial(_raise, IdentityViolation("planted"))
            planted = plant(patch, action, _CHILD_FIRST)
            with pytest.raises(IdentityViolation, match="^planted$") as info:
                search_cycles(3, 12, workers=2)
        # the cause names the child's first block and carries its traceback
        cause = info.value.__cause__
        assert isinstance(cause, SweepWorkerError)
        assert str(cause).startswith(
            f"raised in the worker for {_first_block_names([_CHILD_FIRST])}; its traceback:\n"
        )
        assert f"in {planted.__name__}" in str(cause)


# At three workers the first child starts with this first block, and the
# test process walks (0, 1) first.  When either fails, the second child has
# not been reaped yet.
_FIRST_CHILD_BLOCK = _firsts(19)[1]


@pytest.mark.parametrize(
    "action, at, in_child, raises",
    [
        (partial(os._exit, 3), _FIRST_CHILD_BLOCK, True, SweepWorkerError),
        (partial(_raise, IdentityViolation()), _FIRST_CHILD_BLOCK, True, IdentityViolation),
        (partial(_raise, IdentityViolation()), (0, 1), False, IdentityViolation),
        (partial(_raise, KeyboardInterrupt()), (0, 1), False, KeyboardInterrupt),
    ],
    ids=["child-exits", "child-raises", "parent-raises", "parent-interrupted"],
)
@pytest.mark.usefixtures("split_any_box")
def test_no_worker_outlives_a_failed_search(action, at, in_child, raises, monkeypatch):
    for plant in _PLANTS:
        with monkeypatch.context() as patch:
            plant(patch, action, at, in_child)
            with pytest.raises(raises):
                search_cycles(3, 19, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_a_failed_search_fork_leaves_no_child_and_no_pipe(monkeypatch):
    forks = []

    def second_fork_fails(_real=os.fork):
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "planted fork failure")
        return _real()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="planted fork failure"):
        search_cycles(3, 19, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.usefixtures("split_any_box")
def test_planted_simulation_fault_surfaces(monkeypatch, capsys):
    # Two CPUs, so the search forks here as on a multi-core host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cycles, "_simulate", lambda c, k0: False)
    sols = search_cycles(3, 12)
    assert [s.candidate.n for s in sols] == [1, 2, 3]
    assert all(s.k0 == 0 and not s.simulated_ok for s in sols)
    assert not any(s.simulated_ok for s in search_cycles_n1(5, 5))
    assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 2
    assert "unsimulated" in capsys.readouterr().out


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.parametrize("workers", [1, 2])
def test_planted_block_fault_fails_the_simulation(workers, monkeypatch, capsys):
    # The closures come from the last-block lemma, which never calls
    # make_block, so only the replay of each solution through real blocks
    # sees this.
    def off_at_zero(k_in, _real=make_block):
        b = _real(k_in)
        return b._replace(k_out=b.k_out + 1) if k_in == 0 else b

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(blocks, "make_block", off_at_zero)
    sols = search_cycles(3, 12)
    assert [(s.candidate.n, s.k0) for s in sols] == [(1, 0), (2, 0), (3, 0)]
    assert not any(s.simulated_ok for s in sols)
    assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 2
    out = capsys.readouterr().out
    assert out.count(" unsimulated\n") == 3 and " ok\n" not in out


def test_vanishing_closure_raises_under_optimize():
    # The walks step each first block by cycles._extend, the closures by
    # blocks.block_step.  The searches take every closure from the
    # last-block lemma: from the state (3, 4, 1), block (0, 1) gives
    # P' = 3 * 4 = T' = 4 * 3.  So the searches start there, or step there.
    code = (
        "import collatz_lab.blocks as B, collatz_lab.cycles as C\n"
        "from collatz_lab.errors import IdentityViolation\n"
        "vanish = lambda state, m, e: (8, 8, 1)\n"
        "last_vanishes = lambda state, m, e: (3, 4, 1)\n"
        "for step, start, call in (\n"
        "    (vanish, B.START, lambda: C.cycle_equation_general(C.CycleCandidate((0,), (1,)))),\n"
        "    (B.block_step, (3, 4, 1), lambda: C.search_cycles(1, 1, workers=1)),\n"
        "    (last_vanishes, B.START, lambda: C.search_cycles(3, 3, workers=1)),\n"
        "    (B.block_step, (3, 4, 1), lambda: C.search_cycles_n1(1, 1)),\n"
        "    (last_vanishes, B.START, lambda: C.search_cycles(2, 2, workers=1))):\n"
        "    C._extend = B.block_step = step\n"
        "    C.START = start\n"
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
    assert proc.stdout == "raised\n" * 5
