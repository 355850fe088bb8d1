"""Cycle search over formal block parameters.

A trajectory cycle through beta values corresponds to a parameter list
(m_1, e_1), ..., (m_n, e_n) whose affine block maps compose to a map whose
fixed point k0 is a non-negative integer *and* whose actual block
decomposition reproduces exactly those parameters.

Every closure here rests on the cleared-integer block step
``blocks.block_step``: the state (P, T, S) starts at (1, 1, 0), and after
n blocks P and T are the products of the blocks' powers of 2 and 3, and
k_n = (T * k_0 + S) / P.  The closure condition k_n = k_0 therefore reads

    k0 * (P - T) = S.

``cycle_equation_general`` solves it for any candidate, one block
included, where it reads

    k' = (3^(m+1) - 2^m - 2^(e+m)) / (2^(e+m+1) - 3^(m+1)).

The bracket never vanishes, as no power of 2 equals a power of 3; every
closure here raises ``IdentityViolation`` where it would.

``search_cycles`` covers its parameter box exhaustively.  A rotation of a
list is the same cycle read from another beta, so a depth-first walk
visits only the prenecklaces, prefixes of lists that are least among
their rotations, and finds each closing list once, as its necklace.  A
node is a prenecklace with its state, its Lyndon period and the budget
left.  One loop over m per node, the last-block lemma of ``blocks``,
tests only the e that can close under the node's state and the necklace
rule, and steps, from the same quantities, the children that are
prenecklaces with room for one more block.  ``START`` is such a node: its
last blocks are the solutions of length 1, and its children are the first
blocks.  Each closing necklace is expanded into its distinct rotations,
each solved again by ``cycle_equation_general``, and the solutions are
sorted by length, then in lexicographic order of (m_1, e_1, m_2, ...), so
the result is that of a walk over every list.  A box large enough to
repay a fork is walked on the fork engine of ``sweeps``, one first block
per item, and the sort makes the result the same at any worker count.
``search_cycles_n1`` is the lemma's case n = 1: the last blocks that
close ``START`` and fall in its box.

A closing list is *simulated* against the genuine block decomposition; a
formal solution that the map itself does not follow is returned with
simulated_ok=False rather than silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import NamedTuple, Sequence

from .blocks import START, Blocks, _blocks_from, _closing_lists, _vanished, block_state
from .blocks import block_step as _extend  # the first-block step; a patch reaches it
from .errors import DomainError
from .sweeps import _fork_map, resolve_workers

__all__ = [
    "CycleCandidate",
    "CycleSolution",
    "cycle_equation_general",
    "search_cycles_n1",
    "search_cycles",
    "count_candidates",
]


class CycleCandidate(NamedTuple):
    m_seq: tuple[int, ...]
    e_seq: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.m_seq)


class CycleSolution(NamedTuple):
    candidate: CycleCandidate
    k0: Fraction
    is_integer: bool
    is_nonneg: bool
    simulated_ok: bool


def _simulate(c: CycleCandidate, k0: int) -> bool:
    """n real blocks from k0 must use exactly c's parameters and close; the
    walk, zipped last, makes no block past the first mismatch."""
    for m, e, b in zip(c.m_seq, c.e_seq, _blocks_from(k0)):
        if b.m != m or b.e != e:
            return False
    return b.k_out == k0


def _hit(pairs: Sequence[tuple[int, int]], k0: int) -> CycleSolution:
    """The solution for a list whose closure has integer fixed point k0 >= 0."""
    c = CycleCandidate(tuple(m for m, _ in pairs), tuple(e for _, e in pairs))
    return CycleSolution(c, Fraction(k0), True, True, _simulate(c, k0))


def cycle_equation_general(c: CycleCandidate) -> CycleSolution:
    """Solve the n-block closure k_n = k_0 for the candidate's parameters.

    Folds the block step over the candidate and solves k0 * (P - T) = S.
    Unrolled, S is the sum of c_j * prod_{i>j} 3^(m_i+1) * prod_{i<j}
    2^(e_i+m_i+1), so

        k0 = S / (prod_j 2^(e_j+m_j+1) - prod_j 3^(m_j+1)).
    """
    p, t, s = block_state(c.m_seq, c.e_seq)
    if p == t:
        raise _vanished(p)
    k0 = Fraction(s, p - t)
    is_integer = k0.denominator == 1
    is_nonneg = k0 >= 0
    simulated = is_integer and is_nonneg and _simulate(c, int(k0))
    return CycleSolution(c, k0, is_integer, is_nonneg, simulated)


def search_cycles_n1(m_max: int, e_max: int) -> list[CycleSolution]:
    """Exhaustive single-block box m in 0..m_max, e in 1..e_max; returns the
    solutions with integer non-negative fixed point, simulation included.

    Only one e per m can close at k' >= 0.  k' = c / d with
    c = 3^(m+1) - 2^m - 2^(e+m) and d = 2^(e+m+1) - 3^(m+1), which is never
    0, so k' >= 0 needs c >= 0 < d or c <= 0 > d:

    - c >= 0 < d gives 2^(e+m) < 2^m + 2^(e+m) <= 3^(m+1) < 2^(e+m+1), so
      e + m + 1 is the bit length of 3^(m+1);
    - c <= 0 > d gives 2^(e+m+1) < 3^(m+1) <= 2^m + 2^(e+m) <= 1.5 * 2^(e+m)
      since e >= 1, which is impossible.

    So e + m + 1 <= 2m + 2, as 3^(m+1) < 4^(m+1), and a block of the box
    that closes fits the budget below.  The last-block lemma at ``START``,
    its case n = 1, tests that one e per m, and the budget ends its m loop
    near 1.26 * m_max however large e_max is.
    """
    if m_max < 1 or e_max < 1:
        raise DomainError(f"bounds must be >= 1, got ({m_max}, {e_max})")
    lasts = _closing_lists(START, m_max + min(e_max, m_max + 1), 1)
    return [_hit([(m, e)], k0) for ((m, e),), k0 in lasts if m <= m_max and e <= e_max]


# On the necklace walk a candidate costs 0.05 to 0.16 us and a fork 2 to
# 3 ms.  On a 2-vCPU host, with every box forked, 2 workers lost to 1 at
# (3, 19) and (4, 15), 80,788 and 96,646 candidates, and gained at
# (5, 16), 509,014 candidates.  So the search gives each worker at least
# this many candidates and walks a smaller box in this process alone.
_MIN_SHARE = 50_000


def _first_block_names(claimed: Sequence[tuple[int, int]]) -> str:
    return "first blocks (m, e) " + ", ".join(map(str, claimed))


def _solutions(lists: Sequence[tuple[Blocks, int]]) -> list[CycleSolution]:
    """The solutions of closing necklaces, each with its other distinct
    rotations.  A rotation is the same cycle read from another beta, so it
    closes at an integer k0 exactly when the necklace does; each is solved
    again by ``cycle_equation_general``, never assumed, and kept when its
    k0 is an integer >= 0."""
    found = []
    for path, k0 in lists:
        found.append(_hit(path, k0))
        for turned in {path[i:] + path[:i] for i in range(1, len(path))} - {path}:
            sol = cycle_equation_general(CycleCandidate(*map(tuple, zip(*turned))))
            if sol.is_integer and sol.is_nonneg:
                found.append(sol)
    return found


def _walk(n_max: int, exp_budget: int, first: tuple[int, int]) -> list[CycleSolution]:
    """The solutions read from the necklaces that start with block
    ``first``: the closing lists below its state, from the last-block
    lemma, with their rotations."""
    m, e = first
    below = _closing_lists(_extend(START, m, e), exp_budget - m - e, n_max - 1, (first,))
    return _solutions(below)


def search_cycles(
    n_max: int, exp_budget: int, workers: int | None = None
) -> list[CycleSolution]:
    """Exhaustive search over all lengths 1..n_max and parameter lists with
    sum(m) + sum(e) <= exp_budget; same filtering as search_cycles_n1.
    The solutions are listed shortest first, each length in lexicographic
    order of the interleaved tuple (m_1, e_1, m_2, e_2, ...).

    A rotation of a list is the same cycle read from another beta, and
    the box does not depend on the rotation, so one depth-first walk
    visits only the prenecklaces, the prefixes of lists that are least
    among their rotations, (m, e) pairs compared in order.  One m loop per
    node, the last-block lemma, finds the necklaces one block longer that
    close and steps the prenecklace children that leave room for another
    block, m + e below the node's budget.  ``START`` is the first node:
    its last blocks are the solutions of length 1, and its children, the
    first blocks, are the walk's items.  Each closing necklace is then
    expanded into its distinct rotations, each solved again, and the whole
    is sorted into the order above.

    The walk is mapped over its first blocks on up to ``workers`` workers
    (else the CPUs this process may run on) by the fork engine of
    ``sweeps``: with w workers, worker i walks first block i, and then
    every worker, this process being worker 0, claims the next first block
    not yet walked, so a worker that falls behind walks fewer.  There are
    no more workers than one per ``_MIN_SHARE`` candidates, so a small box
    forks nothing.  The sort makes the result the same for any worker
    count.  Raises ``SweepWorkerError`` when a child crashes, naming the
    first blocks it claimed, the one it failed in last.
    """
    total = count_candidates(n_max, exp_budget)
    # the children (m, e) of START in walk order, as the lemma steps them;
    # no walk lies below one if n_max = 1
    firsts = []
    if n_max > 1:
        firsts = [(m, e) for m in range(exp_budget) for e in range(1, exp_budget - m)]
    w = min(resolve_workers(workers), max(1, total // _MIN_SHARE))
    parts = _fork_map(partial(_walk, n_max, exp_budget), firsts, w, _first_block_names)
    singles = _solutions(_closing_lists(START, exp_budget, 1))
    found = singles + [sol for part in parts for sol in part]
    return sorted(found, key=lambda sol: (sol.candidate.n, tuple(zip(*sol.candidate))))


def count_candidates(n_max: int, exp_budget: int) -> int:
    """How many candidates search_cycles(n_max, exp_budget) examines.

    With e_j - 1 in place of e_j, a length-n list is 2n non-negative
    integers summing to at most B - n, of which there are
    C(B - n + 2n, 2n) = C(B + n, 2n); the count is the sum over n.
    """
    if n_max < 1 or exp_budget < n_max:
        raise DomainError(
            f"need n_max >= 1 and exp_budget >= n_max, got ({n_max}, {exp_budget})"
        )
    return sum(comb(exp_budget + n, 2 * n) for n in range(1, n_max + 1))
