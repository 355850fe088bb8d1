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

The bracket never vanishes, as no power of 2 equals a power of 3; every
closure here raises ``IdentityViolation`` where it would.  For one block:

    k' = (3^(m+1) - 2^m - 2^(e+m)) / (2^(e+m+1) - 3^(m+1)).

``search_cycles`` walks its parameter box exhaustively, depth first.  A
node is a list of blocks with its state and the budget left.  It takes
its closing children, the lists one block longer that close, from the
last-block lemma (``blocks.closing_blocks``), which tests only the e that
can close under the node's state, and it steps only the children that
leave room for one more block.  A box large enough to repay a fork is
walked on the fork engine of ``sweeps``, one first block per item; the
solutions come back in walk order, so the result does not depend on the
worker count.  ``search_cycles_n1`` is the lemma's case n = 1: the
closing blocks of ``START`` that fall in its box.

A closing list is *simulated* against the genuine block decomposition; a
formal solution that the map itself does not follow is returned with
simulated_ok=False rather than silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import NamedTuple, Sequence

from .blocks import START, State, _blocks_from, _vanished, block_state
# module globals: one lookup each in the search loop
from .blocks import block_step as _extend
from .blocks import closing_blocks as _last_blocks
from .errors import DomainError
from .sweeps import _fork_map, resolve_workers

__all__ = [
    "CycleCandidate",
    "CycleSolution",
    "cycle_k_n1",
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


def _fixed_point(state: State) -> Fraction:
    p, t, s = state
    if p == t:
        raise _vanished(p)
    return Fraction(s, p - t)


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


def cycle_k_n1(m: int, e: int) -> Fraction:
    """Fixed point of a single formal block with parameters (m, e)."""
    return _fixed_point(block_state((m,), (e,)))


def cycle_equation_general(c: CycleCandidate) -> CycleSolution:
    """Solve the n-block closure k_n = k_0 for the candidate's parameters.

    Folds the block step over the candidate and solves k0 * (P - T) = S.
    Unrolled, S is the sum of c_j * prod_{i>j} 3^(m_i+1) * prod_{i<j}
    2^(e_i+m_i+1), so

        k0 = S / (prod_j 2^(e_j+m_j+1) - prod_j 3^(m_j+1)).
    """
    k0 = _fixed_point(block_state(c.m_seq, c.e_seq))
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
    that closes fits the budget below.  ``blocks.closing_blocks(START, ...)``,
    the last-block lemma's case n = 1, tests that one e per m, and the
    budget ends its m loop near 1.26 * m_max however large e_max is.
    """
    if m_max < 1 or e_max < 1:
        raise DomainError(f"bounds must be >= 1, got ({m_max}, {e_max})")
    blocks = _last_blocks(START, m_max + min(e_max, m_max + 1))
    return [_hit([(m, e)], k0) for m, e, k0 in blocks if m <= m_max and e <= e_max]


Blocks = list[tuple[int, int]]  # block parameters (m, e), in walk order

# A candidate costs 0.1 to 0.9 us and a fork about 2 ms.  On a 2-vCPU host
# 2 workers have lost to 1 on every box below 100,000 candidates on one
# day, and beaten it from 80,788 candidates up on another; (5, 16), 509,014
# candidates, gains every time.  So the search gives each worker at least
# this many candidates and walks a smaller box in this process alone.
_MIN_SHARE = 50_000


def _first_block_names(claimed: Blocks) -> str:
    return "first blocks (m, e) " + ", ".join(map(str, claimed))


def _walk(
    n_max: int, exp_budget: int, pairs: list[Blocks], first: tuple[int, int]
) -> list[CycleSolution]:
    """The solutions that start with block ``first``, in walk order;
    ``pairs`` is the table built by ``search_cycles``.  A node's depth is
    the length of ``path``, its blocks.  Each node appends its closing
    children from ``blocks.closing_blocks`` and, above depth n_max - 1,
    steps the children that leave room for one more block."""
    path = [first]
    found: list[CycleSolution] = []

    def walk(state: State, remaining: int) -> None:
        for m, e, k0 in _last_blocks(state, remaining):
            found.append(_hit(path + [(m, e)], k0))
        if len(path) + 1 < n_max:
            for pair in pairs[remaining]:
                m, e = pair
                path.append(pair)
                walk(_extend(state, m, e), remaining - m - e)
                path.pop()

    m, e = first
    walk(_extend(START, m, e), exp_budget - m - e)
    return found


def search_cycles(
    n_max: int, exp_budget: int, workers: int | None = None
) -> list[CycleSolution]:
    """Exhaustive search over all lengths 1..n_max and parameter lists with
    sum(m) + sum(e) <= exp_budget; same filtering as search_cycles_n1.

    One depth-first walk visits every list of every length, in
    lexicographic order of the interleaved tuple (m_1, e_1, m_2, e_2, ...).
    Each node takes the lists one block longer that close from
    ``blocks.closing_blocks`` and steps only the children that leave room
    for another block; the closing blocks of ``START`` are the solutions of
    length 1.

    The walk is mapped over its first blocks on up to ``workers`` workers
    (else the CPUs this process may run on) by the fork engine of
    ``sweeps``: with w workers, worker i walks first block i, and then
    every worker, this process being worker 0, claims the next first block
    not yet walked, so a worker that falls behind walks fewer.  There are
    no more workers than one per ``_MIN_SHARE`` candidates, so a small box
    forks nothing.  The engine returns each first block's solutions in
    walk order, whoever walked it.  Each length's solutions come from nodes
    of one depth, so one stable sort by length groups them shortest first,
    each group in walk order, for any worker count.  Raises
    ``SweepWorkerError`` when a child crashes, naming the first blocks it
    claimed, the one it failed in last.
    """
    total = count_candidates(n_max, exp_budget)
    # rows[m]: the first blocks (m, e) in walk order; no walk lies below one if n_max = 1
    rows: list[Blocks] = []
    if n_max > 1:
        rows = [[(m, e) for e in range(1, exp_budget - m + 1)] for m in range(exp_budget)]
    # pairs[r]: the blocks that a node with a budget of r left steps, those
    # that leave room for a last block (m + e < r), in walk order, all
    # sharing one tuple per block; only a walk with blocks between the
    # first and the last needs them, and forked workers inherit them.
    pairs: list[Blocks] = []
    if n_max > 2:
        pairs = [
            [p for m in range(r - 1) for p in rows[m][: r - 1 - m]] for r in range(exp_budget)
        ]
    w = min(resolve_workers(workers), max(1, total // _MIN_SHARE))
    parts = _fork_map(
        partial(_walk, n_max, exp_budget, pairs),
        [p for row in rows for p in row],
        w,
        _first_block_names,
    )
    singles = [_hit([(m, e)], k0) for m, e, k0 in _last_blocks(START, exp_budget)]
    found = singles + [sol for part in parts for sol in part]
    return sorted(found, key=lambda sol: sol.candidate.n)


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
