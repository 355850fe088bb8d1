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

The bracket never vanishes because no power of 2 equals a power of 3.  For
a single block this collapses to

    k' = (3^(m+1) - 2^m - 2^(e+m)) / (2^(e+m+1) - 3^(m+1)).

The searches walk parameter boxes exhaustively, depth first, extending the
parent's state by one block per node.  A node whose integer division
S / (P - T) is exact and non-negative is *simulated* against the genuine
block decomposition; a formal solution that the map itself does not follow
is returned with simulated_ok=False rather than silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .blocks import START, State, check_params, decompose
from .blocks import block_step as _extend  # a module global: one lookup in the search loop
from .errors import DomainError, IdentityViolation

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
        raise IdentityViolation(f"a power of 2 equalled a power of 3: {p}")
    return Fraction(s, p - t)


def _simulate(c: CycleCandidate, k0: int) -> bool:
    """n real blocks from k0 must use exactly c's parameters and close."""
    blocks = decompose(k0, c.n).blocks
    for b, m, e in zip(blocks, c.m_seq, c.e_seq):
        if b.m != m or b.e != e:
            return False
    return blocks[-1].k_out == k0


def _hit(pairs: Sequence[tuple[int, int]], k0: int) -> CycleSolution:
    """The solution for a list whose closure has integer fixed point k0 >= 0."""
    c = CycleCandidate(tuple(m for m, _ in pairs), tuple(e for _, e in pairs))
    return CycleSolution(c, Fraction(k0), True, True, _simulate(c, k0))


def cycle_k_n1(m: int, e: int) -> Fraction:
    """Fixed point of a single formal block with parameters (m, e)."""
    check_params((m,), (e,))
    return _fixed_point(_extend(START, m, e))


def cycle_equation_general(c: CycleCandidate) -> CycleSolution:
    """Solve the n-block closure k_n = k_0 for the candidate's parameters.

    Folds the block step over the candidate and solves k0 * (P - T) = S.
    Unrolled, S is the sum of c_j * prod_{i>j} 3^(m_i+1) * prod_{i<j}
    2^(e_i+m_i+1), so

        k0 = S / (prod_j 2^(e_j+m_j+1) - prod_j 3^(m_j+1)).
    """
    check_params(c.m_seq, c.e_seq)
    state = START
    for m, e in zip(c.m_seq, c.e_seq):
        state = _extend(state, m, e)
    k0 = _fixed_point(state)
    is_integer = k0.denominator == 1
    is_nonneg = k0 >= 0
    simulated = is_integer and is_nonneg and _simulate(c, int(k0))
    return CycleSolution(c, k0, is_integer, is_nonneg, simulated)


def search_cycles_n1(m_max: int, e_max: int) -> list[CycleSolution]:
    """Exhaustive single-block box m in 0..m_max, e in 1..e_max; returns the
    solutions with integer non-negative fixed point, simulation included."""
    if m_max < 1 or e_max < 1:
        raise DomainError(f"bounds must be >= 1, got ({m_max}, {e_max})")
    found = []
    for m in range(m_max + 1):
        for e in range(1, e_max + 1):
            p, t, s = _extend(START, m, e)
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                found.append(_hit([(m, e)], q))
    return found


def _check_box(n_max: int, exp_budget: int) -> None:
    if n_max < 1 or exp_budget < n_max:
        raise DomainError(
            f"need n_max >= 1 and exp_budget >= n_max, got ({n_max}, {exp_budget})"
        )


def search_cycles(n_max: int, exp_budget: int) -> list[CycleSolution]:
    """Exhaustive search over all lengths 1..n_max and parameter lists with
    sum(m) + sum(e) <= exp_budget; same filtering as search_cycles_n1.

    One depth-first walk visits every list of every length, in
    lexicographic order of the interleaved tuple (m_1, e_1, m_2, e_2, ...);
    each node extends its parent's state by one block.  Solutions come out
    grouped by length, shortest first, each group in walk order.
    """
    _check_box(n_max, exp_budget)
    by_length: list[list[CycleSolution]] = [[] for _ in range(n_max)]
    path: list[tuple[int, int]] = []

    def walk(state: State, remaining: int, depth: int) -> None:
        found = by_length[depth]
        deeper = depth + 1 < n_max
        for m in range(remaining):
            for e in range(1, remaining - m + 1):
                child = _extend(state, m, e)
                p, t, s = child
                q, r = divmod(s, p - t)
                if not r and q >= 0:
                    found.append(_hit(path + [(m, e)], q))
                left = remaining - m - e
                if deeper and left:
                    path.append((m, e))
                    walk(child, left, depth + 1)
                    path.pop()

    walk(START, exp_budget, 0)
    return [sol for group in by_length for sol in group]


def count_candidates(n_max: int, exp_budget: int) -> int:
    """How many candidates search_cycles(n_max, exp_budget) examines.

    With e_j - 1 in place of e_j, a length-n list is 2n non-negative
    integers summing to at most B - n, of which there are
    C(B - n + 2n, 2n) = C(B + n, 2n); the count is the sum over n.
    """
    _check_box(n_max, exp_budget)
    return sum(comb(exp_budget + n, 2 * n) for n in range(1, n_max + 1))
