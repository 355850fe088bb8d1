"""Cycle search over formal block parameters.

A trajectory cycle through beta values corresponds to a parameter list
(m_1, e_1), ..., (m_n, e_n) whose affine block maps compose to a map whose
fixed point k0 is a non-negative integer *and* whose actual block
decomposition reproduces exactly those parameters.  Clearing denominators,
the closure condition k_n = k_0 reads

    k0 * (prod_j 2^(e_j+m_j+1) - prod_j 3^(m_j+1)) = S

with S the cleared affine constant; the bracket can never vanish because no
power of 2 equals a power of 3.  For a single block this collapses to

    k' = (3^(m+1) - 2^m - 2^(e+m)) / (2^(e+m+1) - 3^(m+1)).

The searches enumerate parameter boxes exhaustively, solve every candidate
exactly, keep the ones whose fixed point is a non-negative integer, and
*simulate* each of those against the genuine block decomposition; a formal
solution that the map itself does not follow is returned with
simulated_ok=False rather than silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .blocks import decompose
from .errors import DomainError

__all__ = [
    "Degenerate",
    "CycleCandidate",
    "CycleSolution",
    "cycle_k_n1",
    "cycle_equation_general",
    "search_cycles_n1",
    "search_cycles",
    "count_candidates",
]


class Degenerate:
    """Placeholder for a vanishing cycle denominator.

    The denominator is a difference of a 2-power and a 3-power, so it never
    vanishes for integer exponents; no public operation ever actually
    returns this.  It exists so the impossible branch is explicit instead of
    a bare division blowing up.
    """

    def __repr__(self) -> str:
        return "Degenerate"


DEGENERATE = Degenerate()


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


def cycle_k_n1(m: int, e: int) -> Fraction | Degenerate:
    """Fixed point of a single formal block with parameters (m, e)."""
    if m < 0 or e < 1:
        raise DomainError(f"need m >= 0 and e >= 1, got (m, e) = ({m}, {e})")
    num = 3 ** (m + 1) - 2**m - 2 ** (e + m)
    den = 2 ** (e + m + 1) - 3 ** (m + 1)
    if den == 0:  # unreachable: 2^a = 3^b has no solutions
        return DEGENERATE
    return Fraction(num, den)


def _validate(c: CycleCandidate) -> None:
    if c.n < 1 or len(c.e_seq) != c.n:
        raise DomainError(f"need equal-length, non-empty parameter lists, got {c}")
    for m, e in zip(c.m_seq, c.e_seq):
        if m < 0 or e < 1:
            raise DomainError(f"need m >= 0 and e >= 1, got (m, e) = ({m}, {e})")


def _simulate(c: CycleCandidate, k0: int) -> bool:
    """n real blocks from k0 must use exactly c's parameters and close."""
    blocks = decompose(k0, c.n).blocks
    for b, m, e in zip(blocks, c.m_seq, c.e_seq):
        if b.m != m or b.e != e:
            return False
    return blocks[-1].k_out == k0


def cycle_equation_general(c: CycleCandidate) -> CycleSolution:
    """Solve the n-block closure k_n = k_0 for the candidate's parameters.

    Works in cleared integer arithmetic: iterating
    k_{j+1} = (k_j * 3^(m_j+1) + c_j) / 2^(e_j+m_j+1) with
    c_j = 3^(m_j+1) - 2^m_j - 2^(e_j+m_j) and equating k_n = k_0 gives

        k0 = sum_j c_j * prod_{i>j} 3^(m_i+1) * prod_{i<j} 2^(e_i+m_i+1)
             / (prod_j 2^(e_j+m_j+1) - prod_j 3^(m_j+1)).
    """
    _validate(c)
    twos = [2 ** (e + m + 1) for m, e in zip(c.m_seq, c.e_seq)]
    threes = [3 ** (m + 1) for m in c.m_seq]
    consts = [
        3 ** (m + 1) - 2**m - 2 ** (e + m) for m, e in zip(c.m_seq, c.e_seq)
    ]
    s = 0
    prefix_two = 1
    for j in range(c.n):
        tail_three = 1
        for t in threes[j + 1 :]:
            tail_three *= t
        s += consts[j] * tail_three * prefix_two
        prefix_two *= twos[j]
    all_three = 1
    for t in threes:
        all_three *= t
    den = prefix_two - all_three
    assert den != 0, "a power of 2 equalled a power of 3"
    k0 = Fraction(s, den)
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
            sol = cycle_equation_general(CycleCandidate((m,), (e,)))
            if sol.is_integer and sol.is_nonneg:
                found.append(sol)
    return found


def _param_lists(n: int, budget: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (m_seq, e_seq) of length n with m_j >= 0, e_j >= 1 and
    sum(m) + sum(e) <= budget, in lexicographic order of the interleaved
    tuple (m_1, e_1, m_2, e_2, ...)."""

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


def search_cycles(n_max: int, exp_budget: int) -> list[CycleSolution]:
    """Exhaustive search over all lengths 1..n_max and parameter lists with
    sum(m) + sum(e) <= exp_budget; same filtering as search_cycles_n1."""
    if n_max < 1 or exp_budget < n_max:
        raise DomainError(
            f"need n_max >= 1 and exp_budget >= n_max, got ({n_max}, {exp_budget})"
        )
    found = []
    for n in range(1, n_max + 1):
        for m_seq, e_seq in _param_lists(n, exp_budget):
            sol = cycle_equation_general(CycleCandidate(m_seq, e_seq))
            if sol.is_integer and sol.is_nonneg:
                found.append(sol)
    return found


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
