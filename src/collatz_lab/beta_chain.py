"""The beta -> (eta -> beta)* -> alpha chain and its closed-form solution.

Starting from an even value beta = 4k+2, repeated Collatz steps alternate
beta, eta, beta, eta, ... until an alpha = 4h+1 is hit after an odd number of
steps n = 2m+1.  The exponent m is exactly the 2-adic valuation of k+1, and
the landing index h satisfies the exact identity

    (k + 1) * 3^m = (2h + 1) * 2^m.

``solve_beta_chain`` computes (m, h) directly from the valuation;
``solve_beta_chain_paper`` reproduces the same pair by iterated halving case
analysis.  ``chain_counterexample`` is the one replay of the chain: it holds
both solvers to each other and to the identity, and steps the chain value by
value, checking the strict beta/eta alternation and the landing on 4h+1.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _new
from .errors import DomainError

__all__ = [
    "v2",
    "BetaChainSolution",
    "solve_beta_chain",
    "solve_beta_chain_paper",
    "chain_path",
    "chain_residues",
    "chain_counterexample",
]


def v2(n: int) -> int:
    """2-adic valuation: exponent of the largest power of 2 dividing n."""
    if n < 1:
        raise DomainError(f"v2 needs n >= 1, got {n}")
    return (n & -n).bit_length() - 1


class BetaChainSolution(NamedTuple):
    k: int
    m: int
    h: int

    @property
    def beta(self) -> int:
        return 4 * self.k + 2

    @property
    def alpha(self) -> int:
        return 4 * self.h + 1

    @property
    def steps(self) -> int:
        return 2 * self.m + 1


def solve_beta_chain(k: int) -> BetaChainSolution:
    """Chain exponents for beta = 4k+2 via the 2-adic valuation of k+1."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    m = v2(k + 1)
    odd = (k + 1) >> m
    h = (odd * 3**m - 1) >> 1
    return _new(BetaChainSolution, (k, m, h))


def solve_beta_chain_paper(k: int) -> BetaChainSolution:
    """Same solution, computed by the explicit halving case ladder.

    k even: the identity forces m = 0 outright.  Otherwise write
    k + 1 = 2t and keep halving: each even t defers the decision one more
    level, each halving bumps m by one, and the strictly shrinking odd part
    guarantees the ladder stops.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if k & 1 == 0:
        m = 0
        t = k + 1
    else:
        t = (k + 1) >> 1
        m = 1
        while t & 1 == 0:
            t >>= 1
            m += 1
    h = (t * 3**m - 1) >> 1
    return _new(BetaChainSolution, (k, m, h))


def chain_path(k: int, m: int) -> list[int]:
    """The 2m+2 chain values from beta = 4k+2 through the landing alpha.

    Built arithmetically (u_{i+1} = 3*(u_i/2) + 1, starting at u_0 = 4k+2),
    so tests can hold it against the real map without circularity.
    """
    path = []
    u = 4 * k + 2
    for _ in range(m):
        path.append(u)
        half = u >> 1
        path.append(half)
        u = 3 * half + 1
    path.append(u)
    path.append(u >> 1)  # the alpha
    return path


def chain_residues(m: int) -> list[int]:
    """The residues mod 4 of the 2m+2 values of a chain of exponent m:
    beta and eta alternate (2, 3, ..., 2) and the landing is an alpha (1)."""
    return [2, 3] * m + [2, 1]


def _off_chain(name: str, j: int, v: int) -> tuple[str, str]:
    r = v & 3
    return (f"{name} at chain step {j}", f"value {v} = 4k+{r or 4}")


def chain_counterexample(k: int) -> tuple[str, str] | None:
    """Lean full check for sweep loops: None when everything holds at k,
    else (expected, actual) strings for the first failing property."""
    sol = solve_beta_chain(k)
    ladder = solve_beta_chain_paper(k)
    _, m, h = sol
    if sol != ladder:
        return (f"(m,h)={(m, h)}", f"ladder gave {(ladder[1], ladder[2])}")
    if (k + 1) * 3**m != (2 * h + 1) * 2**m:
        return ("(k+1)*3^m == (2h+1)*2^m", "exact identity violated")
    # The 2m+1 chain steps, two at a time: beta halves to eta, eta goes to
    # 3v+1, and the last beta halves onto the landing.
    v = 4 * k + 2
    for j in range(0, 2 * m, 2):
        if v & 3 != 2:
            return _off_chain("beta", j, v)
        v >>= 1
        if v & 3 != 3:
            return _off_chain("eta", j + 1, v)
        v = 3 * v + 1
    if v & 3 != 2:
        return _off_chain("beta", 2 * m, v)
    v >>= 1
    alpha = 4 * h + 1
    if v != alpha or v & 3 != 1:
        return (f"landing {alpha}", str(v))
    return None
