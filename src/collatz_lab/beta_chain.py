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
value, checking each eta and the landing on 4h+1.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = [
    "v2",
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


# The solution (k, m, h): beta = 4k+2 climbs in 2m+1 steps to alpha = 4h+1.
Solution = tuple[int, int, int]


def solve_beta_chain(k: int) -> Solution:
    """Chain exponents for beta = 4k+2 via the 2-adic valuation of k+1."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    m = v2(k + 1)
    odd = (k + 1) >> m
    h = (odd * 3**m - 1) >> 1
    return k, m, h


def solve_beta_chain_paper(k: int) -> Solution:
    """Same solution, computed by the explicit halving case ladder.

    k even: the identity forces m = 0 outright.  Otherwise write
    k + 1 = 2t and keep halving: each even t defers the decision one more
    level, each halving bumps m by one, and the strictly shrinking odd part
    guarantees the ladder stops.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if k & 1 == 0:
        return k, 0, k >> 1
    t = (k + 1) >> 1
    m = 1
    while t & 1 == 0:
        t >>= 1
        m += 1
    h = (t * 3**m - 1) >> 1
    return k, m, h


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
    # The 2m+1 chain steps: v is the eta at step 2i+1, reached by halving
    # the beta before it, and (3v+1)/2 is the next eta or the landing.
    # Every beta holds by arithmetic: the first is 4k+2, and v = 3 (mod 4)
    # gives 3v+1 = 2 (mod 4).  A counted loop builds no object per k.
    v = 2 * k + 1
    i = 0
    while i < m:
        if v & 3 != 3:
            return (f"eta at chain step {2 * i + 1}", f"value {v} = 4k+{v & 3 or 4}")
        v = (3 * v + 1) >> 1
        i += 1
    alpha = 4 * h + 1
    if v != alpha or v & 3 != 1:
        return (f"landing {alpha}", str(v))
    return None
