"""Reference computations the benchmark holds collatz-lab's outputs against.

Nothing here imports collatz_lab.  Every function works from the plain map
z -> z/2 (even) | 3z+1 (odd) and the definitions in the README, so a fault
in the program cannot also be a fault in its own reference.
"""

from __future__ import annotations

from math import comb

CLASS_SYMBOLS = "αβηγ"  # 4k+1, 4k+2, 4k+3, 4k+4
STEP_LIMIT = 100_000


def step(z: int) -> int:
    return 3 * z + 1 if z % 2 else z // 2


def classify(z: int) -> tuple[int, int]:
    """(offset, k) with z = 4k + offset and offset in 1..4."""
    return (z - 1) % 4 + 1, (z - 1) // 4


def trajectory(z: int) -> list[int]:
    values = [z]
    while z != 1:
        z = step(z)
        values.append(z)
    return values


def delay(z: int) -> int:
    return len(trajectory(z)) - 1


def glide(z: int) -> int:
    v, steps = z, 0
    while True:
        v, steps = step(v), steps + 1
        if v < z:
            return steps


def records(n_max: int, kind: str) -> list[tuple[int, int]]:
    """Successive maxima of delay or glide over 2..n_max."""
    measure = delay if kind == "delay" else glide
    best, out = -1, []
    for n in range(2, n_max + 1):
        value = measure(n)
        if value > best:
            best = value
            out.append((n, value))
    return out


def tree_level_counts(depth: int) -> list[int]:
    """How many z have delay d, for d = 0..depth.

    A value at delay d is at most 2^d (each step back at most doubles), so a
    forward scan of 1..2^depth finds every node of the backward tree.
    """
    counts = [0] * (depth + 1)
    for z in range(1, 2**depth + 1):
        v, d = z, 0
        while v != 1 and d < depth:
            v, d = step(v), d + 1
        if v == 1:
            counts[d] += 1
    return counts


def candidate_count(n_max: int, budget: int) -> int:
    """Size of the box searched by search_cycles(n_max, budget).

    A length-n candidate is 2n integers m_j >= 0, e_j >= 1 with total at most
    budget; shifting e_j down by one leaves 2n non-negative integers with
    total at most budget - n, of which there are C(budget + n, 2n).
    """
    return sum(comb(budget + n, 2 * n) for n in range(1, n_max + 1))


def replay_closes(m_seq, e_seq, k0: int) -> bool:
    """Follow the map from beta = 4*k0 + 2 through len(m_seq) blocks.

    Block j must climb beta, (eta, beta) x m_j, alpha, then fall from gamma
    through e_j halvings to the next beta; True when every block has the
    stated shape and the last beta is the first one again.
    """
    v = 4 * k0 + 2
    for m, e in zip(m_seq, e_seq):
        for want in [2, 3] * m + [2, 1]:
            if classify(v)[0] != want:
                return False
            v = step(v)
        for _ in range(e):
            if classify(v)[0] != 4:
                return False
            v = step(v)
        if classify(v)[0] != 2:
            return False
    return v == 4 * k0 + 2


def trivial_cycles(lengths) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The loop 2 -> 1 -> 4 -> 2 read as n blocks, for each n in lengths."""
    return {((0,) * n, (1,) * n) for n in lengths}


# --- per-input claims of the five sweeps --------------------------------


def transition_holds(z: int) -> bool:
    """The paper's class table: the class and index of step(z) follow from
    the class of z and the parity of its index k alone."""
    tag, k = classify(z)
    l, odd = divmod(k, 2)
    table = {
        1: (4, 6 * l + 3 * odd),
        2: (3 if odd else 1, l),
        3: (2, 6 * l + 2 + 3 * odd),
        4: (4 if odd else 2, l),
    }
    return classify(step(z)) == table[tag]


def chain_holds(k: int) -> bool:
    """From 4k+2 the orbit alternates beta/eta for 2m+1 steps, m = v2(k+1),
    and lands on alpha = 4h+1 with (k+1)*3^m = (2h+1)*2^m."""
    m = 0
    while (k + 1) % 2 ** (m + 1) == 0:
        m += 1
    v = 4 * k + 2
    for j in range(2 * m + 1):
        if classify(v)[0] != (2 if j % 2 == 0 else 3):
            return False
        v = step(v)
    tag, h = classify(v)
    return tag == 1 and (k + 1) * 3**m == (2 * h + 1) * 2**m


def block_holds(k0: int) -> bool:
    """Every block from 4*k0+2 down to the trivial block satisfies
    k_out * 2^(e+m+1) = k_in * 3^(m+1) + 3^(m+1) - 2^m - 2^(e+m)."""
    k = k0
    while True:
        v, m = 4 * k + 2, 0
        while classify(step(v))[0] == 3:  # beta -> eta -> beta
            v, m = step(step(v)), m + 1
        v = step(step(v))  # beta -> alpha -> gamma
        e = 0
        while classify(v)[0] != 2:
            v, e = step(v), e + 1
        k_out = classify(v)[1]
        if k_out * 2 ** (e + m + 1) != k * 3 ** (m + 1) + 3 ** (m + 1) - 2**m - 2 ** (e + m):
            return False
        if k_out == 0:
            return True
        k = k_out


def polyline_holds(z: int) -> bool:
    """z = x + s - 1 with x in {s, s+1}: the parities of (x, s) give the
    class, and T(z) = step(z) / 2 for odd z obeys the step law
    x' + s' = (x + s) + x - x^2 + s^2."""

    def coords(n: int) -> tuple[int, int]:
        s = n // 2 if n % 2 == 0 else (n + 1) // 2
        return n + 1 - s, s

    x, s = coords(z)
    parity_class = {(1, 1): 1, (0, 1): 2, (0, 0): 3, (1, 0): 4}[(x % 2, s % 2)]
    t = step(z) // 2 if z % 2 else step(z)
    x1, s1 = coords(t)
    return parity_class == classify(z)[0] and x1 + s1 == x + s + x - x * x + s * s


def converges(n: int) -> bool:
    """n falls below itself within the default step limit."""
    v = n
    for _ in range(STEP_LIMIT):
        v = step(v)
        if v < n:
            return True
    return False


SWEEP_CLAIMS = {
    "transitions": transition_holds,
    "beta-chain": chain_holds,
    "blocks": block_holds,
    "polyline": polyline_holds,
    "convergence": converges,
}


def planted_fault(z: int, failing: frozenset) -> tuple[str, str] | None:
    """A sweep check that fails exactly on ``failing``."""
    if z in failing:
        return ("no planted fault", f"planted fault at {z}")
    return None
