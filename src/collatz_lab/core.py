"""Ground-truth Collatz dynamics: the maps, trajectories, the backward rule,
the descent rule and stopping-time records.

Everything here works on plain Python ints, so values never wrap no matter
how far a trajectory climbs.  All symbolic machinery in the other modules is
checked against the brute-force iteration defined in this one.

``step_c`` is the raw map, and ``trajectory`` is the one walk to 1 built on
it.  Five loops inline the step instead of calling it: ``delay``, ``glide``,
``delay_sieve``, ``drop_counterexample`` and ``blocks.block_counterexample``.
Each runs once per input of a sweep or a record table, or once per step of a
long orbit, so a call per step would cost more than the walk.  ``glide``,
``delay_sieve`` and ``drop_counterexample`` walk the descent rule (n falls
below itself within a step limit).  ``_descent_steps``, the convergence
sweep's sieve, proves it for every n >= 2 of all but 3.2% of the classes mod
2^16.  ``drop_counterexample`` walks each n it leaves in chunks of 8 shortcut
steps from n, one lookup in a 256-row table each, which the sieve's own
one-bit refinement builds; near the limit it walks raw steps.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from typing import Iterable, NamedTuple

from .errors import DomainError, IdentityViolation, LimitExceeded

DEFAULT_STEP_LIMIT = 100_000
SIEVE_BITS = 16
SIEVE_MODULUS = 1 << SIEVE_BITS
CHUNK_BITS = 8  # the shortcut steps of one chunk of the convergence walk
_CHUNK_MASK = (1 << CHUNK_BITS) - 1

__all__ = [
    "DEFAULT_STEP_LIMIT",
    "step_c",
    "step_t",
    "trajectory",
    "delay",
    "glide",
    "preimages_c",
    "BackwardTree",
    "backward_tree",
    "delay_sieve",
    "drop_counterexample",
    "records_sweep",
]


def _check_step_limit(step_limit: int) -> None:
    if step_limit < 1:
        raise DomainError(f"step_limit must be >= 1, got {step_limit}")


def step_c(z: int) -> int:
    """One Collatz step: z/2 for even z, 3z+1 for odd z."""
    if z < 1:
        raise DomainError(f"step_c needs z >= 1, got {z}")
    return 3 * z + 1 if z & 1 else z >> 1


def step_t(z: int) -> int:
    """One shortcut step: z/2 for even z, (3z+1)/2 for odd z."""
    if z < 1:
        raise DomainError(f"step_t needs z >= 1, got {z}")
    return (3 * z + 1) >> 1 if z & 1 else z >> 1


def trajectory(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """The orbit of z under step_c as a list[int], from z to the first 1.

    Raises LimitExceeded, whose partial is the list so far, if 1 does not
    show up within ``step_limit`` steps.
    """
    if z < 1:
        raise DomainError(f"trajectory needs z >= 1, got {z}")
    _check_step_limit(step_limit)
    values = [z]
    v = z
    for _ in range(step_limit):
        if v == 1:
            break
        v = step_c(v)
        values.append(v)
    if v != 1:
        raise LimitExceeded(f"{z} did not reach 1 within {step_limit} steps", partial=values)
    return values


def delay(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> int:
    """Number of Collatz steps from z to the first 1, as an int: the steps of
    its trajectory, counted without keeping the orbit.

    Past ``step_limit`` it raises the LimitExceeded of ``trajectory``, with
    the orbit so far as its partial.
    """
    if z < 1:
        raise DomainError(f"delay needs z >= 1, got {z}")
    _check_step_limit(step_limit)
    v = z
    for steps in range(step_limit + 1):
        if v == 1:
            return steps
        v = 3 * v + 1 if v & 1 else v >> 1
    # Only the failing walk builds the orbit list: trajectory raises here.
    return len(trajectory(z, step_limit)) - 1


def glide(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> int:
    """Number of Collatz steps from z to the first value below z.

    Undefined for z = 1: nothing below 1 is ever reached.
    """
    if z < 2:
        raise DomainError(f"glide needs z >= 2, got {z}")
    _check_step_limit(step_limit)
    v = z
    for j in range(1, step_limit + 1):
        v = 3 * v + 1 if v & 1 else v >> 1
        if v < z:
            return j
    raise LimitExceeded(f"{z} did not drop below itself within {step_limit} steps")


def preimages_c(z: int) -> set[int]:
    """All p with step_c(p) = z.

    2z is always a preimage; (z-1)/3 is one exactly when it is a positive odd
    integer (the odd branch only ever produces 3p+1 for odd p).
    """
    if z < 1:
        raise DomainError(f"preimages_c needs z >= 1, got {z}")
    pre = {2 * z}
    q, r = divmod(z - 1, 3)
    if r == 0 and q > 0 and q & 1:
        pre.add(q)
    return pre


class BackwardTree(NamedTuple):
    """Breadth-first preimage expansion from 1.  ``nodes`` maps each value
    to a plain (depth, parent) tuple: its level, and the value one forward
    step takes it to, None at the root 1."""

    depth: int
    nodes: dict[int, tuple[int, int | None]]

    # Without this, ``v in tree`` would test the record's two fields.
    def __contains__(self, value: int) -> bool:
        return value in self.nodes


def backward_tree(depth: int) -> BackwardTree:
    """Expand preimages of 1 breadth-first for ``depth`` levels.

    A node at level d takes exactly d forward steps to come back to 1.  The
    expansion skips 1 as a preimage of 4; keeping it would close the
    1 -> 4 -> 2 -> 1 loop and the result would no longer be a tree.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    nodes: dict[int, tuple[int, int | None]] = {1: (0, None)}
    frontier = [1]
    for d in range(1, depth + 1):
        nxt = []
        for z in frontier:
            for p in preimages_c(z):
                if p == 1:  # the loop edge 4 -> 1
                    continue
                nodes[p] = (d, z)
                nxt.append(p)
        frontier = nxt
    return BackwardTree(depth=depth, nodes=nodes)


def delay_sieve(n_max: int, step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Delays for all n <= n_max as a flat table (index 0 unused).

    Walks each n only until its orbit drops below n, then reuses the already
    computed delay of the smaller value.  Intermediate values above n_max are
    fine: the walk keeps going until it falls below its own start.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_step_limit(step_limit)
    delays = [0] * (n_max + 1)
    for n in range(2, n_max + 1):
        v = n
        for steps in range(1, step_limit + 1):
            v = 3 * v + 1 if v & 1 else v >> 1
            if v < n:
                delays[n] = steps + delays[v]
                break
        else:
            raise LimitExceeded(f"{n} did not drop below itself within {step_limit} steps")
    return delays


def drop_counterexample(n: int, step_limit: int = DEFAULT_STEP_LIMIT) -> tuple[str, str] | None:
    """Sweep-grade check that n falls below itself within ``step_limit``
    raw steps; None when it does.  The kernel of ``verify convergence``.

    It walks from n in chunks of CHUNK_BITS shortcut steps, read from the
    sieve's chunk table: w goes to 3^c(r) * (w >> 8) + T^8(r), r = w mod
    2^8, in 8 + c(r) raw steps, and a chunk that lands below n is a drop
    within the steps counted.  A drop inside a chunk that climbs back above
    n before its end is found at a later chunk, or not at all: so when the
    next chunk would pass the limit, the raw walk from n decides, not a
    walk on from w.  The result, the value "still at" included, is the raw
    walk's.
    """
    w, walked, chunks = n, 0, _descent_steps().chunks
    while True:
        three_c, t, steps = chunks[w & _CHUNK_MASK]
        walked += steps
        if walked > step_limit:
            break
        w = three_c * (w >> CHUNK_BITS) + t
        if w < n:
            return None
    v = n
    for _ in range(step_limit):
        v = 3 * v + 1 if v & 1 else v >> 1
        if v < n:
            return None
    return ("a value below the start within the step limit", f"still at {v}")


def count_unstopped_classes(k: int) -> int:
    """The number of residue classes mod 2^k whose coefficient stopping time
    exceeds k: those with 3^c > 2^j at every j <= k, c the odd steps among
    the first j shortcut steps.

    The first k shortcut steps of b < 2^k take each parity vector of length
    k exactly once (Terras 1976), so this counts the lattice paths of k
    steps, each adding 0 or 1 to c, that keep 3^c > 2^j after every step j.

    Not in ``__all__``: it sizes the sieve, whose unstopped classes mod
    2^16 are the ones it counts (tests tie it to ``_descent_steps``), and
    would size a deeper one.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    paths = [1]  # paths[c]: the paths of j steps so far that end at c
    least, three_least = 0, 1  # the least c with 3^c > 2^j, and 3^c
    for j in range(1, k + 1):
        paths = [x + y for x, y in zip([*paths, 0], [0, *paths])]
        while three_least < 1 << j:
            least, three_least = least + 1, 3 * three_least
        paths[:least] = [0] * least
    return sum(paths)


class _Sieve(NamedTuple):
    """The descent sieve mod 2^K, K = SIEVE_BITS.  ``proven`` holds a
    (b, d, steps) for each class b mod 2^d whose every n >= 2 falls below n
    within ``steps`` raw steps, where no class mod 2^(d-1) holding it is
    proven.  ``unstopped`` holds the classes mod 2^K left over, sorted.
    ``chunks`` holds (3^c, T^8(r), 8 + c) for each r < 2^8, 8 = CHUNK_BITS,
    at index r, c the odd steps among the first 8 shortcut steps of r: one
    chunk of the convergence walk."""

    proven: tuple[tuple[int, int, int], ...]
    unstopped: tuple[int, ...]
    chunks: tuple[tuple[int, int, int], ...]


_POW3 = [3**c for c in range(max(SIEVE_BITS, CHUNK_BITS) + 1)]


def _split(level: list[tuple[int, int, int]], d: int) -> list[tuple[int, int, int]]:
    """The one-bit refinement: each class (b, T^d(b), c) mod 2^d of
    ``level`` splits into b and b + 2^d mod 2^(d+1), whose T^d are T^d(b)
    and T^d(b) + 3^c; one more shortcut step of each gives its T^(d+1) and
    odd steps."""
    out = []
    for b, t, c in level:
        for child, u in ((b, t), (b + (1 << d), t + _POW3[c])):
            if u & 1:
                out.append((child, (3 * u + 1) >> 1, c + 1))
            else:
                out.append((child, u >> 1, c))
    return out


@cache
def _descent_steps() -> _Sieve:
    """The descent sieve mod 2^SIEVE_BITS, refined one bit at a time from
    the one class mod 1.  Built once per process, with exact integers.

    Terras (1976): the first j shortcut steps of n = 2^j*a + b have the
    parities of those of b, so T^j(n) = 3^c * a + T^j(b), with c the odd
    steps among them.  A class b mod 2^d splits into b and b + 2^d, whose
    T^d are T^d(b) and T^d(b) + 3^c, and one more shortcut step of each
    gives T^j and c at j = d + 1.  While 3^c > 2^j, no n >= 1 of the class
    has fallen below n, so it splits again, and one left at depth K is
    unstopped.  At the first j with 3^c < 2^j, n - T^j(n) =
    (2^j - 3^c)*a + b - T^j(b), so every n >= 2 of the class falls below n
    within j + c raw steps (each odd shortcut step is two) if T^j(b) < b,
    or if b < 2 (then a >= 1 and T^j(b) = b: 0 at j = 1, 1 at j = 2).  Any
    other class would stop without a drop, which raises IdentityViolation.

    The chunk table is the same refinement, ``_split``, run CHUNK_BITS
    levels deep with no class stopped: T^8(r) and c for every r < 2^8.
    """
    proven = []
    level = [(0, 0, 0)]  # the classes (b, T^d(b), c) at depth d left to split
    for d in range(SIEVE_BITS):
        top, nxt = 2 << d, []
        for child, u, c in _split(level, d):
            if _POW3[c] > top:
                nxt.append((child, u, c))
            elif u < child or child < 2:
                proven.append((child, d + 1, d + 1 + c))
            else:
                raise IdentityViolation(
                    f"the class {child} mod 2^{d + 1} stops at j = {d + 1} without a drop"
                )
        level = nxt
    chunks = [(0, 0, 0)]
    for d in range(CHUNK_BITS):
        chunks = _split(chunks, d)
    return _Sieve(
        proven=tuple(proven),
        unstopped=tuple(sorted(b for b, _, _ in level)),
        chunks=tuple((_POW3[c], t, CHUNK_BITS + c) for _, t, c in sorted(chunks)),
    )


@cache
def _sieve_survivors(step_limit: int) -> tuple[int, ...]:
    """The classes mod 2^16 whose descent the sieve does not prove within
    ``step_limit`` raw steps, sorted: the unstopped classes, and each class
    mod 2^16 inside a class proven in more steps than that.  Built once per
    limit; where no proven class is late, the sieve's ``unstopped`` itself."""
    sieve = _descent_steps()
    late = [
        member
        for b, d, steps in sieve.proven
        if steps > step_limit
        for member in range(b, SIEVE_MODULUS, 1 << d)
    ]
    return tuple(sorted([*sieve.unstopped, *late])) if late else sieve.unstopped


def _sieved_inputs(lo: int, hi: int, survivors: tuple[int, ...]) -> Iterable[int]:
    """The n of [lo, hi) in surviving classes, in increasing order.  Each
    block of 2^16 inputs yields the survivors between bisections at the
    span's ends, so a span costs what it yields."""
    for base in range(lo & -SIEVE_MODULUS, hi, SIEVE_MODULUS):
        first = bisect_left(survivors, lo - base)
        last = bisect_left(survivors, hi - base)
        for b in survivors[first:last]:
            yield base + b


def records_sweep(
    n_max: int, kind: str, step_limit: int = DEFAULT_STEP_LIMIT
) -> list[tuple[int, int]]:
    """All n in [2, n_max] whose delay (or glide) beats every smaller n's, as
    a list of (n, value) pairs, strictly increasing in both.

    Delay uses the memoized ``delay_sieve``; glide is recomputed per n (its
    walk is short: half of all n drop below themselves in one step).
    """
    if kind not in ("delay", "glide"):
        raise DomainError(f"kind must be 'delay' or 'glide', got {kind!r}")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    if kind == "delay":
        values = enumerate(delay_sieve(n_max, step_limit))
    else:
        values = ((n, glide(n, step_limit)) for n in range(2, n_max + 1))
    entries: list[tuple[int, int]] = []
    best = 0  # every n >= 2 has delay and glide >= 1; the table's 0 and 1 hold 0
    for n, v in values:
        if v > best:
            best = v
            entries.append((n, v))
    return entries
