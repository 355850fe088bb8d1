"""Ground-truth Collatz dynamics: the maps, trajectories, the backward rule,
and stopping-time records.

Everything here works on plain Python ints, so values never wrap no matter
how far a trajectory climbs.  All symbolic machinery in the other modules is
checked against the brute-force iteration defined in this one.

``step_c`` is the raw map, and ``trajectory`` is the one walk to 1 built on
it.  Four loops inline the step instead of calling it: ``glide``,
``delay_sieve``, ``sweeps._drop_check`` and ``blocks.block_counterexample``.
Each runs once per input of a sweep or a record table, where most walks end
within a few steps, so a call per step would cost more than the walk.

``_new`` is the one alias of the tuple constructor, with which every module
builds its per-input records.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, LimitExceeded

DEFAULT_STEP_LIMIT = 100_000

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__

__all__ = [
    "DEFAULT_STEP_LIMIT",
    "step_c",
    "step_t",
    "Trajectory",
    "trajectory",
    "delay",
    "glide",
    "preimages_c",
    "TreeNode",
    "BackwardTree",
    "backward_tree",
    "delay_sieve",
    "RecordTable",
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


class Trajectory(NamedTuple):
    """An orbit prefix: values[0] is the start, values[-1] the last point."""

    start: int
    values: list[int]
    reached_one: bool

    @property
    def steps(self) -> int:
        return len(self.values) - 1


def trajectory(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> Trajectory:
    """Iterate step_c from z until 1 is reached.

    Raises LimitExceeded (carrying the partial, reached_one=False trajectory)
    if 1 does not show up within ``step_limit`` steps.
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
        raise LimitExceeded(
            f"{z} did not reach 1 within {step_limit} steps",
            partial=Trajectory(z, values, False),
        )
    return Trajectory(z, values, True)


def delay(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> int:
    """Number of Collatz steps from z to the first 1: the steps of its trajectory.

    Past ``step_limit`` the LimitExceeded of ``trajectory`` propagates, with
    its partial orbit.
    """
    if z < 1:
        raise DomainError(f"delay needs z >= 1, got {z}")
    return trajectory(z, step_limit).steps


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


class TreeNode(NamedTuple):
    value: int
    depth: int
    parent: int | None


class BackwardTree(NamedTuple):
    """Breadth-first preimage expansion from 1, indexed by value."""

    depth: int
    nodes: dict[int, TreeNode]

    def __contains__(self, value: int) -> bool:
        return value in self.nodes

    def depth_of(self, value: int) -> int:
        return self.nodes[value].depth

    def values_at(self, depth: int) -> set[int]:
        return {n.value for n in self.nodes.values() if n.depth == depth}


def backward_tree(depth: int) -> BackwardTree:
    """Expand preimages of 1 breadth-first for ``depth`` levels.

    A node at level d takes exactly d forward steps to come back to 1.  The
    expansion skips 1 as a preimage of 4; keeping it would close the
    1 -> 4 -> 2 -> 1 loop and the result would no longer be a tree.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    nodes = {1: TreeNode(1, 0, None)}
    frontier = [1]
    for d in range(1, depth + 1):
        nxt = []
        for z in frontier:
            for p in preimages_c(z):
                if p == 1:  # the loop edge 4 -> 1
                    continue
                nodes[p] = TreeNode(p, d, z)
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


class RecordTable(NamedTuple):
    """Successive maxima of delay or glide, strictly increasing in both n and value."""

    kind: str
    entries: list[tuple[int, int]]


def records_sweep(
    n_max: int, kind: str, step_limit: int = DEFAULT_STEP_LIMIT
) -> RecordTable:
    """All n in [2, n_max] whose delay (or glide) beats every smaller n's.

    Delay uses the memoized sieve; glide is recomputed per n (its walk is
    short: half of all n drop below themselves in one step).
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
    return RecordTable(kind=kind, entries=entries)
