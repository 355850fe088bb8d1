"""Mod-4 residue classes and the symbolic one-step transition table.

Every positive integer falls into exactly one of four classes

    alpha = 4k+1    beta = 4k+2    eta = 4k+3    gamma = 4k+4

and one Collatz step sends a class to a class determined only by the tag and
the parity of the index k.  ``transition_symbolic`` is the one lookup of
that table, and ``sweeps.verify_transitions`` holds it to direct evaluation
of the map.  ``transition_graph`` is data derived from the same table: the
six class-to-class edges, each guarded by a parity of k.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_STEP_LIMIT, step_c, trajectory
from .errors import DomainError

__all__ = [
    "ResidueClass",
    "classify",
    "declassify",
    "transition_symbolic",
    "class_sequence",
    "GraphEdge",
    "transition_graph",
    "transition_counterexample",
]


class ResidueClass(Enum):
    """The four mod-4 classes; the enum value is the class offset in 4k+c.

    ``offset`` and ``symbol`` are plain member attributes, set once here, so
    the sweep kernels read them without property dispatch.
    """

    ALPHA = 1
    BETA = 2
    ETA = 3
    GAMMA = 4

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self.symbol = "αβηγ"[offset - 1]

    @property
    def ascii_name(self) -> str:
        return self.name.lower()


# Hot paths read these aliases: a ResidueClass.X lookup goes through the
# Enum metaclass, and hashing a member (say, as a dict key) runs Python code.
_A, _B, _E, _G = ResidueClass

_BY_RESIDUE = (_A, _B, _E, _G)  # indexed by (z - 1) & 3


# A positive integer written as 4k + offset(tag): the pair (tag, k).  It is
# a plain tuple, which CPython builds, unpacks and frees on fast paths that
# no tuple subclass gets.
Classified = tuple[ResidueClass, int]


def classify(z: int) -> Classified:
    """The unique (tag, k) with z = 4k + offset(tag), k >= 0."""
    if z < 1:
        raise DomainError(f"classify needs z >= 1, got {z}")
    z -= 1
    return _BY_RESIDUE[z & 3], z >> 2


def _not_a_class(tag: object) -> DomainError:
    return DomainError(f"tag must be a ResidueClass, got {tag!r}")


def declassify(c: Classified) -> int:
    """Inverse of classify: 4k + offset(tag)."""
    tag, k = c
    if k < 0:
        raise DomainError(f"index k must be >= 0, got {k}")
    try:
        return 4 * k + tag.offset
    except AttributeError:
        raise _not_a_class(tag) from None


# The one-step class table.  With k = 2l + p, row 2*(offset - 1) + p is
# (target class, a, b) and the target index is a*l + b.
_TABLE = (
    (_G, 6, 0), (_G, 6, 3),  # alpha
    (_A, 1, 0), (_E, 1, 0),  # beta
    (_B, 6, 2), (_B, 6, 5),  # eta
    (_B, 1, 0), (_G, 1, 0),  # gamma
)


def transition_symbolic(c: Classified) -> Classified:
    """Classification of step_c(z) computed from (tag, parity of k) alone.

    With k = 2l or 2l+1 the case table is

        alpha -> gamma, index 6l   / 6l+3
        beta  -> alpha, index l    (k even)  |  eta, index l  (k odd)
        eta   -> beta,  index 6l+2 / 6l+5
        gamma -> beta,  index l    (k even)  |  gamma, index l  (k odd)

    The map itself is never evaluated here; that is the whole point, and the
    sweep test holds this table to the real map over large ranges.
    """
    tag, k = c
    if k < 0:
        raise DomainError(f"index k must be >= 0, got {k}")
    try:
        dst, a, b = _TABLE[2 * tag.offset - 2 + (k & 1)]
    except AttributeError:
        raise _not_a_class(tag) from None
    return dst, a * (k >> 1) + b


def class_sequence(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> list[ResidueClass]:
    """The classes along the trajectory of z, as a list[ResidueClass].

    Includes the starting value; excludes the terminal 1 unless the start
    itself is 1 (a bare [alpha] then).
    """
    if z < 1:
        raise DomainError(f"class_sequence needs z >= 1, got {z}")
    values = trajectory(z, step_limit)
    if len(values) > 1:
        values = values[:-1]  # drop the terminal 1
    return [tag for tag, _ in map(classify, values)]


class GraphEdge(NamedTuple):
    """A class-to-class edge, guarded by the parity of the source index k."""

    src: ResidueClass
    dst: ResidueClass
    parity: str  # "any", "even" or "odd"


def transition_graph() -> frozenset[GraphEdge]:
    """The six-edge class graph read off the class table, as a
    frozenset[GraphEdge]: the main cycle alpha -> gamma -> beta -> alpha, the
    self-loop gamma -> gamma, and the two-cycle beta <-> eta.  A class whose
    two parities of k lead to the same class has one edge of parity "any"."""
    edges = set()
    for src in ResidueClass:
        even, odd = _TABLE[2 * src.offset - 2][0], _TABLE[2 * src.offset - 1][0]
        if even is odd:
            edges.add(GraphEdge(src, even, "any"))
        else:
            edges.update((GraphEdge(src, even, "even"), GraphEdge(src, odd, "odd")))
    return frozenset(edges)


def transition_counterexample(z: int) -> tuple[int, int] | None:
    """None if the symbolic table agrees with the map at z, else (want, got)."""
    got = declassify(transition_symbolic(classify(z)))
    want = step_c(z)
    if got != want:
        return want, got
    return None
