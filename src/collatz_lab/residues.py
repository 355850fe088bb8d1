"""Mod-4 residue classes and the symbolic one-step transition table.

Every positive integer falls into exactly one of four classes

    alpha = 4k+1    beta = 4k+2    eta = 4k+3    gamma = 4k+4

and one Collatz step sends a class to a class determined only by the tag and
the parity of the index k.  ``transition_symbolic`` encodes that table and is
checked against direct evaluation of the map by
``sweeps.verify_transitions``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_STEP_LIMIT, step_c, trajectory
from .errors import DomainError

__all__ = [
    "ResidueClass",
    "ClassifiedInt",
    "classify",
    "declassify",
    "transition_symbolic",
    "ClassSequence",
    "class_sequence",
    "GraphEdge",
    "TransitionGraph",
    "transition_graph",
    "transition_counterexample",
]


class ResidueClass(Enum):
    """The four mod-4 classes; the enum value is the class offset in 4k+c."""

    ALPHA = 1
    BETA = 2
    ETA = 3
    GAMMA = 4

    @property
    def offset(self) -> int:
        return self.value

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @property
    def ascii_name(self) -> str:
        return self.name.lower()


_SYMBOLS = {
    ResidueClass.ALPHA: "α",
    ResidueClass.BETA: "β",
    ResidueClass.ETA: "η",
    ResidueClass.GAMMA: "γ",
}

_OFFSET_TO_CLASS = {c.offset: c for c in ResidueClass}


class ClassifiedInt(NamedTuple):
    """A positive integer written as 4k + offset(tag)."""

    tag: ResidueClass
    k: int


def classify(z: int) -> ClassifiedInt:
    """The unique (tag, k) with z = 4k + offset(tag), k >= 0."""
    if z < 1:
        raise DomainError(f"classify needs z >= 1, got {z}")
    k, r = divmod(z - 1, 4)
    return ClassifiedInt(_OFFSET_TO_CLASS[r + 1], k)


def declassify(c: ClassifiedInt) -> int:
    """Inverse of classify: 4k + offset(tag)."""
    if c.k < 0:
        raise DomainError(f"index k must be >= 0, got {c.k}")
    return 4 * c.k + c.tag.offset


def transition_symbolic(c: ClassifiedInt) -> ClassifiedInt:
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
    l, odd = divmod(k, 2)
    if tag is ResidueClass.ALPHA:
        return ClassifiedInt(ResidueClass.GAMMA, 6 * l + 3 if odd else 6 * l)
    if tag is ResidueClass.BETA:
        return ClassifiedInt(ResidueClass.ETA if odd else ResidueClass.ALPHA, l)
    if tag is ResidueClass.ETA:
        return ClassifiedInt(ResidueClass.BETA, 6 * l + 5 if odd else 6 * l + 2)
    return ClassifiedInt(ResidueClass.GAMMA if odd else ResidueClass.BETA, l)


@dataclass
class ClassSequence:
    """Classes along a Collatz trajectory, with per-class tallies.

    Includes the starting value; excludes the terminal 1 unless the start
    itself is 1 (a bare [alpha] then).
    """

    start: int
    classes: list[ResidueClass]
    counts: dict[ResidueClass, int]


def class_sequence(z: int, step_limit: int = DEFAULT_STEP_LIMIT) -> ClassSequence:
    traj = trajectory(z, step_c, step_limit)
    values = traj.values
    if len(values) > 1:
        values = values[:-1]  # drop the terminal 1
    classes = [classify(v).tag for v in values]
    counts = Counter(classes)
    return ClassSequence(start=z, classes=classes, counts=dict(counts))


class GraphEdge(NamedTuple):
    """A class-to-class edge, guarded by the parity of the source index k."""

    src: ResidueClass
    dst: ResidueClass
    parity: str  # "any", "even" or "odd"

    def admits(self, k: int) -> bool:
        if self.parity == "any":
            return True
        return (k % 2 == 0) == (self.parity == "even")


@dataclass(frozen=True)
class TransitionGraph:
    edges: frozenset[GraphEdge]

    def edge_for(self, src: ResidueClass, k: int) -> GraphEdge:
        """The unique out-edge taken from (src, k)."""
        for e in self.edges:
            if e.src is src and e.admits(k):
                return e
        raise KeyError((src, k))

    def has_edge(self, src: ResidueClass, dst: ResidueClass, k: int) -> bool:
        return any(e.src is src and e.dst is dst and e.admits(k) for e in self.edges)


_A, _B, _E, _G = (
    ResidueClass.ALPHA,
    ResidueClass.BETA,
    ResidueClass.ETA,
    ResidueClass.GAMMA,
)

_EDGES = frozenset(
    {
        GraphEdge(_A, _G, "any"),
        GraphEdge(_B, _E, "odd"),
        GraphEdge(_B, _A, "even"),
        GraphEdge(_E, _B, "any"),
        GraphEdge(_G, _G, "odd"),
        GraphEdge(_G, _B, "even"),
    }
)


def transition_graph() -> TransitionGraph:
    """The static six-edge class graph: the main cycle alpha -> gamma -> beta
    -> alpha, the self-loop gamma -> gamma, and the two-cycle beta <-> eta."""
    return TransitionGraph(edges=_EDGES)


def transition_counterexample(z: int) -> tuple[int, int] | None:
    """None if the symbolic table agrees with the map at z, else (want, got)."""
    got = declassify(transition_symbolic(classify(z)))
    want = step_c(z)
    if got != want:
        return want, got
    return None
