"""Vertex-count coordinates (x, s) and the cycle-shape residual evaluators.

Every z >= 1 is a pair of vertex counts with z = x + s - 1: odd z has
x = s = (z+1)/2, even z has s = z/2 and x = s + 1.  In these coordinates the
shortcut map T has the closed form

    z1 = ((2*(1 - x + s) + 1)*(x + s - 1) + 1 - (x - s)) / 2

and obeys the step law  x1 + s1 = (x0 + s0) + x0 - x0^2 + s0^2.  Summing the
law around a closed walk telescopes, so for any genuine T-cycle

    sum_j x_j + sum_j (s_j + x_j)(s_j - x_j) = 0

which ``cycle_residual`` evaluates; a nonzero value certifies non-closure.

``shape_residual`` evaluates three specialised residual sums for cycles
assumed to pass through particular class boundaries (alpha-beta only, with a
gamma, with an eta), together with the boundary identities each shape
asserts.  The evaluators are deliberately neutral: every boundary identity
is reported as a separate check and the residual is returned as an exact
rational, with no sign or feasibility claims baked in.  Some of the printed
identities fail on honest inputs — that is a finding, not an error, so
nothing here enforces them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import step_t
from .errors import DomainError, IdentityViolation, InvalidPolyline, PatternMismatch
from .residues import ResidueClass, classify

if TYPE_CHECKING:  # only shape_residual computes with fractions
    from fractions import Fraction

__all__ = [
    "to_polyline",
    "from_polyline",
    "class_from_polyline",
    "t_closed_form",
    "step_T_polyline",
    "walk_polylines",
    "cycle_residual",
    "BoundaryCheck",
    "ShapeReport",
    "SHAPE_PATTERNS",
    "shape_residual",
    "polyline_counterexample",
]


# Vertex counts (x, s): x under vertices, s upper vertices, z = x + s - 1.
# Every function below that takes a point takes any (x, s) pair.
Point = tuple[int, int]


def to_polyline(z: int) -> Point:
    """The (x, s) of z, as a plain tuple."""
    if z < 1:
        raise DomainError(f"to_polyline needs z >= 1, got {z}")
    if z & 1:
        half = (z + 1) >> 1
        return half, half
    return (z >> 1) + 1, z >> 1


def from_polyline(p: Point) -> int:
    """Inverse of to_polyline; rejects count pairs that fit no integer."""
    x, s = p
    if s < 1 or not 0 <= x - s <= 1:  # every point taker validates through here
        raise InvalidPolyline(f"(x={x}, s={s}) describes no positive integer")
    return x + s - 1


# indexed by 2*(s & 1) + (x & 1)
_BY_PARITIES = (ResidueClass.ETA, ResidueClass.GAMMA, ResidueClass.BETA, ResidueClass.ALPHA)


def class_from_polyline(p: Point) -> ResidueClass:
    """Mod-4 class read off the parities of the two counts."""
    x, s = p
    if s < 1 or not 0 <= x - s <= 1:  # from_polyline's test, inline: the sweep calls both per z
        raise InvalidPolyline(f"(x={x}, s={s}) describes no positive integer")
    return _BY_PARITIES[2 * (s & 1) + (x & 1)]


def t_closed_form(p: Point) -> int:
    """The shortcut map evaluated purely in coordinates."""
    x, s = p
    return ((2 * (1 - x + s) + 1) * (x + s - 1) + 1 - (x - s)) // 2


def step_T_polyline(p: Point) -> Point:
    """One shortcut step in coordinates, with the step law checked.

    Raises IdentityViolation when the step law does not balance."""
    from_polyline(p)
    x, s = p
    p1 = to_polyline(t_closed_form(p))
    x1, s1 = p1
    if x1 + s1 != (x + s) + x - x * x + s * s:
        raise IdentityViolation(f"step law violated at (x={x}, s={s})")
    return p1


def walk_polylines(z: int, count: int) -> list[Point]:
    """count successive points of the T-walk from z, starting at z itself."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    pts = [to_polyline(z)]
    while len(pts) < count:
        pts.append(step_T_polyline(pts[-1]))
    return pts


def cycle_residual(seq: Sequence[Point]) -> int:
    """sum x_j + sum (s_j + x_j)(s_j - x_j); zero on every genuine T-cycle."""
    if not seq:
        raise DomainError("empty sequence")
    for p in seq:
        from_polyline(p)
    return _tail_sum(seq, range(len(seq)))


class BoundaryCheck(NamedTuple):
    identity: str
    holds: bool


class ShapeReport(NamedTuple):
    pattern: str
    boundaries: list[BoundaryCheck]
    residual: Fraction
    tail: range

    @property
    def boundaries_hold(self) -> bool:
        return all(b.holds for b in self.boundaries)


_BOUNDARY_CLASSES = {
    # pattern -> required classes of (seq[0], seq[1], seq[-1])
    "pure_ab": (ResidueClass.ALPHA, ResidueClass.BETA, None),
    "with_gamma": (ResidueClass.BETA, ResidueClass.ALPHA, ResidueClass.GAMMA),
    "with_eta": (ResidueClass.ETA, ResidueClass.ALPHA, ResidueClass.BETA),
}

SHAPE_PATTERNS = tuple(_BOUNDARY_CLASSES)


def _tail_sum(seq: Sequence[Point], tail: range) -> int:
    total = 0
    for j in tail:
        x, s = seq[j]
        total += x + (s + x) * (s - x)
    return total


def shape_residual(
    seq: Sequence[Point], pattern: str, tail: range | None = None
) -> ShapeReport:
    """Evaluate one shape's boundary identities and residual sum.

    The index conventions per pattern (n = len(seq), indices into seq):

      pure_ab     seq[0] alpha, seq[1] beta; the cycle closes seq[-1] -> seq[0].
                  residual = -(x0 - 1)/2 + tail over j in 2..n-1
      with_gamma  seq[-1] gamma, seq[0] beta, seq[1] alpha.
                  residual = -5*x1 + 6 + tail over j in 2..n-2
      with_eta    seq[-1] beta, seq[0] eta, seq[1] alpha.
                  residual = x1/3 + 1 + tail over j in 2..n-2

    ``tail`` overrides the summation bounds, since the default start index
    is itself one of the conventions under scrutiny; each of its indices
    must lie in range(len(seq)), else DomainError.  Boundary identities
    are evaluated as printed and reported individually; several are known
    to fail on honest inputs, and callers get the verdicts either way.
    """
    from fractions import Fraction

    if pattern not in _BOUNDARY_CLASSES:
        raise DomainError(f"unknown pattern {pattern!r}; expected one of {SHAPE_PATTERNS}")
    min_len = 2 if pattern == "pure_ab" else 3
    if len(seq) < min_len:
        raise PatternMismatch(f"{pattern} needs at least {min_len} points, got {len(seq)}")
    if tail is not None and not all(0 <= j < len(seq) for j in tail):
        raise DomainError(f"tail {tail} has an index outside range({len(seq)}), the indices of seq")
    for p in seq:
        from_polyline(p)
    for i, want in zip((0, 1, -1), _BOUNDARY_CLASSES[pattern]):
        have = class_from_polyline(seq[i])
        if want is not None and have is not want:
            raise PatternMismatch(
                f"{pattern} needs {want.ascii_name} at seq[{i}], got {have.ascii_name}"
            )

    n = len(seq)
    if tail is None:
        tail = range(2, n if pattern == "pure_ab" else n - 1)
    x0, s0 = seq[0]
    x1, s1 = seq[1]
    xl, sl = seq[-1]

    if pattern == "pure_ab":
        boundaries = [
            BoundaryCheck("s0 == x0", s0 == x0),
            BoundaryCheck("x0 == (s1 + x1)/3", Fraction(s1 + x1, 3) == x0),
        ]
        head = Fraction(1 - x0, 2)
    elif pattern == "with_gamma":
        boundaries = [
            BoundaryCheck("s[n-1] + 1 == x[n-1]", sl + 1 == xl),
            BoundaryCheck("x[n-1] == s0 + x0", xl == s0 + x0),
            BoundaryCheck("s[n-1] == 2*s0", sl == 2 * s0),
            BoundaryCheck("s0 + 1 == x0", s0 + 1 == x0),
            BoundaryCheck("x0 == s1 + x1", x0 == s1 + x1),
            BoundaryCheck("s1 == x1", s1 == x1),
            BoundaryCheck("s0 == 2*x1 - 2", s0 == 2 * x1 - 2),
            BoundaryCheck("x1 is even", x1 % 2 == 0),
        ]
        head = Fraction(-5 * x1 + 6)
    else:  # with_eta
        boundaries = [
            BoundaryCheck("s[n-1] + 1 == x[n-1]", sl + 1 == xl),
            BoundaryCheck("x[n-1] == s0 + x0", xl == s0 + x0),
            BoundaryCheck("s0 + x0 == 2*x0", s0 + x0 == 2 * x0),
            BoundaryCheck("s0 == x0", s0 == x0),
            BoundaryCheck("s1 == x1", s1 == x1),
            BoundaryCheck("x0 == (2/3)*s1", Fraction(2 * s1, 3) == x0),
        ]
        head = Fraction(x1, 3) + 1

    residual = head + _tail_sum(seq, tail)
    return ShapeReport(pattern=pattern, boundaries=boundaries, residual=residual, tail=tail)


def polyline_counterexample(z: int) -> tuple[str, str] | None:
    """Sweep-grade check at one z: roundtrip, class agreement with classify,
    the closed form against the real shortcut map, and the step law."""
    p = to_polyline(z)
    back = from_polyline(p)
    if back != z:
        return (str(z), f"roundtrip gave {back}")
    have, want = class_from_polyline(p), classify(z)[0]
    if have is not want:
        return (f"class {want.ascii_name}", have.ascii_name)
    z1 = t_closed_form(p)
    t = step_t(z)
    if z1 != t:
        return (f"T({z}) = {t}", f"closed form gave {z1}")
    x, s = p
    x1, s1 = to_polyline(z1)
    if x1 + s1 != (x + s) + x - x * x + s * s:
        return ("step law balance", f"violated at z={z}")
    return None
