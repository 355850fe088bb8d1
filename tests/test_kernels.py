"""The lean check kernels against the slow bodies they replaced.

The reference bodies below are the Enum-dispatch and divmod versions of the
class table, the two beta-chain solvers and the polyline coordinates, and
the three sweep kernels as they were before the fast paths.  They return
plain tuples, as the fast paths must: a tuple subclass misses CPython's
exact-tuple fast paths, and ``_same`` tells the two apart.  The reference
kernels call the library's public functions through their modules, exactly
as the fast kernels do, so a fault planted in one of those functions reaches
both, and both must then report the same counterexample, message strings
included.
"""

import random
from fractions import Fraction

import pytest

from collatz_lab import beta_chain, polyline, residues
from collatz_lab.beta_chain import v2
from collatz_lab.core import step_c, step_t
from collatz_lab.errors import DomainError, InvalidPolyline
from collatz_lab.residues import ResidueClass

TRANSITION_RANGE = range(1, 10**5 + 1)
CHAIN_RANGE = range(0, 130_001)
POLYLINE_RANGE = range(1, 60_001)

# Beyond machine words: k = 2^j * t - 1 has m = v2(k+1) = j (t odd), so the
# replay runs up to 300 eta steps; the seeded k are 64 to 4,096 bits long.
_rng = random.Random(2015)
BIG_CHAIN_INPUTS = [(t << j) - 1 for j in range(301) for t in (1, 3, 5, 7)] + [
    _rng.getrandbits(bits) | 1 << (bits - 1)
    for bits in (_rng.randint(64, 4096) for _ in range(1000))
]
BIG_POLYLINE_INPUTS = [(1 << j) + d for j in range(100) for d in (-1, 0, 1) if (1 << j) + d >= 1] + [
    _rng.randint(1, 10**30) for _ in range(1000)
] + [10**30 - 1, 10**30]

# ---- reference bodies -------------------------------------------------------

_OFFSET_TO_CLASS = {c.value: c for c in ResidueClass}


def ref_classify(z):
    if z < 1:
        raise DomainError(f"classify needs z >= 1, got {z}")
    k, r = divmod(z - 1, 4)
    return (_OFFSET_TO_CLASS[r + 1], k)


def ref_declassify(c):
    tag, k = c
    if k < 0:
        raise DomainError(f"index k must be >= 0, got {k}")
    return 4 * k + tag.value


def ref_transition_symbolic(c):
    tag, k = c
    if k < 0:
        raise DomainError(f"index k must be >= 0, got {k}")
    l, odd = divmod(k, 2)
    if tag is ResidueClass.ALPHA:
        return (ResidueClass.GAMMA, 6 * l + 3 if odd else 6 * l)
    if tag is ResidueClass.BETA:
        return (ResidueClass.ETA if odd else ResidueClass.ALPHA, l)
    if tag is ResidueClass.ETA:
        return (ResidueClass.BETA, 6 * l + 5 if odd else 6 * l + 2)
    return (ResidueClass.GAMMA if odd else ResidueClass.BETA, l)


def ref_solve_beta_chain(k):
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    m = v2(k + 1)
    odd = (k + 1) >> m
    h = (odd * 3**m - 1) >> 1
    return (k, m, h)


def ref_solve_beta_chain_paper(k):
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if k % 2 == 0:
        m = 0
        t = k + 1
    else:
        t = (k + 1) // 2
        m = 1
        while t % 2 == 0:
            t //= 2
            m += 1
    h = (t * 3**m - 1) // 2
    return (k, m, h)


def ref_to_polyline(z):
    if z < 1:
        raise DomainError(f"to_polyline needs z >= 1, got {z}")
    if z & 1:
        half = (z + 1) >> 1
        return (half, half)
    return ((z >> 1) + 1, z >> 1)


def ref_from_polyline(p):
    x, s = p
    if s < 1 or x not in (s, s + 1):
        raise InvalidPolyline(f"(x={x}, s={s}) describes no positive integer")
    return x + s - 1


def ref_class_from_polyline(p):
    x, s = p
    if s < 1 or x not in (s, s + 1):
        raise InvalidPolyline(f"(x={x}, s={s}) describes no positive integer")
    if s & 1:
        return ResidueClass.ALPHA if x & 1 else ResidueClass.BETA
    return ResidueClass.GAMMA if x & 1 else ResidueClass.ETA


def ref_transition_counterexample(z):
    got = residues.declassify(residues.transition_symbolic(residues.classify(z)))
    want = step_c(z)
    if got != want:
        return want, got
    return None


def ref_chain_counterexample(k):
    sol = beta_chain.solve_beta_chain(k)
    ladder = beta_chain.solve_beta_chain_paper(k)
    _, m, h = sol
    if sol != ladder:
        _, ladder_m, ladder_h = ladder
        return (f"(m,h)={(m, h)}", f"ladder gave {(ladder_m, ladder_h)}")
    if (k + 1) * 3**m != (2 * h + 1) * 2**m:
        return ("(k+1)*3^m == (2h+1)*2^m", "exact identity violated")
    alpha = 4 * h + 1
    v = 4 * k + 2
    for j in range(2 * m + 1):
        r = v & 3
        if j % 2 == 0:
            if r != 2:
                return (f"beta at chain step {j}", f"value {v} = 4k+{r or 4}")
        elif r != 3:
            return (f"eta at chain step {j}", f"value {v} = 4k+{r or 4}")
        v = 3 * v + 1 if v & 1 else v >> 1
    if v != alpha or v & 3 != 1:
        return (f"landing {alpha}", str(v))
    return None


def ref_polyline_counterexample(z):
    p = polyline.to_polyline(z)
    if polyline.from_polyline(p) != z:
        return (str(z), f"roundtrip gave {polyline.from_polyline(p)}")
    tag, _ = polyline.classify(z)
    if polyline.class_from_polyline(p) is not tag:
        return (
            f"class {tag.ascii_name}",
            polyline.class_from_polyline(p).ascii_name,
        )
    z1 = polyline.t_closed_form(p)
    if z1 != step_t(z):
        return (f"T({z}) = {step_t(z)}", f"closed form gave {z1}")
    x, s = p
    x1, s1 = polyline.to_polyline(z1)
    if x1 + s1 != (x + s) + x - x * x + s * s:
        return ("step law balance", f"violated at z={z}")
    return None


# ---- fast paths equal the references ----------------------------------------


def _same(a, b):
    """Equal tuples of the same type (Enum members are equal only to themselves)."""
    return type(a) is type(b) and a == b


def test_class_table_equals_reference():
    for z in TRANSITION_RANGE:
        c = residues.classify(z)
        assert _same(c, ref_classify(z)), z
        assert residues.declassify(c) == ref_declassify(c), z
        assert _same(residues.transition_symbolic(c), ref_transition_symbolic(c)), z


def test_transition_kernel_equals_reference():
    got = [residues.transition_counterexample(z) for z in TRANSITION_RANGE]
    assert got == [ref_transition_counterexample(z) for z in TRANSITION_RANGE]


def test_chain_solvers_equal_reference():
    for k in CHAIN_RANGE:
        assert _same(beta_chain.solve_beta_chain(k), ref_solve_beta_chain(k)), k
        assert _same(beta_chain.solve_beta_chain_paper(k), ref_solve_beta_chain_paper(k)), k


def test_chain_kernel_equals_reference():
    got = [beta_chain.chain_counterexample(k) for k in CHAIN_RANGE]
    assert got == [ref_chain_counterexample(k) for k in CHAIN_RANGE]


def test_chain_fast_paths_equal_reference_beyond_machine_words():
    assert {v2(k + 1) for k in BIG_CHAIN_INPUTS} >= set(range(301))
    for k in BIG_CHAIN_INPUTS:
        assert _same(beta_chain.solve_beta_chain(k), ref_solve_beta_chain(k)), k
        assert _same(beta_chain.solve_beta_chain_paper(k), ref_solve_beta_chain_paper(k)), k
        assert beta_chain.chain_counterexample(k) == ref_chain_counterexample(k), k


def test_polyline_coordinates_equal_reference():
    for z in POLYLINE_RANGE:
        p = polyline.to_polyline(z)
        assert _same(p, ref_to_polyline(z)), z
        assert polyline.class_from_polyline(p) is ref_class_from_polyline(p), z


def test_polyline_kernel_equals_reference():
    got = [polyline.polyline_counterexample(z) for z in POLYLINE_RANGE]
    assert got == [ref_polyline_counterexample(z) for z in POLYLINE_RANGE]


def test_polyline_fast_paths_equal_reference_beyond_machine_words():
    assert max(BIG_POLYLINE_INPUTS) == 10**30
    for z in BIG_POLYLINE_INPUTS:
        p = polyline.to_polyline(z)
        assert _same(p, ref_to_polyline(z)), z
        assert polyline.from_polyline(p) == ref_from_polyline(p) == z
        assert polyline.class_from_polyline(p) is ref_class_from_polyline(p), z
        assert polyline.polyline_counterexample(z) == ref_polyline_counterexample(z), z


@pytest.mark.parametrize("bad", [(5, 3), (1, 2), (0, 0), (3, 0)])
def test_invalid_polylines_rejected_alike(bad):
    for fast_check, ref_check in (
        (polyline.class_from_polyline, ref_class_from_polyline),
        (polyline.from_polyline, ref_from_polyline),
    ):
        with pytest.raises(InvalidPolyline) as fast:
            fast_check(bad)
        with pytest.raises(InvalidPolyline) as ref:
            ref_check(bad)
        assert str(fast.value) == str(ref.value)


# ---- planted faults: the same counterexamples from both ---------------------
#
# Each fault wraps the real function and goes wrong at one or two inputs.
# Several reach a distinct failure branch of their kernel.


def _at(real, hit, wrong):
    """real, except that an argument with hit(arg) gets wrong(real(arg))."""
    return lambda arg: wrong(real(arg)) if hit(arg) else real(arg)


def _wrong_chain(sol, dm):
    """A solution with m off by dm and h the rational that keeps the exact
    identity (k+1)*3^m = (2h+1)*2^m true."""
    k, m, _ = sol
    m += dm
    h = ((k + 1) * Fraction(3, 2) ** m - 1) / 2
    return (k, m, h)


def _is_class(tag, k):
    return lambda c: c == (tag, k)


_FAULTS = {
    "transition-symbolic": [
        (residues, "transition_symbolic",
         _at(residues.transition_symbolic, _is_class(ResidueClass.ETA, 6),
             lambda c: (c[0], c[1] + 1))),
    ],
    "transition-classify": [
        (residues, "classify",
         _at(residues.classify, lambda z: z == 1000, lambda c: (ResidueClass.BETA, c[1]))),
    ],
    "transition-declassify": [
        (residues, "declassify",
         _at(residues.declassify, _is_class(ResidueClass.BETA, 0), lambda v: v + 4)),
    ],
    "chain-ladder": [
        (beta_chain, "solve_beta_chain_paper",
         _at(beta_chain.solve_beta_chain_paper, lambda k: k == 27,
             lambda s: (s[0], s[1], s[2] + 1))),
    ],
    "chain-identity": [
        (beta_chain, name, _at(getattr(beta_chain, name), lambda k: k == 27,
                               lambda s: (s[0], s[1], s[2] + 1)))
        for name in ("solve_beta_chain", "solve_beta_chain_paper")
    ],
    "chain-too-long": [
        (beta_chain, name, _at(getattr(beta_chain, name), lambda k: k in (11, 40),
                               lambda s: _wrong_chain(s, 1)))
        for name in ("solve_beta_chain", "solve_beta_chain_paper")
    ],
    "chain-too-short": [
        (beta_chain, name, _at(getattr(beta_chain, name), lambda k: k == 95,
                               lambda s: _wrong_chain(s, -1)))
        for name in ("solve_beta_chain", "solve_beta_chain_paper")
    ],
    "polyline-roundtrip": [
        (polyline, "from_polyline",
         _at(polyline.from_polyline, lambda p: p == (14, 14), lambda z: z + 2)),
    ],
    "polyline-class": [
        (polyline, "class_from_polyline",
         _at(polyline.class_from_polyline, lambda p: p == (10, 9), lambda c: ResidueClass.GAMMA)),
    ],
    "polyline-classify": [
        (polyline, "classify",
         _at(polyline.classify, lambda z: z == 33, lambda c: (ResidueClass.ETA, c[1]))),
    ],
    "polyline-closed-form": [
        (polyline, "t_closed_form",
         _at(polyline.t_closed_form, lambda p: p == (14, 14), lambda z: z + 1)),
    ],
    "polyline-step-law": [
        # T(27) = 41: only the point reached from 27 is off
        (polyline, "to_polyline",
         _at(polyline.to_polyline, lambda z: z == 41, lambda p: (p[0] + 2, p[1] + 2))),
    ],
}

_KERNELS = {
    "transition": (residues.transition_counterexample, ref_transition_counterexample, range(1, 2001)),
    "chain": (beta_chain.chain_counterexample, ref_chain_counterexample, range(0, 2001)),
    "polyline": (polyline.polyline_counterexample, ref_polyline_counterexample, range(1, 2001)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_planted_fault_reported_alike(fault, monkeypatch):
    for module, name, faulty in _FAULTS[fault]:
        monkeypatch.setattr(module, name, faulty)
    fast, ref, inputs = _KERNELS[fault.split("-")[0]]
    got = {z: fast(z) for z in inputs}
    want = {z: ref(z) for z in inputs}
    assert got == want
    assert any(v is not None for v in got.values()), "the planted fault went unseen"
