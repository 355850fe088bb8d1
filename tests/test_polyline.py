import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_lab
from collatz_lab.core import step_t, trajectory
from collatz_lab.errors import DomainError, IdentityViolation, InvalidPolyline, PatternMismatch
from collatz_lab.polyline import (
    class_from_polyline,
    cycle_residual,
    from_polyline,
    polyline_counterexample,
    shape_residual,
    step_T_polyline,
    t_closed_form,
    to_polyline,
    walk_polylines,
)
from collatz_lab.residues import classify


def T_orbit(z, n):
    out = [z]
    for _ in range(n - 1):
        z = step_t(z)
        out.append(z)
    return out


def test_to_polyline_spots():
    assert to_polyline(1) == (1, 1)
    assert to_polyline(2) == (2, 1)
    assert to_polyline(7) == (4, 4)
    assert to_polyline(10) == (6, 5)


def test_from_polyline_rejects_bad_counts():
    with pytest.raises(InvalidPolyline):
        from_polyline((5, 3))
    with pytest.raises(InvalidPolyline):
        from_polyline((1, 2))
    with pytest.raises(InvalidPolyline):
        from_polyline((0, 0))


@pytest.mark.parametrize("bad", [(5, 3), (1, 2), (0, 0)])
def test_shared_validity_check_rejects_bad_counts(bad):
    # from_polyline and class_from_polyline spell the validity test inline;
    # the other point takers validate each point through from_polyline.
    with pytest.raises(InvalidPolyline):
        step_T_polyline(bad)
    with pytest.raises(InvalidPolyline):
        cycle_residual([bad])
    with pytest.raises(InvalidPolyline):
        shape_residual([bad, (1, 1)], "pure_ab")


@given(st.integers(min_value=1, max_value=10**40))
def test_roundtrip(z):
    p = to_polyline(z)
    assert from_polyline(p) == z
    x, s = p
    assert x + s - 1 == z
    assert x == s if z % 2 else x == s + 1


@given(st.integers(min_value=1, max_value=10**40))
def test_class_agreement(z):
    assert class_from_polyline(to_polyline(z)) is classify(z)[0]


@given(st.integers(min_value=1, max_value=10**40))
def test_closed_form_is_shortcut_map(z):
    assert t_closed_form(to_polyline(z)) == step_t(z)


@given(st.integers(min_value=1, max_value=10**20))
def test_step_law(z):
    p0 = to_polyline(z)
    p1 = step_T_polyline(p0)
    (x0, s0), (x1, s1) = p0, p1
    assert x1 + s1 == (x0 + s0) + x0 - x0**2 + s0**2
    assert from_polyline(p1) == step_t(z)


def test_step_spots():
    assert step_T_polyline((4, 4)) == (6, 6)  # 7 -> 11
    assert step_T_polyline((6, 5)) == (3, 3)  # 10 -> 5
    assert step_T_polyline((1, 1)) == (2, 1)  # 1 -> 2
    assert step_T_polyline([4, 4]) == (6, 6)  # any (x, s) pair is a point


def test_step_law_violation_raises(monkeypatch):
    monkeypatch.setattr("collatz_lab.polyline.t_closed_form", lambda p: 1)
    with pytest.raises(IdentityViolation, match="step law"):
        step_T_polyline((4, 4))


def test_step_law_violation_raises_under_optimize():
    code = (
        "import collatz_lab.polyline as P\n"
        "from collatz_lab.errors import IdentityViolation\n"
        "P.t_closed_form = lambda p: 1\n"
        "try:\n"
        "    P.step_T_polyline((4, 4))\n"
        "except IdentityViolation:\n"
        "    print('raised')\n"
    )
    src = str(Path(collatz_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_walk_polylines():
    # 7 -> 11 -> 17 under T
    assert walk_polylines(7, 3) == [(4, 4), (6, 6), (9, 9)]
    with pytest.raises(DomainError):
        walk_polylines(7, 0)


def test_polyline_sweep_clean():
    assert all(polyline_counterexample(z) is None for z in range(1, 30000))


def test_cycle_residual_known_values():
    assert cycle_residual([to_polyline(z) for z in (1, 2)]) == 0
    assert cycle_residual([to_polyline(z) for z in (2, 1)]) == 0
    assert cycle_residual([to_polyline(z) for z in (1, 2, 4)]) == -2
    assert cycle_residual([to_polyline(z) for z in (1, 2, 1, 2)]) == 0
    with pytest.raises(DomainError, match=r"^empty sequence$"):
        cycle_residual([])


@given(st.integers(min_value=1, max_value=6))
def test_cycle_residual_additive_over_repetition(reps):
    points = [to_polyline(z) for z in (1, 2)] * reps
    assert cycle_residual(points) == 0


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=30))
def test_residual_telescopes_along_real_walks(z, n):
    # summing the step law along any T-walk telescopes: the residual of a
    # window equals the drop in x+s across it
    pts = [to_polyline(v) for v in T_orbit(z, n + 1)]
    window = pts[:-1]
    total = cycle_residual(window)
    assert total == sum(pts[-1]) - sum(pts[0])


def test_pure_ab_on_the_trivial_cycle():
    rep = shape_residual([to_polyline(1), to_polyline(2)], "pure_ab")
    assert rep.boundaries_hold
    assert rep.residual == 0


def test_unknown_pattern_names_the_patterns_in_order():
    with pytest.raises(DomainError) as exc:
        shape_residual([to_polyline(1), to_polyline(2)], "nope")
    assert str(exc.value) == (
        "unknown pattern 'nope'; expected one of ('pure_ab', 'with_gamma', 'with_eta')"
    )


def test_pure_ab_rejects_wrong_leading_classes():
    with pytest.raises(PatternMismatch):
        shape_residual([to_polyline(2), to_polyline(1)], "pure_ab")


def test_with_gamma_on_the_rotated_trivial_cycle():
    rep = shape_residual([to_polyline(z) for z in (2, 1, 4)], "with_gamma")
    assert rep.residual == 1
    verdicts = {b.identity: b.holds for b in rep.boundaries}
    # the structural identities all hold on the honest cycle...
    for name in ("s[n-1] + 1 == x[n-1]", "x[n-1] == s0 + x0", "s[n-1] == 2*s0",
                 "s0 + 1 == x0", "x0 == s1 + x1", "s1 == x1"):
        assert verdicts[name], name
    # ...while the printed combination of them does not, and neither does
    # the parity claim; both are reported rather than enforced
    assert not verdicts["s0 == 2*x1 - 2"]
    assert not verdicts["x1 is even"]


def test_with_gamma_rejects_alpha_beta_cycle():
    with pytest.raises(PatternMismatch):
        shape_residual([to_polyline(z) for z in (1, 2, 1, 2)], "with_gamma")


def test_with_eta_on_a_real_window():
    # T: 38 -> 19 -> 29 is a genuine beta -> eta -> alpha passage
    assert step_t(38) == 19 and step_t(19) == 29
    rep = shape_residual([to_polyline(z) for z in (19, 29, 38)], "with_eta")
    assert rep.boundaries_hold
    assert rep.residual == 6


# The classes mod 4 of (seq[0], seq[1], seq[-1]) that each pattern names
# (None: any), and what its residual exceeds cycle_residual by.
_HONEST = {"pure_ab": ((1, 2, None), 0), "with_gamma": ((2, 1, 0), 3), "with_eta": ((3, 1, 2), 0)}


def test_shape_residuals_on_every_honest_window():
    # An honest window w -> T(w) -> T^2(w) is seq[-1] -> seq[0] -> seq[1],
    # as each pattern's closure assumes.  On every one with w < 4*10^4, at
    # lengths 3 to 5 with the orbit from T^2(w) on as filler, the residual
    # is cycle_residual's, but the printed with_gamma head is 3 above the
    # terms it stands for: a finding, and the head stays as printed.
    windows = dict.fromkeys(_HONEST, 0)
    for w in range(1, 4 * 10**4):
        t1 = step_t(w)
        t2 = step_t(t1)
        for pattern, ((c0, c1, cl), offset) in _HONEST.items():
            if (t1 % 4, t2 % 4) != (c0, c1) or cl not in (None, w % 4):
                continue
            windows[pattern] += 1
            for n in (3, 4, 5):
                seq = [to_polyline(t1), *walk_polylines(t2, n - 2), to_polyline(w)]
                diff = shape_residual(seq, pattern).residual - cycle_residual(seq)
                assert diff == offset, (pattern, w, n)
    assert windows == {"pure_ab": 5000, "with_gamma": 2500, "with_eta": 2500}


def test_eta_residual_is_exact_rational():
    rep = shape_residual([to_polyline(z) for z in (19, 29, 38)], "with_eta")
    assert isinstance(rep.residual, Fraction)
    # x1 = 15 -> head term 15/3 + 1 = 6, integral here but not in general
    rep2 = shape_residual([to_polyline(z) for z in (3, 5, 6)], "with_eta")
    assert rep2.residual == Fraction(3, 3) + 1


def test_unknown_pattern_rejected():
    with pytest.raises(DomainError):
        shape_residual([to_polyline(1), to_polyline(2)], "with_delta")


def test_short_sequences_rejected():
    with pytest.raises(PatternMismatch):
        shape_residual([to_polyline(1)], "pure_ab")
    with pytest.raises(PatternMismatch):
        shape_residual([to_polyline(2), to_polyline(1)], "with_gamma")


@pytest.mark.parametrize(
    "zs, pattern, message",
    [
        ((2, 1), "pure_ab", "pure_ab needs alpha at seq[0], got beta"),
        ((1, 1), "pure_ab", "pure_ab needs beta at seq[1], got alpha"),
        ((2, 1, 2), "with_gamma", "with_gamma needs gamma at seq[-1], got beta"),
        ((19, 29, 4), "with_eta", "with_eta needs beta at seq[-1], got gamma"),
    ],
)
def test_class_mismatch_names_the_position(zs, pattern, message):
    with pytest.raises(PatternMismatch) as info:
        shape_residual([to_polyline(z) for z in zs], pattern)
    assert str(info.value) == message


# The heads as printed, from x0 and x1.
_PRINTED_HEADS = {
    "pure_ab": lambda x0, x1: Fraction(1 - x0, 2),
    "with_gamma": lambda x0, x1: -5 * x1 + 6,
    "with_eta": lambda x0, x1: Fraction(x1, 3) + 1,
}


@pytest.mark.parametrize(
    "zs, pattern, tail",
    [
        ((1, 2, 7, 8, 9), "pure_ab", slice(2, 5)),
        ((2, 1, 5, 6, 4), "with_gamma", slice(2, 4)),
        ((3, 1, 5, 6, 2), "with_eta", slice(2, 4)),
    ],
)
def test_default_tail_per_pattern(zs, pattern, tail):
    # pure_ab sums up to seq[n-1]; the other two stop before it, as their
    # head stands for seq[-1] too.
    pts = [to_polyline(z) for z in zs]
    head = _PRINTED_HEADS[pattern](pts[0][0], pts[1][0])
    assert shape_residual(pts, pattern).residual == head + cycle_residual(pts[tail])
