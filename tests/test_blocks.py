from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_lab.beta_chain import chain_path
from collatz_lab.blocks import (
    Block,
    block_counterexample,
    block_path,
    block_state,
    block_step,
    decompose,
    decompose_until_trivial,
    make_block,
    recurrence_holds,
)
from collatz_lab.core import step_c
from collatz_lab.cycles import CycleCandidate, cycle_equation_general
from collatz_lab.errors import DomainError, LimitExceeded
from collatz_lab.report import Counterexample
from collatz_lab.sweeps import verify_blocks

# ---- reference bodies -------------------------------------------------------
# The Fraction forms of the recurrence that the cleared block step replaced:
# per-block coefficients (A, B), step-by-step iteration, and the O(n^2)
# closed form k0 * prod(A_j) + sum_j B_j * prod_{i>j} A_i.


def ref_formal_coefficients(m, e):
    """(A, B) of the affine map k -> A*k + B for formal parameters (m, e)."""
    if m < 0 or e < 1:
        raise DomainError(f"need m >= 0 and e >= 1, got (m, e) = ({m}, {e})")
    den = 2 ** (e + m + 1)
    return Fraction(3 ** (m + 1), den), Fraction(3 ** (m + 1) - 2**m - 2 ** (e + m), den)


def ref_iterate_affine(k0, m_seq, e_seq):
    """[k0, k1, ..., kn] as exact fractions."""
    if len(m_seq) != len(e_seq):
        raise DomainError(f"parameter lists differ in length: {len(m_seq)} vs {len(e_seq)}")
    ks = [Fraction(k0)]
    for m, e in zip(m_seq, e_seq):
        a, b = ref_formal_coefficients(m, e)
        ks.append(ks[-1] * a + b)
    return ks


def ref_closed_form_k(k0, m_seq, e_seq):
    if len(m_seq) != len(e_seq) or not m_seq:
        raise DomainError("need equal-length, non-empty parameter lists")
    coeffs = [ref_formal_coefficients(m, e) for m, e in zip(m_seq, e_seq)]
    total = Fraction(k0)
    for a, _ in coeffs:
        total *= a
    for j, (_, b) in enumerate(coeffs):
        tail = b
        for a, _ in coeffs[j + 1 :]:
            tail *= a
        total += tail
    return total


def ref_recurrence_holds(b):
    a, off = ref_formal_coefficients(b.m, b.e)
    return a * b.k_in + off == b.k_out


# ---- tests ------------------------------------------------------------------


@pytest.mark.parametrize(
    "k0,expected",
    [
        (1, Block(1, 1, 1, 3, 3, 0)),
        (0, Block(0, 0, 0, 0, 1, 0)),
        (4, Block(4, 0, 2, 6, 1, 3)),
    ],
)
def test_make_block_spots(k0, expected):
    assert make_block(k0) == expected


def test_block_paths():
    assert block_path(make_block(0)) == [2, 1, 4, 2]
    assert block_path(make_block(4)) == [18, 9, 28, 14]
    assert block_path(make_block(1)) == [6, 3, 10, 5, 16, 8, 4, 2]


@given(st.integers(min_value=0, max_value=30000))
def test_block_invariants(k0):
    b = make_block(k0)
    assert b.g == 3 * b.h
    assert b.e >= 1
    assert recurrence_holds(b)
    a, off = ref_formal_coefficients(b.m, b.e)
    assert a * b.k_in + off == b.k_out


@given(st.integers(min_value=0, max_value=5000))
def test_block_path_matches_map(k0):
    b = make_block(k0)
    path = block_path(b)
    assert len(path) == b.steps + 1
    v = 4 * b.k_in + 2
    for expected in path:
        assert v == expected
        v = step_c(v)


def test_decompose_chains():
    bs = decompose(4, 2)
    assert [bs[0].k_in] + [b.k_out for b in bs] == [4, 3, 6]
    assert [b.m for b in bs] == [0, 2]
    assert [b.e for b in bs] == [1, 1]


def test_decompose_requires_a_block():
    with pytest.raises(DomainError):
        decompose(4, 0)


def test_decompose_past_zero_repeats_trivial_block():
    bs = decompose(1, 4)
    assert [bs[0].k_in] + [b.k_out for b in bs] == [1, 0, 0, 0, 0]
    assert bs[1:] == [Block(0, 0, 0, 0, 1, 0)] * 3


def test_decompose_until_trivial():
    bs = decompose_until_trivial(7)
    assert bs[-1].k_out == 0
    assert 0 not in [b.k_in for b in bs[1:]]
    # budget too small -> partial attached
    with pytest.raises(LimitExceeded) as exc:
        decompose_until_trivial(7, max_blocks=1)
    assert exc.value.partial == [make_block(7)]


def test_decompose_until_trivial_budget_edge():
    n = len(decompose_until_trivial(7))
    assert decompose_until_trivial(7, max_blocks=n) == decompose_until_trivial(7)
    says = f"^no trivial block after {n - 1} blocks from k0=7$"
    with pytest.raises(LimitExceeded, match=says) as exc:
        decompose_until_trivial(7, max_blocks=n - 1)
    assert len(exc.value.partial) == n - 1
    for budget in (0, -1):
        with pytest.raises(DomainError, match=f"^max_blocks must be >= 1, got {budget}$"):
            decompose_until_trivial(7, max_blocks=budget)


def k_after(k0, m_seq, e_seq):
    """k_n = (T * k0 + S) / P, with (P, T, S) the block step folded over the
    list by ``block_state``: the closed form is that fold and one Fraction."""
    p, t, s = block_state(m_seq, e_seq)
    return Fraction(t * k0 + s, p)


def test_closed_form_spots():
    assert k_after(1, [1], [3]) == 0
    assert k_after(0, [0, 0], [1, 1]) == 0
    assert k_after(4, [0, 2], [1, 1]) == 6


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=1, max_value=12))
def test_closed_form_equals_real_decomposition(k0, n):
    bs = decompose(k0, n)
    m_seq, e_seq = [b.m for b in bs], [b.e for b in bs]
    k = k_after(k0, m_seq, e_seq)
    assert k == bs[-1].k_out
    assert k == ref_closed_form_k(k0, m_seq, e_seq)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=8)),
        min_size=1,
        max_size=6,
    ),
)
def test_closed_form_equals_iterated_affine(k0, pairs):
    # formal parameter lists: closed form == step-by-step affine iteration
    # == the O(n^2) closed form, exactly
    m_seq = [m for m, _ in pairs]
    e_seq = [e for _, e in pairs]
    ks = ref_iterate_affine(k0, m_seq, e_seq)
    k = k_after(k0, m_seq, e_seq)
    assert k == ks[-1] == ref_closed_form_k(k0, m_seq, e_seq)


def test_recurrence_holds_agrees_with_reference():
    for k0 in range(30_001):
        b = make_block(k0)
        for x in (b, b._replace(k_out=b.k_out + 1), b._replace(k_in=b.k_in + 1)):
            assert recurrence_holds(x) == ref_recurrence_holds(x)


@pytest.mark.parametrize(
    "m_seq, e_seq",
    [([-1], [1]), ([0], [0]), ([0, 1], [1, 1, 1]), ([0], []), ([], [])],
    ids=["m-negative", "e-zero", "unequal", "unequal-empty", "empty"],
)
def test_closed_form_domain(m_seq, e_seq):
    with pytest.raises(DomainError):
        block_state(m_seq, e_seq)
    with pytest.raises(DomainError):
        cycle_equation_general(CycleCandidate(tuple(m_seq), tuple(e_seq)))
    with pytest.raises(DomainError):
        ref_closed_form_k(0, m_seq, e_seq)


def _full_walk_counterexample(k0, make=make_block):
    """Reference: the block check walked all the way down to k = 0."""
    k, v = k0, 4 * k0 + 2
    while True:
        b = make(k)
        if not recurrence_holds(b):
            return ("block recurrence balance", f"violated at {b}")
        path = block_path(b)
        for i, expect in enumerate(path):
            if v != expect:
                return (f"path value {expect} (block k_in={b.k_in}, offset {i})", str(v))
            if i < len(path) - 1:
                v = step_c(v)
        k = b.k_out
        if k == 0:
            return None


def test_block_counterexample_sweep():
    # The cut-off walk agrees with the full walk down to k = 0.
    for k0 in range(3001):
        assert block_counterexample(k0) is None
        assert _full_walk_counterexample(k0) is None


def test_cut_off_walk_flags_a_planted_block_like_the_full_walk(monkeypatch):
    real = make_block

    # k = 546 lies above the swept range; the walk from 63 passes it
    # (63 -> 546 -> 102 -> ...) before it first drops below 63.
    def faulty(k_in):
        b = real(k_in)
        return b._replace(k_out=b.k_out + 1) if k_in == 546 else b

    monkeypatch.setattr("collatz_lab.blocks.make_block", faulty)
    cut = {k0 for k0 in range(100) if block_counterexample(k0) is not None}
    full = {k0 for k0 in range(100) if _full_walk_counterexample(k0, faulty) is not None}
    # The cut-off walk flags fewer starts, but never a sweep from 0 less.
    assert 63 in cut
    assert cut <= full


def test_planted_chain_residues_fails_verify_blocks(monkeypatch):
    monkeypatch.setattr("collatz_lab.blocks.chain_residues", lambda m: [2, 3] * m + [2, 3])
    report = verify_blocks(10, workers=1)
    assert len(report.counterexamples) == 11
    assert report.counterexamples[0] == Counterexample("0", "path residue 3 (mod 4)", "1 ~ 1 (mod 4)")


def test_planted_landing_value_fails_verify_blocks(monkeypatch):
    def shifted(k, m):
        path = chain_path(k, m)
        path[-1] += 4  # the landing alpha stays 1 (mod 4): only its value is off
        return path

    monkeypatch.setattr("collatz_lab.blocks.chain_path", shifted)
    report = verify_blocks(20, workers=1)
    assert len(report.counterexamples) == 21
    assert report.counterexamples[0] == Counterexample("0", "path value 5 (block k_in=0, offset 1)", "1")


def test_planted_block_step_fails_verify_blocks(monkeypatch):
    def off_by_one(state, m, e):
        p, t, s = block_step(state, m, e)
        return (p, t, s + 1) if (m, e) == (0, 1) else (p, t, s)

    # recurrence_holds looks the step up per block, so the wrong affine map
    # reaches the sweep wherever a walk takes a block with m = 0, e = 1
    monkeypatch.setattr("collatz_lab.blocks.block_step", off_by_one)
    report = verify_blocks(50, workers=1)
    assert len(report.counterexamples) == 20
    assert report.counterexamples[0] == Counterexample(
        "0", "block recurrence balance", "violated at Block(k_in=0, m=0, h=0, g=0, e=1, k_out=0)"
    )


def test_block_counterexample_step_limit():
    assert block_counterexample(0, step_limit=3) is None  # 2 -> 1 -> 4 -> 2
    assert block_counterexample(0, step_limit=2) is not None
    assert block_counterexample(1, step_limit=7) is None  # 6 -> ... -> 2
    assert block_counterexample(1, step_limit=6) is not None
