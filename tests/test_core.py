import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_lab.core import (
    DEFAULT_STEP_LIMIT,
    backward_tree,
    delay,
    delay_sieve,
    drop_counterexample,
    glide,
    preimages_c,
    records_sweep,
    step_c,
    step_t,
    trajectory,
)
from collatz_lab.errors import DomainError, LimitExceeded
from collatz_lab.residues import class_sequence


def brute_c(z, n):
    for _ in range(n):
        z = 3 * z + 1 if z % 2 else z // 2
    return z


def test_step_c_basics():
    assert step_c(1) == 4
    assert step_c(2) == 1
    assert step_c(6) == 3
    assert step_c(7) == 22


def test_step_t_basics():
    assert step_t(1) == 2
    assert step_t(7) == 11
    assert step_t(10) == 5


@pytest.mark.parametrize("fn", [step_c, step_t, delay, trajectory, preimages_c, delay_sieve])
def test_domain_guards(fn):
    with pytest.raises(DomainError):
        fn(0)
    with pytest.raises(DomainError):
        fn(-3)


@given(st.integers(min_value=1, max_value=10**40))
def test_t_is_compressed_c(z):
    # one T step is one C step for evens, two C steps for odds
    if z % 2:
        assert step_t(z) == step_c(step_c(z))
    else:
        assert step_t(z) == step_c(z)


def test_trajectory_of_6():
    assert trajectory(6) == [6, 3, 10, 5, 16, 8, 4, 2, 1]


def test_trajectory_of_1_is_a_point():
    assert trajectory(1) == [1]


def test_trajectory_step_limit_carries_partial():
    with pytest.raises(LimitExceeded) as exc:
        trajectory(27, step_limit=10)
    partial = exc.value.partial
    assert partial[0] == 27
    assert len(partial) == 11
    assert partial[-1] == brute_c(27, 10)


@given(st.integers(min_value=1, max_value=5000))
def test_trajectory_matches_brute_force(z):
    t = trajectory(z)
    for i, v in enumerate(t):
        assert v == brute_c(z, i)
    assert t[-1] == 1


def test_delay_spots():
    assert delay(1) == 0
    assert delay(2) == 1
    assert delay(6) == 8
    assert delay(27) == 111


def test_delay_counts_the_trajectory():
    for z in range(1, 10**4 + 1):
        assert delay(z) == len(trajectory(z)) - 1, z
    # Every n to 64, then every hundredth to 2,000: each 2^n - 1 to 2,000
    # would take about 20 s.
    for bits in [*range(1, 65), *range(100, 2001, 100)]:
        z = 2**bits - 1
        assert delay(z) == len(trajectory(z)) - 1, bits


@pytest.mark.parametrize("z, limit", [(27, 1), (27, 50), (97, 117), (2**200 - 1, 1000)])
def test_delay_fails_like_trajectory(z, limit):
    with pytest.raises(LimitExceeded) as want:
        trajectory(z, limit)
    with pytest.raises(LimitExceeded) as got:
        delay(z, limit)
    assert str(got.value) == str(want.value)
    assert got.value.partial == want.value.partial


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_delay_keeps_no_orbit():
    z = 2**5000 - 1
    assert _peak_bytes(delay, z) < _peak_bytes(trajectory, z) / 10


def test_glide_spots():
    assert glide(2) == 1
    assert glide(3) == 6  # 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2
    assert glide(7) == 11
    assert glide(27) == 96


def test_glide_of_1_is_undefined():
    with pytest.raises(DomainError):
        glide(1)


# 27 reaches 1 in 111 steps and first drops below itself in 96: each walk
# must pass at exactly its count and raise one step short of it.
def test_walks_to_1_at_their_budget_edge():
    assert delay(27, 111) == len(trajectory(27, step_limit=111)) - 1 == 111
    assert len(class_sequence(27, 111)) == 111
    for walk in (delay, lambda z, n: trajectory(z, step_limit=n), class_sequence):
        with pytest.raises(LimitExceeded, match="^27 did not reach 1 within 110 steps$") as exc:
            walk(27, 110)
        assert exc.value.partial == trajectory(27)[:111]


def test_drop_walks_at_their_budget_edge():
    assert glide(27, 96) == 96
    assert delay_sieve(27, 96)[27] == 111
    for walk in (glide, delay_sieve):
        with pytest.raises(
            LimitExceeded, match="^27 did not drop below itself within 95 steps$"
        ):
            walk(27, 95)


def test_drop_rule_encodings_agree():
    # glide, the sweep kernel and delay_sieve each walk the descent rule on
    # their own; at each limit they must fail on the same n.
    full = delay_sieve(5000)
    least = {}
    for limit in [*range(1, 31), 131, 132]:
        failing = []
        for n in range(2, 5001):
            try:
                glide(n, limit)
            except LimitExceeded:
                failing.append(n)
                assert drop_counterexample(n, limit) is not None, (n, limit)
            else:
                assert drop_counterexample(n, limit) is None, (n, limit)
        if failing:
            message = f"^{failing[0]} did not drop below itself within {limit} steps$"
            with pytest.raises(LimitExceeded, match=message):
                delay_sieve(5000, limit)
        else:
            assert delay_sieve(5000, limit) == full
        least[limit] = failing[0] if failing else None
    # 703 has the longest glide below 5000, 132 steps, so both branches ran.
    assert least[1] == 3 and least[131] == 703 and least[132] is None


def _raw_drops(n, limits):
    """The convergence kernel's result for n at each of the sorted
    ``limits``, from one raw walk that shares no code with it: None from
    the first step below n on, and before it the value still reached."""
    results, v, steps = {}, n, 0
    for limit in limits:
        while steps < limit and v >= n:
            v = 3 * v + 1 if v % 2 else v // 2
            steps += 1
        results[limit] = (
            None if v < n else ("a value below the start within the step limit", f"still at {v}")
        )
    return results


def test_drop_kernel_returns_the_raw_walks_result():
    # The whole return value, the "still at" value included, at limits
    # inside and past the first chunks and at glide(27) = 96: for every n
    # up to 5,000, where 1 and 2 never drop, and for seeded n of 64 to
    # 4,096 bits.
    limits = [*range(1, 41), 96, 97, 140, DEFAULT_STEP_LIMIT]
    rng = random.Random(34)
    bits = [rng.randint(64, 4096) for _ in range(1000)]
    large = [rng.getrandbits(b) | 1 << (b - 1) for b in bits]
    for n in [*range(1, 5001), *large]:
        for limit, want in _raw_drops(n, limits).items():
            assert drop_counterexample(n, limit) == want, (n, limit)


def test_delay_domain_message():
    with pytest.raises(DomainError, match=r"^delay needs z >= 1, got 0$"):
        delay(0)


def test_class_sequence_domain_message():
    with pytest.raises(DomainError, match=r"^class_sequence needs z >= 1, got 0$"):
        class_sequence(0)


@given(st.integers(min_value=2, max_value=20000))
def test_glide_is_first_drop(n):
    g = glide(n)
    assert brute_c(n, g) < n
    assert all(brute_c(n, j) >= n for j in range(g))


def test_preimages():
    assert preimages_c(1) == {2}
    assert preimages_c(16) == {32, 5}
    assert preimages_c(4) == {8, 1}
    # 7 = 3*2+1 but 2 is even, so only the doubling preimage
    assert preimages_c(7) == {14}


@given(st.integers(min_value=1, max_value=10**30))
def test_preimages_really_map_back(z):
    for p in preimages_c(z):
        assert step_c(p) == z


def test_backward_tree_depth_2():
    t = backward_tree(2)
    assert set(t.nodes) == {1, 2, 4}
    assert t.nodes[4][0] == 2
    # 3 is the tree's depth but not one of its values
    assert 3 not in backward_tree(3)


def test_backward_tree_depth_5():
    t = backward_tree(5)
    assert set(t.nodes) == {1, 2, 4, 8, 16, 5, 32}
    assert {v for v, (d, _) in t.nodes.items() if d == 5} == {5, 32}
    assert t.nodes[5][0] == 5


@given(st.integers(min_value=0, max_value=12))
def test_backward_tree_depth_equals_delay(depth):
    t = backward_tree(depth)
    for value, (d, parent) in t.nodes.items():
        assert delay(value) == d
        if parent is not None:
            assert step_c(value) == parent


def test_delay_sieve_agrees_with_delay():
    table = delay_sieve(500)
    for n in range(2, 501):
        assert table[n] == delay(n)


def test_delay_records_small():
    assert records_sweep(100, "delay") == [(2, 1), (3, 7), (6, 8), (7, 16), (9, 19), (18, 20), (25, 23), (27, 111), (54, 112), (73, 115), (97, 118)]
    with pytest.raises(DomainError, match=r"^n_max must be >= 2, got 1$"):
        records_sweep(1, "delay")


def test_glide_records_small():
    assert records_sweep(100, "glide") == [(2, 1), (3, 6), (7, 11), (27, 96)]
    with pytest.raises(DomainError, match=r"^n_max must be >= 2, got 1$"):
        records_sweep(1, "glide")


def test_records_rejects_unknown_kind():
    with pytest.raises(DomainError):
        records_sweep(100, "stopping")


@pytest.mark.parametrize("kind", ["delay", "glide"])
def test_records_rejects_a_step_limit_below_one(kind):
    with pytest.raises(DomainError, match="step_limit must be >= 1, got 0"):
        records_sweep(100, kind, 0)


@pytest.mark.parametrize("limit", [0, -1])
@pytest.mark.parametrize("fn, arg", [(delay, 27), (glide, 27), (delay_sieve, 100)])
def test_step_limit_below_one_is_a_domain_error(fn, arg, limit):
    with pytest.raises(DomainError, match=f"^step_limit must be >= 1, got {limit}$"):
        fn(arg, limit)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=4000))
def test_records_are_strict_maxima(n_max):
    entries = records_sweep(n_max, "delay")
    values = [v for _, v in entries]
    ns = [n for n, _ in entries]
    assert values == sorted(set(values))
    assert ns == sorted(set(ns))
