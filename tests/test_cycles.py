import errno
import os
import signal
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import collatz_lab
from collatz_lab import cli, cycles
from collatz_lab.blocks import START, block_step, decompose, make_block
from collatz_lab.cycles import (
    CycleCandidate,
    _first_block_names,
    count_candidates,
    cycle_equation_general,
    cycle_k_n1,
    search_cycles,
    search_cycles_n1,
)
from collatz_lab.errors import DomainError, IdentityViolation, SweepWorkerError


def _param_lists(n: int, budget: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reference enumerator: all (m_seq, e_seq) of length n with m_j >= 0,
    e_j >= 1 and sum(m) + sum(e) <= budget, in lexicographic order of the
    interleaved tuple (m_1, e_1, m_2, e_2, ...)."""

    def extend(prefix: list[int], remaining: int, slots: int) -> Iterator[list[int]]:
        if slots == 0:
            yield prefix
            return
        # Even interleave positions are m entries (floor 0), odd are e (floor 1).
        on_e = len(prefix) % 2
        floor = 1 if on_e else 0
        # Later slots still need at least their own floors' worth of budget.
        later_floor = (slots - 1) // 2 if on_e else slots // 2
        for value in range(floor, remaining - later_floor + 1):
            yield from extend(prefix + [value], remaining - value, slots - 1)

    for flat in extend([], budget, 2 * n):
        yield tuple(flat[0::2]), tuple(flat[1::2])


@cache
def _per_candidate(n: int, budget: int) -> tuple:
    """The length-n hits of the box, one cycle_equation_general per candidate."""
    sols = (cycle_equation_general(CycleCandidate(m, e)) for m, e in _param_lists(n, budget))
    return tuple(s for s in sols if s.is_integer and s.is_nonneg)


def test_k_n1_spots():
    assert cycle_k_n1(0, 1) == 0
    assert type(cycle_k_n1(0, 1)) is Fraction
    assert cycle_k_n1(1, 2) == Fraction(-1, 7)
    assert cycle_k_n1(0, 2) == Fraction(-2, 5)


def test_k_n1_guards():
    with pytest.raises(DomainError):
        cycle_k_n1(-1, 1)
    with pytest.raises(DomainError):
        cycle_k_n1(0, 0)


def test_sign_lemma_m0():
    # for m=0 and e >= 2 the numerator is negative, the denominator positive
    for e in range(2, 61):
        num = 3 - 1 - 2**e
        den = 2 ** (e + 1) - 3
        assert num < 0 < den
        assert cycle_k_n1(0, e) < 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
def test_general_equation_matches_n1(m, e):
    sol = cycle_equation_general(CycleCandidate((m,), (e,)))
    assert sol.k0 == cycle_k_n1(m, e)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=60))
def test_denominator_never_vanishes(m, e):
    assert 2 ** (e + m + 1) != 3 ** (m + 1)


def test_general_equation_spots():
    trivial_twice = cycle_equation_general(CycleCandidate((0, 0), (1, 1)))
    assert trivial_twice.k0 == 0 and trivial_twice.simulated_ok
    rejected = cycle_equation_general(CycleCandidate((1,), (3,)))
    assert rejected.k0 == Fraction(-9, 23) and not rejected.is_integer
    mixed = cycle_equation_general(CycleCandidate((0, 1), (1, 1)))
    assert mixed.k0 == Fraction(12, 5) and not mixed.is_integer


def test_odd_negative_fixed_point_is_rejected():
    # (m=1, e=1) closes formally at k0 = -3; integral, but out of domain
    sol = cycle_equation_general(CycleCandidate((1,), (1,)))
    assert sol.k0 == -3
    assert sol.is_integer and not sol.is_nonneg and not sol.simulated_ok


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=4,
    )
)
def test_simulated_ok_implies_integral_nonneg(pairs):
    cand = CycleCandidate(tuple(m for m, _ in pairs), tuple(e for _, e in pairs))
    sol = cycle_equation_general(cand)
    if sol.simulated_ok:
        assert sol.is_integer and sol.is_nonneg
        blocks = decompose(int(sol.k0), cand.n).blocks
        assert [b.m for b in blocks] == list(cand.m_seq)
        assert [b.e for b in blocks] == list(cand.e_seq)
        assert blocks[-1].k_out == sol.k0


def test_simulate_stops_at_the_first_mismatched_block(monkeypatch):
    calls = []

    def counting(k_in):
        calls.append(k_in)
        return make_block(k_in)

    monkeypatch.setattr("collatz_lab.blocks.make_block", counting)
    # The real block at k = 0 is (m, e) = (0, 1), so the first block fails.
    assert not cycles._simulate(CycleCandidate((5, 0, 0), (1, 1, 1)), 0)
    assert calls == [0]


@pytest.mark.parametrize("box", [(1, 1), (5, 5), (25, 25)])
def test_n1_box_known_result(box):
    sols = search_cycles_n1(*box)
    assert len(sols) == 1
    only = sols[0]
    assert only.candidate == ((0,), (1,))
    assert only.k0 == 0 and only.simulated_ok


def test_n1_solution_is_the_trivial_loop():
    sol = search_cycles_n1(1, 1)[0]
    blocks = decompose(int(sol.k0), 1).blocks
    from collatz_lab.blocks import block_path

    assert block_path(blocks[0]) == [2, 1, 4, 2]


def test_param_lists_exhaustive_and_ordered():
    got = list(_param_lists(2, 5))
    for m_seq, e_seq in got:
        assert len(m_seq) == len(e_seq) == 2
        assert all(m >= 0 for m in m_seq) and all(e >= 1 for e in e_seq)
        assert sum(m_seq) + sum(e_seq) <= 5
    flat = [tuple(v for pair in zip(m, e) for v in pair) for m, e in got]
    assert flat == sorted(flat)
    assert len(got) == len(set(got))
    # count agrees with a direct product filter
    brute = [
        ((m1, m2), (e1, e2))
        for m1 in range(6)
        for e1 in range(1, 6)
        for m2 in range(6)
        for e2 in range(1, 6)
        if m1 + m2 + e1 + e2 <= 5
    ]
    assert set(got) == set(brute)


def test_search_cycles_budget_forces_trivial():
    sols = search_cycles(2, 2)
    assert [s.candidate for s in sols] == [CycleCandidate((0,), (1,)), CycleCandidate((0, 0), (1, 1))]


def test_search_cycles_n3_budget12():
    sols = search_cycles(3, 12)
    assert [s.candidate for s in sols] == [
        CycleCandidate((0,), (1,)),
        CycleCandidate((0, 0), (1, 1)),
        CycleCandidate((0, 0, 0), (1, 1, 1)),
    ]
    assert all(s.k0 == 0 and s.simulated_ok for s in sols)
    assert count_candidates(3, 12) == 6084


def test_count_candidates_closed_form_equals_enumeration():
    for n_max in range(1, 5):
        for budget in range(n_max, 15):
            enumerated = sum(
                1 for n in range(1, n_max + 1) for _ in _param_lists(n, budget)
            )
            assert count_candidates(n_max, budget) == enumerated, (n_max, budget)


def test_search_guards():
    with pytest.raises(DomainError):
        search_cycles(0, 5)
    with pytest.raises(DomainError):
        search_cycles(3, 2)
    with pytest.raises(DomainError):
        search_cycles_n1(0, 3)


@pytest.mark.parametrize(
    "n_max,budget",
    [(n, b) for n in range(1, 5) for b in range(n, 14)] + [(5, 11)],
)
def test_search_equals_per_candidate_closure(n_max, budget):
    expected = [s for n in range(1, n_max + 1) for s in _per_candidate(n, budget)]
    assert search_cycles(n_max, budget) == expected


def test_n1_search_equals_per_candidate_closure():
    sols = (
        cycle_equation_general(CycleCandidate((m,), (e,)))
        for m in range(61)
        for e in range(1, 61)
    )
    assert search_cycles_n1(60, 60) == [s for s in sols if s.is_integer and s.is_nonneg]


@pytest.fixture
def split_any_box(monkeypatch):
    """Let search_cycles give a worker fewer than _MIN_SHARE candidates, so
    that small boxes run on the fork engine too."""
    monkeypatch.setattr(cycles, "_MIN_SHARE", 1)


def _firsts(budget):
    """The first blocks of a walk with this budget, in walk order."""
    return [(m, e) for m in range(budget) for e in range(1, budget - m + 1)]


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.parametrize(
    "n_max,budget",
    [(n, b) for n in range(1, 5) for b in range(n, 14)] + [(5, 11), (2, 28), (3, 19), (4, 15)],
)
def test_search_is_the_same_at_one_two_and_three_workers(n_max, budget):
    one = search_cycles(n_max, budget, workers=1)
    assert search_cycles(n_max, budget, workers=2) == one
    assert search_cycles(n_max, budget, workers=3) == one


def _planted_hits_step(state, m, e):
    """The block step, but at every block with m + 2e divisible by 3 the
    state closes at k0 = m: hits in every worker's share, where the true
    step has them only below (0, 1)."""
    p, t, s = block_step(state, m, e)
    return (p, t, (p - t) * m) if (m + 2 * e) % 3 == 0 else (p, t, s)


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.parametrize("n_max,budget", [(3, 12), (4, 13)])
def test_planted_hits_come_back_in_walk_order_at_any_worker_count(n_max, budget, monkeypatch):
    expected = []
    for n in range(1, n_max + 1):
        for m_seq, e_seq in _param_lists(n, budget):
            state = START
            for m, e in zip(m_seq, e_seq):
                state = _planted_hits_step(state, m, e)
            p, t, s = state
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                expected.append((CycleCandidate(m_seq, e_seq), q))
    monkeypatch.setattr(cycles, "_extend", _planted_hits_step)
    monkeypatch.setattr(cycles, "_simulate", lambda c, k0: False)
    for workers in (1, 2, 3):
        got = [(s.candidate, s.k0) for s in search_cycles(n_max, budget, workers=workers)]
        assert got == expected, workers
    assert len({c.m_seq[0] for c, _ in expected}) > 3


@pytest.mark.parametrize(
    "box, workers, forks",
    [((3, 19), 1, 0), ((3, 12), 2, 0), ((2, 28), 8, 1), ((3, 19), 3, 2), ((1, 200), 2, 1)],
)
def test_each_search_worker_gets_at_least_a_min_share(box, workers, forks, monkeypatch):
    # (3, 12) holds 6084 candidates, (2, 28) 27811, (3, 19) 80788 and
    # (1, 200) 20100: a fork pays only above _MIN_SHARE = 10,000 per worker.
    forked, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or real_fork())
    search_cycles(*box, workers=workers)
    assert len(forked) == forks


def _n1_by_e_loop(m_max, e_max):
    """search_cycles_n1 as it was before the single-block lemma: a
    division for every (m, e) of the box."""
    found = []
    for m in range(m_max + 1):
        for e in range(1, e_max + 1):
            p, t, s = block_step(START, m, e)
            q, r = divmod(s, p - t)
            if not r and q >= 0:
                found.append(cycles._hit([(m, e)], q))
    return found


@pytest.mark.parametrize("box", [(60, 60), (159, 75), (400, 400)])
def test_n1_closed_form_equals_the_e_loop(box):
    assert search_cycles_n1(*box) == _n1_by_e_loop(*box)


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=120))
def test_n1_closed_form_equals_the_e_loop_on_any_box(m_max, e_max):
    assert search_cycles_n1(m_max, e_max) == _n1_by_e_loop(m_max, e_max)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_only_the_bit_length_e_closes_at_a_non_negative_point(m, e):
    # The single-block lemma of search_cycles_n1, against the exact fixed point.
    if cycle_k_n1(m, e) >= 0:
        assert e == (3 ** (m + 1)).bit_length() - m - 1


def _planted_step(action, at, in_child=True, parent=os.getpid()):
    """A block step that runs ``action`` when the walk extends the start by
    first block ``at``, only in a forked worker (or, with ``in_child=False``,
    only in the test process)."""

    def step(state, m, e):
        if state == START and (m, e) == at and (os.getpid() != parent) == in_child:
            action()
        return block_step(state, m, e)

    return step


def _raise(exc):
    raise exc


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


# The first blocks that the one child walks at two workers.
_CHILD_SHARE = _firsts(12)[1::2]


@pytest.mark.parametrize(
    "action, says",
    [
        (partial(os._exit, 3), "exited with status 3"),
        (_kill_self, f"was killed by signal {int(signal.SIGKILL)} (SIGKILL)"),
        (partial(os._exit, 0), "exited with status 0 but sent a short payload (0 bytes)"),
    ],
    ids=["exit-3", "sigkill", "short-payload"],
)
@pytest.mark.usefixtures("split_any_box")
def test_crashed_search_worker_names_its_first_blocks(action, says, monkeypatch):
    monkeypatch.setattr(cycles, "_extend", _planted_step(action, _CHILD_SHARE[1]))
    with pytest.raises(SweepWorkerError) as info:
        search_cycles(3, 12, workers=2)
    blocks = ", ".join(map(str, _CHILD_SHARE))
    assert str(info.value) == f"the worker for first blocks (m, e) {blocks} {says}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("split_any_box")
def test_crashed_search_worker_fails_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cycles, "_extend", _planted_step(partial(os._exit, 3), _CHILD_SHARE[0]))
    assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the worker for {_first_block_names(_CHILD_SHARE)} exited with status 3\n"


@pytest.mark.usefixtures("split_any_box")
def test_search_worker_exception_keeps_its_type(monkeypatch):
    planted = _planted_step(partial(_raise, IdentityViolation("planted")), _CHILD_SHARE[-1])
    monkeypatch.setattr(cycles, "_extend", planted)
    with pytest.raises(IdentityViolation, match="^planted$") as info:
        search_cycles(3, 12, workers=2)
    # the cause names the child's first blocks and carries its traceback
    assert isinstance(info.value.__cause__, SweepWorkerError)
    assert _first_block_names(_CHILD_SHARE) in str(info.value.__cause__)
    assert "in step" in str(info.value.__cause__)


# At three workers the first child starts with this first block, and the
# test process walks (0, 1) first.  When either fails, the second child has
# not been reaped yet.
_FIRST_CHILD_BLOCK = _firsts(19)[1]


@pytest.mark.parametrize(
    "action, at, in_child, raises",
    [
        (partial(os._exit, 3), _FIRST_CHILD_BLOCK, True, SweepWorkerError),
        (partial(_raise, IdentityViolation()), _FIRST_CHILD_BLOCK, True, IdentityViolation),
        (partial(_raise, IdentityViolation()), (0, 1), False, IdentityViolation),
        (partial(_raise, KeyboardInterrupt()), (0, 1), False, KeyboardInterrupt),
    ],
    ids=["child-exits", "child-raises", "parent-raises", "parent-interrupted"],
)
@pytest.mark.usefixtures("split_any_box")
def test_no_worker_outlives_a_failed_search(action, at, in_child, raises, monkeypatch):
    monkeypatch.setattr(cycles, "_extend", _planted_step(action, at, in_child))
    with pytest.raises(raises):
        search_cycles(3, 19, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("split_any_box")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_a_failed_search_fork_leaves_no_child_and_no_pipe(monkeypatch):
    forks = []

    def second_fork_fails(_real=os.fork):
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "planted fork failure")
        return _real()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="planted fork failure"):
        search_cycles(3, 19, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.usefixtures("split_any_box")
def test_planted_simulation_fault_surfaces(monkeypatch, capsys):
    # Two CPUs, so the search forks here as on a multi-core host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cycles, "_simulate", lambda c, k0: False)
    sols = search_cycles(3, 12)
    assert [s.candidate.n for s in sols] == [1, 2, 3]
    assert all(s.k0 == 0 and not s.simulated_ok for s in sols)
    assert not any(s.simulated_ok for s in search_cycles_n1(5, 5))
    assert cli.run(["cycles", "search", "--n-max", "3", "--budget", "12"]) == 2
    assert "unsimulated" in capsys.readouterr().out


def test_vanishing_closure_raises_under_optimize():
    # The walks step by cycles._extend, the closures by blocks.block_step.
    code = (
        "import collatz_lab.blocks as B, collatz_lab.cycles as C\n"
        "from collatz_lab.errors import IdentityViolation\n"
        "C._extend = B.block_step = lambda state, m, e: (8, 8, 1)\n"
        "for call in (lambda: C.cycle_k_n1(0, 1),\n"
        "             lambda: C.cycle_equation_general(C.CycleCandidate((0,), (1,))),\n"
        "             lambda: C.search_cycles(1, 1, workers=1),\n"
        "             lambda: C.search_cycles_n1(1, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except IdentityViolation:\n"
        "        print('raised')\n"
    )
    src = str(Path(collatz_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n" * 4
