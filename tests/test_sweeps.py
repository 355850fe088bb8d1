import errno
import importlib
import itertools
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from functools import cache, partial
from pathlib import Path
from types import MappingProxyType

import pytest

import collatz_lab
from collatz_lab import beta_chain, blocks, cli, polyline, residues
from collatz_lab.core import (
    CHUNK_BITS,
    DEFAULT_STEP_LIMIT,
    SIEVE_BITS,
    SIEVE_MODULUS,
    _descent_steps,
    _sieve_survivors,
    _sieved_inputs,
    count_unstopped_classes,
    drop_counterexample,
    glide,
)
from collatz_lab.errors import DomainError, IdentityViolation, SweepWorkerError
from collatz_lab.report import Counterexample, export_report
from collatz_lab.sweeps import (
    SWEEPS,
    _FORK_PAYS_S,
    _INDEX,
    _MAX_TOKENS,
    _SPANS_PER_WORKER,
    _fork_map,
    _spans,
    _verify,
    resolve_workers,
    run_sweep,
    verify_beta_chains,
    verify_blocks,
    verify_convergence,
    verify_polylines,
    verify_transitions,
)


def _raw_convergence(n_max, limits):
    """The counterexamples of the convergence sweep over [2, n_max] at each
    step limit of ``limits``, from one raw walk per n that shares no code
    with the sieve or the chunk table: n fails at a limit when none of its
    first that many raw steps is below n."""
    rows = {limit: [] for limit in limits}
    top = max(limits)
    for n in range(2, n_max + 1):
        v = n
        for steps in range(1, top + 1):
            v = 3 * v + 1 if v & 1 else v >> 1
            if v < n:
                break
            if steps in rows:
                rows[steps].append(
                    Counterexample(
                        str(n), "a value below the start within the step limit", f"still at {v}"
                    )
                )
    return rows


def _assert_raw_report(report, n_max, limit, rows):
    assert report.counterexamples == rows
    assert report.config == {"max": str(n_max), "limit": str(limit)}
    assert report.checked == n_max - 1


def _json_without_elapsed(report):
    return re.sub(rb'"elapsed_ms": "\d+"', b"", export_report(report, "json"))


def test_drop_check_counts_raw_steps():
    assert drop_counterexample(6, step_limit=1) is None
    assert drop_counterexample(5, step_limit=2) is not None  # 5 -> 16 -> 8
    assert drop_counterexample(5, step_limit=3) is None  # ... -> 4
    assert drop_counterexample(27, step_limit=95) is not None
    assert drop_counterexample(27, step_limit=96) is None  # glide(27) = 96


@cache
def _brute_classes(bits):
    """For each class b mod 2^bits, by a walk of its own: the raw steps of the
    first j <= bits with 3^c < 2^j and T^j(b) < b (None if there is none),
    and whether 3^c > 2^j at every j <= bits."""
    rows = []
    for b in range(1 << bits):
        t, c, steps, unstopped = b, 0, None, True
        for j in range(1, bits + 1):
            t, c = ((3 * t + 1) // 2, c + 1) if t % 2 else (t // 2, c)
            if 3**c < 2**j:
                unstopped = False
                if t < b and steps is None:
                    steps = j + c
        rows.append((steps, unstopped))
    return rows


def test_sieve_table_equals_a_brute_force_table():
    # The refined table, spread over every class mod 2^16, is the table a
    # walk of each class builds, for the classes 2 and up; the classes 0
    # and 1, whose least members never fall, are proven for their n >= 2 in
    # 1 and 3 raw steps.  The classes it leaves are the unstopped ones.
    sieve = _descent_steps()
    table = [None] * SIEVE_MODULUS
    for b, d, steps in sieve.proven:
        for i in range(SIEVE_MODULUS >> d):
            assert table[b + (i << d)] is None, (b, d)
            table[b + (i << d)] = steps
    rows = _brute_classes(SIEVE_BITS)
    assert table[2:] == [steps for steps, _ in rows[2:]]
    assert table[:2] == [1, 3]
    unstopped = [b for b, (_, flag) in enumerate(rows) if flag]
    assert list(sieve.unstopped) == unstopped


def test_sieve_table_claims_hold():
    # Each proven class b mod 2^d really falls below its start within the
    # steps the table claims, for several a in n = 2^d * a + b >= 2, a = 0
    # included where b >= 2.  Each unstopped class is rightly split to the
    # end: n = 2^16 * a + b stays at or above n through its first 16
    # shortcut steps.
    sieve = _descent_steps()
    many = (0, 1, 2, 3, 5, 1000, 10**30 + 7)
    for b, d, steps in sieve.proven:
        for a in many[1:] if b < 2 else many:
            assert glide((a << d) + b) <= steps, (a, b, d)
    for b in sieve.unstopped:
        for a in many:
            n = v = SIEVE_MODULUS * a + b
            for _ in range(SIEVE_BITS):
                v = (3 * v + 1) >> 1 if v & 1 else v >> 1
                assert v >= n, (a, b)
    # The classes 0 and 1 are not unstopped: each of their n > 1 falls
    # below itself within 16 shortcut steps.
    assert {0, 1}.isdisjoint(sieve.unstopped)
    assert glide(SIEVE_MODULUS) == 1 and glide(SIEVE_MODULUS + 1) == 3


def test_chunk_table_equals_a_brute_force_walk():
    # Row r is (3^c, T^8(r), 8 + c) from a walk of r's own first 8 shortcut
    # steps, c the odd ones among them.
    chunks = _descent_steps().chunks
    assert CHUNK_BITS == 8 and len(chunks) == 1 << CHUNK_BITS
    for r, row in enumerate(chunks):
        t, c = r, 0
        for _ in range(CHUNK_BITS):
            t, c = ((3 * t + 1) // 2, c + 1) if t % 2 else (t // 2, c)
        assert row == (3**c, t, CHUNK_BITS + c), r


@pytest.mark.parametrize("k, brute", [(8, 19), (12, 226), (16, 2114)])
def test_unstopped_classes_are_counted_exactly(k, brute):
    assert count_unstopped_classes(k) == brute
    assert sum(flag for _, flag in _brute_classes(k)) == brute
    if k == SIEVE_BITS:
        assert len(_descent_steps().unstopped) == brute


def test_unstopped_class_count_domain():
    assert count_unstopped_classes(0) == 1 and count_unstopped_classes(1) == 1
    with pytest.raises(DomainError, match="^k must be >= 0, got -1$"):
        count_unstopped_classes(-1)


def test_sieve_survivor_share():
    survivors = _sieve_survivors(DEFAULT_STEP_LIMIT)
    assert len(survivors) == count_unstopped_classes(SIEVE_BITS)  # 3.2% of the classes
    assert _sieve_survivors(2) == tuple(range(1, SIEVE_MODULUS, 2))


def test_sieve_survivors_are_built_once_per_limit():
    # 32,768 classes at limit 1, which a sweep would otherwise sort anew on
    # each call; every limit from the sieve's most steps up shares the
    # sieve's own tuple of unstopped classes.
    survivors = _sieve_survivors(1)
    assert _sieve_survivors(1) is survivors
    assert survivors == _sieve_survivors.__wrapped__(1)
    assert len(survivors) == 32_768
    most = max(steps for _, _, steps in _descent_steps().proven)
    assert _sieve_survivors(most - 1) != _sieve_survivors(most)
    assert _sieve_survivors(DEFAULT_STEP_LIMIT) is _sieve_survivors(most)
    assert _sieve_survivors(DEFAULT_STEP_LIMIT) is _descent_steps().unstopped


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 3),
        (2, 5000),
        (4096, 8192),
        (4095, 12289),
        (8191, 8191),
        (65535, 131073),
        (60000, 200000),
        (131072, 131072 + 27),
    ],
)
def test_sieved_inputs_are_the_survivors_of_each_span(lo, hi):
    survivors = _sieve_survivors(30)
    classes = set(survivors)
    want = [n for n in range(lo, hi) if n % SIEVE_MODULUS in classes]
    assert list(_sieved_inputs(lo, hi, survivors)) == want


def test_sieved_convergence_equals_raw_to_one_million():
    sieved = verify_convergence(10**6, workers=1)
    raw = _raw_convergence(10**6, [DEFAULT_STEP_LIMIT])
    assert sieved.passed
    _assert_raw_report(sieved, 10**6, DEFAULT_STEP_LIMIT, raw[DEFAULT_STEP_LIMIT])


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 10, 30])
def test_sieved_convergence_equals_raw_at_small_limits(limit):
    sieved = verify_convergence(2 * 10**5, step_limit=limit, workers=1)
    assert sieved.counterexamples, "a limit this small must leave counterexamples"
    _assert_raw_report(sieved, 2 * 10**5, limit, _raw_convergence(2 * 10**5, [limit])[limit])


def test_sieved_convergence_equals_raw_across_the_first_two_chunks():
    # The first two chunks from an unstopped class take 16 + c raw steps,
    # 27 to 32, so at each limit from 24 to 34 some classes walk them and
    # some decide by the raw walk from n.  One raw walk per n serves every
    # limit.
    chunks, rows = _descent_steps().chunks, 1 << CHUNK_BITS
    lengths = set()
    for b in _descent_steps().unstopped:
        three_c, t, first = chunks[b % rows]
        lengths.add(first + chunks[(three_c * (b >> CHUNK_BITS) + t) % rows][2])
    assert lengths == set(range(27, 33))
    limits = range(24, 35)
    raw = _raw_convergence(2 * 10**5, limits)
    for limit in limits:
        sieved = verify_convergence(2 * 10**5, step_limit=limit, workers=1)
        assert sieved.counterexamples, limit
        _assert_raw_report(sieved, 2 * 10**5, limit, raw[limit])


def test_chunked_convergence_equals_raw_past_the_first_two_chunks_to_the_glide_records():
    # From limit 33 on, the first two chunks of every unstopped class (27 to
    # 32 raw steps) fit and its n walks on in 8-step chunks; 140 passes
    # glide(27) = 96 and glide(703) = 132.
    # Across these limits, some n drop inside the chunk that would pass the
    # limit, and some inside an earlier chunk that climbs back above n by
    # its end: the raw walk from n decides both.  One raw walk per n serves
    # every limit.
    limits = range(33, 141)
    raw = _raw_convergence(2 * 10**5, limits)
    for limit in limits:
        sieved = verify_convergence(2 * 10**5, step_limit=limit, workers=1)
        assert sieved.counterexamples, limit
        _assert_raw_report(sieved, 2 * 10**5, limit, raw[limit])


def test_every_kernel_lives_outside_sweeps():
    # sweeps is the fork engine and the registry: each kernel is defined in
    # the module its row names, never in sweeps, and no step of the map is
    # spelled there.
    for sweep in SWEEPS.values():
        module, _, function = sweep.check.rpartition(".")
        kernel = getattr(importlib.import_module(f"collatz_lab.{module}"), function)
        assert module != "sweeps" and kernel.__module__ == f"collatz_lab.{module}", sweep
    source = Path(collatz_lab.sweeps.__file__).read_text()
    assert re.findall(r"\b3\s*\*\s*\w+\s*\+\s*1\b", source) == []


@pytest.mark.parametrize(
    "sweep",
    [verify_transitions, verify_beta_chains, verify_blocks, verify_polylines, verify_convergence],
)
def test_sweeps_take_only_their_top_positionally(sweep):
    # A second positional argument once meant workers in some sweeps and
    # step_limit in another; now it is an error in all of them.
    with pytest.raises(TypeError):
        sweep(300, 1)


def _faulty_make_block(k_in, _real=blocks.make_block):
    b = _real(k_in)
    return b._replace(k_out=b.k_out + 1) if k_in == 27 else b


def _faulty_transition_symbolic(c, _real=residues.transition_symbolic):
    out = _real(c)
    return (out[0], out[1] + 1) if residues.declassify(c) == 27 else out


def _faulty_solve_beta_chain_paper(k, _real=beta_chain.solve_beta_chain_paper):
    sol = _real(k)
    return (k, sol[1], sol[2] + 1) if k == 27 else sol


def _faulty_t_closed_form(p, _real=polyline.t_closed_form):
    x, s = p
    return _real(p) + (x + s - 1 == 27)


# Each planted fault goes wrong at the input 27 only.
_PLANTED = {
    "make_block": (blocks, _faulty_make_block),
    "transition_symbolic": (residues, _faulty_transition_symbolic),
    "solve_beta_chain_paper": (beta_chain, _faulty_solve_beta_chain_paper),
    "t_closed_form": (polyline, _faulty_t_closed_form),
}


@pytest.mark.usefixtures("force_fork")
@pytest.mark.parametrize(
    "sweep, planted",
    [
        (partial(verify_blocks, 300), "make_block"),
        (partial(verify_blocks, 300, step_limit=20), None),
        (partial(verify_convergence, 5000, step_limit=20), None),
        # At 25 the classes proven in 26 raw steps are walked too; 30 falls
        # inside the first two chunks (27 to 32 raw steps); at 100 n walks in
        # 8-step chunks and the raw walk decides at the limit.
        (partial(verify_convergence, 2 * 10**5, step_limit=25), None),
        (partial(verify_convergence, 2 * 10**5, step_limit=30), None),
        (partial(verify_convergence, 2 * 10**5, step_limit=100), None),
        (partial(verify_transitions, 300), "transition_symbolic"),
        (partial(verify_beta_chains, 300), "solve_beta_chain_paper"),
        (partial(verify_polylines, 300), "t_closed_form"),
    ],
    ids=[
        "blocks-planted-make-block",
        "blocks-step-limit-20",
        "convergence-step-limit-20",
        "convergence-step-limit-25",
        "convergence-step-limit-30",
        "convergence-step-limit-100",
        "transitions-planted-transition-symbolic",
        "beta-chain-planted-solve-beta-chain-paper",
        "polyline-planted-t-closed-form",
    ],
)
def test_faults_fail_alike_on_one_and_two_workers(sweep, planted, monkeypatch):
    if planted:
        module, faulty = _PLANTED[planted]
        monkeypatch.setattr(module, planted, faulty)
    one, two = sweep(workers=1), sweep(workers=2)
    assert not one.passed
    if planted:
        assert [c.input for c in one.counterexamples] == ["27"]
    assert _json_without_elapsed(one) == _json_without_elapsed(two)


_REPORT_TOPS = (1, 2, 7, 300, 10**4)


# By default each sweep forks as its first span projects: at 10^4 most of
# them fork and below it most run inline.  Forced, every sweep of more than
# two spans forks, including those with fewer spans than workers.
@pytest.mark.parametrize(
    "n, forced",
    [(n, False) for n in _REPORT_TOPS] + [(n, True) for n in _REPORT_TOPS],
    ids=[str(n) for n in _REPORT_TOPS] + [f"{n}-forced" for n in _REPORT_TOPS],
)
def test_reports_match_at_one_two_and_three_workers(n, forced, request):
    if forced:
        request.getfixturevalue("force_fork")
    sweeps = [
        partial(verify_transitions, n),
        partial(verify_beta_chains, n),
        partial(verify_blocks, n),
        partial(verify_blocks, n, step_limit=20),
        partial(verify_polylines, n),
        partial(verify_convergence, n + 1),
        partial(verify_convergence, 50 * n + 1, step_limit=20),
    ]
    for sweep in sweeps:
        one, two, three = (_json_without_elapsed(sweep(workers=w)) for w in (1, 2, 3))
        assert one == two == three


@pytest.mark.usefixtures("force_fork")
def test_a_failure_heavy_sweep_matches_across_workers():
    # Thousands of rows cross the fork as plain tuples; each comes back a
    # Counterexample of three str, and the report does not depend on w.
    reports = [verify_convergence(20_000, step_limit=1, workers=w) for w in (1, 2, 3)]
    rows = reports[0].counterexamples
    assert len(rows) > 5000
    assert all(type(c) is Counterexample and all(type(f) is str for f in c) for c in rows)
    one, two, three = map(_json_without_elapsed, reports)
    assert one == two == three


@pytest.mark.usefixtures("force_fork")
def test_lambda_check_runs_on_two_workers():
    # The check reaches the forked workers by inheritance, not by pickle.
    report = run_sweep("lambda", lambda z: (0, z) if z % 7 == 0 else None, 1, 100, workers=2)
    assert [c.input for c in report.counterexamples] == [str(z) for z in range(7, 100, 7)]
    assert report.checked == 99


def test_a_report_made_without_a_config_has_a_read_only_one():
    report = run_sweep("x", lambda z: None, 0, 3, workers=1)
    assert type(report.config) is MappingProxyType
    assert report.config == {}


@pytest.mark.usefixtures("force_fork")
def test_workers_beyond_the_range_fork_one_child_per_extra_input(monkeypatch):
    forks = []

    def counting_fork(_real=os.fork):
        forks.append(None)
        return _real()

    monkeypatch.setattr(os, "fork", counting_fork)
    # Three inputs make three spans.  This process scans the first before
    # it forks, and one child beside it takes the other two: no worker is
    # forked for an input that another worker has.
    report = run_sweep("three", lambda z: (z, -z), 5, 8, workers=64)
    assert len(forks) == 1
    assert [c.input for c in report.counterexamples] == ["5", "6", "7"]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 5, 7, _MAX_TOKENS + 3, 5000])
def test_fork_map_is_a_map_in_item_order(count, workers, monkeypatch):
    # Items 0 to w - 1 go one to each of w workers, and the rest fill one
    # write of at most _MAX_TOKENS claim tokens, which never blocks.
    forks, real_fork = [], os.fork
    writes, real_write = [], os.write
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
    monkeypatch.setattr(os, "write", lambda fd, b: writes.append(len(b)) or real_write(fd, b))
    items = [(7 * i) % 10007 for i in range(count)]
    got = _fork_map(lambda x: (x, x * x), items, workers, str)
    assert got == [(x, x * x) for x in items]
    w = max(1, min(workers, count))
    assert len(forks) == w - 1
    assert writes == ([_INDEX * min(count - w, _MAX_TOKENS)] if w > 1 else [])


def _sevens(z):
    return (0, z) if z % 7 == 0 else None


def test_without_fork_a_sweep_runs_on_one_worker(monkeypatch):
    one = run_sweep("sevens", _sevens, 1, 1000, workers=1)
    monkeypatch.delattr(os, "fork")
    three = run_sweep("sevens", _sevens, 1, 1000, workers=3)
    assert _json_without_elapsed(three) == _json_without_elapsed(one)
    # the request is still checked
    with pytest.raises(DomainError, match="workers must be >= 1"):
        run_sweep("sevens", _sevens, 1, 1000, workers=0)


def _fork_forbidden():
    raise AssertionError("a call that should run inline forked")


@pytest.mark.parametrize(
    "sweep",
    [verify_transitions, verify_beta_chains, verify_blocks, verify_polylines, verify_convergence],
)
def test_one_worker_forks_nothing(sweep, monkeypatch):
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    assert sweep(300, workers=1).passed


@pytest.mark.parametrize(
    "sweep",
    [verify_transitions, verify_beta_chains, verify_blocks, verify_polylines, verify_convergence],
)
def test_two_workers_fork_nothing_on_a_small_range(sweep, monkeypatch):
    # Warm, each first span here projects the rest at 0.3 to 2.5 ms against
    # the 5 ms threshold.  The clock stands still, so that a pause on a
    # loaded host cannot push that over: the sweep projects no work at all,
    # and it runs inline on two workers.
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    assert sweep(300, workers=2).passed


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("share, forks", [(0.98, False), (1.02, True)], ids=["below", "past"])
def test_a_sweep_forks_only_when_its_first_span_projects_past_the_threshold(
    share, forks, workers, monkeypatch
):
    # A clock that moves one tick at each reading: the first span takes one
    # tick, and its time for each other span projects this share of the
    # threshold.
    tick = share * _FORK_PAYS_S / (_SPANS_PER_WORKER * workers - 1)
    one = _json_without_elapsed(run_sweep("sevens", _sevens, 1, 1000, workers=1))
    clock = itertools.count(0.0, tick)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    forked, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or real_fork())
    report = run_sweep("sevens", _sevens, 1, 1000, workers=workers)
    assert len(forked) == (workers - 1 if forks else 0)
    assert _json_without_elapsed(report) == one


@pytest.mark.parametrize(
    "exc", [IdentityViolation("planted"), KeyboardInterrupt()], ids=["raises", "interrupted"]
)
@pytest.mark.usefixtures("force_fork")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_a_failing_first_span_forks_nothing(exc, monkeypatch):
    # This process scans the first span before any fork, so a failure there
    # leaves no child and no pipe, even where the sweep would fork.
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    check = _planted(partial(_raise, exc), 3, in_child=False)
    with pytest.raises(type(exc)):
        run_sweep("failing", check, 0, 100, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


def _planted(action, at, in_child=True, parent=os.getpid()):
    """A check that runs ``action`` at input ``at`` only in a forked worker,
    so that a planted crash can never end the test process itself (or, with
    ``in_child=False``, only in the test process)."""

    def check(z):
        if z == at and (os.getpid() != parent) == in_child:
            action()
        return None

    return check


def _raise(exc):
    raise exc


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


# Spans [0, 100) at two workers.  This process scans the first span before
# it forks and the second after, and the child runs the third span first,
# so a fault planted there fails the child before it claims any other span.
_CHILD_SPAN = _spans(0, 100, 2 * _SPANS_PER_WORKER)[2]


@pytest.mark.usefixtures("force_fork")
@pytest.mark.parametrize(
    "action, says",
    [
        (partial(os._exit, 3), "exited with status 3"),
        (_kill_self, f"was killed by signal {int(signal.SIGKILL)} (SIGKILL)"),
        (partial(os._exit, 0), "exited with status 0 but sent a short payload (0 bytes)"),
    ],
    ids=["exit-3", "sigkill", "short-payload"],
)
def test_crashed_worker_raises_and_names_its_spans(action, says):
    check = _planted(action, _CHILD_SPAN[0] + 1)
    with pytest.raises(SweepWorkerError) as info:
        run_sweep("crash", check, 0, 100, workers=2)
    assert str(info.value) == f"the worker for spans [{_CHILD_SPAN[0]}, {_CHILD_SPAN[1]}) {says}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# verify transitions|polyline --max 300 at two workers: the child's first span.
_CLI_CHILD_SPAN = _spans(1, 301, 2 * _SPANS_PER_WORKER)[2]


@pytest.mark.usefixtures("force_fork")
def test_crashed_worker_fails_the_cli(monkeypatch, capsys):
    crash = _planted(partial(os._exit, 3), _CLI_CHILD_SPAN[0])

    def crashing_transition_symbolic(c, _real=residues.transition_symbolic):
        crash(residues.declassify(c))
        return _real(c)

    monkeypatch.setattr(residues, "transition_symbolic", crashing_transition_symbolic)
    assert cli.run(["verify", "transitions", "--max", "300", "--workers", "2"]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    a, b = _CLI_CHILD_SPAN
    assert err == f"error: the worker for spans [{a}, {b}) exited with status 3\n"


@pytest.mark.usefixtures("force_fork")
def test_worker_exception_keeps_its_type(monkeypatch):
    at = _CLI_CHILD_SPAN[0] + 5
    violate = _planted(partial(_raise, IdentityViolation(f"planted at {at}")), at)

    def violating_transition_symbolic(c, _real=residues.transition_symbolic):
        violate(residues.declassify(c))
        return _real(c)

    monkeypatch.setattr(residues, "transition_symbolic", violating_transition_symbolic)
    with pytest.raises(IdentityViolation, match=f"^planted at {at}$") as info:
        verify_transitions(300, workers=2)
    # the cause names the child's span and carries its traceback
    cause = info.value.__cause__
    assert isinstance(cause, SweepWorkerError)
    a, b = _CLI_CHILD_SPAN
    assert str(cause).startswith(f"raised in the worker for spans [{a}, {b}); its traceback:\n")
    assert "violating_transition_symbolic" in str(cause)


@pytest.mark.usefixtures("force_fork")
def test_unpicklable_worker_exception_becomes_a_sweep_worker_error():
    class Local(Exception):  # a local class cannot be pickled
        pass

    check = _planted(partial(_raise, Local("not portable")), _CHILD_SPAN[0])
    with pytest.raises(SweepWorkerError) as info:
        run_sweep("unpicklable", check, 0, 100, workers=2)
    assert str(info.value) == (
        f"the worker for spans [{_CHILD_SPAN[0]}, {_CHILD_SPAN[1]}) raised Local('not portable'), "
        "which cannot be pickled"
    )


def test_a_slow_child_worker_leaves_most_items_to_the_parent():
    parent, ran_here = os.getpid(), []

    def work(i):
        if os.getpid() == parent:
            ran_here.append(i)
        else:
            time.sleep(0.02)
        return -i

    assert _fork_map(work, range(40), 2, str) == [-i for i in range(40)]
    assert len(ran_here) > 0.6 * 40


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits for the child with os.waitid")
def test_a_crashed_worker_is_named_by_its_claims_the_failing_item_last(monkeypatch):
    # The test process holds its first item until the child has exited, so
    # the child claims the first two runs of the pipe, items 2 and 3, and
    # exits in the third item it claimed.
    forked, real_fork, parent, claims = [], os.fork, os.getpid(), []
    monkeypatch.setattr(os, "fork", lambda: forked.append(real_fork()) or forked[-1])

    def work(item):
        if os.getpid() != parent:
            claims.append(item)
            if len(claims) == 3:
                os._exit(3)
        elif item == 0:
            os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)  # leaves it unreaped
        return item

    with pytest.raises(SweepWorkerError) as info:
        _fork_map(work, [10 * i for i in range(40)], 2, lambda claimed: f"items {claimed}")
    assert str(info.value) == "the worker for items [10, 20, 30] exited with status 3"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# At three workers over [0, 10^5), the test process scans the first span
# before it forks and starts with _IN_PARENT after, and the first child
# starts with the input after that span.  When either fails, the second
# child has not been reaped yet.
_SPANS_AT_THREE = _spans(0, 10**5, 3 * _SPANS_PER_WORKER)
_IN_PARENT = _SPANS_AT_THREE[1][0]
_FIRST_CHILD_INPUT = _SPANS_AT_THREE[2][0]


@pytest.mark.usefixtures("force_fork")
@pytest.mark.parametrize(
    "check, raises",
    [
        (_planted(partial(os._exit, 3), _FIRST_CHILD_INPUT), SweepWorkerError),
        (_planted(partial(_raise, IdentityViolation()), _FIRST_CHILD_INPUT), IdentityViolation),
        (_planted(partial(_raise, IdentityViolation()), _IN_PARENT, False), IdentityViolation),
        (_planted(partial(_raise, KeyboardInterrupt()), _IN_PARENT, False), KeyboardInterrupt),
    ],
    ids=["child-exits", "child-raises", "parent-raises", "parent-interrupted"],
)
def test_no_worker_outlives_a_failed_sweep(check, raises):
    with pytest.raises(raises):
        run_sweep("failing", check, 0, 10**5, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("force_fork")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_a_failed_fork_leaves_no_child_and_no_pipe(monkeypatch):
    forks = []

    def second_fork_fails(_real=os.fork):
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "planted fork failure")
        return _real()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="planted fork failure"):
        run_sweep("fork fails", lambda z: None, 0, 10**5, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.usefixtures("force_fork")
def test_a_parallel_sweep_warns_nothing():
    # Python 3.12 and later warn when fork runs in a process with other
    # threads.  The warning comes from C, and an "error" filter does not
    # turn it into an exception there, so it is recorded instead.
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert verify_transitions(300, workers=2).passed
    assert [str(w.message) for w in seen] == []


def test_import_loads_no_pool_machinery():
    code = (
        "import collatz_lab.sweeps, collatz_lab.cli, sys; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    src = str(Path(collatz_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.usefixtures("force_fork")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_patched_kernel_reaches_verify(workers, monkeypatch, capsys):
    # The registry names each kernel, looked up on its module per call.
    def planted(z):
        return ("planted", "fault") if z == 27 else None

    monkeypatch.setattr("collatz_lab.residues.transition_counterexample", planted)
    report = verify_transitions(300, workers=workers)
    assert [tuple(c) for c in report.counterexamples] == [("27", "planted", "fault")]
    argv = ["verify", "transitions", "--max", "300", "--workers", str(workers)]
    assert cli.run(argv) == 2
    assert "  27: expected planted, got fault\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sweep",
    [partial(verify_blocks, 5, step_limit=-3), partial(verify_convergence, 20, step_limit=0)],
    ids=["blocks", "convergence"],
)
def test_step_limit_below_one_is_a_domain_error(sweep):
    with pytest.raises(DomainError, match="step_limit must be >= 1"):
        sweep(workers=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(_verify, "nonsense", 5, 1), "unknown sweep 'nonsense'; expected one of ('transitions', "),
        (partial(_verify, "polyline", 5, 1, 3), "step_limit (--limit) does not apply to verify polyline"),
        (partial(_verify, "polyline", 0, 1, 3), "step_limit (--limit) does not apply to verify polyline"),
        (partial(run_sweep, "probe", lambda z: None, 5, 4), "empty-range sweep: [5, 4)"),
    ],
    ids=["unknown-name", "limit-not-taken", "limit-checked-before-range", "empty-range"],
)
def test_verify_rejects_what_the_parser_no_longer_checks(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value).startswith(message)


def test_blocks_report_records_limit_and_premise():
    config = verify_blocks(10, workers=1, step_limit=50).config
    assert config["limit"] == "50"
    assert "every smaller k0" in config["premise"]


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_workers() == 3
    # without an affinity call the CPU count is the fallback
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers() == 1
