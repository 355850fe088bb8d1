import errno
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path
from types import MappingProxyType

import pytest

import collatz_lab
from collatz_lab import beta_chain, blocks, cli, polyline, residues
from collatz_lab.core import DEFAULT_STEP_LIMIT, glide
from collatz_lab.errors import DomainError, IdentityViolation, SweepWorkerError
from collatz_lab.report import Counterexample, export_report
from collatz_lab.sweeps import (
    SIEVE_MODULUS,
    _INDEX,
    _MAX_TOKENS,
    _SPANS_PER_WORKER,
    _descent_steps,
    _drop_check,
    _fork_map,
    _sieve_survivors,
    _sieved_inputs,
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


def _raw_convergence(n_max, step_limit):
    """The convergence sweep without the sieve: _drop_check on every n."""
    return run_sweep(
        "verify convergence",
        partial(_drop_check, step_limit=step_limit),
        2,
        n_max + 1,
        workers=1,
        config={"max": str(n_max), "limit": str(step_limit)},
    )


def _json_without_elapsed(report):
    return re.sub(rb'"elapsed_ms": "\d+"', b"", export_report(report, "json"))


def test_drop_check_counts_raw_steps():
    assert _drop_check(6, step_limit=1) is None
    assert _drop_check(5, step_limit=2) is not None  # 5 -> 16 -> 8
    assert _drop_check(5, step_limit=3) is None  # ... -> 4
    assert _drop_check(27, step_limit=95) is not None
    assert _drop_check(27, step_limit=96) is None  # glide(27) = 96


def test_sieve_table_claims_hold():
    # Each sieved class really falls below its start within the steps the
    # table claims, for several a in n = 2^12 * a + b, a = 0 included.
    table = _descent_steps()
    for b, steps in enumerate(table):
        if steps is None:
            continue
        for a in (0, 1, 2, 3, 5, 1000, 10**30 + 7):
            assert glide(SIEVE_MODULUS * a + b) <= steps, (a, b)


def test_sieve_survivor_share():
    survivors = _sieve_survivors(DEFAULT_STEP_LIMIT)
    assert len(survivors) == 228  # 5.6% of the classes
    assert _sieve_survivors(2) == tuple(b for b in range(SIEVE_MODULUS) if b & 1 or b == 0)


@pytest.mark.parametrize("lo, hi", [(2, 3), (2, 5000), (4096, 8192), (4095, 12289), (8191, 8191)])
def test_sieved_inputs_are_the_survivors_of_each_span(lo, hi):
    survivors = _sieve_survivors(30)
    want = [n for n in range(lo, hi) if n % SIEVE_MODULUS in survivors]
    assert list(_sieved_inputs(lo, hi, survivors)) == want


def test_sieved_convergence_equals_raw_to_one_million():
    sieved = verify_convergence(10**6, workers=1)
    raw = _raw_convergence(10**6, DEFAULT_STEP_LIMIT)
    assert sieved.passed and sieved.checked == raw.checked == 10**6 - 1
    assert sieved.counterexamples == raw.counterexamples


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 10, 30])
def test_sieved_convergence_equals_raw_at_small_limits(limit):
    sieved = verify_convergence(2 * 10**5, step_limit=limit, workers=1)
    raw = _raw_convergence(2 * 10**5, limit)
    assert sieved.counterexamples, "a limit this small must leave counterexamples"
    assert sieved.counterexamples == raw.counterexamples
    assert sieved.config == raw.config and sieved.checked == raw.checked


def _faulty_make_block(k_in, _real=blocks.make_block):
    b = _real(k_in)
    return b._replace(k_out=b.k_out + 1) if k_in == 27 else b


def _faulty_transition_symbolic(c, _real=residues.transition_symbolic):
    out = _real(c)
    return out._replace(k=out.k + 1) if residues.declassify(c) == 27 else out


def _faulty_solve_beta_chain_paper(k, _real=beta_chain.solve_beta_chain_paper):
    sol = _real(k)
    return sol._replace(h=sol.h + 1) if k == 27 else sol


def _faulty_t_closed_form(p, _real=polyline.t_closed_form):
    return _real(p) + (p.z == 27)


# Each planted fault goes wrong at the input 27 only.
_PLANTED = {
    "make_block": (blocks, _faulty_make_block),
    "transition_symbolic": (residues, _faulty_transition_symbolic),
    "solve_beta_chain_paper": (beta_chain, _faulty_solve_beta_chain_paper),
    "t_closed_form": (polyline, _faulty_t_closed_form),
}


@pytest.mark.parametrize(
    "sweep, planted",
    [
        (partial(verify_blocks, 300), "make_block"),
        (partial(verify_blocks, 300, step_limit=20), None),
        (partial(verify_convergence, 5000, 20), None),
        (partial(verify_transitions, 300), "transition_symbolic"),
        (partial(verify_beta_chains, 300), "solve_beta_chain_paper"),
        (partial(verify_polylines, 300), "t_closed_form"),
    ],
    ids=[
        "blocks-planted-make-block",
        "blocks-step-limit-20",
        "convergence-step-limit-20",
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


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_reports_match_at_one_two_and_three_workers(n):
    sweeps = [
        partial(verify_transitions, n),
        partial(verify_beta_chains, n),
        partial(verify_blocks, n),
        partial(verify_blocks, n, step_limit=20),
        partial(verify_polylines, n),
        partial(verify_convergence, n + 1),
        partial(verify_convergence, 50 * n + 1, 20),
    ]
    for sweep in sweeps:
        one, two, three = (_json_without_elapsed(sweep(workers=w)) for w in (1, 2, 3))
        assert one == two == three


def test_a_failure_heavy_sweep_matches_across_workers():
    # Thousands of rows cross the fork as plain tuples; each comes back a
    # Counterexample of three str, and the report does not depend on w.
    reports = [verify_convergence(20_000, 1, workers=w) for w in (1, 2, 3)]
    rows = reports[0].counterexamples
    assert len(rows) > 5000
    assert all(type(c) is Counterexample and all(type(f) is str for f in c) for c in rows)
    one, two, three = map(_json_without_elapsed, reports)
    assert one == two == three


def test_lambda_check_runs_on_two_workers():
    # The check reaches the forked workers by inheritance, not by pickle.
    report = run_sweep("lambda", lambda z: (0, z) if z % 7 == 0 else None, 1, 100, workers=2)
    assert [c.input for c in report.counterexamples] == [str(z) for z in range(7, 100, 7)]
    assert report.checked == 99


def test_a_report_made_without_a_config_has_a_read_only_one():
    report = run_sweep("x", lambda z: None, 0, 3, workers=1)
    assert type(report.config) is MappingProxyType
    assert report.config == {}


def test_workers_beyond_the_range_fork_one_child_per_extra_input(monkeypatch):
    forks = []

    def counting_fork(_real=os.fork):
        forks.append(None)
        return _real()

    monkeypatch.setattr(os, "fork", counting_fork)
    report = run_sweep("three", lambda z: (z, -z), 5, 8, workers=64)
    assert len(forks) == 2
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
    raise AssertionError("a one-worker sweep forked")


@pytest.mark.parametrize(
    "sweep",
    [verify_transitions, verify_beta_chains, verify_blocks, verify_polylines, verify_convergence],
)
def test_one_worker_forks_nothing(sweep, monkeypatch):
    monkeypatch.setattr(os, "fork", _fork_forbidden)
    assert sweep(300, workers=1).passed


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


# Spans [0, 100) at two workers.  The child runs the second span first, so
# a fault planted there fails the child before it claims any other span.
_CHILD_SPAN = _spans(0, 100, 2 * _SPANS_PER_WORKER)[1]


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
_CLI_CHILD_SPAN = _spans(1, 301, 2 * _SPANS_PER_WORKER)[1]


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


# At three workers over [0, 10^5), the first child starts with this input
# and the test process scans _IN_PARENT itself.  When either fails, the
# second child has not been reaped yet.
_FIRST_CHILD_INPUT = _spans(0, 10**5, 3 * _SPANS_PER_WORKER)[1][0]
_IN_PARENT = 3


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
    "args, message",
    [
        (("nonsense", 5, 1), "unknown sweep 'nonsense'; expected one of ('transitions', "),
        (("polyline", 5, 1, 3), "step_limit (--limit) does not apply to verify polyline"),
        (("polyline", 0, 1, 3), "step_limit (--limit) does not apply to verify polyline"),
    ],
    ids=["unknown-name", "limit-not-taken", "limit-checked-before-range"],
)
def test_verify_rejects_what_the_parser_no_longer_checks(args, message):
    with pytest.raises(DomainError) as info:
        _verify(*args)
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
