"""Range sweeps: run a per-input check over an integer range, in parallel;
and the fork engine that runs them and the cycle search.

The engine, ``_fork_map``, is a map over items whose workers claim them,
results in item order.  On w workers, no more than there are items, worker i
first runs item i; after that every worker claims the next unclaimed items
from one pipe until it is empty, so a worker that falls behind runs fewer
items instead of holding up the call.  The calling process is worker 0.  A
child forked with ``os.fork`` when the call is made is each other worker, so
it inherits the function, its data and any monkeypatched function as they
stand at that moment: nothing is pickled on the way in.  Each child writes
the index of each item it claims to its own pipe before it runs the item,
then pickles its results into the same pipe and leaves by ``os._exit``, so
no ``atexit`` handler runs and no inherited buffer is flushed twice.  The
parent puts every result back at its item's place, so the output does not
depend on which worker ran what.  One worker, or a platform without
``os.fork``, forks nothing and makes no pipe.

A child that exits non-zero, dies by a signal or sends a short payload
makes the call raise ``SweepWorkerError`` naming the items the child
claimed, in claim order, so the item it failed in is the last named, and
its exit status or signal.  An exception raised in a child is raised again
in the parent with its own type and message, or as a ``SweepWorkerError``
carrying its repr when it cannot be pickled.  Whatever ends the call, an
exception or an interrupt included, every child is killed and reaped before
it returns or raises, and no partial result is made.  Fork copies only the
calling thread, so do not run a parallel sweep or search from a process
that runs other threads (Python 3.12 and later warn).

Each sweep takes a pure check function z -> None | (expected, actual) and
scans a contiguous range.  With w workers the range is cut into 16*w
contiguous spans, the engine's items, and the errors of a child name the
spans it claimed.  The rows come back in span order, so the counterexample
list is sorted by input and the report is byte-identical for any worker
count: the worker count is a throughput knob, never a semantics knob.
``cycles.search_cycles`` maps its walk over first blocks the same way; see
there.

The ``verify`` sweeps are the rows of ``SWEEPS``.  A row names its check
kernel as ``"module.function"``, looked up once per sweep call, so a sweep
imports only its own kernel's module (``verify transitions`` loads neither
``blocks`` nor ``fractions``, and ``verify blocks`` none of ``cycles``,
``residues`` and ``fractions``), ``pickle`` is imported only when workers
are forked and ``signal`` only when a child is killed or its signal is
named.

A sweep may scan only some inputs of its range (``run_sweep``'s ``inputs``)
when the rest are proven without a check.  The convergence sweep does so
with the sieve of classes mod 2^16 in ``core``; see ``verify_convergence``.
No kernel or sieve is defined here: each lives with the claim it checks.

The worker count is the one the caller asks for, else the number of CPUs
this process may run on.
"""

from __future__ import annotations

import importlib
import os
import time
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence, TypeVar

from .core import DEFAULT_STEP_LIMIT, _check_step_limit, _sieve_survivors, _sieved_inputs
from .errors import DomainError, SweepWorkerError
from .report import Counterexample, VerificationReport

__all__ = [
    "resolve_workers",
    "run_sweep",
    "SWEEPS",
    "verify_transitions",
    "verify_beta_chains",
    "verify_blocks",
    "verify_polylines",
    "verify_convergence",
]

CheckFn = Callable[[int], "tuple[object, object] | None"]
InputsFn = Callable[[int, int], Iterable[int]]
Span = tuple[int, int]  # [lo, hi)
Item = TypeVar("Item")
Result = TypeVar("Result")


def resolve_workers(requested: int | None = None) -> int:
    """The explicit request, else the CPUs in this process's affinity mask
    (a container or ``taskset`` may narrow it), else ``os.cpu_count()``."""
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if requested < 1:
        raise DomainError(f"workers must be >= 1, got {requested}")
    return requested


def _scan(check: CheckFn, inputs: InputsFn, lo: int, hi: int) -> list[tuple[str, str, str]]:
    """The rows of [lo, hi) as plain tuples, which pickle about 4x faster
    than the Counterexample that ``run_sweep`` makes of each."""
    out = []
    for z in inputs(lo, hi):
        r = check(z)
        if r is not None:
            out.append((str(z), str(r[0]), str(r[1])))
    return out


# run_sweep cuts its range into this many spans per worker: enough that a
# worker that falls behind leaves its unclaimed spans to the others, few
# enough that the claims and each span's own pickled rows cost little.
_SPANS_PER_WORKER = 16


def _spans(lo: int, hi: int, pieces: int) -> list[Span]:
    total = hi - lo
    pieces = min(pieces, total)
    width, leftover = divmod(total, max(pieces, 1))
    spans = []
    at = lo
    for i in range(pieces):
        nxt = at + width + (1 if i < leftover else 0)
        spans.append((at, nxt))
        at = nxt
    return spans


def _span_names(spans: list[Span]) -> str:
    return "spans " + ", ".join(f"[{a}, {b})" for a, b in spans)


# Each index that a child sends and each claim token is this many bytes,
# little-endian.  A token names a run of items: the parent writes at most
# _MAX_TOKENS of them (4,096 bytes, one page) to a new pipe in one write,
# which fits in the pipe's buffer, so it never waits for a reader.
_INDEX = 4
_MAX_TOKENS = 1024
# Ends a child's indices; its payload follows: its length in _HEADER bytes,
# then the pickle.
_END = b"\xff" * _INDEX
_HEADER = 8


def _portable_error(exc: BaseException, who: str) -> tuple[BaseException, str]:
    """``exc`` and its traceback, or a SweepWorkerError with its repr when
    ``exc`` does not survive a pickle round trip."""
    import pickle
    import traceback  # only a failing child needs it

    trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = SweepWorkerError(f"the worker for {who} raised {exc!r}, which cannot be pickled")
    return exc, trace


def _claims(first: int, fd: int, runs: list[range]) -> Iterable[int]:
    """Item index ``first``, then the indices of each run whose token this
    worker reads from the claim pipe ``fd``, until the pipe is empty.  A
    read of one token from a pipe that holds whole tokens takes one whole
    token, so no two workers claim the same run."""
    yield first
    while token := os.read(fd, _INDEX):
        yield from runs[int.from_bytes(token, "little")]


def _child(
    work: Callable[[Item], object],
    items: Sequence[Item],
    indices: Iterable[int],
    who: Callable[[list[int]], str],
    fd: int,
    inherited: list[int],
) -> NoReturn:
    """Run ``work`` on the items at ``indices`` in a forked child, writing
    each index down ``fd`` before its item runs; then send ``_END`` and the
    results (or the error that stopped them) and leave without running any
    exit handler.  Never returns into the caller's stack."""
    import pickle

    status = 1
    try:
        for other in inherited:
            os.close(other)
        claimed: list[int] = []
        try:
            results = []
            for i in indices:
                os.write(fd, i.to_bytes(_INDEX, "little"))
                claimed.append(i)
                results.append(work(items[i]))
            payload = pickle.dumps((None, results))
        except BaseException as exc:  # sent to the parent, which raises it
            payload = pickle.dumps((_portable_error(exc, who(claimed)), None))
        with open(fd, "wb") as pipe:
            pipe.write(_END + len(payload).to_bytes(_HEADER, "little"))
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _unpack(
    data: bytes, status: int, who: Callable[[list[int]], str]
) -> Iterable[tuple[int, object]]:
    """A reaped child's (index, result) pairs, or the error it ended with;
    ``who(claimed)`` names the child by the indices it claimed."""
    import pickle

    claimed: list[int] = []
    payload = b""
    for at in range(0, len(data), _INDEX):
        index = data[at : at + _INDEX]
        if index == _END:
            payload = data[at + _INDEX :]
            break
        claimed.append(int.from_bytes(index, "little"))
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal

        raise SweepWorkerError(
            f"the worker for {who(claimed)} was killed by signal {-code} "
            f"({signal.Signals(-code).name})"
        )
    if code > 0:
        raise SweepWorkerError(f"the worker for {who(claimed)} exited with status {code}")
    size = int.from_bytes(payload[:_HEADER], "little")
    if len(payload) != _HEADER + size:
        raise SweepWorkerError(
            f"the worker for {who(claimed)} exited with status 0 "
            f"but sent a short payload ({len(payload)} bytes)"
        )
    error, results = pickle.loads(payload[_HEADER:])
    if error is not None:
        exc, trace = error
        raise exc from SweepWorkerError(
            f"raised in the worker for {who(claimed)}; its traceback:\n{trace}"
        )
    return zip(claimed, results)


def _fork_map(
    work: Callable[[Item], Result],
    items: Sequence[Item],
    workers: int,
    name: Callable[[list[Item]], str],
) -> list[Result]:
    """``[work(item) for item in items]`` on up to ``workers`` workers, as
    the module docstring describes: the workers claim the items and the
    results come back in item order.  ``name(claimed)`` completes "the
    worker for ..." in the errors of the child that claimed the items
    ``claimed``, in claim order, the one it failed in last.  Every worker
    count runs the one claim loop below over an iterator of indices: with
    one worker, no items or no ``os.fork`` it is ``range(len(items))``, so
    nothing is forked, there is no pipe, no item costs a system call and
    ``pickle`` is not imported.  Every child is reaped before this returns
    or raises."""
    n = len(items)
    w = max(1, min(workers, n)) if hasattr(os, "fork") else 1

    def who(claimed: list[int]) -> str:
        return name([items[i] for i in claimed])

    results: list = [None] * n
    indices: Iterable[int] = range(n)
    claim_fd = -1  # the read end of the claim pipe, once there is one
    children: list[tuple[int, int]] = []  # (pid, read end)
    unreaped: set[int] = set()
    try:
        if w > 1:
            import pickle  # imported before the fork, so that no child imports it again

            # Items 0 to w - 1 go one to each worker; every later item is in
            # one run of the claim pipe.
            runs = [range(*span) for span in _spans(w, n, _MAX_TOKENS)]
            claim_fd, fill = os.pipe()
            try:
                os.write(fill, b"".join(k.to_bytes(_INDEX, "little") for k in range(len(runs))))
            finally:
                os.close(fill)
            for first in range(1, w):
                r, w_end = os.pipe()
                pid = 0
                try:
                    pid = os.fork()
                    if pid == 0:
                        inherited = [r] + [c[1] for c in children]
                        _child(work, items, _claims(first, claim_fd, runs), who, w_end, inherited)
                finally:
                    os.close(w_end)
                    if pid:
                        children.append((pid, r))
                        unreaped.add(pid)
                    else:  # the fork itself failed
                        os.close(r)
            indices = _claims(0, claim_fd, runs)
        for i in indices:
            results[i] = work(items[i])
        for pid, r in children:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            unreaped.discard(pid)
            for i, result in _unpack(data, status, who):
                results[i] = result
    finally:
        if claim_fd >= 0:
            os.close(claim_fd)
        for pid, r in children:
            os.close(r)
            if pid in unreaped:
                import signal  # only a child still running needs it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def run_sweep(
    command: str,
    check: CheckFn,
    lo: int,
    hi: int,
    *,
    workers: int | None = None,
    config: Mapping[str, str] = MappingProxyType({}),
    inputs: InputsFn = range,
) -> VerificationReport:
    """Scan [lo, hi) with ``check`` and wrap the outcome in a report.

    ``inputs(a, b)`` yields, in increasing order, the inputs of each span
    [a, b) that need a check; the caller vouches for the others.  The
    report counts all of [lo, hi) as checked.  The range is cut into
    16 * workers spans; this process and the forked children claim them one
    at a time and the rows come back in span order, so the report does not
    depend on the worker count; see the module docstring.  On one worker,
    and where ``os.fork`` is missing, this process scans every span and
    forks nothing.  ``check`` and ``inputs`` reach the children by fork, so
    they may be lambdas or closures; only the rows are pickled.  Raises
    ``SweepWorkerError`` naming the spans a child claimed, the one it failed
    in last, when the child crashes, and whatever ``check`` raised, in this
    process or a child.
    """
    if hi < lo:
        raise DomainError(f"empty-range sweep: [{lo}, {hi})")
    w = resolve_workers(workers)
    start = time.perf_counter()
    spans = _spans(lo, hi, _SPANS_PER_WORKER * w)
    parts = _fork_map(lambda span: _scan(check, inputs, *span), spans, w, _span_names)
    rows = [Counterexample._make(row) for part in parts for row in part]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        command=command,
        checked=hi - lo,
        counterexamples=rows,
        elapsed_ms=elapsed_ms,
        config=config,
    )


class Sweep(NamedTuple):
    """One verification sweep.  ``check`` names its kernel as
    ``"module.function"`` within this package; the kernel runs on each input
    from ``start`` to the top of the range.  The name is looked up once per
    sweep call, so only the sweep that runs imports its kernel's module, and
    a kernel monkeypatched on its module (say
    ``collatz_lab.residues.transition_counterexample``) is the one that runs.
    ``start`` is also the least top allowed, and ``top_name`` names the top
    in the error for one below it.  When ``takes_limit``, the kernel takes a
    ``step_limit`` keyword, the limit is recorded in the report, and
    ``sieve(step_limit)``, if given, names the classes mod 2^16 whose inputs
    need a check.  ``config`` goes into the report as it is."""

    check: str
    start: int
    top_name: str
    takes_limit: bool = False
    config: Mapping[str, str] = MappingProxyType({})
    sieve: Callable[[int], tuple[int, ...]] | None = None


# The sweeps of ``verify``, by the name the command line uses; each report's
# command is "verify <name>".
SWEEPS: dict[str, Sweep] = {
    "transitions": Sweep("residues.transition_counterexample", 1, "z_max"),
    "beta-chain": Sweep("beta_chain.chain_counterexample", 0, "k_max"),
    "blocks": Sweep(
        "blocks.block_counterexample",
        0,
        "k_max",
        takes_limit=True,
        config={"premise": "each walk stops below its start; every smaller k0 is in this sweep"},
    ),
    "polyline": Sweep("polyline.polyline_counterexample", 1, "z_max"),
    "convergence": Sweep(
        "core.drop_counterexample", 2, "n_max", takes_limit=True, sieve=_sieve_survivors
    ),
}


def _verify(
    name: str, top: int, workers: int | None, step_limit: int | None = None
) -> VerificationReport:
    """Run the sweep ``SWEEPS[name]`` over [start, top], with ``step_limit``
    (None for ``DEFAULT_STEP_LIMIT``) if the sweep takes one.  Raises
    ``DomainError`` for an unknown name, then for a step limit given to a
    sweep that takes none, then for a value out of range."""
    sweep = SWEEPS.get(name)
    if sweep is None:
        raise DomainError(f"unknown sweep {name!r}; expected one of {tuple(SWEEPS)}")
    if step_limit is not None and not sweep.takes_limit:
        raise DomainError(f"step_limit (--limit) does not apply to verify {name}")
    if top < sweep.start:
        raise DomainError(f"{sweep.top_name} must be >= {sweep.start}, got {top}")
    module, _, function = sweep.check.rpartition(".")
    check = getattr(importlib.import_module(f"{__package__}.{module}"), function)
    inputs, config = range, {"max": str(top), **sweep.config}
    if sweep.takes_limit:
        step_limit = DEFAULT_STEP_LIMIT if step_limit is None else step_limit
        _check_step_limit(step_limit)
        check = partial(check, step_limit=step_limit)
        config["limit"] = str(step_limit)
        if sweep.sieve is not None:
            # The survivor table is built here, in the calling process, so
            # that forked workers inherit it instead of each building it.
            inputs = partial(_sieved_inputs, survivors=sweep.sieve(step_limit))
    return run_sweep(
        f"verify {name}",
        check,
        sweep.start,
        top + 1,
        workers=workers,
        config=config,
        inputs=inputs,
    )


def verify_transitions(z_max: int, *, workers: int | None = None) -> VerificationReport:
    """The symbolic class-transition table against the real map, z <= z_max."""
    return _verify("transitions", z_max, workers)


def verify_beta_chains(k_max: int, *, workers: int | None = None) -> VerificationReport:
    """Chain solver, case ladder, exact identity and replayed chains, k <= k_max."""
    return _verify("beta-chain", k_max, workers)


def verify_blocks(
    k_max: int, *, workers: int | None = None, step_limit: int = DEFAULT_STEP_LIMIT
) -> VerificationReport:
    """Block decompositions against raw trajectories, k0 <= k_max.

    Each k0 is walked only until a block lands below it, within
    ``step_limit`` raw steps.  That covers every block of the full
    decompositions by strong induction: the range starts at 0, so the walk
    from each smaller k is checked in the same report.  The report's
    ``premise`` config entry records this.
    """
    return _verify("blocks", k_max, workers, step_limit)


def verify_polylines(z_max: int, *, workers: int | None = None) -> VerificationReport:
    """Coordinate roundtrip, class agreement, closed form and step law, z <= z_max."""
    return _verify("polyline", z_max, workers)


def verify_convergence(
    n_max: int, *, workers: int | None = None, step_limit: int = DEFAULT_STEP_LIMIT
) -> VerificationReport:
    """Every n in [2, n_max] reaches 1: each n is checked to fall below its
    own start within the step limit, which by strong induction on n (all
    smaller starts already verified) pulls every orbit down to 1.

    Only the n in classes mod 2^16 that ``core._descent_steps`` leaves
    within the step limit (about 3.2% of them at the default limit) are
    iterated, in Terras chunks of 8 shortcut steps from n; every other n is
    proven to fall below itself by its class.  Where the limit falls inside
    a chunk, n is walked raw from n, so the counterexamples are those of a
    raw walk from every n.
    """
    return _verify("convergence", n_max, workers, step_limit)
