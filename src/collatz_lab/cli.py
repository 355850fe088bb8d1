"""Command-line front door.

Subcommands: ``classify``, ``trajectory``, ``polyline`` for single values;
``verify {transitions|beta-chain|blocks|polyline|convergence}`` for range
sweeps; ``cycles search`` for exhaustive cycle-candidate enumeration;
``records {delay|glide}`` for record tables; ``tree`` for the backward
preimage tree.

Each command is a ``_cmd_*`` function that takes the parsed arguments and
returns ``(report, listing)``: a ``VerificationReport``, or None for a
command that only lists lines, and the lines to list.  ``run`` is the one
place that parses, times the command, stamps the report's ``elapsed_ms``
and writes.  Without a report it writes the listing to standard output.
With one it writes the report in the format chosen by ``--format`` to
standard output (or ``--out``), after the listing in text format.  Anything
diagnostic goes to standard error.

Exit codes: 0 all checks pass, 1 usage or I/O error, 2 a verification found
a counterexample.

The parser checks an argument's type, and its value only for ``--format``,
which would otherwise fail after the command's work is done.  Every other
value (a range, a sweep name, a record kind, whether ``--limit`` applies) is
checked once, by the library function the command calls, whose
``DomainError`` message is what the command prints after ``error:``.

Start-up is most of a short command's time, so this module imports at its
top only the modules the parser needs (``core``, ``report``); a command
that runs another module imports it itself.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter as _Tally
from typing import TYPE_CHECKING, Iterable

from .core import DEFAULT_STEP_LIMIT, backward_tree, records_sweep, trajectory
from .errors import CollatzLabError
from .report import FORMATS, Counterexample, VerificationReport, export_report

if TYPE_CHECKING:
    from .cycles import CycleSolution

__all__ = ["build_parser", "run", "main"]

# What a command returns; see the module docstring.
Outcome = tuple[VerificationReport | None, Iterable[str]]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception, not sys.exit(2);
    exit code 2 is reserved for found counterexamples.  It takes no
    abbreviated flag (``--lim`` for ``--limit``), and neither does any
    subparser, each of which is a ``_Parser`` too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collatz-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="mod-4 class of a value")
    p.add_argument("z", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("trajectory", help="iterate the map to 1")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_STEP_LIMIT)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("polyline", help="vertex-count coordinates of a value")
    p.add_argument("z", type=int)
    p.set_defaults(func=_cmd_polyline)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("what", metavar="SWEEP")
    p.add_argument("--max", type=int, required=True, dest="max_value")
    p.add_argument(
        "--limit",
        type=int,
        help=f"raw-step budget of blocks and convergence (default {DEFAULT_STEP_LIMIT})",
    )
    p.add_argument("--workers", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cycles", help="cycle-candidate search")
    action = p.add_subparsers(dest="action", required=True)
    s = action.add_parser("search", help="enumerate cycle candidates exhaustively")
    s.add_argument("--n-max", type=int, required=True, dest="n_max")
    s.add_argument("--budget", type=int, required=True)
    _add_output_flags(s)
    s.set_defaults(func=_cmd_cycles_search)

    p = sub.add_parser("records", help="delay/glide record table")
    p.add_argument("kind", metavar="KIND")
    p.add_argument("--max", type=int, required=True, dest="max_value")
    p.add_argument("--limit", type=int, default=DEFAULT_STEP_LIMIT)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("tree", help="backward preimage tree from 1")
    p.add_argument("--depth", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_tree)

    return parser


def _cmd_classify(args) -> Outcome:
    from .residues import classify

    tag, k = classify(args.z)
    return None, [f"{args.z} = {tag.symbol} (k={k})"]


def _cmd_trajectory(args) -> Outcome:
    values = trajectory(args.start, step_limit=args.limit)
    return None, [" -> ".join(str(v) for v in values), f"steps: {len(values) - 1}"]


def _cmd_polyline(args) -> Outcome:
    from .polyline import class_from_polyline, to_polyline

    p = to_polyline(args.z)
    x, s = p
    return None, [f"{args.z} = (x={x}, s={s}) {class_from_polyline(p).symbol}"]


def _cmd_verify(args) -> Outcome:
    from .sweeps import _verify

    return _verify(args.what, args.max_value, args.workers, args.limit), ()


def _cycle_line(s: CycleSolution) -> str:
    m = ",".join(str(v) for v in s.candidate.m_seq)
    e = ",".join(str(v) for v in s.candidate.e_seq)
    ok = "ok" if s.simulated_ok else "unsimulated"
    return f"m=[{m}] e=[{e}] k0={s.k0} {ok}"


def _cmd_cycles_search(args) -> Outcome:
    from .cycles import count_candidates, search_cycles

    solutions = search_cycles(args.n_max, args.budget)
    lines = [_cycle_line(s) for s in solutions]
    # Anything beyond the trivial fixed point k0 = 0, or anything the real
    # map refuses to follow, would contradict the only-trivial-cycle claim.
    bad = [
        Counterexample(_cycle_line(s), "trivial cycle (k0=0, simulation valid)", f"k0={s.k0}")
        for s in solutions
        if s.k0 != 0 or not s.simulated_ok
    ]
    report = VerificationReport(
        command="cycles search",
        checked=count_candidates(args.n_max, args.budget),
        counterexamples=bad,
        config={
            "n_max": str(args.n_max),
            "budget": str(args.budget),
            "solutions": "; ".join(lines) if lines else "none",
        },
    )
    return report, [f"cycle: {line}" for line in lines]


def _cmd_records(args) -> Outcome:
    entries = records_sweep(args.max_value, args.kind, args.limit)
    report = VerificationReport(
        command=f"records {args.kind}",
        checked=args.max_value - 1,
        config={
            "max": str(args.max_value),
            "limit": str(args.limit),
            "entries": " ".join(f"{n}:{v}" for n, v in entries),
        },
    )
    return report, [f"{n} {v}" for n, v in entries]


def _cmd_tree(args) -> Outcome:
    tree = backward_tree(args.depth)
    per_level = _Tally(d for d, _ in tree.nodes.values())
    report = VerificationReport(
        command="tree",
        checked=len(tree.nodes),
        config={
            "depth": str(args.depth),
            "nodes": str(len(tree.nodes)),
            "max_value": str(max(tree.nodes)),
        },
    )
    return report, [f"level {d}: {per_level.get(d, 0)}" for d in range(args.depth + 1)]


def run(argv=None) -> int:
    """Parse ``argv``, run its command, time it and write what it returns;
    the exit code is that of the module docstring."""
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report, listing = args.func(args)
        text = "".join(f"{line}\n" for line in listing)
        if report is None:
            sys.stdout.write(text)
            return 0
        report = report._replace(elapsed_ms=int((time.perf_counter() - start) * 1000))
        data = export_report(report, args.format)
        if args.format == "text":
            data = text.encode() + data
        if args.out is None:
            sys.stdout.write(data.decode())
        else:
            with open(args.out, "wb") as fh:
                fh.write(data)
        return 0 if report.passed else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except CollatzLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
