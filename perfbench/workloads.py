"""The four workloads: their seeded inputs, their operations and the check
of every operation's output against ``oracles``.

A workload is a list of operations, one round; a run repeats the same round
until its time is up.  Each operation knows how many items it covers (range
inputs, cycle candidates or CLI commands) and which public function it
calls, which names its layer in the traced run.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# sweep kind -> (verify_* function, first input, serial range size).  At
# workers=1 on the reference machine the sizes take about 0.36, 0.54, 0.45,
# 0.63 and 0.27 s: long enough that the kernels do almost all the work,
# short enough that a run holds several rounds, and far enough apart that
# the median operation is the blocks sweep for every seed.
SWEEPS = {
    "transitions": ("verify_transitions", 1, 93_000),
    "beta-chain": ("verify_beta_chains", 0, 126_000),
    "blocks": ("verify_blocks", 0, 3_250),
    "polyline": ("verify_polylines", 1, 55_000),
    "convergence": ("verify_convergence", 2, 255_000),
}
# One block check replays a whole trajectory and costs about as much as 40
# transition checks, so pooled block ranges are this much shorter.
POOLED_BLOCKS_DIVISOR = 32
POOLED_SIZES = [10 ** (3 + i / 2) for i in range(5)]  # 1e3 .. 1e5, log-spaced

# Exhaustive boxes of 0.3 to 2 s each.  Their sizes are fixed and well
# apart, so that the per-operation median (the fourth of seven operations)
# is the same box for every seed.
CYCLE_BOXES = [(4, 15), (3, 19), (4, 13), (2, 28), (5, 11)]
N1_CANDIDATES = 12_000  # (m_max + 1) * e_max of each single-block box

SAMPLE = 48  # seeded sweep inputs re-checked by the oracles per operation


@dataclass
class Op:
    layer: str  # "<module>.<public function>" the operation calls
    items: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    label: str = ""


def jitter(rng: random.Random, size: float) -> int:
    """size moved by up to 3% either way."""
    return max(2, round(size * rng.uniform(0.97, 1.03)))


def sample_of(rng: random.Random, lo: int, hi: int) -> list[int]:
    return [rng.randrange(lo, hi) for _ in range(SAMPLE)]


# --- sweeps -------------------------------------------------------------


class CheckedSweep:
    """Check of one sweep report.  The same range repeats every round, so
    the oracle sample is worked through on first use only."""

    def __init__(self, kind: str, top: int, sample: list[int]):
        self.kind, self.top, self.sample = kind, top, sample
        self.sample_holds = False

    def __call__(self, report) -> bool:
        ok = (
            report.command == f"verify {self.kind}"
            and report.checked == self.top + 1 - SWEEPS[self.kind][1]
            and report.config.get("max") == str(self.top)
            and report.passed
        )
        if ok and not self.sample_holds:
            # A PASS report claims every input holds; the oracle agrees on a sample.
            ok = self.sample_holds = all(oracles.SWEEP_CLAIMS[self.kind](z) for z in self.sample)
        return ok


def sweep_op(sweeps, rng: random.Random, kind: str, size: float, workers: int) -> Op:
    name, start, _ = SWEEPS[kind]
    top = start - 1 + jitter(rng, size)
    return Op(
        layer=f"sweeps.{name}",
        items=top + 1 - start,
        call=partial(getattr(sweeps, name), top, workers=workers),
        check=CheckedSweep(kind, top, sample_of(rng, start, top + 1)),
        label=f"{kind} --max {top}",
    )


def sweep_serial(rng: random.Random) -> list[Op]:
    from collatz_lab import sweeps

    return [sweep_op(sweeps, rng, kind, SWEEPS[kind][2], 1) for kind in SWEEPS]


def sweep_pooled(rng: random.Random) -> list[Op]:
    from collatz_lab import sweeps

    ops = []
    for kind in SWEEPS:
        div = POOLED_BLOCKS_DIVISOR if kind == "blocks" else 1
        ops += [sweep_op(sweeps, rng, kind, size / div, 2) for size in POOLED_SIZES]
    rng.shuffle(ops)
    return ops


# --- cycle search -------------------------------------------------------


def check_solutions(lengths, solutions) -> bool:
    """Every returned k0 is a non-negative integer; the real map closes from
    4*k0+2 exactly when simulated_ok says so, only at k0 = 0; and the closing
    solutions are exactly the trivial loop read once per searched length."""
    closing = set()
    for s in solutions:
        if not (s.is_integer and s.is_nonneg and s.k0.denominator == 1 and s.k0 >= 0):
            return False
        m, e = tuple(s.candidate.m_seq), tuple(s.candidate.e_seq)
        closes = oracles.replay_closes(m, e, int(s.k0))
        if closes != s.simulated_ok or (closes and s.k0 != 0):
            return False
        if closes:
            closing.add((m, e))
    return closing == oracles.trivial_cycles(lengths)


def cycle_search(rng: random.Random) -> list[Op]:
    from collatz_lab import cycles

    ops = [
        Op(
            layer="cycles.search_cycles",
            items=oracles.candidate_count(n, budget),
            call=partial(cycles.search_cycles, n, budget),
            check=partial(check_solutions, range(1, n + 1)),
            label=f"search_cycles({n}, {budget})",
        )
        for n, budget in CYCLE_BOXES
    ]
    for _ in range(2):
        m_max = rng.randrange(60, 160)
        e_max = round(N1_CANDIDATES / (m_max + 1))
        ops.append(
            Op(
                layer="cycles.search_cycles_n1",
                items=(m_max + 1) * e_max,
                call=partial(cycles.search_cycles_n1, m_max, e_max),
                check=partial(check_solutions, [1]),
                label=f"search_cycles_n1({m_max}, {e_max})",
            )
        )
    rng.shuffle(ops)
    return ops


# --- CLI ----------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    out: str
    peak_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COLLATZ_LAB_WORKERS", None)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Run one child to completion; stderr is folded into stdout so a single
    pipe drains it, and wait4 gives the child's own peak RSS."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out.decode(), usage.ru_maxrss)


def _report_ok(lines: list[str], command: str, checked: int) -> bool:
    return (
        f"command: {command}" in lines
        and f"checked: {checked}" in lines
        and "counterexamples: 0" in lines
        and lines[-1] == "result: PASS"
    )


def check_cli(argv: list[str], sample: list[int], out: str) -> bool:
    """Check one command's text output against the oracles."""
    lines = out.splitlines()
    cmd = argv[0]
    if cmd == "classify":
        z = int(argv[1])
        tag, k = oracles.classify(z)
        return lines == [f"{z} = {oracles.CLASS_SYMBOLS[tag - 1]} (k={k})"]
    if cmd == "polyline":
        z = int(argv[1])
        m = re.fullmatch(r"(\d+) = \(x=(\d+), s=(\d+)\) (.)", lines[0]) if len(lines) == 1 else None
        if m is None:
            return False
        x, s = int(m[2]), int(m[3])
        symbol = oracles.CLASS_SYMBOLS[oracles.classify(z)[0] - 1]
        return int(m[1]) == z and x + s - 1 == z and x - s in (0, 1) and m[4] == symbol
    if cmd == "trajectory":
        values = oracles.trajectory(int(argv[2]))
        return lines == [" -> ".join(map(str, values)), f"steps: {len(values) - 1}"]
    if cmd == "verify":
        kind, top = argv[1], int(argv[3])
        start = SWEEPS[kind][1]
        return _report_ok(lines, f"verify {kind}", top + 1 - start) and all(
            oracles.SWEEP_CLAIMS[kind](z) for z in sample
        )
    if cmd == "cycles":
        n_max, budget = int(argv[3]), int(argv[5])
        found = set()
        for line in lines:
            m = re.fullmatch(r"cycle: m=\[([\d,]+)\] e=\[([\d,]+)\] k0=(\d+) ok", line)
            if m is None:
                continue
            mm = tuple(int(v) for v in m[1].split(","))
            ee = tuple(int(v) for v in m[2].split(","))
            if not (m[3] == "0" and oracles.replay_closes(mm, ee, 0)):
                return False
            found.add((mm, ee))
        listed = sum(line.startswith("cycle: ") for line in lines)
        return (
            listed == len(found)
            and found == oracles.trivial_cycles(range(1, n_max + 1))
            and _report_ok(lines, "cycles search", oracles.candidate_count(n_max, budget))
        )
    if cmd == "records":
        kind, top = argv[1], int(argv[3])
        table = [f"{n} {v}" for n, v in oracles.records(top, kind)]
        return lines[: len(table)] == table and _report_ok(lines, f"records {kind}", top - 1)
    if cmd == "tree":
        counts = oracles.tree_level_counts(int(argv[2]))
        listing = [f"level {d}: {c}" for d, c in enumerate(counts)]
        return lines[: len(listing)] == listing and _report_ok(lines, "tree", sum(counts))
    return False


class CheckedCli:
    """Check of one CLI command; the oracle answer is worked out on first use
    and the command repeats every round, so later rounds compare only."""

    def __init__(self, argv: list[str], sample: list[int]):
        self.argv, self.sample = argv, sample
        self.expected_out: str | None = None

    def __call__(self, result: ChildResult) -> bool:
        if self.expected_out is None:
            if not check_cli(self.argv, self.sample, result.out):
                return False
            self.expected_out = result.out
        return _strip_elapsed(result.out) == _strip_elapsed(self.expected_out)


def _strip_elapsed(text: str) -> str:
    return re.sub(r"(?m)^elapsed_ms: \d+$", "elapsed_ms:", text)


def cli_commands(rng: random.Random) -> list[tuple[list[str], list[int]]]:
    """One round of commands, every subcommand once, with small seeded
    arguments, each paired with the sweep inputs its check samples."""
    cmds = [
        (["classify", str(rng.randrange(1, 10**12))], []),
        (["trajectory", "--start", str(rng.randrange(10**3, 10**6))], []),
        (["polyline", str(rng.randrange(1, 10**12))], []),
    ]
    for kind, size in [("transitions", 2000), ("beta-chain", 2000), ("blocks", 200),
                       ("polyline", 2000), ("convergence", 5000)]:
        start = SWEEPS[kind][1]
        top = start - 1 + jitter(rng, size)
        argv = ["verify", kind, "--max", str(top), "--workers", "1"]
        cmds.append((argv, sample_of(rng, start, top + 1)))
    n_max = rng.choice([2, 3])
    budget = rng.randrange(6, 10)
    cmds.append((["cycles", "search", "--n-max", str(n_max), "--budget", str(budget)], []))
    for kind in ("delay", "glide"):
        cmds.append((["records", kind, "--max", str(jitter(rng, 3000))], []))
    cmds.append((["tree", "--depth", str(rng.randrange(10, 15))], []))
    rng.shuffle(cmds)
    return cmds


def cli_mix(rng: random.Random) -> list[Op]:
    env = child_env()
    return [
        Op(
            layer=f"cli.{argv[0]}",
            items=1,
            call=partial(run_child, [sys.executable, "-m", "collatz_lab", *argv], env),
            check=CheckedCli(argv, sample),
            label=" ".join(argv),
        )
        for argv, sample in cli_commands(rng)
    ]


BUILDERS = {
    "sweep-serial": sweep_serial,
    "sweep-pooled": sweep_pooled,
    "cycle-search": cycle_search,
    "cli-mix": cli_mix,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warm_up(workload: str) -> None:
    """One small call through the same path, so imports and the file cache
    are warm before the first timed operation."""
    if workload == "cli-mix":
        run_child([sys.executable, "-m", "collatz_lab", "classify", "1"], child_env())
        return
    from collatz_lab import cycles, sweeps

    if workload == "cycle-search":
        cycles.search_cycles(2, 6)
        cycles.search_cycles_n1(4, 4)
    else:
        workers = 2 if workload == "sweep-pooled" else 1
        for name, _, _ in SWEEPS.values():
            getattr(sweeps, name)(64, workers=workers)
