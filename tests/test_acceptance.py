"""Acceptance checks for the package's headline claims.

Each test exercises one end-to-end claim at full scale and prints a single
PASS/FAIL line; run ``pytest -s tests/test_acceptance.py -v`` to see them.
These are deliberately heavier than the unit tests (minutes, not seconds).
"""

import subprocess
import sys
import time

from collatz_lab.blocks import block_path, make_block
from collatz_lab.core import backward_tree, delay, delay_sieve, records_sweep
from collatz_lab.cycles import CycleCandidate, search_cycles, search_cycles_n1
from collatz_lab.polyline import cycle_residual, to_polyline
from collatz_lab.sweeps import (
    verify_beta_chains,
    verify_blocks,
    verify_convergence,
    verify_polylines,
)

# Delay records for n <= 10^6, frozen from a brute-force sieve run.
DELAY_RECORDS_1E6 = [
    (2, 1), (3, 7), (6, 8), (7, 16), (9, 19), (18, 20), (25, 23), (27, 111),
    (54, 112), (73, 115), (97, 118), (129, 121), (171, 124), (231, 127),
    (313, 130), (327, 143), (649, 144), (703, 170), (871, 178), (1161, 181),
    (2223, 182), (2463, 208), (2919, 216), (3711, 237), (6171, 261),
    (10971, 267), (13255, 275), (17647, 278), (23529, 281), (26623, 307),
    (34239, 310), (35655, 323), (52527, 339), (77031, 350), (106239, 353),
    (142587, 374), (156159, 382), (216367, 385), (230631, 442),
    (410011, 448), (511935, 469), (626331, 508), (837799, 524),
]


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"{name}{tail}"


def test_transition_table_holds_to_one_million_via_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "collatz_lab", "verify", "transitions",
         "--max", "1000000"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    ok = (
        proc.returncode == 0
        and "counterexamples: 0" in proc.stdout
        and "result: PASS" in proc.stdout
        and elapsed < 10.0
    )
    _verdict(
        "class transitions, z <= 10^6, CLI exit 0 in under 10s",
        ok,
        f"exit={proc.returncode}, {elapsed:.1f}s",
    )


def test_beta_chain_solver_exact_to_one_million():
    start = time.perf_counter()
    report = verify_beta_chains(10**6)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked == 10**6 + 1 and elapsed < 30.0
    _verdict(
        "chain solver, identity and replayed chains, k <= 10^6, under 30s",
        ok,
        f"{len(report.counterexamples)} failures, {elapsed:.1f}s",
    )


def test_block_decomposition_exact_to_one_hundred_thousand():
    report = verify_blocks(10**5)
    ok = report.passed and report.checked == 10**5 + 1
    _verdict(
        "block recurrences exact and block paths match raw trajectories, k <= 10^5",
        ok,
        f"{len(report.counterexamples)} failures",
    )


def test_single_block_cycle_search_finds_only_the_trivial_loop():
    solutions = search_cycles_n1(60, 60)
    only = solutions[0] if len(solutions) == 1 else None
    ok = (
        only is not None
        and only.candidate == CycleCandidate((0,), (1,))
        and only.k0 == 0
        and only.simulated_ok
        and block_path(make_block(0)) == [2, 1, 4, 2]
    )
    _verdict(
        "single-block search over m,e <= 60 finds exactly the 2-1-4 loop",
        ok,
        f"{len(solutions)} solution(s)",
    )


def test_general_cycle_search_finds_only_trivial_representatives():
    start = time.perf_counter()
    solutions = search_cycles(3, 12)
    elapsed = time.perf_counter() - start
    all_trivial = all(
        s.k0 == 0
        and s.simulated_ok
        and all(m == 0 for m in s.candidate.m_seq)
        and all(e == 1 for e in s.candidate.e_seq)
        for s in solutions
    )
    ok = len(solutions) == 3 and all_trivial and elapsed < 60.0
    _verdict(
        "cycle search up to 3 blocks, exponent budget 12, only trivial loops",
        ok,
        f"{len(solutions)} solution(s), {elapsed:.1f}s",
    )


def test_polyline_identities_hold_to_one_million():
    report = verify_polylines(10**6)
    residuals_ok = (
        cycle_residual([to_polyline(z) for z in (1, 2)]) == 0
        and cycle_residual([to_polyline(z) for z in (1, 2, 4)]) == -2
    )
    ok = report.passed and report.checked == 10**6 and residuals_ok
    _verdict(
        "coordinate roundtrip, class map, closed form and step law, z <= 10^6",
        ok,
        f"{len(report.counterexamples)} failures",
    )


def test_backward_tree_matches_forward_delays():
    bound = 10**5
    tree = backward_tree(30)
    delays = delay_sieve(bound)
    # Per-node check: sieve lookups below the bound, forward walks above it.
    sound = all(
        d == (delays[value] if value <= bound else delay(value))
        for value, (d, _) in tree.nodes.items()
    )
    complete = all(
        (n in tree) == (delays[n] <= 30)
        and (delays[n] > 30 or tree.nodes[n][0] == delays[n])
        for n in range(2, bound + 1)
    )
    ok = sound and complete and tree.nodes[1][0] == 0
    _verdict(
        "depth-30 backward tree = {n : delay(n) <= 30}, depths matching "
        f"(forward sweep to {bound})",
        ok,
        f"{len(tree.nodes)} nodes",
    )


def test_every_start_below_ten_million_reaches_one():
    start = time.perf_counter()
    report = verify_convergence(10**7, workers=4)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked == 10**7 - 1 and elapsed < 120.0
    _verdict(
        "every 2 <= n <= 10^7 reaches 1, 4 workers, under 120s",
        ok,
        f"{len(report.counterexamples)} failures, {elapsed:.1f}s",
    )


def test_delay_records_to_one_million():
    entries = records_sweep(10**6, "delay")

    # Re-derive 27's delay with a bare loop, independent of the library.
    v, steps = 27, 0
    while v != 1:
        v = 3 * v + 1 if v % 2 else v // 2
        steps += 1

    increasing = all(
        a[0] < b[0] and a[1] < b[1]
        for a, b in zip(entries, entries[1:])
    )
    ok = (
        (27, 111) in entries
        and steps == 111
        and increasing
        and entries == DELAY_RECORDS_1E6
    )
    _verdict(
        "delay records to 10^6: strictly increasing, (27, 111) present",
        ok,
        f"{len(entries)} records",
    )
