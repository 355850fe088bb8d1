"""The traced run: spans around the benchmark's calls into each collatz-lab
module, and one probe per module that gives its per-layer metrics.

Spans are recorded only in the benchmark's own code, at the call into a
module's public function, so the program runs unmodified.  A probe calls
one public function on seeded inputs of a fixed size, inside a span that
carries its item count.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time
import tracemalloc
from functools import partial

import oracles
import workloads


class Tracer:
    """Spans kept in memory: id, parent id, trace id, name, start, end and
    an item count.  Spans of one round of a workload share a trace id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str, items: int = 0):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "trace": trace,
            "name": name,
            "items": items,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out


def _loop(fn, inputs) -> None:
    for z in inputs:
        fn(z)


def _step_walks(step_c, starts) -> None:
    for z in starts:
        while z != 1:
            z = step_c(z)


def _traced_seconds(tracer: Tracer, name: str, call, items: int) -> float:
    """Duration of one call, recorded as a span."""
    with tracer.span(name, "probe", items) as rec:
        call()
    return rec["end"] - rec["start"]


def probe_layers(tracer: Tracer, seed: int, wrong: list[str]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, each from direct calls into its module.
    A probe whose answer disagrees with the oracles is named in ``wrong``."""
    from collatz_lab import beta_chain, blocks, cli, core, cycles, polyline, report, residues, sweeps

    rng = random.Random(f"layers:{seed}")
    m: dict[str, tuple[float, str]] = {}

    def rate(metric: str, name: str, call, items: int) -> None:
        """items/s of the best of three traced calls."""
        best = min(_traced_seconds(tracer, name, call, items) for _ in range(3))
        m[metric] = (items / best, "1/s")

    def window(size: int) -> range:
        lo = rng.randrange(10**5, 10**6)
        return range(lo, lo + size)

    starts = [rng.randrange(10**5, 10**6) for _ in range(2000)]
    steps = sum(oracles.delay(z) for z in starts)
    rate("core.step_c_per_s", "core.step_c", partial(_step_walks, core.step_c, starts), steps)
    sieve_n = 100_000
    rate("core.delay_sieve_n_per_s", "core.delay_sieve", partial(core.delay_sieve, sieve_n), sieve_n)
    tracemalloc.start()
    core.delay_sieve(sieve_n)
    m["core.delay_sieve_peak_mb"] = (tracemalloc.get_traced_memory()[1] / 2**20, "MB")
    tracemalloc.stop()
    depth = rng.randrange(38, 41)
    nodes = len(core.backward_tree(depth).nodes)
    rate("core.backward_tree_nodes_per_s", "core.backward_tree", partial(core.backward_tree, depth), nodes)

    for metric, fn, size in [
        ("residues.transition_checks_per_s", residues.transition_counterexample, 40_000),
        ("beta_chain.chain_checks_per_s", beta_chain.chain_counterexample, 40_000),
        ("blocks.block_checks_per_s", blocks.block_counterexample, 1_000),
        ("polyline.polyline_checks_per_s", polyline.polyline_counterexample, 20_000),
    ]:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        rate(metric, name, partial(_loop, fn, window(size)), size)
    conv_n = 150_000
    rate(
        "sweeps.convergence_checks_per_s",
        "sweeps.verify_convergence",
        partial(sweeps.verify_convergence, conv_n, workers=1),
        conv_n - 1,
    )

    # Pool start-up: a two-input sweep on two workers against the same sweep
    # inline, interleaved so that host drift hits both alike.
    noop = partial(oracles.planted_fault, failing=frozenset())
    startup = {1: [], 2: []}
    eff_n = 300_000
    efficiency = {1: [], 2: []}
    for _ in range(3):
        for w in (1, 2):
            call = partial(sweeps.run_sweep, "probe", noop, 0, 2, workers=w)
            startup[w] += [_traced_seconds(tracer, "sweeps.run_sweep", call, 2) for _ in range(3)]
            call = partial(sweeps.verify_convergence, eff_n, workers=w)
            efficiency[w].append(_traced_seconds(tracer, "sweeps.verify_convergence", call, eff_n - 1))
    pool_s = statistics.median(startup[2]) - statistics.median(startup[1])
    m["sweeps.pool_startup_ms"] = (1000 * pool_s, "ms")
    # checks/s at 2 workers over twice the checks/s at 1 worker
    speedup = statistics.median(efficiency[1]) / statistics.median(efficiency[2])
    m["sweeps.parallel_efficiency"] = (speedup / 2, "ratio")

    box = (3, 13)
    count = oracles.candidate_count(*box)
    rate("cycles.candidates_per_s", "cycles.search_cycles", partial(cycles.search_cycles, *box), count)
    enum_box = (4, 14)
    enum_count = oracles.candidate_count(*enum_box)
    if cycles.count_candidates(*enum_box) != enum_count:
        wrong.append(f"count_candidates{enum_box}")
    enumerate_box = partial(cycles.count_candidates, *enum_box)
    rate("cycles.enumeration_per_s", "cycles.count_candidates", enumerate_box, enum_count)
    candidates = [cycles.CycleCandidate(mm, ee) for mm, ee in _param_lists(*box)]
    if len(candidates) != count:
        wrong.append(f"candidate enumeration {box}")
    closure = partial(_loop, cycles.cycle_equation_general, candidates)
    rate("cycles.closure_per_s", "cycles.cycle_equation_general", closure, count)

    rows = 20_000
    rep = report.VerificationReport(
        command="probe",
        checked=rows,
        counterexamples=[report.Counterexample(str(z), str(3 * z + 1), str(z)) for z in window(rows)],
        elapsed_ms=0,
    )
    export = partial(_loop, partial(report.export_report, rep), ("json", "csv"))
    rate("report.export_rows_per_s", "report.export_report", export, 2 * rows)

    env = workloads.child_env()
    code = "import time; t = time.perf_counter(); import collatz_lab.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(5):
        with tracer.span("cli.import", "probe", 1):
            child = workloads.run_child([sys.executable, "-c", code], env)
        imports.append(float(child.out))
    m["cli.import_ms"] = (1000 * statistics.median(imports), "ms")
    run_ms = []
    for argv, sample in workloads.cli_commands(rng):
        buf = io.StringIO()
        with tracer.span(f"cli.run.{argv[0]}", "probe", 1) as rec, contextlib.redirect_stdout(buf):
            exit_code = cli.run(argv)
        if exit_code != 0 or not workloads.check_cli(argv, sample, buf.getvalue()):
            wrong.append(f"cli.run {' '.join(argv)}")
        run_ms.append(1000 * (rec["end"] - rec["start"]))
    m["cli.run_ms"] = (statistics.median(run_ms), "ms")
    return m


def _param_lists(n_max: int, budget: int):
    """Every (m_seq, e_seq) with lengths 1..n_max, m_j >= 0, e_j >= 1 and
    sum(m) + sum(e) <= budget."""

    def extend(prefix, remaining, slots):
        if slots == 0:
            yield prefix
            return
        floor = 1 if len(prefix) % 2 else 0
        for value in range(floor, remaining + 1):
            yield from extend(prefix + (value,), remaining - value, slots - 1)

    for n in range(1, n_max + 1):
        for flat in extend((), budget, 2 * n):
            yield flat[0::2], flat[1::2]
