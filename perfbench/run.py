"""collatz-lab benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

Run from the root of a collatz-lab checkout; the package is imported from
its ``src/`` directory and nothing is installed.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced run.  Operation timings are scaled for the
host's speed at the moment (see Run and perfbench/README.md).  The lines
above the last one repeat the figures for people, unscaled too, with sample
counts and the reference-only tail percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import oracles
import workloads

SETUP_REPEATS = 7
# Median reference_loop() time on the reference machine (2 Xeon vCPUs at
# 2.0 GHz, Python 3.11.7); timings are scaled to a host running at that speed.
REFERENCE_S = 0.018
RESULTS = Path(__file__).resolve().parent / "results"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int) -> list[workloads.Op]:
    """Import collatz_lab, make the inputs and warm up: what stands between
    process launch and the first timed operation."""
    import collatz_lab  # noqa: F401

    ops = workloads.build(workload, seed)
    workloads.warm_up(workload)
    return ops


def reference_loop() -> float:
    """Seconds for a fixed pure-Python workload from the benchmark's own
    oracles, the orbits of 900 starts, which touches nothing of collatz-lab.
    It tracks how fast the host runs at this moment."""
    t0 = time.perf_counter()
    for z in range(100_001, 100_901):
        oracles.delay(z)
    return time.perf_counter() - t0


def measure_setup(args) -> list[float]:
    """Seconds from launching a fresh interpreter on this file until it has
    set up, once per repeat.  Not scaled for host speed: launching and
    importing did not follow the reference loop."""
    argv = [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        ready = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or ready != b"ready\n":
            raise RuntimeError(f"set-up probe failed: {' '.join(argv)}")
    return times


def engine_property_check(seed: int) -> bool:
    """A planted check that fails on a known set of inputs goes through
    run_sweep inline and on two workers: both must list exactly that set in
    input order, and their JSON reports must match byte for byte apart from
    elapsed_ms.  This shows that every sweep path can fail."""
    from collatz_lab import export_report
    from collatz_lab.sweeps import run_sweep

    rng = random.Random(f"engine:{seed}")
    lo, hi = 1, 20_001
    failing = frozenset(rng.sample(range(lo, hi), 16))
    check = partial(oracles.planted_fault, failing=failing)
    want = [str(z) for z in sorted(failing)]
    exports = []
    for w in (1, 2):
        report = run_sweep("engine property", check, lo, hi, workers=w)
        if [c.input for c in report.counterexamples] != want or report.checked != hi - lo:
            return False
        exports.append(re.sub(rb'"elapsed_ms": "\d+"', b"", export_report(report, "json")))
    return exports[0] == exports[1]


class Run:
    """Outcome of the timed operations of one run.

    Each operation's time is kept as measured and scaled: divided by the
    host's slowness around it, the mean of the reference loops timed just
    before and just after it over REFERENCE_S.
    """

    def __init__(self):
        self.op_seconds: list[float] = []
        self.op_scaled: list[float] = []
        self.reference: list[float] = []
        self.items = 0
        self.busy = 0.0  # seconds of operation time
        self.scaled_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.child_peak_kb = 0

    def round(self, ops, tracer=None, trace_id="") -> None:
        before = reference_loop()
        for op in ops:
            self.attempted += 1
            dt = self._attempt(op, tracer, trace_id)
            after = reference_loop()
            self.reference.append(after)
            if dt is not None:
                dt_scaled = dt * 2 * REFERENCE_S / (before + after)
                self.op_seconds.append(dt)
                self.op_scaled.append(dt_scaled)
                self.items += op.items
                self.busy += dt
                self.scaled_busy += dt_scaled
            before = after

    def _attempt(self, op, tracer, trace_id) -> float | None:
        """Seconds the operation took, or None when it failed."""
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = op.call()
                dt = time.perf_counter() - t0
            else:
                with tracer.span(op.layer, trace_id, op.items) as rec:
                    result = op.call()
                dt = rec["end"] - rec["start"]
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"failed: {op.label}: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        if isinstance(result, workloads.ChildResult):
            self.child_peak_kb = max(self.child_peak_kb, result.peak_kb)
            if result.code not in (0, 2):  # 2 reports a counterexample: checked below
                print(f"failed: {op.label}: exit {result.code}\n{result.out}", file=sys.stderr)
                self.failed += 1
                return None
        if not op.check(result):
            print(f"wrong output: {op.label}", file=sys.stderr)
            self.correct = False
        return dt


def repeat_rounds(ops, seconds: float, run: Run, tracer=None) -> Run | None:
    """Whole rounds while the next one is expected to end within ``seconds``;
    at least one.  With a tracer, rounds alternate untraced (into ``run``)
    and traced (into the returned Run)."""
    traced = Run() if tracer is not None else None
    start = time.perf_counter()
    n = 0
    while True:
        if traced is not None and n % 2:
            traced.round(ops, tracer, f"round-{n}")
        else:
            run.round(ops)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds and (traced is None or n >= 2):
            break
    return traced


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_line(name: str, values: list[float]) -> str | None:
    """The highest whole percentile with at least ten samples beyond it,
    printed for reference where at least 40 samples exist."""
    n = len(values)
    if n < 40:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return f"{name}_p{q}_ms {1000 * percentile(values, q):.3f} ms (n={n}, unscaled, reference only)"


def peak_rss_mb(workload: str, run: Run) -> float:
    if workload == "cli-mix":
        return run.child_peak_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    src = workloads.SRC
    if not (src / "collatz_lab" / "__init__.py").is_file():
        print(f"perfbench: no collatz_lab package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    ops = setup(args.workload, args.seed)
    engine_ok = engine_property_check(args.seed)

    run = Run()
    if args.trace:
        import layers

        tracer = layers.Tracer()
        traced = repeat_rounds(ops, args.seconds, run, tracer)
        wrong: list[str] = []
        metrics = layers.probe_layers(tracer, args.seed, wrong)
        overhead = (traced.scaled_busy / traced.items) / (run.scaled_busy / run.items)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        for name in wrong:
            print(f"wrong output: {name}", file=sys.stderr)
        correct = engine_ok and run.correct and traced.correct and not wrong
        attempted, failed = run.attempted + traced.attempted, run.failed + traced.failed
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"spans": tracer.spans, "self_seconds": tracer.self_seconds()}, indent=1))
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(workloads.ROOT)}")
    else:
        repeat_rounds(ops, args.seconds, run)
        # On a shared host the speed drifts by up to a fifth over minutes.
        # Scaling by the reference loop timed beside each operation keeps
        # that drift, which the program cannot move, out of the figures.
        slow = statistics.median(run.reference) / REFERENCE_S
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (run.items / run.scaled_busy, "1/s"),
            "op_p50_ms": (1000 * statistics.median(run.op_scaled), "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload, run), "MB"),
        }
        unscaled = {
            "items_per_s": run.items / run.busy,
            "op_p50_ms": 1000 * statistics.median(run.op_seconds),
        }
        correct = engine_ok and run.correct
        attempted, failed = run.attempted, run.failed
        print(f"rounds: {run.attempted // len(ops)}  items: {run.items}")
        print(f"host slowness: {slow:.4f} (median reference loop {1000 * statistics.median(run.reference):.3f} ms"
              f" over {REFERENCE_S * 1000:g} ms, n={len(run.reference)})")
        print("unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
        print(f"setup_s samples (n={len(setup_times)}): " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"op_p50_ms samples: n={len(run.op_seconds)}")
        tail = tail_line("op", run.op_seconds)
        if tail:
            print(tail)

    if not engine_ok:
        print("wrong output: engine property check", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
