import multiprocessing
import os
import re
from functools import partial

import pytest

from collatz_lab import blocks
from collatz_lab.core import DEFAULT_STEP_LIMIT, glide
from collatz_lab.report import export_report
from collatz_lab.sweeps import (
    SIEVE_MODULUS,
    _descent_steps,
    _drop_check,
    _sieve_survivors,
    _sieved_inputs,
    resolve_workers,
    run_sweep,
    verify_blocks,
    verify_convergence,
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


@pytest.mark.parametrize(
    "sweep, planted",
    [
        (partial(verify_blocks, 300), True),
        (partial(verify_blocks, 300, step_limit=20), False),
        (partial(verify_convergence, 5000, 20), False),
    ],
    ids=["blocks-planted-make-block", "blocks-step-limit-20", "convergence-step-limit-20"],
)
def test_faults_fail_alike_on_one_and_two_workers(sweep, planted, monkeypatch):
    if planted:
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a planted fault reaches pool workers only through fork")
        monkeypatch.setattr(blocks, "make_block", _faulty_make_block)
    one, two = sweep(workers=1), sweep(workers=2)
    assert not one.passed
    if planted:
        assert "27" in [c.input for c in one.counterexamples]
    assert _json_without_elapsed(one) == _json_without_elapsed(two)


def test_blocks_report_records_limit_and_premise():
    config = verify_blocks(10, workers=1, step_limit=50).config
    assert config["limit"] == "50"
    assert "every smaller k0" in config["premise"]


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("COLLATZ_LAB_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_workers() == 3
    # without an affinity call the CPU count is the fallback
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers() == 1
