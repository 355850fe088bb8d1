import multiprocessing
import os
import re
from functools import partial

import pytest

from collatz_lab import beta_chain, blocks, polyline, residues
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
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a planted fault reaches pool workers only through fork")
        module, faulty = _PLANTED[planted]
        monkeypatch.setattr(module, planted, faulty)
    one, two = sweep(workers=1), sweep(workers=2)
    assert not one.passed
    if planted:
        assert [c.input for c in one.counterexamples] == ["27"]
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
