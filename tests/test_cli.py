import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import collatz_lab
from collatz_lab import cli
from collatz_lab.core import DEFAULT_STEP_LIMIT
from collatz_lab.errors import DomainError
from collatz_lab.report import Counterexample, VerificationReport, export_report
from collatz_lab.sweeps import (
    SWEEPS,
    resolve_workers,
    verify_beta_chains,
    verify_blocks,
    verify_convergence,
    verify_polylines,
    verify_transitions,
)


def run(*argv):
    return cli.run(list(argv))


def test_classify_output(capsys):
    assert run("classify", "100") == 0
    assert capsys.readouterr().out == "100 = γ (k=24)\n"


def test_polyline_output(capsys):
    assert run("polyline", "7") == 0
    assert capsys.readouterr().out == "7 = (x=4, s=4) η\n"


def test_trajectory_output(capsys):
    assert run("trajectory", "--start", "6") == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["6 -> 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1", "steps: 8"]


def test_trajectory_limit_blown_is_exit_1(capsys):
    assert run("trajectory", "--start", "27", "--limit", "5") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("verify", "transitions"),  # missing --max
        ("verify", "transitions", "--max", "0"),
        ("verify", "transitions", "--max", "10", "--format", "yaml"),
        ("classify", "-5"),
        ("classify", "ten"),
        ("cycles",),
        ("records", "delay"),
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert run(*argv) == 1
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "convergence", "--max", "100", "--lim", "1", "--work", "1"), "--lim"),
        (("cycles", "search", "--n-m", "2", "--bud", "6"), "--n-max"),
    ],
)
def test_abbreviated_flags_are_usage_errors(argv, flag, capsys):
    # Taken as --limit 1, the first would run the sweep and exit 2.
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "0"), "classify needs z >= 1, got 0"),
        (("polyline", "0"), "to_polyline needs z >= 1, got 0"),
        (("trajectory", "--start", "0"), "trajectory needs z >= 1, got 0"),
        (("trajectory", "--start", "6", "--limit", "0"), "step_limit must be >= 1, got 0"),
        (("verify", "transitions", "--max", "0"), "z_max must be >= 1, got 0"),
        (("verify", "convergence", "--max", "100", "--limit", "0"),
         "step_limit must be >= 1, got 0"),
        (("verify", "transitions", "--max", "10", "--workers", "0"), "workers must be >= 1, got 0"),
        (("cycles", "search", "--n-max", "0", "--budget", "6"),
         "need n_max >= 1 and exp_budget >= n_max, got (0, 6)"),
        (("records", "delay", "--max", "100", "--limit", "0"), "step_limit must be >= 1, got 0"),
        (("tree", "--depth", "-1"), "depth must be >= 0, got -1"),
        (("verify", "nonsense", "--max", "5"),
         f"unknown sweep 'nonsense'; expected one of {tuple(SWEEPS)}"),
        (("records", "nonsense", "--max", "5"), "kind must be 'delay' or 'glide', got 'nonsense'"),
    ],
    ids=["classify", "polyline", "trajectory-start", "trajectory-limit", "verify-max",
         "verify-limit", "verify-workers", "cycles-n-max", "records-limit", "tree-depth",
         "verify-sweep", "records-kind"],
)
def test_out_of_range_integer_is_the_library_error(argv, message, capsys):
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("what", ["beta-chain", "blocks"])
def test_max_zero_is_one_input_where_the_sweep_starts_at_zero(what, capsys):
    assert run("verify", what, "--max", "0", "--workers", "1") == 0
    out = capsys.readouterr().out
    assert "checked: 1\n" in out and "result: PASS" in out


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "collatz-lab" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _workflow_invocations():
    """Each ``collatz-lab`` command line of the CI workflow, as an argv.  The
    workflow is read as text: the CI matrix has no YAML parser.  An argv ends
    at the shell's first operator (a pipe, a redirect, ``;`` or the ``)`` of
    a command substitution), and an argument holding a ``$`` expansion reads
    as 1."""
    for line in WORKFLOW.read_text().splitlines():
        for match in re.finditer(r"(?<![\w-])collatz-lab\s", line):
            argv = []
            for token in shlex.shlex(line[match.end() :], posix=True, punctuation_chars=True):
                if token[0] in "();<>|&":
                    break
                argv.append("1" if "$" in token else token)
            yield argv


def test_ci_workflow_command_lines_parse(capsys):
    # A misspelled command or flag in a CI line would otherwise show only on
    # the remote runner.  Exit codes are left to the workflow itself.
    invocations = list(_workflow_invocations())
    commands = {"classify", "trajectory", "polyline", "verify", "cycles", "records", "tree"}
    assert {argv[0] for argv in invocations} == commands
    assert ["verify", "--help"] in invocations
    for argv in invocations:
        if "--help" in argv:
            assert run(*argv) == 0, argv
            continue
        try:
            cli.build_parser().parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"{argv}: {exc}")


def test_console_script_entry_point_resolves():
    # The one thing ``pip install .`` reads that no other test does: the
    # script's target in pyproject.toml, read as text, since Python 3.10 has
    # no tomllib.  The generated script calls it with no arguments.
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"(.*)"$', section.group(1), re.M))
    assert list(scripts) == ["collatz-lab"]
    module, _, name = scripts["collatz-lab"].partition(":")
    entry = getattr(importlib.import_module(module), name, None)
    assert callable(entry), scripts
    inspect.signature(entry).bind()


def test_verify_passes_exit_0(capsys):
    assert run("verify", "transitions", "--max", "500", "--workers", "1") == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "checked: 500" in out


@pytest.mark.parametrize("what", ["transitions", "beta-chain", "polyline"])
def test_limit_rejected_where_it_does_not_apply(what, capsys):
    assert run("verify", what, "--max", "5", "--limit", "1", "--workers", "1") == 1
    assert "--limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "blocks", "--max", "30", "--limit", "5"), 2),
        (("verify", "blocks", "--max", "30"), 0),
        (("verify", "convergence", "--max", "30", "--limit", "5"), 2),
        (("verify", "convergence", "--max", "3000"), 0),
        (("verify", "polyline", "--max", "5"), 0),
    ],
)
def test_limit_applies_to_blocks_and_convergence(argv, code, capsys):
    assert run(*argv, "--workers", "1") == code
    assert ("result: FAIL" if code else "result: PASS") in capsys.readouterr().out


def test_limit_help_names_the_sweeps_that_take_a_limit():
    # The parser does not import sweeps, so its help text is static; this
    # keeps it in step with the registry.
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    (limit,) = [a for a in sub.choices["verify"]._actions if "--limit" in a.option_strings]
    named = {name for name in SWEEPS if re.search(rf"\b{re.escape(name)}\b", limit.help)}
    assert named == {name for name, sweep in SWEEPS.items() if sweep.takes_limit}


# Each registry row's public function, called as the CLI would at --max 300.
_PUBLIC = {
    "transitions": lambda limit: verify_transitions(300, workers=1),
    "beta-chain": lambda limit: verify_beta_chains(300, workers=1),
    "blocks": lambda limit: verify_blocks(300, workers=1, step_limit=limit),
    "polyline": lambda limit: verify_polylines(300, workers=1),
    "convergence": lambda limit: verify_convergence(300, workers=1, step_limit=limit),
}


def _without_elapsed(data):
    payload = json.loads(data)
    del payload["elapsed_ms"]
    return payload


@pytest.mark.parametrize(
    "what, limit",
    [(what, None) for what in sorted(SWEEPS)]
    + [(what, 20) for what in sorted(SWEEPS) if SWEEPS[what].takes_limit],
)
def test_cli_verify_equals_library_report(what, limit, capsys):
    extra = () if limit is None else ("--limit", str(limit))
    code = run("verify", what, "--max", "300", "--workers", "1", "--format", "json", *extra)
    out = capsys.readouterr().out
    report = _PUBLIC[what](limit or DEFAULT_STEP_LIMIT)
    assert code == (0 if report.passed else 2)
    assert _without_elapsed(out) == _without_elapsed(export_report(report, "json"))


def test_every_exported_name_resolves():
    modules = [collatz_lab] + [
        importlib.import_module(f"collatz_lab.{info.name}")
        for info in pkgutil.iter_modules(collatz_lab.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_corrupted_transition_table_exits_2(monkeypatch, capsys):
    def scrambled(c):
        tag, k = c
        return (tag, k + 1)

    monkeypatch.setattr("collatz_lab.residues.transition_symbolic", scrambled)
    code = run("verify", "transitions", "--max", "30", "--workers", "1", "--format", "json")
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexamples"], "sweep should have found the corruption"
    first = payload["counterexamples"][0]
    assert set(first) == {"input", "expected", "actual"}


def test_verify_writes_out_file(tmp_path):
    target = tmp_path / "report.json"
    assert run("verify", "polyline", "--max", "200", "--workers", "1",
               "--format", "json", "--out", str(target)) == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "verify polyline"
    assert payload["checked"] == "200"
    assert payload["counterexamples"] == []


def test_out_to_missing_directory_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope" / "report.json"
    assert run("verify", "polyline", "--max", "10", "--workers", "1",
               "--out", str(missing)) == 1
    assert "i/o error" in capsys.readouterr().err


def test_workers_env_var_default(monkeypatch):
    # the environment sets no worker count: the default is the affinity mask
    monkeypatch.setenv("COLLATZ_LAB_WORKERS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2
    with pytest.raises(DomainError):
        resolve_workers(0)


def test_worker_count_never_changes_results(tmp_path):
    one = tmp_path / "w1.json"
    two = tmp_path / "w2.json"
    assert run("verify", "transitions", "--max", "4000", "--workers", "1",
               "--format", "json", "--out", str(one)) == 0
    assert run("verify", "transitions", "--max", "4000", "--workers", "2",
               "--format", "json", "--out", str(two)) == 0
    a = json.loads(one.read_text())
    b = json.loads(two.read_text())
    a["elapsed_ms"] = b["elapsed_ms"] = "0"
    assert a == b


@pytest.mark.usefixtures("split_any_box")
def test_cycles_search_is_the_same_on_one_and_two_cpus(monkeypatch, capsys):
    # The search takes its worker count from the CPUs it may run on; the
    # fixture lets it split even this small box.
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or real_fork())
    exports, listings = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        argv = ["cycles", "search", "--n-max", "3", "--budget", "12"]
        assert run(*argv, "--format", "json") == 0
        exports.append(_without_elapsed(capsys.readouterr().out))
        assert run(*argv) == 0
        listings.append(_mask_elapsed(capsys.readouterr().out))
    assert forks == [2, 2]
    assert exports[0] == exports[1]
    assert "workers" not in exports[0]["config"]
    assert listings[0] == listings[1]


def test_cycles_search_lists_trivial_cycle(capsys):
    assert run("cycles", "search", "--n-max", "2", "--budget", "6") == 0
    out = capsys.readouterr().out
    assert "cycle: m=[0] e=[1] k0=0 ok" in out
    assert "cycle: m=[0,0] e=[1,1] k0=0 ok" in out
    assert "result: PASS" in out


def test_cycles_search_json_config_echo(capsys):
    assert run("cycles", "search", "--n-max", "1", "--budget", "4", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_max"] == "1"
    assert payload["config"]["solutions"] == "m=[0] e=[1] k0=0 ok"
    assert payload["counterexamples"] == []


def test_records_output(capsys):
    assert run("records", "delay", "--max", "30") == 0
    out = capsys.readouterr().out
    assert "2 1\n" in out and "27 111\n" in out
    assert "command: records delay" in out


def test_records_csv_is_header_only(capsys):
    assert run("records", "glide", "--max", "50", "--format", "csv") == 0
    assert capsys.readouterr().out == "input,expected,actual\n"


def test_tree_output(capsys):
    assert run("tree", "--depth", "5") == 0
    out = capsys.readouterr().out
    assert "level 5: 2" in out
    assert "checked: 7" in out


def _mask_elapsed(text):
    return re.sub(r"(?m)^elapsed_ms: \d+$", "elapsed_ms:", text)


@pytest.mark.parametrize(
    "argv, code, first_listed",
    [
        (("verify", "blocks", "--max", "200", "--limit", "20", "--workers", "1"), 2, []),
        (("cycles", "search", "--n-max", "2", "--budget", "6"), 0, ["cycle: m=[0] e=[1] k0=0 ok"]),
        (("records", "delay", "--max", "30"), 0, ["2 1"]),
        (("tree", "--depth", "5"), 0, ["level 0: 1"]),
    ],
    ids=["verify", "cycles-search", "records", "tree"],
)
def test_out_file_holds_what_stdout_shows(argv, code, first_listed, tmp_path, capsys):
    assert run(*argv) == code
    shown = capsys.readouterr().out
    listing = shown.partition("command: ")[0]
    assert listing.splitlines()[:1] == first_listed
    target = tmp_path / "report.txt"
    assert run(*argv, "--out", str(target)) == code
    assert capsys.readouterr().out == ""
    assert _mask_elapsed(target.read_text()) == _mask_elapsed(shown)


# -- report serialization ----------------------------------------------------


def _report(n_bad=0):
    bad = [Counterexample(str(i), "x", "y") for i in range(n_bad)]
    return VerificationReport(
        command="verify transitions",
        checked=12345678901234567890,  # arbitrary precision survives
        counterexamples=bad,
        elapsed_ms=17,
        config={"max": "10", "limit": "100000"},
    )


def test_export_json_schema():
    payload = json.loads(export_report(_report(), "json"))
    assert list(payload) == ["command", "checked", "counterexamples", "elapsed_ms", "config"]
    assert payload["checked"] == "12345678901234567890"
    assert payload["elapsed_ms"] == "17"


def test_export_deterministic():
    r = _report(3)
    for fmt in ("json", "csv", "text"):
        assert export_report(r, fmt) == export_report(r, fmt)


def test_export_csv_rows():
    data = export_report(_report(2), "csv").decode()
    assert data == "input,expected,actual\n0,x,y\n1,x,y\n"


def test_export_text_verdicts():
    assert b"result: PASS" in export_report(_report(0), "text")
    assert b"result: FAIL" in export_report(_report(1), "text")


@pytest.mark.parametrize("n_bad,more", [(20, []), (21, ["  ... 1 more"])])
def test_export_text_lists_at_most_twenty(n_bad, more):
    lines = export_report(_report(n_bad), "text").decode().splitlines()
    listed = [line for line in lines if line.startswith("  ")]
    assert listed == [f"  {i}: expected x, got y" for i in range(20)] + more


def test_export_unknown_format():
    with pytest.raises(DomainError):
        export_report(_report(), "xml")
