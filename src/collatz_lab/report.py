"""Verification reports and their serialization.

Reports are the one currency every sweep returns: how much was checked and
which inputs, if any, broke the claim under test.  Serialization writes all
numbers as decimal strings so arbitrary-precision values survive any JSON or
CSV reader.  Each format imports its serializer only when it is asked for.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError

__all__ = ["Counterexample", "VerificationReport", "export_report", "FORMATS"]

FORMATS = ("json", "csv", "text")


class Counterexample(NamedTuple):
    input: str
    expected: str
    actual: str


class VerificationReport(NamedTuple):
    command: str
    checked: int
    counterexamples: Sequence[Counterexample] = ()
    elapsed_ms: int = 0
    config: Mapping[str, str] = MappingProxyType({})

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def export_report(report: VerificationReport, fmt: str) -> bytes:
    """Serialize a report; same report in, byte-identical output out."""
    if fmt == "json":
        import json

        payload = {
            "command": report.command,
            "checked": str(report.checked),
            "counterexamples": [
                {"input": c.input, "expected": c.expected, "actual": c.actual}
                for c in report.counterexamples
            ],
            "elapsed_ms": str(report.elapsed_ms),
            "config": {k: report.config[k] for k in sorted(report.config)},
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["input", "expected", "actual"])
        for c in report.counterexamples:
            writer.writerow([c.input, c.expected, c.actual])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [
            f"command: {report.command}",
            f"checked: {report.checked}",
            f"counterexamples: {len(report.counterexamples)}",
        ]
        for c in report.counterexamples[:20]:
            lines.append(f"  {c.input}: expected {c.expected}, got {c.actual}")
        if len(report.counterexamples) > 20:
            lines.append(f"  ... {len(report.counterexamples) - 20} more")
        lines.append(f"elapsed_ms: {report.elapsed_ms}")
        lines.append("result: " + ("PASS" if report.passed else "FAIL"))
        return ("\n".join(lines) + "\n").encode()
    raise DomainError(f"unknown format {fmt!r}; expected one of {FORMATS}")
