"""Check transcripts: every verification emits entries that aggregate into a report.

Reports are deterministic byte-for-byte; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckEntry:
    """One verified equation or law, with a witness when it fails."""

    check: str          # stable id, e.g. "wedge.condition" or "smcc.eval_curry"
    tag: str = ""       # instance / case discriminator
    passed: bool = True
    witness: str = ""   # counterexample description; empty on success

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        parts = [status, self.check]
        if self.tag:
            parts.append(self.tag)
        if self.witness:
            parts.append(f"witness={self.witness}")
        return "  ".join(parts)


@dataclass
class Report:
    """Aggregated transcript for one engine command."""

    command: str
    subject: str = ""
    checks: list[CheckEntry] = field(default_factory=list)
    results: dict[str, object] = field(default_factory=dict)
    _start: float = field(default_factory=time.monotonic, repr=False)

    def add(self, entry: CheckEntry) -> CheckEntry:
        self.checks.append(entry)
        return entry

    def record(self, check: str, passed: bool, witness: str = "") -> CheckEntry:
        return self.add(CheckEntry(check=check, passed=passed,
                                   witness=witness if not passed else ""))

    def extend(self, entries: list[CheckEntry]) -> None:
        self.checks.extend(entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.checks if not e.passed]

    def summary_counts(self) -> tuple[int, int]:
        fails = len(self.failures())
        return len(self.checks) - fails, fails

    def to_dict(self) -> dict:
        ok, fails = self.summary_counts()
        return {
            "command": self.command,
            "subject": self.subject,
            "status": "pass" if self.passed else "fail",
            "checks_passed": ok,
            "checks_failed": fails,
            "results": self.results,
            "checks": [
                {"check": e.check, "tag": e.tag, "passed": e.passed, "witness": e.witness}
                for e in self.checks
            ],
        }

    def render_text(self, verbose: bool = False) -> str:
        ok, fails = self.summary_counts()
        lines = [f"{self.command}: {self.subject}" if self.subject else self.command]
        for key in sorted(self.results):
            lines.append(f"  {key} = {self.results[key]}")
        shown = self.checks if verbose else self.failures()
        for e in shown:
            lines.append("  " + e.line())
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status}  ({ok} checks passed, {fails} failed)")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def emit(self, as_json: bool = False, verbose: bool = False) -> None:
        text = self.render_json() if as_json else self.render_text(verbose=verbose)
        print(text)
        elapsed = time.monotonic() - self._start
        print(f"[{self.command}] {elapsed:.3f}s", file=sys.stderr)


def summarize(entries: list[CheckEntry], check: str, tag: str = "") -> CheckEntry:
    """Collapse a batch of entries into one roll-up entry (first failure wins)."""
    for e in entries:
        if not e.passed:
            return CheckEntry(check=check, tag=tag or e.tag, passed=False,
                              witness=f"{e.check}: {e.witness}" if e.witness else e.check)
    return CheckEntry(check=check, tag=tag, passed=True)


def equation(A, check: str, tag: str, lhs, rhs) -> CheckEntry:
    """Entry for the arrow equation lhs == rhs in ambient A, labelled on failure."""
    ok = lhs == rhs
    return CheckEntry(check, tag=tag, passed=ok,
                      witness="" if ok else f"{A.arrow_label(lhs)} != {A.arrow_label(rhs)}")


def verdict(check: str, violations: list[str], tag: str = "") -> CheckEntry:
    """Entry that passes when violations is empty, else witnessed by the first one."""
    return CheckEntry(check, tag=tag, passed=not violations,
                      witness=violations[0] if violations else "")
