"""The verdict every CLI subcommand and demo returns, and the exit codes.

A report lists the checks that decide it, in order, as
`label -> True | False | None`; None means the question is undecided
within an ansatz cap.  The status is read off the checks alone: "fail" if
any check is False, else "inconclusive" if any is None, else "ok".  Each
check renders as "<label>: pass|fail|inconclusive", after the free-text
notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3

_VERDICT = {True: "pass", False: "fail", None: "inconclusive"}


@dataclass
class Report:
    result: dict
    checks: dict[str, bool | None] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        verdicts = list(self.checks.values())
        if False in verdicts:
            return "fail"
        if None in verdicts:
            return "inconclusive"
        return "ok"

    @property
    def verification(self) -> list[str]:
        return self.notes + [
            f"{label}: {_VERDICT[verdict]}" for label, verdict in self.checks.items()
        ]

    def exit_code(self) -> int:
        return {"ok": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[
            self.status
        ]
