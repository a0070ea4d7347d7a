"""The verdict every CLI subcommand and demo returns, and the exit codes.

A report lists the checks that decide it, in order, as
`label -> True | False | None`; None means the question is undecided
within an ansatz cap.  The status is read off the checks alone: "fail" if
any check is False, else "inconclusive" if any is None, else "ok".  Each
check renders as "<label>: pass|fail|inconclusive", after the free-text
notes.

An exact check that either holds or stops at its first counterexample
returns a ``Verdict``: ``ok``, and on failure the ``witness`` and, where
the check computes one, the nonzero ``residual`` found there.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3

_VERDICT = {True: "pass", False: "fail", None: "inconclusive"}


class Verdict:
    __slots__ = ("ok", "witness", "residual")

    ok: bool
    witness: object
    residual: object

    def __init__(self, ok: bool, witness: object = None, residual: object = None):
        self.ok = ok
        self.witness = witness
        self.residual = residual


class Report:
    __slots__ = ("result", "checks", "notes", "lines")

    result: dict
    checks: dict[str, bool | None]
    notes: list[str]
    lines: list[str]

    def __init__(
        self,
        result: dict,
        checks: dict[str, bool | None] | None = None,
        notes: list[str] | None = None,
        lines: list[str] | None = None,
    ):
        self.result = result
        self.checks = {} if checks is None else checks
        self.notes = [] if notes is None else notes
        self.lines = [] if lines is None else lines

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
