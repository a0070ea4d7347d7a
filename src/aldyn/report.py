"""The verdict every CLI subcommand and demo returns, and the exit codes."""

from __future__ import annotations

from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class Report:
    status: str  # "ok" | "fail" | "inconclusive"
    result: dict
    verification: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def exit_code(self) -> int:
        return {"ok": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[
            self.status
        ]
