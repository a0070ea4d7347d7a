"""README.md runs as written: every `aldyn ...` line of its CLI block exits
0, a line's `# -> <text>` is the end of its first printed line, and the
library example executes."""

import re
import shlex
from pathlib import Path

import pytest

from aldyn.cli import main
from aldyn.report import EXIT_OK

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _cli_lines() -> list[tuple[list[str], str | None]]:
    """(argv without `aldyn`, expected end of the first line or None) for
    each command of the CLI block, `\\` continuations joined."""
    out = []
    for line in _block("## CLI", "sh").replace("\\\n", " ").splitlines():
        if not line.startswith("aldyn "):
            continue
        expected = re.search(r"#\s*->\s*(.+?)\s*$", line)
        argv = shlex.split(line, comments=True)[1:]
        out.append((argv, expected and expected.group(1)))
    return out


CLI_LINES = _cli_lines()


def test_the_cli_block_is_found():
    assert len(CLI_LINES) >= 10
    assert sum(expected is not None for _, expected in CLI_LINES) >= 3


@pytest.mark.parametrize(
    "argv, expected",
    CLI_LINES,
    ids=[" ".join(a for a in argv[:3] if len(a) < 20) for argv, _ in CLI_LINES],
)
def test_readme_command_runs(capsys, argv, expected):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if expected is not None:
        assert out.splitlines()[0].endswith(expected)


def test_library_example_runs():
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})
