"""The README's ``>>>`` example runs as a doctest, so its figures stay true,
and every command of its ``## Command line`` block runs and exits 0."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from aliquot.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0


def command_lines() -> list[str]:
    """The lines of the first code block under ``## Command line``."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def test_command_block_is_found():
    lines = command_lines()
    assert len(lines) >= 5 and all(line.startswith("alq ") for line in lines)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_exits_0(tmp_path, monkeypatch, request, line):
    argv = shlex.split(line)[1:]
    if argv[0] == "selftest":
        # The verb prints the session's one run of the suite (conftest).
        results, _ = request.getfixturevalue("selftest_results")
        monkeypatch.setattr("aliquot.selftest.checks", lambda: iter(results))
    assert run([*argv, "--out", str(tmp_path)]) == 0
