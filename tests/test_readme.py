"""The README's CLI commands run verbatim from the repository root."""

import re
import shlex
from pathlib import Path

import pytest

from oitkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _cli_section_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("oitkit ")]


COMMANDS = _cli_section_commands()


def test_readme_lists_cli_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line, comments=True)
    assert main(argv[1:]) == 0, capsys.readouterr().err
