"""The README's Library example and Command line block run as written, so
the documented API and CLI cannot drift."""

import re
import shlex
from pathlib import Path

import pytest

from bellsquare.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def readme_commands() -> list[list[str]]:
    """Argument lists of the Command line block; an optional ``[...]`` part
    of a line gives a second run with it appended."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", TEXT, re.DOTALL).group(1)
    runs = []
    for line in block.splitlines():
        command, optional = re.fullmatch(r"([^\[#]*)(?:\[(.*)\])?\s*(?:#.*)?", line).groups()
        argv = shlex.split(command)
        assert argv[0] == "bellsquare", line
        runs.append(argv[1:])
        if optional:
            runs.append(argv[1:] + shlex.split(optional))
    return runs


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})


def test_command_line_block_is_parsed():
    runs = readme_commands()
    assert len(runs) >= 6
    assert ["sweep", "--grid", "0:1:0.01", "--chi-expt", "5.30", "--format", "csv"] in runs


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command_line_example_passes(argv, capsys, monkeypatch):
    monkeypatch.delenv("BELLSQUARE_OUT", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out
