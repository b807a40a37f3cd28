"""The python examples of README.md run as written, and its Quick start
transcript shows what the commands print and write."""

from __future__ import annotations

import re
import runpy
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
QUICK_START = re.search(r"^## Quick start\n+```text\n(.*?)^```", TEXT, re.M | re.S).group(1)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch, capsys):
    # each block runs on its own, from an empty directory
    monkeypatch.chdir(tmp_path)
    script = tmp_path / ("readme_%d.py" % index)
    script.write_text(BLOCKS[index], encoding="utf-8")
    runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()


def _transcript(text):
    """Each `$ ` line of a shell transcript as an argument list, with the
    text of the lines shown below it, less the blank lines at its end."""
    steps = []
    for line in text.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        else:
            steps[-1][1].append(line)
    return [(argv, "\n".join(shown).rstrip("\n") + "\n") for argv, shown in steps]


def test_quick_start_transcript_is_what_the_commands_print(tmp_path, monkeypatch):
    # each step runs in turn, from an empty directory
    monkeypatch.chdir(tmp_path)
    steps = _transcript(QUICK_START)
    assert [argv[0] for argv, _ in steps] == ["mucut"] * 3 + ["ls", "head", "cat"]
    for (command, *args), shown in steps:
        if command == "mucut":
            code, got, err = run_cli(args)
            assert code == 0, err
        elif command == "ls":
            assert {p.name for p in Path(args[0]).iterdir()} == set(shown.split())
            continue
        elif command == "head":
            count, path = int(args[0].lstrip("-")), args[1]
            got = "".join(Path(path).read_text(encoding="utf-8").splitlines(True)[:count])
        else:
            assert command == "cat"
            got = Path(args[0]).read_text(encoding="utf-8")
        assert got == shown, [command, *args]
