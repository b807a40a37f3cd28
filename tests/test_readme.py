"""The python examples of README.md run as written, its Quick start
transcript shows what the commands print and write, and every package name
it gives exists."""

from __future__ import annotations

import importlib
import pkgutil
import re
import runpy
import shlex
from pathlib import Path

import pytest

import mucut
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


# A backticked dotted name whose first part is the package or one of its
# modules: `mucut.embed`, `proofs.observe`, but not `str.split`.
_MODULES = sorted(m.name for m in pkgutil.iter_modules(mucut.__path__) if m.name[0] != "_")
_DOTTED = re.compile(r"`((?:mucut|%s)(?:\.\w+)+)`" % "|".join(_MODULES))


def _names(text):
    return sorted(set(_DOTTED.findall(text)))


def _resolves(name):
    """Whether the dotted name imports: its part after mucut as a module
    of the package, the rest as attributes."""
    module, *attrs = name.removeprefix("mucut.").split(".")
    try:
        obj = importlib.import_module("mucut." + module)
    except ImportError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_package_names_are_found():
    text = "`mucut.kernel`, `proofs.observe` and `proofs._observe`, not `str.split`, `Proof.make` or `proofs`"
    assert _names(text) == ["mucut.kernel", "proofs._observe", "proofs.observe"]
    assert not _resolves("proofs.no_such_name")
    assert not _resolves("mucut.no_such_module")


def test_every_package_name_the_readme_gives_exists():
    names = _names(TEXT)
    assert "cutelim.weaken" in names and "mucut.embed" in names
    assert [name for name in names if not _resolves(name)] == []
