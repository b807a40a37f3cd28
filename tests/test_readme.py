"""The python examples of README.md run as written."""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


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
