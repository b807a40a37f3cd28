"""The test configuration lets a failing property show its example.

pyproject.toml turns every warning into an error.  When a Hypothesis
property fails, the plugin's report imports a module whose deprecation
warning would then end the run in an INTERNALERROR before the falsifying
example is printed; the configuration ignores that one warning by its
message.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_a_failing_property_shows_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
