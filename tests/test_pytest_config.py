"""The suite's own pytest settings: a failing property test reports its
falsifying example under the warning filters in pyproject.toml and lets the
session go on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
