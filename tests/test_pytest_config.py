"""The suite's own pytest settings: a failing property test reports its
falsifying example under the warning filters in pyproject.toml and lets the
session go on, and the session header names the BLAS setup, the thread
count OpenBLAS reports among it, and the package's line count."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy

import bplm

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


def test_header_names_the_blas_setup(tmp_path):
    # the suite's conftest.py, run from a copy so only its test is collected
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    (tmp_path / "conftest.py").write_text(conftest)
    (tmp_path / "test_nothing.py").write_text("def test_ok():\n    pass\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="3")
    env.pop("OMP_NUM_THREADS", None)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_nothing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, env=env)
    out = run.stdout + run.stderr
    assert run.returncode == 0, out
    header = re.search(r"^bplm: numpy (\S+), (.*), cpu_count=(\S+), "
                       r"openblas_threads=(\S+)$", out, re.M)
    assert header, out
    assert header[1] == numpy.__version__
    # a variable the caller set is shown as set, an unset one as conftest
    # sets it
    assert header[2] == ("OPENBLAS_NUM_THREADS=3, OMP_NUM_THREADS=1, "
                         f"MKL_NUM_THREADS={env.get('MKL_NUM_THREADS', '1')}")
    assert header[3] == str(os.cpu_count())
    # the count OpenBLAS itself reports: the one the caller set
    assert header[4] == ("unknown" if bplm._OPENBLAS is None else "3")
    # the package's size, as the shell counts it
    wc = subprocess.run("cat src/bplm/*.py | wc -l", shell=True, cwd=ROOT,
                        capture_output=True, text=True, check=True)
    assert re.search(r"^bplm: src/bplm/\*\.py (\d+) lines$", out,
                     re.M)[1] == wc.stdout.strip()
