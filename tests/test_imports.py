"""No module in src/bplm or tests imports a name it never uses, every
top-level name in src/bplm is read somewhere in src/bplm, tests or
benchmark, every name the benchmark's probes wrap still exists, and
importing bplm pins BLAS whether or not numpy was imported first."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bplm.data
import bplm.finetune
import bplm.model
import bplm.objectives
import bplm.runner
import bplm.tensor
from bplm.data import gen_task_data
from bplm.model import ModelConfig, init_params
from bplm.optim import AdamWState, WsdSchedule

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "bplm").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
READERS = MODULES + sorted((ROOT / "benchmark").glob("*.py"))
DEAD_NAME_EXEMPT = {"__all__", "__version__", "main"}


def unused_imports(source: str):
    """Names a module imports and never reads, leaving out those listed in
    its __all__ and those on a line marked # noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
              for path in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_checker_sees_unused_and_exempt_names():
    source = ("import os\nimport json  # noqa: F401\n"
              "from typing import List, Dict\n"
              "__all__ = ['Dict']\nx: List = []\n")
    assert unused_imports(source) == ["os (line 1)"]


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def defined_names(source: str):
    """Names a module binds at its top level by def, class or assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def read_names(source: str) -> set:
    """Names a module reads: as a variable, as an attribute, or as a string
    (getattr, monkeypatch and the benchmark's probes look names up so); an
    __all__ listing is not a read."""
    read = set()
    for top in ast.parse(source).body:
        if _is_all(top):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_no_dead_top_level_names():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    dead = [f"{path.name}: {name}" for path in SRC
            for name in defined_names(path.read_text())
            if name not in read | DEAD_NAME_EXEMPT]
    assert dead == []


def test_dead_name_checker_sees_reads():
    source = ("import os\nA = 1\nB: int = 2\nC = D = 3\n"
              "def f():\n    return B\nclass K:\n    pass\n"
              "__all__ = ['A', 'K']\nos.C\ngetattr(os, 'D')\n")
    assert list(defined_names(source)) \
        == ["A", "B", "C", "D", "f", "K", "__all__"]
    assert {"A", "K", "f"} & read_names(source) == set()
    assert {"B", "C", "D"} <= read_names(source)


class _Calibration:
    def tick(self):
        pass


def test_benchmark_probes_find_every_name(monkeypatch):
    # benchmark/probes.py looks bplm names up only when a probe is
    # installed, so a rename in src would otherwise break only a traced run
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    workloads = importlib.import_module("workloads")  # imports probes too
    probes = importlib.import_module("probes")
    owners = (bplm.data, bplm.data.BatchStream, bplm.finetune, bplm.model,
              bplm.objectives, bplm.runner, bplm.tensor)
    before = [(owner, name, value) for owner in owners
              for name, value in vars(owner).items()
              if not name.startswith("__")]
    save = bplm.runner.save_checkpoint
    try:
        with probes.Tracer(), workloads.StepClock(_Calibration()):
            assert bplm.runner.save_checkpoint is not save  # wrapped
    finally:
        moved = []
        for owner, name, original in before:
            if getattr(owner, name) is not original:
                moved.append(f"{owner.__name__}.{name}")
                setattr(owner, name, original)
    assert moved == []


def test_step_clock_sees_one_loss_and_one_update_per_step(monkeypatch):
    # finetune-grid's step times run from task_loss to adamw_step, so a
    # fine-tuning step must call each exactly once
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    probes = importlib.import_module("probes")
    cfg = ModelConfig(layers=1, embed_dim=16, ffn_dim=32, heads=4,
                      kv_heads=2, vocab_size=64, max_seq_len=32)
    base = bplm.runner.Checkpoint(cfg, init_params(cfg, 0), AdamWState(),
                                  WsdSchedule(1e-3, 0, 1, 0), 1)
    spec = bplm.finetune.GridSearchSpec(max_steps=3, batch_size=4)
    with probes.StepClock(_Calibration()) as clock:
        bplm.finetune.finetune_one(base, gen_task_data("SC", 30, 0), 1e-3, 0,
                                   spec)
    assert len(clock.steps) == len(clock.losses) == 3
    assert all(end > start for start, end in clock.steps)


# numpy first, then bplm; the count is read from numpy's bundled OpenBLAS
# here, not through bplm, so a bplm that finds no OpenBLAS cannot pass
NUMPY_FIRST = """
import ctypes, glob, os
import numpy
import bplm
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    numpy.__file__)), "numpy.libs", "libscipy_openblas64_*.so"))
lib = ctypes.CDLL(libs[0]) if libs else None
print(lib.scipy_openblas_get_num_threads64_()
      if hasattr(lib, "scipy_openblas_get_num_threads64_") else "missing")
"""


@pytest.mark.parametrize("value, threads", [(None, "1"), ("2", "2")],
                         ids=["unset", "two"])
def test_blas_pin_holds_when_numpy_is_imported_first(value, threads):
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    env["PYTHONPATH"] = str(ROOT / "src")
    run = subprocess.run([sys.executable, "-c", NUMPY_FIRST], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "missing":
        pytest.skip("numpy bundles no OpenBLAS with "
                    "scipy_openblas_get_num_threads64_")
    assert run.stdout.strip() == threads
