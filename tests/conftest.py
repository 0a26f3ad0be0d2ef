import os
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads, as bplm does

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bplm
from bplm.model import ModelConfig, init_params


def pytest_report_header(config):
    """The BLAS setup the suite ran under: reruns give the same bytes only
    at one BLAS thread count. openblas_threads is the count OpenBLAS
    reports, or unknown where bplm found no OpenBLAS to ask. Then the size
    of the package under test, the count `cat src/bplm/*.py | wc -l`
    gives."""
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    count = "unknown" if bplm._OPENBLAS is None \
        else bplm._OPENBLAS.scipy_openblas_get_num_threads64_()
    lines = sum(path.read_bytes().count(b"\n")
                for path in Path(bplm.__file__).parent.glob("*.py"))
    return [f"bplm: numpy {np.__version__}, {threads}, "
            f"cpu_count={os.cpu_count()}, openblas_threads={count}",
            f"bplm: src/bplm/*.py {lines} lines"]


@pytest.fixture
def tiny_cfg():
    """2-layer toy config used for gradient and causality checks."""
    return ModelConfig(layers=2, embed_dim=16, ffn_dim=32, heads=4,
                       kv_heads=2, vocab_size=11, max_seq_len=16)


@pytest.fixture
def tiny_params(tiny_cfg):
    return init_params(tiny_cfg, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
