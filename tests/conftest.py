import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads, as bplm does

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bplm import _OPENBLAS
from bplm.model import ModelConfig, init_params


def pytest_report_header(config):
    """The BLAS setup the suite ran under: reruns give the same bytes only
    at one BLAS thread count. openblas_threads is the count OpenBLAS
    reports, or unknown where bplm found no OpenBLAS to ask."""
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    count = "unknown" if _OPENBLAS is None \
        else _OPENBLAS.scipy_openblas_get_num_threads64_()
    return (f"bplm: numpy {np.__version__}, {threads}, "
            f"cpu_count={os.cpu_count()}, openblas_threads={count}")


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
