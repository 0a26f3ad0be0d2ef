import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads, as bplm does

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bplm.model import ModelConfig, init_params


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
