"""Desk-scale deterministic study machinery for causal vs masked language
model pretraining: a small float64 autodiff engine, a RoPE/GQA transformer,
CLM/MLM/biphasic/CPT pretraining regimes with bit-exact checkpoints, and a
grid-search fine-tuning and evaluation harness."""

import ctypes
import glob
import os
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread; before numpy loads

import numpy as np  # noqa: E402


def _openblas():
    """numpy's bundled OpenBLAS through ctypes, its thread-count calls (and
    its core-name and config calls, where it exports them) typed, or None
    where the wheel bundles none that exports the thread-count calls."""
    for path in glob.glob(os.path.join(
            os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
            "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)  # numpy's own copy, already loaded
        try:
            put = lib.scipy_openblas_set_num_threads64_
            get = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        put.argtypes, put.restype = [ctypes.c_int], None
        get.argtypes, get.restype = [], ctypes.c_int
        for name in ("corename", "config"):
            text = getattr(lib, f"scipy_openblas_get_{name}64_", None)
            if text is not None:
                text.argtypes, text.restype = [], ctypes.c_char_p
        return lib
    return None


def _openblas_core() -> str:
    """The kernel OpenBLAS picked when it loaded (OPENBLAS_CORETYPE picks
    another), such as SkylakeX, or unknown. Matmul sums round per kernel,
    so bit-exact pins hold per kernel."""
    core = getattr(_OPENBLAS, "scipy_openblas_get_corename64_", None)
    return core().decode() if core is not None else "unknown"


def _provenance() -> dict:
    """What a run's bytes depend on beyond its inputs: the numpy version,
    and the OpenBLAS build, the kernel it loaded and its thread count, each
    unknown where bplm found no OpenBLAS to ask."""
    config = getattr(_OPENBLAS, "scipy_openblas_get_config64_", None)
    return {
        "numpy": np.__version__,
        "openblas_config": config().decode() if config else "unknown",
        "openblas_core": _openblas_core(),
        "openblas_threads": "unknown" if _OPENBLAS is None
        else _OPENBLAS.scipy_openblas_get_num_threads64_()}


# BLAS read the variables when numpy loaded, which may have been before
# them; setting the count they name now gives either import order the same
_OPENBLAS = _openblas()
if _OPENBLAS is not None and os.environ["OPENBLAS_NUM_THREADS"].isdigit():
    _OPENBLAS.scipy_openblas_set_num_threads64_(
        int(os.environ["OPENBLAS_NUM_THREADS"]))

from .model import AttentionMode, ModelConfig, init_params, forward, forward_batch
from .objectives import LmBatch, MaskingPlan, Objective
from .optim import AdamWState, WsdSchedule, rescaled_schedule, wsd_lr
from .runner import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "AttentionMode", "ModelConfig", "init_params", "forward", "forward_batch",
    "LmBatch", "MaskingPlan", "Objective",
    "AdamWState", "WsdSchedule", "rescaled_schedule", "wsd_lr",
    "Checkpoint", "TrainConfig", "load_checkpoint", "save_checkpoint",
    "Tape", "Tensor", "backward",
    "__version__",
]
