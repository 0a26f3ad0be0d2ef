"""Desk-scale deterministic study machinery for causal vs masked language
model pretraining: a small float64 autodiff engine, a RoPE/GQA transformer,
CLM/MLM/biphasic/CPT pretraining regimes with bit-exact checkpoints, and a
grid-search fine-tuning and evaluation harness."""

import os
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread; before numpy loads

from .model import AttentionMode, ModelConfig, init_params, forward, forward_batch
from .objectives import LmBatch, MaskingPlan, Objective
from .optim import AdamWState, WsdSchedule, rescaled_schedule, wsd_lr
from .runner import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from .tensor import Tape, Tensor, backward, grad_check

__version__ = "0.1.0"

__all__ = [
    "AttentionMode", "ModelConfig", "init_params", "forward", "forward_batch",
    "LmBatch", "MaskingPlan", "Objective",
    "AdamWState", "WsdSchedule", "rescaled_schedule", "wsd_lr",
    "Checkpoint", "TrainConfig", "load_checkpoint", "save_checkpoint",
    "Tape", "Tensor", "backward", "grad_check",
    "__version__",
]
