"""CLM and MLM training objectives plus the masking machinery.

CLM predicts the next token under a causal mask on the clean sequence.
MLM corrupts a random subset of non-pad positions with a placeholder token
and reconstructs the originals under a bidirectional mask. Both losses are
mean-per-predicted-token so values stay comparable across sequence lengths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .model import AttentionMode, ModelConfig, Parameters, forward
from .tensor import Tensor

IGNORE_INDEX = -100

STUDY_MASK_RATIOS = (0.20, 0.30, 0.40, 0.50)


class Objective(enum.Enum):
    CLM = "clm"
    MLM = "mlm"


@dataclass
class MaskingPlan:
    ratio: float
    mask_token_id: int
    masked_positions: List[int]  # sorted
    original_targets: List[int]

    def apply(self, tokens: Sequence[int]) -> List[int]:
        """Return a corrupted copy of tokens per the plan."""
        out = list(tokens)
        for pos in self.masked_positions:
            out[pos] = self.mask_token_id
        return out


@dataclass
class LmBatch:
    rows: List[List[int]]
    pad_masks: List[List[bool]]  # True where real token
    plans: Optional[List[MaskingPlan]] = None  # MLM only

    def __post_init__(self):
        if len(self.rows) != len(self.pad_masks):
            raise ValueError("rows/pad_masks length mismatch")
        for r, m in zip(self.rows, self.pad_masks):
            if len(r) != len(m):
                raise ValueError("row/pad mask length mismatch")


def select_mask(tokens: Sequence[int], ratio: float, rng: np.random.Generator,
                mask_token_id: int,
                pad_mask: Optional[Sequence[bool]] = None,
                max_attempts: int = 100) -> MaskingPlan:
    """Independently select each non-pad position with probability ratio.

    Resamples (bounded) if nothing was selected, so every plan is non-empty.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    tokens = list(tokens)
    if pad_mask is None:
        pad_mask = [True] * len(tokens)
    eligible = np.nonzero(np.asarray(pad_mask, dtype=bool))[0]
    if eligible.size == 0:
        raise ValueError("no non-pad tokens to mask")
    for _ in range(max_attempts):
        sel = eligible[rng.random(eligible.size) < ratio]
        if sel.size:
            positions = sorted(int(i) for i in sel)
            return MaskingPlan(ratio, mask_token_id, positions,
                               [tokens[i] for i in positions])
    raise RuntimeError(f"no positions selected after {max_attempts} attempts")


def mlm_loss(logits: Tensor, plan: MaskingPlan) -> Tensor:
    """Mean NLL of the original tokens at masked positions only."""
    if not plan.masked_positions:
        raise ValueError("empty masking plan")
    seq_len = logits.data.shape[0]
    targets = np.full(seq_len, IGNORE_INDEX, dtype=np.int64)
    for pos, orig in zip(plan.masked_positions, plan.original_targets):
        targets[pos] = orig
    return T.cross_entropy_from_logits(logits, targets, IGNORE_INDEX)


def clm_loss(logits: Tensor, tokens: Sequence[int],
             pad_mask: Optional[Sequence[bool]] = None) -> Tensor:
    """Next-token shift: position t predicts token t+1; pad targets ignored."""
    tokens = list(tokens)
    if pad_mask is None:
        pad_mask = [True] * len(tokens)
    n_real = sum(bool(b) for b in pad_mask)
    if n_real < 2:
        raise ValueError("clm_loss needs at least 2 non-pad tokens")
    seq_len = len(tokens)
    targets = np.full(seq_len, IGNORE_INDEX, dtype=np.int64)
    for t in range(seq_len - 1):
        if pad_mask[t] and pad_mask[t + 1]:
            targets[t] = tokens[t + 1]
    return T.cross_entropy_from_logits(logits, targets, IGNORE_INDEX)


def pretrain_loss(objective: Objective, params: Parameters, cfg: ModelConfig,
                  batch: LmBatch) -> Tensor:
    """Per-row losses averaged over the batch."""
    if not batch.rows:
        raise ValueError("empty batch")
    if objective is Objective.MLM and (batch.plans is None
                                       or len(batch.plans) != len(batch.rows)):
        raise ValueError("MLM batch must carry one masking plan per row")
    per_row = []
    for i, (tokens, pad) in enumerate(zip(batch.rows, batch.pad_masks)):
        if objective is Objective.CLM:
            _, logits = forward(params, cfg, tokens, AttentionMode.CAUSAL, pad)
            per_row.append(clm_loss(logits, tokens, pad))
        else:
            plan = batch.plans[i]
            corrupted = plan.apply(tokens)
            _, logits = forward(params, cfg, corrupted,
                                AttentionMode.BIDIRECTIONAL, pad)
            per_row.append(mlm_loss(logits, plan))
    total = per_row[0]
    for loss in per_row[1:]:
        total = T.add(total, loss)
    return T.scale(total, 1.0 / len(per_row))
