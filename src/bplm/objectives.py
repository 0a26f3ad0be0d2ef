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
# forward is not called here; benchmark/probes.py wraps bplm.objectives.forward
from .model import (AttentionMode, ModelConfig, Parameters, forward,  # noqa: F401
                    forward_batch, lm_head)
from .tensor import IGNORE_INDEX, Tensor

STUDY_MASK_RATIOS = (0.20, 0.30, 0.40, 0.50)

MASK_ATTEMPTS = 100  # draws select_mask makes before giving up


class Objective(enum.Enum):
    CLM = "clm"
    MLM = "mlm"


@dataclass
class MaskingPlan:
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
    rows: np.ndarray       # [B, T] int64 token ids, pads included
    pad_masks: np.ndarray  # [B, T] bool, True where real token
    plans: Optional[List[MaskingPlan]] = None  # MLM only

    def __post_init__(self):
        # lists of rows are converted; numpy refuses rows of mixed length
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.pad_masks = np.asarray(self.pad_masks, dtype=bool)
        if self.rows.ndim != 2 or self.pad_masks.shape != self.rows.shape:
            raise ValueError("rows and pad_masks must be [B, T] arrays of "
                             "one shape")


def select_mask(tokens: Sequence[int], ratio: float, rng: np.random.Generator,
                mask_token_id: int,
                pad_mask: Optional[Sequence[bool]] = None) -> MaskingPlan:
    """Independently select each non-pad position with probability ratio.

    Resamples (at most MASK_ATTEMPTS draws) if nothing was selected, so
    every plan is non-empty.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    tokens = np.asarray(tokens)
    eligible = (np.arange(len(tokens)) if pad_mask is None
                else np.flatnonzero(np.asarray(pad_mask, dtype=bool)))
    if eligible.size == 0:
        raise ValueError("no non-pad tokens to mask")
    for _ in range(MASK_ATTEMPTS):
        # eligible is increasing, so sel is too
        sel = eligible[rng.random(eligible.size) < ratio]
        if sel.size:
            return MaskingPlan(mask_token_id, sel.tolist(),
                               tokens[sel].tolist())
    raise RuntimeError(f"no positions selected after {MASK_ATTEMPTS} attempts")


def _mlm_targets(plan: MaskingPlan, seq_len: int) -> np.ndarray:
    """Original tokens at the masked positions, IGNORE_INDEX elsewhere."""
    if not plan.masked_positions:
        raise ValueError("empty masking plan")
    targets = np.full(seq_len, IGNORE_INDEX, dtype=np.int64)
    targets[plan.masked_positions] = plan.original_targets
    return targets


def _clm_targets(tokens, pad_mask) -> np.ndarray:
    """Next-token shift along the last axis: position t targets token t+1
    where both are real. tokens is one row [T] or a batch [B, T]."""
    tokens = np.asarray(tokens, dtype=np.int64)
    pad = (np.ones(tokens.shape, dtype=bool) if pad_mask is None
           else np.asarray(pad_mask, dtype=bool))
    if (pad.sum(axis=-1) < 2).any():
        raise ValueError("clm_loss needs at least 2 non-pad tokens")
    targets = np.full(tokens.shape, IGNORE_INDEX, dtype=np.int64)
    targets[..., :-1] = np.where(pad[..., :-1] & pad[..., 1:], tokens[..., 1:],
                                 IGNORE_INDEX)
    return targets


def mlm_loss(logits: Tensor, plan: MaskingPlan) -> Tensor:
    """Mean NLL of the original tokens at masked positions only."""
    return T.cross_entropy_from_logits(
        logits, _mlm_targets(plan, logits.data.shape[0]))


def clm_loss(logits: Tensor, tokens: Sequence[int],
             pad_mask: Optional[Sequence[bool]] = None) -> Tensor:
    """Next-token shift: position t predicts token t+1; pad targets ignored."""
    return T.cross_entropy_from_logits(logits, _clm_targets(tokens, pad_mask))


def pretrain_loss(objective: Objective, params: Parameters, cfg: ModelConfig,
                  batch: LmBatch) -> Tensor:
    """Per-row losses averaged over the batch: the mean over rows of
    clm_loss / mlm_loss, computed as one batched forward, the LM head on the
    positions that have a target only, and one cross-entropy weighted
    1 / (rows * predicted positions in the row)."""
    if not batch.rows.size:
        raise ValueError("empty batch")
    if objective is Objective.CLM:
        mode = AttentionMode.CAUSAL
        inputs = batch.rows
        targets = _clm_targets(batch.rows, batch.pad_masks)
    else:
        if batch.plans is None or len(batch.plans) != len(batch.rows):
            raise ValueError("MLM batch must carry one masking plan per row")
        mode = AttentionMode.BIDIRECTIONAL
        inputs = batch.rows.copy()
        for i, (row, real, plan) in enumerate(zip(inputs, batch.pad_masks,
                                                  batch.plans)):
            if not set(plan.masked_positions) <= set(np.flatnonzero(real)):
                raise ValueError(f"row {i}: masking plan selects a pad or a "
                                 "position outside the row")
            row[plan.masked_positions] = plan.mask_token_id
        targets = np.stack([_mlm_targets(plan, inputs.shape[1])
                            for plan in batch.plans])
    kept = targets != IGNORE_INDEX
    counts = kept.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("empty loss: all positions ignored")
    weights = kept / (counts * len(targets))
    hidden = forward_batch(params, cfg, inputs, mode, batch.pad_masks)
    logits = lm_head(params, T.gather_rows(
        hidden, np.flatnonzero(kept[batch.pad_masks])))
    return T.cross_entropy_from_logits(logits, targets[kept], weights[kept])
