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
    rows: List[List[int]]
    pad_masks: List[List[bool]]  # True where real token
    plans: Optional[List[MaskingPlan]] = None  # MLM only

    def __post_init__(self):
        if len(self.rows) != len(self.pad_masks):
            raise ValueError("rows/pad_masks length mismatch")
        for r, m in zip(self.rows, self.pad_masks):
            if len(r) != len(m):
                raise ValueError("row/pad mask length mismatch")
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("rows of one batch must share one length")


def select_mask(tokens: Sequence[int], ratio: float, rng: np.random.Generator,
                mask_token_id: int,
                pad_mask: Optional[Sequence[bool]] = None) -> MaskingPlan:
    """Independently select each non-pad position with probability ratio.

    Resamples (at most MASK_ATTEMPTS draws) if nothing was selected, so
    every plan is non-empty.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    tokens = list(tokens)
    if pad_mask is None:
        pad_mask = [True] * len(tokens)
    eligible = np.nonzero(np.asarray(pad_mask, dtype=bool))[0]
    if eligible.size == 0:
        raise ValueError("no non-pad tokens to mask")
    for _ in range(MASK_ATTEMPTS):
        sel = eligible[rng.random(eligible.size) < ratio]
        if sel.size:
            positions = sorted(int(i) for i in sel)
            return MaskingPlan(mask_token_id, positions,
                               [tokens[i] for i in positions])
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
    if not batch.rows:
        raise ValueError("empty batch")
    if objective is Objective.CLM:
        mode = AttentionMode.CAUSAL
        inputs = batch.rows
        targets = _clm_targets(batch.rows, batch.pad_masks)
    else:
        if batch.plans is None or len(batch.plans) != len(batch.rows):
            raise ValueError("MLM batch must carry one masking plan per row")
        mode = AttentionMode.BIDIRECTIONAL
        inputs = [plan.apply(tokens)
                  for plan, tokens in zip(batch.plans, batch.rows)]
        targets = np.stack([_mlm_targets(plan, len(tokens))
                            for plan, tokens in zip(batch.plans, batch.rows)])
    kept = targets != IGNORE_INDEX
    counts = kept.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("empty loss: all positions ignored")
    weights = kept / (counts * len(targets))
    hidden = forward_batch(params, cfg, inputs, mode, batch.pad_masks)
    rows = np.flatnonzero(kept)
    logits = lm_head(params, T.gather_rows(hidden, rows))
    return T.cross_entropy_from_logits(logits, targets.reshape(-1)[rows],
                                       weights.reshape(-1)[rows])
