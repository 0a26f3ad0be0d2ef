"""CLM and MLM training objectives plus the masking machinery.

CLM predicts the next token under a causal mask on the clean sequence.
MLM corrupts a random subset of positions with a placeholder token
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
from .tensor import Tensor

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
    seqs: List[np.ndarray]  # B int64 token sequences, each of any length
    plans: Optional[List[MaskingPlan]] = None  # MLM only

    def __post_init__(self):
        # int64 arrays pass through uncopied; lists are converted
        self.seqs = [np.asarray(s, dtype=np.int64) for s in self.seqs]
        if any(s.ndim != 1 for s in self.seqs):
            raise ValueError("each sequence must be a 1-D token array")
        self.lengths = np.array([s.size for s in self.seqs], dtype=np.int64)

    @property
    def pad_masks(self) -> np.ndarray:
        """[B, T] bool, True at each row's real tokens when right-padded to
        the longest; read only by benchmark/workloads.py."""
        return np.arange(self.lengths.max(initial=0)) < self.lengths[:, None]


def select_mask(tokens: Sequence[int], ratio: float, rng: np.random.Generator,
                mask_token_id: int) -> MaskingPlan:
    """Independently select each position with probability ratio.

    Resamples (at most MASK_ATTEMPTS draws) if nothing was selected, so
    every plan is non-empty.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    tokens = np.asarray(tokens)
    if tokens.size == 0:
        raise ValueError("no tokens to mask")
    for _ in range(MASK_ATTEMPTS):
        sel = np.flatnonzero(rng.random(tokens.size) < ratio)
        if sel.size:
            return MaskingPlan(mask_token_id, sel.tolist(),
                               tokens[sel].tolist())
    raise RuntimeError(f"no positions selected after {MASK_ATTEMPTS} attempts")


def _clm_targets(tokens: Sequence[int], lengths: Sequence[int]):
    """(positions, targets) of the next-token shift over tokens, sequences
    of the given lengths one after another: every position but each
    sequence's last, and the token after it."""
    if min(lengths) < 2:
        raise ValueError("clm_loss needs at least 2 tokens in each sequence")
    positions = np.delete(np.arange(len(tokens)), np.cumsum(lengths) - 1)
    return positions, np.asarray(tokens, dtype=np.int64)[positions + 1]


def _mlm_targets(plans: Sequence[MaskingPlan], lengths: Sequence[int]):
    """(positions, targets) of the plans of sequences of the given lengths
    laid one after another: each plan's masked positions, offset by its
    sequence's start, and their original tokens. A plan's positions must be
    strictly increasing and lie in [0, length) of its sequence."""
    counts = np.array([len(p.masked_positions) for p in plans])
    if not counts.all():
        raise ValueError("empty masking plan")
    positions = np.concatenate([p.masked_positions for p in plans])
    lengths = np.asarray(lengths, dtype=np.int64)
    seq = np.repeat(np.arange(len(plans)), counts)
    bad = (positions < 0) | (positions >= lengths[seq])
    bad[1:] |= (positions[1:] <= positions[:-1]) & (seq[1:] == seq[:-1])
    if bad.any():
        i = seq[bad.argmax()]
        raise ValueError(f"row {i}: masking plan positions must be strictly "
                         f"increasing and in [0, {lengths[i]})")
    return (positions + (np.cumsum(lengths) - lengths)[seq],
            np.concatenate([p.original_targets for p in plans]))


def mlm_loss(logits: Tensor, plan: MaskingPlan) -> Tensor:
    """Mean NLL of the original tokens at masked positions only."""
    positions, targets = _mlm_targets([plan], [logits.data.shape[0]])
    return T.cross_entropy_from_logits(T.gather_rows(logits, positions),
                                       targets)


def clm_loss(logits: Tensor, tokens: Sequence[int]) -> Tensor:
    """Next-token shift: position t predicts token t+1."""
    if logits.data.shape[0] != len(tokens):
        raise ValueError("clm_loss expects one row of logits per token")
    positions, targets = _clm_targets(tokens, [len(tokens)])
    return T.cross_entropy_from_logits(T.gather_rows(logits, positions),
                                       targets)


def pretrain_loss(objective: Objective, params: Parameters, cfg: ModelConfig,
                  batch: LmBatch) -> Tensor:
    """Per-row losses averaged over the batch: the mean over rows of
    clm_loss / mlm_loss, computed as one batched forward of the rows' real
    tokens, the LM head on the positions that have a target only, and one
    cross-entropy weighted 1 / (rows * predicted positions in the row).
    CLM gathers its positions from the whole final hidden states; MLM passes
    its masked positions to forward_batch as rows, so the last block's
    queries, FFN and final norm run on them alone."""
    rows = len(batch.lengths)
    if not rows:
        raise ValueError("empty batch")
    tokens = np.concatenate(batch.seqs)  # the real tokens, row after row
    ends = np.cumsum(batch.lengths)
    if objective is Objective.CLM:
        mode = AttentionMode.CAUSAL
        positions, targets = _clm_targets(tokens, batch.lengths)
    else:
        if batch.plans is None or len(batch.plans) != rows:
            raise ValueError("MLM batch must carry one masking plan per row")
        mode = AttentionMode.BIDIRECTIONAL
        positions, targets = _mlm_targets(batch.plans, batch.lengths)
    row = np.searchsorted(ends, positions, side="right")
    if objective is Objective.MLM:
        tokens[positions] = np.array(
            [p.mask_token_id for p in batch.plans])[row]
    weights = 1.0 / (np.bincount(row, minlength=rows) * rows)
    seqs = np.split(tokens, ends[:-1])
    if objective is Objective.CLM:  # all but one row per sequence
        hidden = T.gather_rows(forward_batch(params, cfg, seqs, mode),
                               positions)
    else:
        hidden = forward_batch(params, cfg, seqs, mode, positions)
    logits = lm_head(params, hidden)
    return T.cross_entropy_from_logits(logits, targets, weights[row])
