"""Small pre-norm transformer: RMSNorm, SwiGLU FFN, RoPE, grouped-query
attention, and a runtime-selectable causal or bidirectional attention mask.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import tensor as T
from .tensor import Tensor


class AttentionMode(enum.Enum):
    CAUSAL = "causal"
    BIDIRECTIONAL = "bidirectional"


ROPE_THETA = 10_000.0
RMSNORM_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    embed_dim: int = 64
    ffn_dim: int = 128
    heads: int = 4
    kv_heads: int = 2
    vocab_size: int = 256
    max_seq_len: int = 128

    def __post_init__(self):
        for name, least in (("layers", 0), ("embed_dim", 1), ("ffn_dim", 1),
                            ("heads", 1), ("kv_heads", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, "
                                 f"got {getattr(self, name)}")
        if self.heads % self.kv_heads != 0:
            raise ValueError("heads must be divisible by kv_heads")
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even (RoPE pairs coordinates)")
        if self.max_seq_len < 2 or self.vocab_size < 2:
            raise ValueError("max_seq_len and vocab_size must both be >= 2")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def kv_dim(self) -> int:
        return self.kv_heads * self.head_dim


Parameters = Dict[str, Tensor]


def param_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Canonical parameter names and shapes for a config, in a fixed order.
    The 1-D entries are the RMSNorm gains."""
    d, f = cfg.embed_dim, cfg.ffn_dim
    shapes = {"embed": (cfg.vocab_size, d)}
    for i in range(cfg.layers):
        p = f"layer.{i}"
        shapes.update({
            f"{p}.attn_norm": (d,), f"{p}.attn.wq": (d, d),
            f"{p}.attn.wk": (d, cfg.kv_dim), f"{p}.attn.wv": (d, cfg.kv_dim),
            f"{p}.attn.wo": (d, d),
            f"{p}.ffn_norm": (d,), f"{p}.ffn.w_gate": (d, f),
            f"{p}.ffn.w_up": (d, f), f"{p}.ffn.w_down": (f, d),
        })
    shapes["final_norm"] = (d,)
    shapes["head"] = (d, cfg.vocab_size)
    return shapes


INIT_STD = float(np.sqrt(0.2))


def init_params(cfg: ModelConfig, seed: int) -> Parameters:
    """Weights i.i.d. N(0, INIT_STD^2), drawn in param_shapes order; RMSNorm
    gains start at 1."""
    rng = np.random.default_rng(seed)
    return {name: Tensor(np.ones(shape) if len(shape) == 1
                         else rng.normal(0.0, INIT_STD, size=shape),
                         requires_grad=True)
            for name, shape in param_shapes(cfg).items()}


def attention(hidden: Tensor, params: Parameters, layer: int, cfg: ModelConfig,
              lengths: Sequence[int], mode: AttentionMode) -> Tensor:
    """Grouped-query attention over a block input (already normalized by the
    caller): [N, d] for B sequences of the given lengths, sequence after
    sequence (see T.gqa_attention). Query head i uses key/value group
    floor(i / (heads / kv_heads))."""
    p = f"layer.{layer}.attn"
    q = T.matmul(hidden, params[f"{p}.wq"])
    k = T.matmul(hidden, params[f"{p}.wk"])
    v = T.matmul(hidden, params[f"{p}.wv"])
    heads = T.gqa_attention(q, k, v, lengths, mode is AttentionMode.CAUSAL,
                            cfg.heads, cfg.kv_heads, ROPE_THETA)
    return T.matmul(heads, params[f"{p}.wo"])


def _ffn(hidden: Tensor, params: Parameters, layer: int) -> Tensor:
    p = f"layer.{layer}.ffn"
    gate = T.matmul(hidden, params[f"{p}.w_gate"])
    up = T.matmul(hidden, params[f"{p}.w_up"])
    return T.matmul(T.swiglu(gate, up), params[f"{p}.w_down"])


def forward_batch(params: Parameters, cfg: ModelConfig,
                  seqs: Sequence[Sequence[int]], mode: AttentionMode) -> Tensor:
    """Run the model on B token sequences of any lengths as one residual
    stream, returning the final hidden states [N, d] of their N tokens,
    sequence after sequence."""
    if not len(seqs):
        raise ValueError("empty batch")
    lengths = [len(s) for s in seqs]
    if max(lengths) > cfg.max_seq_len:
        raise ValueError("sequence longer than max_seq_len")
    tokens = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        bad = tokens[(tokens < 0) | (tokens >= cfg.vocab_size)][0]
        raise ValueError(f"token id {bad} out of range for vocab_size "
                         f"{cfg.vocab_size}")

    x = T.gather_rows(params["embed"], tokens)
    for i in range(cfg.layers):
        normed = T.rms_norm(x, params[f"layer.{i}.attn_norm"], RMSNORM_EPS)
        x = T.add(x, attention(normed, params, i, cfg, lengths, mode))
        normed = T.rms_norm(x, params[f"layer.{i}.ffn_norm"], RMSNORM_EPS)
        x = T.add(x, _ffn(normed, params, i))
    return T.rms_norm(x, params["final_norm"], RMSNORM_EPS)


def lm_head(params: Parameters, hidden: Tensor) -> Tensor:
    """Logits [n, V] for n final hidden states [n, d]."""
    return T.matmul(hidden, params["head"])


def forward(params: Parameters, cfg: ModelConfig, tokens: Sequence[int],
            mode: AttentionMode) -> Tuple[Tensor, Tensor]:
    """Run the model on one sequence, returning (final hidden states [T, d],
    logits [T, V])."""
    hidden = forward_batch(params, cfg, [tokens], mode)
    return hidden, lm_head(params, hidden)
