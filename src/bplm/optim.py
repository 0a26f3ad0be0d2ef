"""AdamW with decoupled weight decay, global-norm clipping, and the
warmup-stable-decay learning-rate schedule with its one rescaled builder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .tensor import Tensor

WEIGHT_DECAY = 0.1  # decoupled, as in AdamW
CLIP_NORM = 1.0     # global L2 norm the gradients are clipped to


@dataclass(frozen=True)
class WsdSchedule:
    peak_lr: float = 5e-4
    warmup_steps: int = 2000
    total_steps: int = 42_000
    decay_steps: int = 2000

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_steps < 0 or self.decay_steps < 0:
            raise ValueError("warmup_steps and decay_steps must be >= 0")
        if self.warmup_steps + self.decay_steps > self.total_steps:
            raise ValueError("warmup + decay exceed total steps")

    @property
    def decay_start(self) -> int:
        return self.total_steps - self.decay_steps


def wsd_lr(s: WsdSchedule, step: int) -> float:
    """Linear warmup to peak, constant plateau, linear decay to zero.

    Warmup uses (step + 1) / warmup_steps so step 0 already trains.
    """
    if not 0 <= step < s.total_steps:
        raise ValueError(f"step {step} outside [0, {s.total_steps})")
    if s.warmup_steps and step < s.warmup_steps:
        return s.peak_lr * (step + 1) / s.warmup_steps
    if s.decay_steps and step >= s.decay_start:
        return min(max(s.peak_lr * (s.total_steps - step) / s.decay_steps, 0.0),
                   s.peak_lr)
    return s.peak_lr


def rescaled_schedule(peak_lr: float, steps: int,
                      decay_share: float) -> WsdSchedule:
    """A short run's schedule: 10% warmup, then decay over decay_share of
    the steps, clamped to the steps left after warmup (so a 1-step run is
    one warmup step at peak lr, and decay_share 1.0 decays from the end of
    warmup to zero)."""
    warmup = math.ceil(0.10 * steps)
    return WsdSchedule(peak_lr=peak_lr, warmup_steps=warmup, total_steps=steps,
                       decay_steps=min(math.ceil(decay_share * steps),
                                       steps - warmup))


@dataclass
class AdamWState:
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-5
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def moments_for(self, name: str, shape) -> tuple:
        if name not in self.m:
            self.m[name] = np.zeros(shape)
            self.v[name] = np.zeros(shape)
        return self.m[name], self.v[name]


def clip_global_norm(grads: Dict[str, np.ndarray]) -> float:
    """Scale all gradients by CLIP_NORM/g when the global L2 norm g exceeds
    CLIP_NORM. Returns the factor applied; a non-finite g raises."""
    # accumulate in sorted-name order so the result is independent of dict
    # insertion order (keeps resumed runs bit-exact)
    total = math.sqrt(sum(float((grads[k] ** 2).sum())
                          for k in sorted(grads)))
    if not math.isfinite(total):
        raise ValueError(f"non-finite gradient norm {total}")
    if total <= CLIP_NORM:
        return 1.0
    factor = CLIP_NORM / total
    for g in grads.values():
        g *= factor
    return factor


def adamw_step(params: Dict[str, Tensor], grads: Dict[str, np.ndarray],
               state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m, v = state.moments_for(name, p.data.shape)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        # RMSNorm gains (the names holding "norm") never decay
        if "norm" not in name:
            update = update + lr * WEIGHT_DECAY * p.data
        p.data = p.data - update
