"""AdamW with decoupled weight decay, global-norm clipping, and the
warmup-stable-decay learning-rate schedule with its one rescaled builder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .tensor import Tensor

BETA1 = 0.9         # AdamW's first-moment decay
BETA2 = 0.95        # and its second-moment decay
ADAM_EPS = 1e-5     # added to the root of the second moment
WEIGHT_DECAY = 0.1  # decoupled, as in AdamW
CLIP_NORM = 1.0     # global L2 norm the gradients are clipped to
ADAMW_CHUNK = 32_768  # elements per pass; five such arrays fit a 2 MiB cache


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

    Warmup uses (step + 1) / warmup_steps so step 0 already trains. Both
    ramps are clamped to the peak, which their rounding can pass by an ulp.
    """
    if not 0 <= step < s.total_steps:
        raise ValueError(f"step {step} outside [0, {s.total_steps})")
    if s.warmup_steps and step < s.warmup_steps:
        return min(s.peak_lr * (step + 1) / s.warmup_steps, s.peak_lr)
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
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.flat: Optional[_FlatLayout] = None  # adamw_step's buffers

    def __getstate__(self):
        # pickle and copy.deepcopy copy each view apart from the copied flat
        # buffers, so a copied flat would update none of them: m and v go
        # as arrays of their own, and the next step rebuilds flat
        return {**self.__dict__, "flat": None}


class _FlatLayout:
    """One flat buffer each for params, m and v, whose views are each
    parameter's .data and its m and v entries; decayed parameters first.
    No field of AdamWState, so neither saved nor carried by replace."""

    def __init__(self, params: Dict[str, Tensor], state: AdamWState):
        # RMSNorm gains (the names holding "norm") never decay
        names = sorted(params, key=lambda name: "norm" in name)
        sizes = [params[name].data.size for name in names]
        self.decayed = sum(size for name, size in zip(names, sizes)
                           if "norm" not in name)
        self.p, self.m, self.v = (np.zeros(sum(sizes)) for _ in range(3))
        self.views, lo = {}, 0
        for name, size in zip(names, sizes):
            p = params[name]
            views = [buf[lo:lo + size].reshape(p.data.shape)
                     for buf in (self.p, self.m, self.v)]
            for view, old in zip(views, (p.data, state.m.get(name),
                                         state.v.get(name))):
                if old is not None:  # moments start at zero
                    view[...] = old
            p.data, state.m[name], state.v[name] = self.views[name] = views
            lo += size

    def holds(self, params: Dict[str, Tensor], state: AdamWState) -> bool:
        """True while params and state's moments are still its views."""
        return len(params) == len(self.views) and all(
            name in params and params[name].data is p
            and state.m.get(name) is m and state.v.get(name) is v
            for name, (p, m, v) in self.views.items())


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
    """One decoupled-weight-decay Adam update, in place; a missing or
    misshapen gradient raises before anything changes."""
    for name, p in params.items():
        if grads.get(name) is None:
            raise ValueError(f"missing gradient for {name}")
        if grads[name].shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    flat = state.flat
    if flat is None or not flat.holds(params, state):
        flat = state.flat = _FlatLayout(params, state)
    state.step_count += 1
    bc1 = 1.0 - BETA1 ** state.step_count
    bc2 = 1.0 - BETA2 ** state.step_count
    grad = np.concatenate([grads[name] for name in flat.views],
                          axis=None, dtype=np.float64)
    scratch = np.empty(min(grad.size, ADAMW_CHUNK))
    # per element, in this order: m = b1*m + (1-b1)*g, v = b2*v +
    # ((1-b2)*g)*g, p = p - (lr*(m/bc1) / (sqrt(v/bc2) + eps) + (lr*wd)*p)
    for lo in range(0, grad.size, ADAMW_CHUNK):
        p, m, v, g = (a[lo:lo + ADAMW_CHUNK]
                      for a in (flat.p, flat.m, flat.v, grad))
        s = scratch[:g.size]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, bc1, out=g)
        g *= lr
        g /= s  # the update
        d = max(flat.decayed - lo, 0)  # the chunk's decayed entries
        g[:d] += np.multiply(p[:d], lr * WEIGHT_DECAY, out=s[:d])
        p -= g
