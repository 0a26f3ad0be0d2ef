"""Straightforward reference versions of code that src/bplm runs in an
optimized form, kept so tests can require the fast path to give the same
bits."""

import numpy as np

from bplm.optim import WEIGHT_DECAY, AdamWState


def adamw_step(params, grads, state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay Adam update, parameter by parameter: each
    moment is updated in place and each .data replaced by a new array. A
    parameter with no gradient takes a zero one."""
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
        if name not in state.m:
            state.m[name] = np.zeros(p.data.shape)
            state.v[name] = np.zeros(p.data.shape)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        # RMSNorm gains (the names holding "norm") never decay
        if "norm" not in name:
            update = update + lr * WEIGHT_DECAY * p.data
        p.data = p.data - update


def rope_rotate(arr, cos, sin):
    """Rotate coordinate pairs (2i, 2i+1) of the last axis by the real
    formula (even*cos - odd*sin, even*sin + odd*cos); cos and sin broadcast
    against arr[..., 0::2]. Passing -sin undoes the rotation."""
    even = arr[..., 0::2]
    odd = arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out
