"""Straightforward reference versions of code that src/bplm runs in an
optimized form, kept so tests can require the fast path to give the same
bits, and the ops and finite-difference check only tests use."""

from typing import Callable

import numpy as np

from bplm import tensor as T
from bplm.optim import ADAM_EPS, BETA1, BETA2, WEIGHT_DECAY, AdamWState
from bplm.tensor import Tape, Tensor, backward


def adamw_step(params, grads, state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay Adam update, parameter by parameter: each
    moment is updated in place and each .data replaced by a new array."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros(p.data.shape)
            state.v[name] = np.zeros(p.data.shape)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)
    return T._record(out, (a, b), lambda g: (g * b.data, g * a.data))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return T._record(out, (a,), lambda g: (np.full_like(a.data, float(g)),))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the tape gradient of f at x and central
    finite differences, with denominator max(|a|, |b|, 1e-8).

    f must return a scalar Tensor computed from its argument alone.
    """
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must lie in (0, 1e-3]")
    x.zero_grad()
    with Tape() as tape:
        loss = f(x)
    backward(loss, tape)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(Tensor(x.data)).item()
        flat[i] = orig - eps
        fm = f(Tensor(x.data)).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
