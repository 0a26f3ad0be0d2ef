"""Minimal reverse-mode autodiff engine on dense float64 numpy arrays.

Every operation the model and losses need is a free function that computes
the forward value eagerly and, when a Tape is active and an input requires
grad, records a backward rule on the tape. Backward rules are hand-written
and checked against central finite differences (tests/reference.py).
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

NEG_INF = -1e30  # finite stand-in for -inf in masked attention logits
IGNORE_INDEX = -100  # cross-entropy target of a position with no loss
NORMALIZE_EPS = 1e-12  # keeps l2_normalize_rows finite on a zero row


class Tensor:
    """Dense row-major float64 tensor. Op outputs are treated as immutable;
    the optimizer updates parameters' .data in place, after backward."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor],
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Records ops in execution (hence topological) order.

    Use as a context manager around the forward pass; one backward() per
    tape, after which it must be discarded.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(Node(out, inputs, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate .grad on every requires_grad tensor reachable from loss.

    The tape may be walked once; a second call raises.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    if not any(n.output is loss for n in tape.nodes):
        raise ValueError("loss is not recorded on this tape (detached?)")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            grads[key] = grads[key] + g if key in grads else g
    # whatever was never popped belongs to leaves (tensors no node produced)
    for node in tape.nodes:
        for t in node.inputs:
            if id(t) in grads:
                g = grads.pop(id(t))
                t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def add_const(a: Tensor, const: np.ndarray) -> Tensor:
    """Add a non-differentiable constant (attention masks)."""
    out = Tensor(a.data + const)
    return _record(out, (a,), lambda g: (g,))


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())
    return _record(out, (a,), lambda g: (g.T.copy(),))


def reshape(a: Tensor, *shape: int) -> Tensor:
    """The same values in row-major order under a new shape."""
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    out = Tensor(a.data[:, lo:hi].copy())

    def bw(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        return (full,)

    return _record(out, (a,), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.data.shape[1] for p in parts]

    def bw(g):
        grads = []
        at = 0
        for w in widths:
            grads.append(g[:, at:at + w])
            at += w
        return grads

    return _record(out, tuple(parts), bw)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a matrix, one per row."""
    out = Tensor(np.stack([p.data for p in parts], axis=0))

    def bw(g):
        return [g[i] for i in range(len(parts))]

    return _record(out, tuple(parts), bw)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError("row index out of range")
    out = Tensor(table.data[idx].copy())

    def bw(g):
        full = np.zeros_like(table.data)
        flat = idx.ravel()
        if (flat[1:] > flat[:-1]).all():  # strictly increasing, so distinct
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        return (full,)

    return _record(out, (table,), bw)


def scatter_rows(x: Tensor, ids: Sequence[int], n_rows: int) -> Tensor:
    """The inverse of gather_rows: an [n_rows, d] matrix holding row i of x
    at row ids[i] and zeros elsewhere. ids must be distinct."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.shape != (x.data.shape[0],):
        raise ValueError("scatter_rows expects one row index per row of x")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ValueError("row index out of range")
    if not (idx[1:] > idx[:-1]).all() and np.unique(idx).size != idx.size:
        raise ValueError("scatter_rows: repeated row index")
    data = np.zeros((n_rows,) + x.data.shape[1:])
    data[idx] = x.data
    return _record(Tensor(data), (x,), lambda g: (g[idx],))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"invalid softmax axis {axis} for shape {x.data.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (x,), bw)


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """y = weight * x / sqrt(mean(x^2, last axis) + eps)."""
    if x.data.shape[-1] != weight.data.shape[-1] or weight.data.ndim != 1:
        raise ValueError("rms_norm dimension mismatch")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    d = x.data.shape[-1]
    ms = (x.data ** 2).mean(axis=-1, keepdims=True)
    r = np.sqrt(ms + eps)
    xn = x.data / r
    out = Tensor(xn * weight.data)

    def bw(g):
        gw = g * weight.data
        # d/dx of x/r with r = sqrt(mean(x^2)+eps)
        dot = (gw * x.data).sum(axis=-1, keepdims=True)
        dx = gw / r - x.data * dot / (d * r ** 3)
        dweight = (g * xn).reshape(-1, d).sum(axis=0)
        return dx, dweight

    return _record(out, (x, weight), bw)


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """silu(gate) * up, elementwise."""
    if gate.data.shape != up.data.shape:
        raise ValueError("swiglu shape mismatch")
    sig = 1.0 / (1.0 + np.exp(-gate.data))
    silu = gate.data * sig
    out = Tensor(silu * up.data)

    def bw(g):
        dsilu = sig * (1.0 + gate.data * (1.0 - sig))
        return g * up.data * dsilu, g * silu

    return _record(out, (gate, up), bw)


def _rope_rotations(positions, head_dim: int, theta: float) -> np.ndarray:
    """e^{i*pos*theta**(-2i/head_dim)}, complex128, one row per position and
    one column per coordinate pair i."""
    freqs = theta ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    rot = np.empty(ang.shape, dtype=np.complex128)
    rot.real, rot.imag = np.cos(ang), np.sin(ang)
    return rot


@functools.lru_cache(maxsize=64)
def _rope_table(seq_len: int, head_dim: int, theta: float, heads: int):
    """_rope_rotations for positions 0..seq_len-1 repeated for each of heads
    heads side by side, [seq_len, heads*head_dim/2]; built once, read-only."""
    rot = np.tile(_rope_rotations(np.arange(seq_len), head_dim, theta),
                  (1, heads))
    rot.setflags(write=False)
    return rot


def _rope_rotate(arr: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate coordinate pairs (2i, 2i+1) of the last axis, read as complex
    numbers 2i + i*(2i+1), by multiplying them with rot, which broadcasts
    against arr[..., 0::2]. Passing rot.conj() undoes the rotation."""
    pairs = np.ascontiguousarray(arr).view(np.complex128)
    return (pairs * rot).view(np.float64)


def rope_apply(x: Tensor, positions: Sequence[int], theta: float) -> Tensor:
    """Rotate coordinate pairs (2i, 2i+1) of the last axis by
    pos * theta**(-2i/head_dim). Works on [T, hd] or [T, h, hd]."""
    hd = x.data.shape[-1]
    if hd % 2 != 0:
        raise ValueError("rope requires an even head dimension")
    if len(positions) != x.data.shape[0]:
        raise ValueError("positions length must match sequence length")
    # broadcast over any middle axes
    bshape = (x.data.shape[0],) + (1,) * (x.data.ndim - 2) + (hd // 2,)
    rot = _rope_rotations(positions, hd, theta).reshape(bshape)
    out = Tensor(_rope_rotate(x.data, rot))
    return _record(out, (x,), lambda g: (_rope_rotate(g, rot.conj()),))


@functools.lru_cache(maxsize=64)
def _causal_mask(seq_len: int, group: int):
    """Additive [L, group*L] score mask, keys down and group blocks of L
    queries across: NEG_INF at keys after the query."""
    mask = np.tile(np.where(np.tri(seq_len, dtype=bool).T, 0.0, NEG_INF),
                   (1, group))
    mask.setflags(write=False)
    return mask


def gqa_attention(q: Tensor, k: Tensor, v: Tensor, pad, causal: bool,
                  heads: int, kv_heads: int, theta: float) -> Tensor:
    """Grouped-query scaled dot-product attention with RoPE over B rows of T
    positions, given the [B, T] real-token mask pad (True where real).

    q is [N, heads*hd] and k and v are [N, kv_heads*hd], one row for each
    of the N real positions, row after row. A query attends the real keys
    of its row, and with causal only those at or before it. Queries and
    keys are rotated by their position 0..T-1 within the row; query head h
    reads key/value group h // (heads / kv_heads). Returns the head outputs
    side by side, [N, heads*hd].
    """
    pad = np.asarray(pad, dtype=bool)
    if pad.ndim != 2:
        raise ValueError(f"attention: pad must be [B, T], got {pad.shape}")
    if not pad.any(axis=1).all():
        raise ValueError("attention: all positions padded")
    if heads % kv_heads != 0 or q.data.shape[1] % heads != 0:
        raise ValueError("heads must divide the query width and be a "
                         "multiple of kv_heads")
    hd = q.data.shape[1] // heads
    if hd % 2 != 0:
        raise ValueError("rope requires an even head dimension")
    n = int(pad.sum())
    kv_shape = (n, kv_heads * hd)
    if q.data.shape[0] != n or k.data.shape != kv_shape \
            or v.data.shape != kv_shape:
        raise ValueError(f"attention shape mismatch: q {q.data.shape}, "
                         f"k {k.data.shape}, v {v.data.shape}, "
                         f"{n} real positions")
    runs, lo = [], 0  # (first packed row, G rows, real length L) per run
    for length, rows in itertools.groupby(pad.sum(axis=1).tolist()):
        runs.append((lo, len(list(rows)), length))
        lo += runs[-1][1] * length

    group = heads // kv_heads
    scale = 1.0 / np.sqrt(hd)
    # a column per (head, pair): one rotation spans all heads, k's first ones
    rot = _rope_table(pad.shape[1], hd, theta, heads)
    lead = pad.shape  # unpadded rows read the table as is
    if not pad.all():  # else each real position reads its column's row
        lead, rot = (n,), rot[np.nonzero(pad)[1]]

    def rotate(a, r):  # packed rows [N, width], by position
        w = a.shape[1] // 2
        return _rope_rotate(a.reshape(*lead, 2 * w),
                            r[..., :w]).reshape(a.shape)

    def split(a, lo, G, L, width):  # packed rows -> [G*kv, width*L, hd]
        return (a[lo:lo + G * L].reshape(G, L, kv_heads, width, hd)
                .transpose(0, 2, 3, 1, 4).reshape(G * kv_heads, width * L, hd))

    def put(dst, a, lo, G, L, width):  # split's inverse, into dst's rows
        dst[lo:lo + G * L].reshape(G, L, kv_heads, width, hd)[...] = (
            a.reshape(G, kv_heads, width, L, hd).transpose(0, 3, 1, 2, 4))

    # The query heads of one kv group sit side by side, so each (row, group)
    # is one [L, hd] x [hd, group*L] product and KV is never copied per head.
    # Scores are [G*kv, Lk, group*Lq] blocks with keys on axis 1, the
    # transpose of the usual layout, where numpy reduces fastest.
    qr = rotate(q.data, rot) * scale
    kr = rotate(k.data, rot)
    out, saved = np.empty(q.data.shape), []
    for run in runs:
        lo, G, L = run
        qt = (qr[lo:lo + G * L].reshape(G, L, kv_heads, group, hd)
              .transpose(0, 2, 4, 3, 1).reshape(G * kv_heads, hd, group * L))
        kt, vt = split(kr, *run, 1), split(v.data, *run, 1)
        wt = kt @ qt  # softmax in place on the product: a reshape may copy
        if causal:
            wt += _causal_mask(L, group)
        wt -= wt.max(axis=1, keepdims=True)
        np.exp(wt, out=wt)
        wt /= wt.sum(axis=1, keepdims=True)
        put(out, wt.transpose(0, 2, 1) @ vt, *run, group)
        saved.append((run, qt, kt, vt, wt))

    def bw(g):
        gq, gk, gv = np.empty(g.shape), np.empty(kv_shape), np.empty(kv_shape)
        for run, qt, kt, vt, wt in saved:
            go = split(g, *run, group)
            gw = vt @ go.transpose(0, 2, 1)
            gs = wt * (gw - (gw * wt).sum(axis=1, keepdims=True))
            put(gq, gs.transpose(0, 2, 1) @ kt, *run, group)
            put(gk, gs @ qt.transpose(0, 2, 1), *run, 1)
            put(gv, wt @ go, *run, 1)
        back = rot.conj()
        return rotate(gq * scale, back), rotate(gk, back), gv

    return _record(Tensor(out), (q, k, v), bw)


def cross_entropy_from_logits(logits: Tensor, targets: Sequence[int],
                              weights: Optional[Sequence[float]] = None) -> Tensor:
    """Mean of -log softmax(logits)[target] over the positions whose target
    is not IGNORE_INDEX, or, given per-position weights, their weighted sum
    over those positions."""
    tgt = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or tgt.shape[0] != logits.data.shape[0]:
        raise ValueError("cross_entropy expects [n, V] logits and n targets")
    keep = tgt != IGNORE_INDEX
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise ValueError("empty loss: all positions ignored")
    V = logits.data.shape[1]
    if tgt[keep].min() < 0 or tgt[keep].max() >= V:
        raise ValueError("target class out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.nonzero(keep)[0]
    if weights is None:
        w = np.full(n_kept, 1.0 / n_kept)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != tgt.shape:
            raise ValueError("cross_entropy expects one weight per target")
        w = w[rows]
    out = Tensor(-(w * logp[rows, tgt[rows]]).sum())

    def bw(g):
        row_scale = np.zeros(tgt.shape)  # ignored rows' grad stays +0.0
        row_scale[rows] = w * float(g)
        grad = np.exp(logp)
        grad[rows, tgt[rows]] -= 1.0
        grad *= row_scale[:, None]
        return (grad,)

    return _record(out, (logits,), bw)


def mean_pool(hidden: Tensor, keep_mask) -> Tensor:
    """Per-row mean of the kept positions: hidden is B rows of W positions
    laid out row after row, [B*W, d], keep_mask is [B, W] (True where
    kept), and the result is [B, d]."""
    mask = np.asarray(keep_mask, dtype=bool)
    if mask.ndim != 2 or mask.size != hidden.data.shape[0]:
        raise ValueError("keep_mask must be [B, W] with B*W = rows of hidden")
    counts = mask.sum(axis=1)[:, None]
    if not counts.all():
        raise ValueError("mean_pool: no positions kept")
    rows, width = mask.shape
    keep = mask[:, :, None]
    kept = np.where(keep, hidden.data.reshape(rows, width, -1), 0.0)
    out = Tensor(kept.sum(axis=1) / counts)

    def bw(g):
        grad = np.where(keep, (g / counts)[:, None, :], 0.0)
        return (grad.reshape(hidden.data.shape),)

    return _record(out, (hidden,), bw)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm (cosine-similarity prep)."""
    r = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True) + NORMALIZE_EPS)
    y = x.data / r
    out = Tensor(y)

    def bw(g):
        dot = (g * x.data).sum(axis=-1, keepdims=True)
        return (g / r - x.data * dot / r ** 3,)

    return _record(out, (x,), bw)
