import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplm import tensor as T
from bplm.model import AttentionMode
from bplm.tensor import Tape, Tensor, backward

import reference
from reference import grad_check, mul, sum_all


def t(data, grad=False):
    return Tensor(data, requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, t(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_direct_arithmetic(self):
        # oracle: 1*3 + 2*4 = 11
        out = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zeros(self):
        out = T.matmul(t(np.zeros((2, 3))), t(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_shape_error(self):
        with pytest.raises(ValueError):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(t([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        x = t(rng.normal(size=(5, 7)) * 50)
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5),
                                   atol=1e-12)
        assert (out.data >= 0).all()

    @given(st.floats(min_value=-100, max_value=100),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, c, seed):
        x = np.random.default_rng(seed).normal(size=6)
        a = T.softmax(t(x)).data
        b = T.softmax(t(x + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            T.softmax(t([1.0, 2.0]), axis=3)


class TestRmsNorm:
    def test_constant_vector(self):
        out = T.rms_norm(t([2.0, 2.0, 2.0, 2.0]), t(np.ones(4)), eps=0.0)
        np.testing.assert_allclose(out.data, np.ones(4), atol=1e-12)

    def test_zeros(self):
        out = T.rms_norm(t(np.zeros(4)), t(np.ones(4)), eps=1e-5)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_hand_evaluation(self):
        # mean(x^2) = (9+16)/2 = 12.5
        out = T.rms_norm(t([3.0, 4.0]), t([1.0, 1.0]), eps=0.0)
        np.testing.assert_allclose(
            out.data, [3 / math.sqrt(12.5), 4 / math.sqrt(12.5)], atol=1e-12)


class TestSwiglu:
    def test_zero_gate(self):
        out = T.swiglu(t([0.0, 0.0]), t([5.0, -3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_unit(self):
        out = T.swiglu(t([1.0]), t([1.0]))
        np.testing.assert_allclose(out.data, [1 / (1 + math.exp(-1))],
                                   atol=1e-15)

    def test_asymptote(self):
        out = T.swiglu(t([30.0]), t([1.0]))
        np.testing.assert_allclose(out.data, [30.0], atol=1e-9)


class TestCrossEntropy:
    def test_uniform(self):
        out = T.cross_entropy_from_logits(t(np.zeros((1, 4))), [2])
        assert abs(out.item() - math.log(4)) < 1e-15

    def test_two_way(self):
        out = T.cross_entropy_from_logits(t([[0.0, 0.0]]), [0])
        assert abs(out.item() - math.log(2)) < 1e-15

    def test_masked_mean(self):
        # one ignored row plus one uniform V=4 row -> mean over the kept row
        logits = t(np.vstack([np.full(4, 9.9), np.zeros(4)]))
        out = T.cross_entropy_from_logits(logits, [-100, 1])
        assert abs(out.item() - math.log(4)) < 1e-15

    def test_all_ignored_is_error(self):
        with pytest.raises(ValueError, match="empty loss"):
            T.cross_entropy_from_logits(t(np.zeros((2, 3))), [-100, -100])

    def test_ignored_values_are_irrelevant(self, rng):
        base = rng.normal(size=(3, 5))
        targets = [2, -100, 4]
        x1 = t(base.copy(), grad=True)
        with Tape() as tape:
            l1 = T.cross_entropy_from_logits(x1, targets)
        backward(l1, tape)
        noisy = base.copy()
        noisy[1] = rng.normal(size=5) * 100
        x2 = t(noisy, grad=True)
        with Tape() as tape:
            l2 = T.cross_entropy_from_logits(x2, targets)
        backward(l2, tape)
        assert l1.item() == l2.item()
        np.testing.assert_array_equal(x1.grad, x2.grad)
        np.testing.assert_array_equal(x1.grad[1], np.zeros(5))


class TestMeanPool:
    def test_singleton(self):
        out = T.mean_pool(t([[1.0, 2.0], [9.0, 9.0]]), [[True, False]])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_arithmetic(self):
        out = T.mean_pool(t([[1.0, 0.0], [0.0, 1.0]]), [[True, True]])
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_padding_excluded(self, rng):
        rows = rng.normal(size=(3, 4))
        a = T.mean_pool(t(rows), [[True, True, False]]).data
        rows2 = rows.copy()
        rows2[2] = 1e6
        b = T.mean_pool(t(rows2), [[True, True, False]]).data
        np.testing.assert_array_equal(a, b)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            T.mean_pool(t(np.ones((2, 2))), [[False, False]])

    def test_rows_pool_independently(self, rng):
        # two rows of width 3 with 2 and 3 kept positions: each output row
        # is the mean of its own row's kept positions, exactly as pooled alone
        hidden = rng.normal(size=(6, 4))
        keep = [[True, True, False], [True, True, True]]
        out = T.mean_pool(t(hidden), keep).data
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(
            out[0], T.mean_pool(t(hidden[:3]), [keep[0]]).data[0])
        np.testing.assert_array_equal(
            out[1], T.mean_pool(t(hidden[3:]), [keep[1]]).data[0])
        np.testing.assert_allclose(out[0], hidden[:2].mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(out[1], hidden[3:].mean(axis=0), rtol=1e-15)

    def test_any_empty_row_is_error(self):
        with pytest.raises(ValueError, match="no positions kept"):
            T.mean_pool(t(np.ones((4, 2))), [[True, True], [False, False]])

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="B, W"):
            T.mean_pool(t(np.ones((4, 2))), [True, True, True, True])
        with pytest.raises(ValueError, match="B, W"):
            T.mean_pool(t(np.ones((4, 2))), [[True, True, True]])


class TestScatterRows:
    def test_inverts_gather_rows(self, rng):
        x = rng.normal(size=(3, 4))
        out = T.scatter_rows(t(x), [4, 0, 2], 5).data
        np.testing.assert_array_equal(out[[4, 0, 2]], x)
        np.testing.assert_array_equal(out[[1, 3]], 0.0)
        np.testing.assert_array_equal(
            T.gather_rows(t(out), [4, 0, 2]).data, x)

    @pytest.mark.parametrize("ids", [[0, 1], [0, 1, 5], [0, 1, 1]])
    def test_bad_ids_rejected(self, ids):
        with pytest.raises(ValueError):
            T.scatter_rows(t(np.ones((3, 2))), ids, 5)


class TestGatherRowsBackward:
    @pytest.mark.parametrize("ids", [[1, 4, 5, 9], [4, 1, 4, 9, 9], [3],
                                     [5, 2], []])
    def test_gradient_equals_add_at(self, rng, ids):
        table = t(rng.normal(size=(10, 3)), grad=True)
        g = rng.normal(size=(len(ids), 3))
        with Tape() as tape:
            loss = sum_all(mul(T.gather_rows(table, ids), t(g)))
        backward(loss, tape)
        want = np.zeros((10, 3))
        np.add.at(want, np.asarray(ids, dtype=np.int64), g)
        assert np.array_equal(table.grad, want)


class TestReshape:
    def test_values_and_gradient_keep_row_major_order(self):
        x = t(np.arange(6.0).reshape(3, 2), grad=True)
        with Tape() as tape:
            y = T.reshape(x, 2, 3)
            loss = sum_all(mul(y, t(np.arange(6.0).reshape(2, 3))))
        backward(loss, tape)
        np.testing.assert_array_equal(y.data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_bilinear(self):
        x = t([[1.0, 2.0, 3.0]], grad=True)
        y = t([[4.0], [5.0], [6.0]], grad=True)
        with Tape() as tape:
            loss = T.matmul(x, y)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, y.data.T)
        np.testing.assert_array_equal(y.grad, x.data.T)

    def test_double_backward_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        backward(loss, tape)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss, tape)

    def test_non_scalar_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_detached_loss_rejected(self):
        x = t([1.0], grad=True)
        with Tape() as tape:
            pass
        loss = sum_all(x)  # recorded on no tape
        with pytest.raises(ValueError, match="not recorded"):
            backward(loss, tape)

    def test_grad_accumulates_over_reuse(self):
        x = t([3.0], grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [6.0])


class TestGradCheck:
    """Spec invariant: every differentiable op passes finite differences at
    < 1e-6 over 10 random trials (seeds 0-9, shapes <= 4x4x8)."""

    # Each case adds sum(x) so no coordinate's true gradient sits near zero,
    # where the 1e-8 relative-error floor amplifies finite-difference noise.
    CASES = {
        "matmul": (lambda x: sum_all(
            T.matmul(x, Tensor(np.linspace(-1, 1, 8 * 3).reshape(8, 3)))),
            (4, 8)),
        "softmax": (lambda x: sum_all(
            mul(T.softmax(x, axis=-1),
                  Tensor(np.arange(32.0).reshape(4, 8)))), (4, 8)),
        "rms_norm": (lambda x: sum_all(
            T.rms_norm(x, Tensor(np.linspace(0.5, 1.5, 8)), 1e-5)), (4, 8)),
        "rms_norm_weight": (lambda w: sum_all(
            T.rms_norm(Tensor(np.linspace(-2, 2, 32).reshape(4, 8)), w,
                       1e-5)), (8,)),
        "swiglu": (lambda x: sum_all(
            T.swiglu(x, Tensor(np.linspace(-1, 1, 32).reshape(4, 8)))),
            (4, 8)),
        "swiglu_up": (lambda x: sum_all(
            T.swiglu(Tensor(np.linspace(-2, 2, 32).reshape(4, 8)), x)),
            (4, 8)),
        "cross_entropy": (lambda x: T.cross_entropy_from_logits(
            x, [0, 2, -100, 7]), (4, 8)),
        "mean_pool": (lambda x: sum_all(
            mul(T.mean_pool(x, [[True, False], [True, True]]),
                  Tensor(np.arange(16.0).reshape(2, 8)))), (4, 8)),
        "reshape": (lambda x: sum_all(
            mul(T.reshape(x, 8, 4),
                  Tensor(np.arange(32.0).reshape(8, 4)))), (4, 8)),
        "rope": (lambda x: sum_all(
            mul(T.rope_apply(x, [0, 3, 7, 11], 100.0),
                  Tensor(np.arange(32.0).reshape(4, 8)))), (4, 8)),
        "l2_normalize": (lambda x: sum_all(
            mul(T.l2_normalize_rows(x),
                  Tensor(np.arange(32.0).reshape(4, 8)))), (4, 8)),
        "slice_concat_transpose": (lambda x: sum_all(
            T.matmul(T.transpose(T.concat_cols(
                [T.slice_cols(x, 0, 3), T.slice_cols(x, 3, 8)])),
                Tensor(np.linspace(-1, 1, 4 * 2).reshape(4, 2)))), (4, 8)),
        "scatter_rows": (lambda x: sum_all(
            mul(T.scatter_rows(x, [5, 0, 2, 3], 6),
                  Tensor(np.arange(48.0).reshape(6, 8)))), (4, 8)),
        "gather_rows": (lambda x: sum_all(
            mul(T.gather_rows(x, [0, 2, 2, 3]),
                  Tensor(np.arange(32.0).reshape(4, 8)))), (4, 8)),
        "gather_rows_distinct": (lambda x: sum_all(
            mul(T.gather_rows(x, [0, 1, 3]),
                  Tensor(np.arange(24.0).reshape(3, 8)))), (4, 8)),
        "mul_add_scale": (lambda x: sum_all(
            T.scale(T.add(mul(x, x), x), 0.5)), (4, 8)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_matches_finite_differences(self, name):
        f, shape = self.CASES[name]
        anchored = lambda x: T.add(f(x), sum_all(x))  # noqa: E731
        for seed in range(10):
            x = Tensor(np.random.default_rng(seed).normal(size=shape),
                       requires_grad=True)
            assert grad_check(anchored, x, eps=1e-5) < 1e-6, f"seed {seed}"

    def test_linear_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)),
                   requires_grad=True)
        assert grad_check(sum_all, x, eps=1e-3) < 1e-12

    def test_eps_range(self):
        with pytest.raises(ValueError):
            grad_check(sum_all, Tensor(np.ones(2), requires_grad=True),
                       eps=1e-2)


class TestRope:
    def test_position_zero_unchanged(self, rng):
        x = rng.normal(size=(1, 8))
        out = T.rope_apply(Tensor(x), [0], 10_000.0)
        np.testing.assert_array_equal(out.data, x)

    def test_norm_preserved(self, rng):
        x = rng.normal(size=(5, 2, 8))
        out = T.rope_apply(Tensor(x), [0, 1, 5, 9, 100], 10_000.0).data
        pairs_in = (x[..., 0::2] ** 2 + x[..., 1::2] ** 2)
        pairs_out = (out[..., 0::2] ** 2 + out[..., 1::2] ** 2)
        np.testing.assert_allclose(pairs_in, pairs_out, atol=1e-12)

    def test_relative_position(self, rng):
        # dot(rope(q,m), rope(k,n)) depends only on m-n
        for _ in range(20):
            q = rng.normal(size=8)
            k = rng.normal(size=8)
            m, n = rng.integers(0, 30, size=2)
            s = int(rng.integers(1, 40))
            d1 = T.rope_apply(Tensor([q, k]), [m, n], 1000.0).data
            d2 = T.rope_apply(Tensor([q, k]), [m + s, n + s], 1000.0).data
            assert abs(d1[0] @ d1[1] - d2[0] @ d2[1]) < 1e-9

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            T.rope_apply(Tensor(np.ones((2, 3))), [0, 1], 10.0)

    @given(st.integers(1, 6), st.integers(0, 3), st.integers(1, 8),
           st.lists(st.integers(0, 4096), min_size=6, max_size=6),
           st.sampled_from([10.0, 100.0, 10_000.0]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_complex_kernel_matches_real_formula(self, rows, mid, pairs,
                                                 positions, theta, undo,
                                                 seed):
        # the complex multiply fuses multiply-adds, so it may differ from
        # the even/odd formula by about an ulp, not more
        shape = (rows,) + (2,) * mid + (2 * pairs,)
        x = np.random.default_rng(seed).normal(size=shape) * 10.0
        rot = T._rope_rotations(positions[:rows], 2 * pairs, theta)
        rot = rot.reshape((rows,) + (1,) * mid + (pairs,))
        if undo:
            rot = rot.conj()
        want = reference.rope_rotate(x, rot.real, rot.imag)
        got = T._rope_rotate(x, rot)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(x).max()

    def test_rotate_then_undo_returns_input(self, rng):
        x = rng.normal(size=(7, 3, 16))
        rot = T._rope_rotations([0, 1, 2, 50, 99, 1000, 4095], 16,
                                10_000.0)[:, None, :]
        back = T._rope_rotate(T._rope_rotate(x, rot), rot.conj())
        assert np.abs(back - x).max() <= 1e-15 * np.abs(x).max()

    def test_strided_input_is_rotated(self, rng):
        # a gradient may arrive as a view whose last axis is not contiguous
        x = rng.normal(size=(8, 4)).T
        rot = T._rope_rotations([0, 1, 2, 3], 8, 100.0)
        want = reference.rope_rotate(x, rot.real, rot.imag)
        assert np.abs(T._rope_rotate(x, rot) - want).max() \
            <= 1e-15 * np.abs(x).max()

    def test_table_is_cached_read_only(self):
        table = T._rope_table(5, 4, 100.0, 3)
        assert T._rope_table(5, 4, 100.0, 3) is table
        assert table.dtype == np.complex128 and table.shape == (5, 3 * 2)
        # e^{i*pos*theta_j} with theta_j = 100**(-2j/4), tiled across heads
        angles = np.arange(5)[:, None] * np.array([1.0, 0.1])
        np.testing.assert_allclose(table, np.tile(np.exp(1j * angles), (1, 3)),
                                   rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def per_head_attention(q, k, v, mask, heads, kv_heads, theta):
    """The fused op's reference: one row and one head at a time, composed
    from slice_cols, rope_apply, softmax and concat_cols."""
    rows, seq_len = mask.shape[0], mask.shape[1]
    hd = q.data.shape[1] // heads
    group = heads // kv_heads
    positions = list(range(seq_len))
    outputs = []
    for b in range(rows):
        own = range(b * seq_len, (b + 1) * seq_len)
        qb, kb, vb = (T.gather_rows(x, own) for x in (q, k, v))
        head_outputs = []
        for h in range(heads):
            g = h // group
            qh = T.rope_apply(T.slice_cols(qb, h * hd, (h + 1) * hd),
                              positions, theta)
            kh = T.rope_apply(T.slice_cols(kb, g * hd, (g + 1) * hd),
                              positions, theta)
            vh = T.slice_cols(vb, g * hd, (g + 1) * hd)
            scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(hd))
            weights = T.softmax(T.add_const(scores, mask[b]), axis=-1)
            head_outputs.append(T.matmul(weights, vh))
        outputs.append(T.transpose(T.concat_cols(head_outputs)))
    return T.transpose(T.concat_cols(outputs))


def additive_mask(pad, causal):
    """per_head_attention's [B, T, T] mask: 0 where a query may attend a key
    (a real key, and with causal one at or before the query), NEG_INF
    elsewhere."""
    pad = np.asarray(pad, dtype=bool)
    seq_len = pad.shape[1]
    allowed = np.broadcast_to(pad[:, None, :], (len(pad), seq_len, seq_len))
    if causal:
        allowed = allowed & np.tri(seq_len, dtype=bool)
    return np.where(allowed, 0.0, T.NEG_INF)


def check_against_per_head(pad, causal, kv_heads, rng):
    """gqa_attention on the real positions' q, k and v, with their pad mask,
    equals per_head_attention on the full [B*T] grid at the real rows, in
    the output and the q/k/v gradients, within 1e-12."""
    heads, hd = 4, 4
    real = np.asarray(pad, dtype=bool).reshape(-1)
    grid = [rng.normal(size=(real.size, w * hd))
            for w in (heads, kv_heads, kv_heads)]
    probe = rng.normal(size=(real.size, heads * hd))
    probe[~real] = 0.0  # pad outputs of the grid are unread
    mask = additive_mask(pad, causal)

    def run(op, args, rows):
        inputs = [t(a, grad=True) for a in args]
        with Tape() as tape:
            out = op(*inputs)
            loss = sum_all(mul(out, Tensor(probe[rows])))
        backward(loss, tape)
        return [out.data] + [x.grad for x in inputs]

    packed = run(lambda *x: T.gqa_attention(*x, pad, causal, heads, kv_heads,
                                            100.0),
                 [a[real] for a in grid], real)
    reference = run(lambda *x: per_head_attention(*x, mask, heads, kv_heads,
                                                  100.0), grid, slice(None))
    for a, b in zip(packed, reference):
        assert np.abs(a - b[real]).max() <= 1e-12


CAUSAL, BIDIRECTIONAL = AttentionMode.CAUSAL, AttentionMode.BIDIRECTIONAL
GQA_CASES = {  # name: (pad, causal)
    "causal": ([[True] * 4] * 2, True),
    "bidirectional": ([[True] * 4] * 2, False),
    "ragged_causal": ([[True] * 4, [True, True, False, False]], True),
    "ragged_bidirectional": ([[True, True, True, False],
                              [True, False, False, False]], False),
}


class TestGqaAttention:
    @pytest.mark.parametrize("mask_name", sorted(GQA_CASES))
    @pytest.mark.parametrize("kv_heads", [1, 2, 4])
    def test_matches_per_head_composition(self, mask_name, kv_heads, rng):
        check_against_per_head(*GQA_CASES[mask_name], kv_heads, rng)

    @pytest.mark.parametrize("pads", [
        [[True] * 4, [True, True, False, False]],
        [[True, True, True, False], [True, False, False, False]],
        [[True, False, False, False], [True, True, True, True]],
        # a two-row run of length 3 beside single rows: lengths 3, 3, 1, 3
        [[True] * 3 + [False]] * 2 + [[True] + [False] * 3,
                                      [True] * 3 + [False]],
        [[False, True, True, True], [True, False, True, True]],  # pads inside
        [[True, True, False, False]] * 3])  # one padded run
    @pytest.mark.parametrize("mode", [CAUSAL, BIDIRECTIONAL])
    @pytest.mark.parametrize("kv_heads", [1, 2, 4])
    def test_packed_rows_match_padded_op(self, pads, mode, kv_heads, rng):
        check_against_per_head(pads, mode is CAUSAL, kv_heads, rng)

    @pytest.mark.parametrize("mode", [CAUSAL, BIDIRECTIONAL])
    def test_trailing_pad_columns_change_nothing(self, mode, rng):
        # all-pad columns add no real key and move no real position, so the
        # output and the q/k/v gradients keep every bit
        pad = [[True] * 3 + [False]] * 2 + [[True] * 2 + [False] * 2,
                                            [True] * 4]
        heads, kv_heads, hd = 4, 2, 4
        n = sum(map(sum, pad))
        qkv = [rng.normal(size=(n, w * hd)) for w in (heads, kv_heads, kv_heads)]
        probe = Tensor(rng.normal(size=(n, heads * hd)))

        def run(pad):
            inputs = [t(a, grad=True) for a in qkv]
            with Tape() as tape:
                out = T.gqa_attention(*inputs, pad, mode is CAUSAL, heads,
                                      kv_heads, 100.0)
                loss = sum_all(mul(out, probe))
            backward(loss, tape)
            return [out.data] + [x.grad for x in inputs]

        wide = [row + [False] * 5 for row in pad]
        for a, b in zip(run(pad), run(wide)):
            assert np.array_equal(a, b)

    def test_causal_mask_is_cached_read_only(self):
        mask = T._causal_mask(3, 2)
        assert T._causal_mask(3, 2) is mask
        # keys down, two blocks of three queries across
        assert mask.shape == (3, 6)
        np.testing.assert_array_equal(mask[:, :3] == 0,
                                      np.tri(3, dtype=bool).T)
        np.testing.assert_array_equal(mask[:, 3:], mask[:, :3])
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        # q, k and v must each have one row per real position: pad.sum()
        pad = [[True] * 4, [True, True, False, False]]
        good = [t(np.ones((6, w))) for w in (8, 4, 4)]
        T.gqa_attention(*good, pad, True, 2, 1, 100.0)
        for i in range(3):
            for rows in (5, 8):  # one short, and the whole [B*T] grid
                args = list(good)
                args[i] = t(np.ones((rows, args[i].data.shape[1])))
                with pytest.raises(ValueError, match="shape"):
                    T.gqa_attention(*args, pad, True, 2, 1, 100.0)

    def test_bad_real_index_rejected(self):
        # the real positions come from pad: it must be [B, T] with a real
        # position in every row
        q, kv = t(np.ones((4, 8))), t(np.ones((4, 4)))
        for pad in ([True] * 4, [[[True] * 2] * 2]):
            with pytest.raises(ValueError, match=r"\[B, T\]"):
                T.gqa_attention(q, kv, kv, pad, True, 2, 1, 100.0)
        with pytest.raises(ValueError, match="padded"):
            T.gqa_attention(q, kv, kv, [[True] * 4, [False] * 4], True, 2, 1,
                            100.0)


class TestWeightedCrossEntropy:
    def test_weights_give_mean_of_row_means(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = [0, 2, -100, 1, 1]
        weights = [0.25, 0.25, 0.0, 0.5, 0.0]
        value = T.cross_entropy_from_logits(t(logits), targets,
                                            weights=weights).item()
        first = T.cross_entropy_from_logits(t(logits[:2]), [0, 2]).item()
        second = T.cross_entropy_from_logits(t(logits[3:4]), [1]).item()
        assert abs(value - (first + second) / 2) < 1e-15

    def test_weighted_gradient(self):
        anchored = lambda x: T.add(T.cross_entropy_from_logits(  # noqa: E731
            x, [0, 2, -100, 7], weights=[0.1, 0.7, 5.0, 0.2]), sum_all(x))
        for seed in range(10):
            x = t(np.random.default_rng(seed).normal(size=(4, 8)), grad=True)
            assert grad_check(anchored, x, eps=1e-5) < 1e-6, f"seed {seed}"

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            T.cross_entropy_from_logits(t(np.zeros((2, 3))), [0, 1],
                                        weights=[1.0])
