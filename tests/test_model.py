from dataclasses import asdict

import numpy as np
import pytest

from bplm import tensor as T
from bplm.model import (AttentionMode, ModelConfig, attention, forward,
                        forward_batch, init_params, lm_head, param_shapes)


def attended(lengths, causal):
    """[N, N] booleans over the N positions of sequences of the given
    lengths, sequence after sequence: True where moving a key's k and v rows
    moves a query's gqa_attention output. A masked key gets exactly zero
    weight, so the output does not move at all."""
    n = sum(lengths)
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(n, 8)), rng.normal(size=(n, 4)),
               rng.normal(size=(n, 4)))

    def run(k, v):
        return T.gqa_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v),
                               lengths, causal, 2, 1, 100.0).data
    base = run(k, v)
    seen = np.zeros((n, n), dtype=bool)
    for key in range(n):
        k2, v2 = k.copy(), v.copy()
        k2[key] += 1.0
        v2[key] += 1.0
        seen[:, key] = (run(k2, v2) != base).any(axis=1)
    return seen


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(heads=3, kv_heads=2)

    def test_embed_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=65, heads=4)

    def test_odd_head_dim(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=12, heads=4, kv_heads=2)

    def test_roundtrip(self, tiny_cfg):
        assert ModelConfig(**asdict(tiny_cfg)) == tiny_cfg

    @pytest.mark.parametrize("field, value", [
        ("heads", 0), ("kv_heads", 0), ("heads", -4), ("embed_dim", 0),
        ("ffn_dim", 0), ("layers", -1)])
    def test_sizes_below_their_bound_refused(self, field, value):
        # checked before the divisibility checks, which divide by heads
        # and kv_heads
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            ModelConfig(**{field: value})

    def test_zero_layers_allowed(self):
        assert ModelConfig(layers=0).layers == 0


class TestInitParams:
    def test_deterministic(self, tiny_cfg):
        a = init_params(tiny_cfg, seed=3)
        b = init_params(tiny_cfg, seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seed_changes_weights(self, tiny_cfg):
        a = init_params(tiny_cfg, seed=0)
        b = init_params(tiny_cfg, seed=1)
        assert not np.array_equal(a["embed"].data, b["embed"].data)

    def test_variance(self):
        # statistical oracle: sample variance of 10k N(0, 0.2) draws
        cfg = ModelConfig(layers=1, embed_dim=64, ffn_dim=160, heads=4,
                          kv_heads=2, vocab_size=16)
        params = init_params(cfg, seed=0)
        w = params["layer.0.ffn.w_gate"].data  # 64*160 > 10,000 entries
        assert abs(w.var() - 0.2) < 0.01

    def test_norm_gains_are_ones(self, tiny_cfg, tiny_params):
        for name in tiny_params:
            if "norm" in name:
                np.testing.assert_array_equal(tiny_params[name].data,
                                              np.ones(tiny_cfg.embed_dim))

    def test_canonical_name_set(self, tiny_cfg, tiny_params):
        assert list(tiny_params) == list(param_shapes(tiny_cfg))

    def test_all_finite(self, tiny_params):
        for p in tiny_params.values():
            assert np.isfinite(p.data).all()


class TestCausality:
    def test_causal_position_invariance(self, tiny_cfg, tiny_params, rng):
        tokens = [3, 4, 5, 6]
        _, logits = forward(tiny_params, tiny_cfg, tokens,
                            AttentionMode.CAUSAL)
        for t in range(3):
            perturbed = list(tokens)
            for future in range(t + 1, 4):
                perturbed[future] = int(rng.integers(0, tiny_cfg.vocab_size))
            _, logits2 = forward(tiny_params, tiny_cfg, perturbed,
                                 AttentionMode.CAUSAL)
            assert np.abs(logits.data[: t + 1]
                          - logits2.data[: t + 1]).max() <= 1e-12

    def test_bidirectional_differs_from_causal(self, tiny_cfg, tiny_params):
        tokens = [3, 4, 5, 6]
        _, causal = forward(tiny_params, tiny_cfg, tokens,
                            AttentionMode.CAUSAL)
        _, bidir = forward(tiny_params, tiny_cfg, tokens,
                           AttentionMode.BIDIRECTIONAL)
        assert not np.allclose(causal.data, bidir.data)


class TestAttention:
    def test_uniform_weights_on_identical_embeddings(self, tiny_cfg,
                                                     tiny_params):
        # identical rows + bidirectional mask -> every position attends
        # uniformly, so all output rows coincide
        row = np.random.default_rng(0).normal(size=tiny_cfg.embed_dim)
        hidden = T.Tensor(np.tile(row, (5, 1)))
        out = attention(hidden, tiny_params, 0, tiny_cfg, [5],
                        AttentionMode.BIDIRECTIONAL)
        np.testing.assert_allclose(out.data, np.tile(out.data[0], (5, 1)),
                                   atol=1e-10)

    def test_grouped_kv_ablation(self, tiny_cfg, tiny_params, rng):
        # zeroing kv group 1 must leave query heads 0,1 (group 0) unchanged;
        # observed through an identity output projection
        params = {k: T.Tensor(v.data.copy()) for k, v in tiny_params.items()}
        params["layer.0.attn.wo"] = T.Tensor(np.eye(tiny_cfg.embed_dim))
        hidden = T.Tensor(rng.normal(size=(6, tiny_cfg.embed_dim)))
        base = attention(hidden, params, 0, tiny_cfg, [6],
                         AttentionMode.BIDIRECTIONAL).data

        hd = tiny_cfg.head_dim
        for name in ("wk", "wv"):
            arr = params[f"layer.0.attn.{name}"].data.copy()
            arr[:, hd:] = 0.0  # kv group 1
            params[f"layer.0.attn.{name}"] = T.Tensor(arr)
        ablated = attention(hidden, params, 0, tiny_cfg, [6],
                            AttentionMode.BIDIRECTIONAL).data
        heads01 = slice(0, 2 * hd)
        heads23 = slice(2 * hd, 4 * hd)
        np.testing.assert_allclose(ablated[:, heads01], base[:, heads01],
                                   atol=1e-12)
        assert not np.allclose(ablated[:, heads23], base[:, heads23])

    def test_empty_sequence_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="empty sequence"):
            forward_batch(tiny_params, tiny_cfg, [[3, 4, 5], []],
                          AttentionMode.BIDIRECTIONAL)

    def test_too_long_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError):
            forward(tiny_params, tiny_cfg, [3] * (tiny_cfg.max_seq_len + 1),
                    AttentionMode.CAUSAL)


class TestAttentionMask:
    """The mask gqa_attention builds from the lengths and the mode."""

    def test_causal_within_each_sequence(self):
        # positions: sequence 0 at 0-1, sequence 1 at 2-4
        seen = attended([2, 3], True)
        np.testing.assert_array_equal(seen, [[1, 0, 0, 0, 0],
                                             [1, 1, 0, 0, 0],
                                             [0, 0, 1, 0, 0],
                                             [0, 0, 1, 1, 0],
                                             [0, 0, 1, 1, 1]])

    def test_bidirectional_attends_its_own_sequence_only(self):
        seen = attended([2, 2], False)
        np.testing.assert_array_equal(seen, [[1, 1, 0, 0],
                                             [1, 1, 0, 0],
                                             [0, 0, 1, 1],
                                             [0, 0, 1, 1]])
        # and the other sequence's keys get no weight: alone, the output
        # is the same
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(5, w)) for w in (8, 4, 4))
        beside = T.gqa_attention(*map(T.Tensor, (q, k, v)), [2, 3], False,
                                 2, 1, 100.0)
        alone = T.gqa_attention(*(T.Tensor(a[:2]) for a in (q, k, v)), [2],
                                False, 2, 1, 100.0)
        np.testing.assert_allclose(beside.data[:2], alone.data, rtol=0,
                                   atol=1e-12)

    def test_one_empty_sequence_rejected(self):
        q, kv = T.Tensor(np.ones((2, 8))), T.Tensor(np.ones((2, 4)))
        with pytest.raises(ValueError, match="empty sequence"):
            T.gqa_attention(q, kv, kv, [2, 0], True, 2, 1, 100.0)


class TestForwardBatch:
    SEQS = [[3, 4, 5, 6, 7], [8, 2, 9], [5, 5, 1, 10]]
    ROWS = [[3, 4, 5, 6, 7], [8, 2, 9, 0, 0], [5, 5, 1, 10, 0]]

    @pytest.mark.parametrize("mode", list(AttentionMode))
    def test_rows_match_single_row_forward(self, tiny_cfg, tiny_params, mode):
        hidden = forward_batch(tiny_params, tiny_cfg, self.SEQS, mode)
        # the N = 5 + 3 + 4 tokens, sequence after sequence
        assert hidden.data.shape == (12, tiny_cfg.embed_dim)
        at = 0
        for seq in self.SEQS:
            h, _ = forward(tiny_params, tiny_cfg, seq, mode)
            np.testing.assert_allclose(hidden.data[at: at + len(seq)], h.data,
                                       rtol=0, atol=1e-12)
            at += len(seq)

    def test_other_sequences_do_not_leak(self, tiny_cfg, tiny_params):
        # masked weights are exactly 0, so changing the tokens of the other
        # sequences leaves every row of the first bit-identical
        a = forward_batch(tiny_params, tiny_cfg, self.SEQS,
                          AttentionMode.BIDIRECTIONAL)
        seqs = [[3, 4, 5, 6, 7], [1, 1, 6], [9, 2, 2, 4]]
        b = forward_batch(tiny_params, tiny_cfg, seqs,
                          AttentionMode.BIDIRECTIONAL)
        np.testing.assert_array_equal(a.data[:5], b.data[:5])
        assert not np.array_equal(a.data[5:], b.data[5:])

    def test_unpadded_batch_keeps_every_position(self, tiny_cfg, tiny_params):
        hidden = forward_batch(tiny_params, tiny_cfg, self.ROWS,
                               AttentionMode.CAUSAL)
        assert hidden.data.shape == (15, tiny_cfg.embed_dim)
        h, logits = forward(tiny_params, tiny_cfg, self.ROWS[1],
                            AttentionMode.CAUSAL)
        np.testing.assert_allclose(hidden.data[5:10], h.data, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(
            logits.data, lm_head(tiny_params, h).data, rtol=0,
            atol=0)

    def test_empty_batch_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="empty batch"):
            forward_batch(tiny_params, tiny_cfg, [], AttentionMode.CAUSAL)


class TestForward:
    def test_zero_head_uniform_logits(self, tiny_cfg, tiny_params):
        params = dict(tiny_params)
        params["head"] = T.Tensor(
            np.zeros((tiny_cfg.embed_dim, tiny_cfg.vocab_size)))
        _, logits = forward(params, tiny_cfg, [3, 4, 5],
                            AttentionMode.CAUSAL)
        np.testing.assert_array_equal(logits.data, np.zeros((3, 11)))
        probs = T.softmax(logits, axis=-1).data
        np.testing.assert_allclose(probs, np.full((3, 11), 1 / 11),
                                   atol=1e-15)

    def test_token_out_of_range(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="token id"):
            forward(tiny_params, tiny_cfg, [3, 99], AttentionMode.CAUSAL)

    @pytest.mark.parametrize("seqs, bad", [([[3, 99, 12]], 99),
                                           ([[3, 4], [-2, 11]], -2)])
    def test_out_of_range_names_the_id_and_vocab(self, tiny_cfg, tiny_params,
                                                 seqs, bad):
        # the first id outside [0, vocab_size), and the vocabulary (11)
        with pytest.raises(ValueError, match=rf"^token id {bad} out of range "
                           r"for vocab_size 11$"):
            forward_batch(tiny_params, tiny_cfg, seqs, AttentionMode.CAUSAL)

    def test_pure_function(self, tiny_cfg, tiny_params):
        tokens = [1, 5, 9, 2]
        _, a = forward(tiny_params, tiny_cfg, tokens,
                       AttentionMode.BIDIRECTIONAL)
        _, b = forward(tiny_params, tiny_cfg, tokens,
                       AttentionMode.BIDIRECTIONAL)
        np.testing.assert_array_equal(a.data, b.data)

    def test_modes_differ(self, tiny_cfg, tiny_params):
        _, a = forward(tiny_params, tiny_cfg, [3, 4],
                       AttentionMode.CAUSAL)
        _, b = forward(tiny_params, tiny_cfg, [3, 4],
                       AttentionMode.BIDIRECTIONAL)
        assert not np.allclose(a.data, b.data)
