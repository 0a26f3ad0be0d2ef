from dataclasses import asdict

import numpy as np
import pytest

from bplm import tensor as T
from bplm.model import (AttentionMode, ModelConfig, attention,
                        attention_mask, forward, forward_batch, init_params,
                        lm_head, param_shapes)


def bidirectional_mask(seq_len):
    return attention_mask(AttentionMode.BIDIRECTIONAL, [[True] * seq_len])


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
        out = attention(hidden, tiny_params, 0, tiny_cfg,
                        bidirectional_mask(5))
        np.testing.assert_allclose(out.data, np.tile(out.data[0], (5, 1)),
                                   atol=1e-10)

    def test_grouped_kv_ablation(self, tiny_cfg, tiny_params, rng):
        # zeroing kv group 1 must leave query heads 0,1 (group 0) unchanged;
        # observed through an identity output projection
        params = {k: T.Tensor(v.data.copy()) for k, v in tiny_params.items()}
        params["layer.0.attn.wo"] = T.Tensor(np.eye(tiny_cfg.embed_dim))
        hidden = T.Tensor(rng.normal(size=(6, tiny_cfg.embed_dim)))
        base = attention(hidden, params, 0, tiny_cfg,
                         bidirectional_mask(6)).data

        hd = tiny_cfg.head_dim
        for name in ("wk", "wv"):
            arr = params[f"layer.0.attn.{name}"].data.copy()
            arr[:, hd:] = 0.0  # kv group 1
            params[f"layer.0.attn.{name}"] = T.Tensor(arr)
        ablated = attention(hidden, params, 0, tiny_cfg,
                            bidirectional_mask(6)).data
        heads01 = slice(0, 2 * hd)
        heads23 = slice(2 * hd, 4 * hd)
        np.testing.assert_allclose(ablated[:, heads01], base[:, heads01],
                                   atol=1e-12)
        assert not np.allclose(ablated[:, heads23], base[:, heads23])

    def test_all_padded_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="padded"):
            forward(tiny_params, tiny_cfg, [3, 4, 5],
                    AttentionMode.BIDIRECTIONAL, [False, False, False])

    def test_too_long_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError):
            forward(tiny_params, tiny_cfg, [3] * (tiny_cfg.max_seq_len + 1),
                    AttentionMode.CAUSAL)


class TestAttentionMask:
    def test_causal_and_pad(self):
        m = attention_mask(AttentionMode.CAUSAL, [[True, True, False],
                                                  [True, True, True]])
        allowed = m == 0.0
        np.testing.assert_array_equal(allowed[0], [[1, 0, 0], [1, 1, 0],
                                                   [1, 1, 0]])
        np.testing.assert_array_equal(allowed[1], np.tri(3, dtype=bool))
        assert set(np.unique(m)) == {0.0, T.NEG_INF}

    def test_bidirectional_masks_pad_keys_only(self):
        m = attention_mask(AttentionMode.BIDIRECTIONAL, [[False, True, True]])
        np.testing.assert_array_equal(m[0] == 0.0, [[0, 1, 1]] * 3)

    def test_one_all_pad_row_rejected(self):
        with pytest.raises(ValueError, match="padded"):
            attention_mask(AttentionMode.CAUSAL, [[True, True],
                                                  [False, False]])


class TestForwardBatch:
    ROWS = [[3, 4, 5, 6, 7], [8, 2, 9, 0, 0], [5, 5, 1, 10, 0]]
    PADS = [[True] * 5, [True, True, True, False, False], [True] * 4 + [False]]

    @pytest.mark.parametrize("mode", list(AttentionMode))
    def test_rows_match_single_row_forward(self, tiny_cfg, tiny_params, mode):
        hidden = forward_batch(tiny_params, tiny_cfg, self.ROWS, mode,
                               self.PADS)
        # the real tokens only, row after row
        assert hidden.data.shape == (12, tiny_cfg.embed_dim)
        at = 0
        for row, pad in zip(self.ROWS, self.PADS):
            h, logits = forward(tiny_params, tiny_cfg, row, mode, pad)
            n = sum(pad)
            np.testing.assert_allclose(hidden.data[at:at + n], h.data[:n],
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(h.data[n:], 0.0)
            np.testing.assert_array_equal(logits.data[n:], 0.0)
            at += n

    def test_pad_tokens_do_not_leak(self, tiny_cfg, tiny_params):
        # masked weights are exactly 0, so changing what sits at pad
        # positions leaves every real position bit-identical
        a = forward_batch(tiny_params, tiny_cfg, self.ROWS,
                          AttentionMode.BIDIRECTIONAL, self.PADS)
        rows = [[3, 4, 5, 6, 7], [8, 2, 9, 7, 6], [5, 5, 1, 10, 9]]
        b = forward_batch(tiny_params, tiny_cfg, rows,
                          AttentionMode.BIDIRECTIONAL, self.PADS)
        np.testing.assert_array_equal(a.data, b.data)

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

    def test_ragged_rows_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="one length"):
            forward_batch(tiny_params, tiny_cfg, [[3, 4, 5], [3, 4]],
                          AttentionMode.CAUSAL)

    def test_pad_shape_mismatch_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="pad masks"):
            forward_batch(tiny_params, tiny_cfg, [[3, 4, 5]],
                          AttentionMode.CAUSAL, [[True, True]])


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
