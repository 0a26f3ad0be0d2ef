import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bplm import tensor as T
from bplm.data import PAD_ID, BatchStream, CorpusSpec, gen_corpus, pad_rows
from bplm.model import AttentionMode, ModelConfig, forward, init_params
from bplm.objectives import (LmBatch, MaskingPlan, Objective, clm_loss,
                             mlm_loss, pretrain_loss, select_mask)
from bplm.tensor import Tape, Tensor, backward

BIG = 1e9


class TestSelectMask:
    def test_full_mask(self, rng):
        plan = select_mask([5, 6, 7, 8], 1.0, rng, mask_token_id=1)
        assert plan.masked_positions == [0, 1, 2, 3]
        assert plan.original_targets == [5, 6, 7, 8]

    def test_binomial_bound(self):
        # binomial oracle: 10,000 positions at ratio 0.4
        rng = np.random.default_rng(0)
        tokens = list(range(3, 13)) * 1000
        plan = select_mask(tokens, 0.4, rng, mask_token_id=1)
        n = len(plan.masked_positions)
        sd = math.sqrt(10_000 * 0.4 * 0.6)
        assert abs(n - 4000) <= 3 * sd

    def test_pads_never_masked(self, rng):
        # a row's plan is drawn over its real tokens alone
        batch = LmBatch([[5, 6, 0, 0]], [[True, True, False, False]])
        for _ in range(50):
            plan = select_mask(batch.seqs[0], 0.9, rng, 1)
            assert all(p < 2 for p in plan.masked_positions)

    def test_deterministic_in_seed(self):
        tokens = list(range(3, 60))
        a = select_mask(tokens, 0.3, np.random.default_rng(7), 1)
        b = select_mask(tokens, 0.3, np.random.default_rng(7), 1)
        assert a.masked_positions == b.masked_positions

    def test_never_empty(self):
        # tiny ratio on one position still produces a non-empty plan
        plan = select_mask([5], 0.05, np.random.default_rng(0), 1)
        assert plan.masked_positions == [0]

    def test_bad_ratio(self, rng):
        with pytest.raises(ValueError):
            select_mask([5], 0.0, rng, 1)

    def test_apply_writes_placeholder(self, rng):
        tokens = [5, 6, 7]
        plan = select_mask(tokens, 1.0, rng, mask_token_id=1)
        assert plan.apply(tokens) == [1, 1, 1]
        assert tokens == [5, 6, 7]  # original untouched


class TestMlmLoss:
    def test_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        plan = MaskingPlan(1, [1], [2])
        assert abs(mlm_loss(logits, plan).item() - math.log(4)) < 1e-12

    def test_perfect_prediction(self):
        logits = np.zeros((2, 4))
        logits[0, 3] = BIG
        plan = MaskingPlan(1, [0], [3])
        assert mlm_loss(Tensor(logits), plan).item() < 1e-9

    def test_masked_mean(self):
        # positions engineered to contribute ln2 and ln4
        logits = np.full((2, 4), -BIG)
        logits[0, :2] = 0.0          # two-way uniform -> ln 2
        logits[1, :] = 0.0           # four-way uniform -> ln 4
        plan = MaskingPlan(1, [0, 1], [0, 0])
        expected = (math.log(2) + math.log(4)) / 2
        assert abs(mlm_loss(Tensor(logits), plan).item() - expected) < 1e-12

    def test_empty_plan(self):
        with pytest.raises(ValueError):
            mlm_loss(Tensor(np.zeros((2, 4))), MaskingPlan(1, [], []))

    @pytest.mark.parametrize("positions", [[-1], [3], [1, 1]])
    def test_plan_outside_the_row_or_repeated_rejected(self, tiny_cfg,
                                                       tiny_params, positions):
        # -1 would score the row's last token, 3 lies past the row and a
        # repeated position would be scored twice; both losses refuse each
        plan = MaskingPlan(1, positions, [2] * len(positions))
        with pytest.raises(ValueError, match="strictly increasing"):
            mlm_loss(Tensor(np.zeros((3, 4))), plan)
        with pytest.raises(ValueError, match="strictly increasing"):
            pretrain_loss(Objective.MLM, tiny_params, tiny_cfg,
                          LmBatch([[3, 4, 5]], [[True] * 3], [plan]))

    def test_gradient_zero_at_unmasked(self, rng):
        logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        plan = MaskingPlan(1, [1, 3], [2, 6])
        with Tape() as tape:
            loss = mlm_loss(logits, plan)
        backward(loss, tape)
        for pos in (0, 2, 4):
            np.testing.assert_array_equal(logits.grad[pos], np.zeros(7))
        for pos in (1, 3):
            assert np.abs(logits.grad[pos]).max() > 0


class TestClmLoss:
    def test_uniform(self):
        assert abs(clm_loss(Tensor(np.zeros((3, 4))), [1, 2, 3]).item()
                   - math.log(4)) < 1e-12

    def test_single_token_rejected(self):
        with pytest.raises(ValueError):
            clm_loss(Tensor(np.zeros((1, 4))), [1])

    def test_one_row_of_logits_per_token(self):
        with pytest.raises(ValueError, match="one row of logits per token"):
            clm_loss(Tensor(np.zeros((4, 4))), [1, 2, 3])

    def test_shift_identity(self, rng):
        # internal consistency: equals cross entropy on shifted targets
        # over every position but the last
        tokens = [3, 1, 2, 3]
        logits = rng.normal(size=(4, 4))
        direct = T.cross_entropy_from_logits(Tensor(logits[:3]),
                                             [1, 2, 3]).item()
        assert clm_loss(Tensor(logits), tokens).item() == direct


class TestPretrainLoss:
    def test_clm_batch_of_identical_rows(self, tiny_cfg, tiny_params):
        row = [3, 4, 5, 6]
        batch = LmBatch([row, row], [[True] * 4] * 2)
        batched = pretrain_loss(Objective.CLM, tiny_params, tiny_cfg, batch)
        _, logits = forward(tiny_params, tiny_cfg, row, AttentionMode.CAUSAL)
        single = clm_loss(logits, row)
        assert abs(batched.item() - single.item()) < 1e-12

    def test_mlm_full_ratio_zero_head(self, tiny_cfg, tiny_params, rng):
        params = dict(tiny_params)
        params["head"] = Tensor(
            np.zeros((tiny_cfg.embed_dim, tiny_cfg.vocab_size)))
        rows = [[3, 4, 5, 6]]
        plan = select_mask(rows[0], 1.0, rng, mask_token_id=1)
        batch = LmBatch(rows, [[True] * 4], [plan])
        value = pretrain_loss(Objective.MLM, params, tiny_cfg, batch).item()
        assert abs(value - math.log(tiny_cfg.vocab_size)) < 1e-12

    def test_objectives_differ(self, tiny_cfg, tiny_params, rng):
        rows = [[3, 4, 5, 6, 7, 8]]
        pads = [[True] * 6]
        plan = select_mask(rows[0], 0.4, rng, mask_token_id=1)
        clm = pretrain_loss(Objective.CLM, tiny_params, tiny_cfg,
                            LmBatch(rows, pads)).item()
        mlm = pretrain_loss(Objective.MLM, tiny_params, tiny_cfg,
                            LmBatch(rows, pads, [plan])).item()
        assert math.isfinite(clm) and math.isfinite(mlm)
        assert clm != mlm

    def test_mlm_without_plans_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="plan"):
            pretrain_loss(Objective.MLM, tiny_params, tiny_cfg,
                          LmBatch([[3, 4]], [[True, True]]))

    def test_empty_batch_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError):
            pretrain_loss(Objective.CLM, tiny_params, tiny_cfg,
                          LmBatch([], []))

    def test_short_clm_row_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="at least 2 tokens"):
            pretrain_loss(Objective.CLM, tiny_params, tiny_cfg,
                          LmBatch([[3, 4], [3, 0]],
                                  [[True, True], [True, False]]))

    def test_ragged_rows_rejected(self):
        # an LmBatch holds one [B, T] array; numpy refuses to make one
        with pytest.raises(ValueError, match="inhomogeneous"):
            LmBatch([[3, 4, 5], [3, 4]], [[True] * 3, [True] * 2])

    def test_pad_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            LmBatch([[3, 4, 5], [3, 4, 0]], [[True] * 2] * 2)

    @pytest.mark.parametrize("pads", [
        [[True] * 3, [False, True, True]],   # a leading pad
        [[True] * 3, [True, False, True]]])  # a hole
    def test_pads_not_at_the_end_rejected(self, pads):
        with pytest.raises(ValueError, match="real tokens first"):
            LmBatch([[3, 4, 5], [3, 4, 5]], pads)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_list_and_array_batches_agree(self, tiny_cfg, tiny_params,
                                          objective):
        # padded rows as lists, against pad_rows' arrays of the same rows
        seqs = [[3, 4, 5, 6, 7], [8, 9, 2], [4, 5, 6, 7, 8, 9]]
        rows = [s + [PAD_ID] * (6 - len(s)) for s in seqs]
        pads = [[True] * len(s) + [False] * (6 - len(s)) for s in seqs]
        tokens, real = pad_rows(seqs, PAD_ID)
        plans = [select_mask(s, 0.4, np.random.default_rng(i), 1)
                 for i, s in enumerate(seqs)]
        from_lists = LmBatch(rows, pads, plans)
        from_arrays = LmBatch(tokens, real, plans)
        assert from_arrays.rows.dtype == np.int64
        assert from_arrays.pad_masks.dtype == bool
        losses = [pretrain_loss(objective, tiny_params, tiny_cfg, b).item()
                  for b in (from_lists, from_arrays)]
        assert losses[0].hex() == losses[1].hex()

    def test_empty_plan_rejected(self, tiny_cfg, tiny_params, rng):
        rows = [[3, 4, 5], [6, 7, 8]]
        plans = [select_mask(rows[0], 0.5, rng, 1),
                 MaskingPlan(1, [], [])]
        with pytest.raises(ValueError, match="empty masking plan"):
            pretrain_loss(Objective.MLM, tiny_params, tiny_cfg,
                          LmBatch(rows, [[True] * 3] * 2, plans))

    @pytest.mark.parametrize("position", [4, 7, -1])
    def test_plan_at_a_pad_or_outside_the_row_rejected(self, tiny_cfg,
                                                       tiny_params, position):
        # row 1 holds 3 real tokens of 7: position 4 is a pad, 7 lies past
        # the row and -1 would index its last position, a pad
        rows = [[3, 4, 5, 6, 7, 8, 9], [9, 2, 3, 0, 0, 0, 0]]
        pads = [[t != 0 for t in r] for r in rows]
        plans = [MaskingPlan(1, [0, 2], [3, 5]),
                 MaskingPlan(1, [1, position], [2, 0])]
        with pytest.raises(ValueError, match="row 1: masking plan positions"):
            pretrain_loss(Objective.MLM, tiny_params, tiny_cfg,
                          LmBatch(rows, pads, plans))

    def test_token_out_of_range_rejected(self, tiny_cfg, tiny_params):
        with pytest.raises(ValueError, match="token id"):
            pretrain_loss(Objective.CLM, tiny_params, tiny_cfg,
                          LmBatch([[3, 4], [3, 99]], [[True] * 2] * 2))

    @pytest.mark.parametrize("objective, loss_hex, grad_hex", [
        (Objective.CLM, "0x1.d3b01a88ddae4p+1", "-0x1.1c83c043509efp-1"),
        (Objective.MLM, "0x1.c533af9f792e8p+1", "-0x1.397ce52e28ad3p+2"),
    ])
    def test_padded_batch_pinned(self, tiny_cfg, tiny_params, objective,
                                 loss_hex, grad_hex):
        # the loss and the sum of the embedding gradient on a padded batch;
        # both are pinned from the forward that returned the padded
        # [B*T, d] grid
        rows = [[3, 4, 5, 6, 7, 8, 9], [9, 2, 3, 0, 0, 0, 0],
                [4, 4, 5, 6, 10, 0, 0], [7, 6, 0, 0, 0, 0, 0]]
        pads = [[t != 0 for t in r] for r in rows]
        plans = [select_mask(r[:sum(p)], 0.5, np.random.default_rng(i), 1)
                 for i, (r, p) in enumerate(zip(rows, pads))]
        with Tape() as tape:
            loss = pretrain_loss(objective, tiny_params, tiny_cfg,
                                 LmBatch(rows, pads, plans))
        backward(loss, tape)
        assert loss.item().hex() == loss_hex
        assert float(tiny_params["embed"].grad.sum()).hex() == grad_hex

    def test_desk_step_records_at_most_40_tape_nodes(self):
        # the C7 configuration: one batched pass, not one pass per row/head
        cfg = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                          kv_heads=2, vocab_size=16, max_seq_len=64)
        params = init_params(cfg, 0)
        corpus = gen_corpus(CorpusSpec(num_symbols=6, target_tokens=2000,
                                       min_len=16, max_len=48, seed=5))
        batch = BatchStream(corpus.sequences, 4, 16, 48, PAD_ID, 0).batch(0)
        rng = np.random.default_rng(0)
        plans = [select_mask(s, 0.4, rng, 1) for s in batch.seqs]
        for objective in Objective:
            with Tape() as tape:
                pretrain_loss(objective, params, cfg,
                              LmBatch(batch.rows, batch.pad_masks, plans))
            assert len(tape.nodes) <= 40, objective

    @pytest.mark.parametrize("objective", list(Objective))
    def test_per_token_work_runs_on_real_tokens_only(self, tiny_cfg,
                                                     tiny_params, objective):
        # every RMSNorm and FFN node holds the N real tokens, the LM head
        # holds only the positions that have a target, and no node holds a
        # row per padded position (B*T = 18)
        rows = [[3, 4, 5, 6, 7, 8], [9, 2, 3, 0, 0, 0], [4, 4, 5, 6, 0, 0]]
        pads = [[True] * 6, [True] * 3 + [False] * 3, [True] * 4 + [False] * 2]
        plans = [select_mask(r[:sum(p)], 0.4, np.random.default_rng(i), 1)
                 for i, (r, p) in enumerate(zip(rows, pads))]
        with Tape() as tape:
            pretrain_loss(objective, tiny_params, tiny_cfg,
                          LmBatch(rows, pads, plans))
        if objective is Objective.CLM:
            targets = sum(n - 1 for n in map(sum, pads))
        else:
            targets = sum(len(p.masked_positions) for p in plans)
        ffn = {tiny_params[f"layer.{i}.ffn.{w}"] for i in range(2)
               for w in ("w_gate", "w_up", "w_down")}
        kinds = {"rms_norm": 0, "swiglu": 0, "ffn": 0, "head": 0}
        for node in tape.nodes:
            op = node.backward_fn.__qualname__.split(".")[0]
            rows_out = node.output.data.shape[:1]
            if op in ("rms_norm", "swiglu"):
                kinds[op] += 1
                assert rows_out == (13,), op
            elif any(x in ffn for x in node.inputs):
                kinds["ffn"] += 1
                assert rows_out == (13,)
            elif any(x is tiny_params["head"] for x in node.inputs):
                kinds["head"] += 1
                assert rows_out == (targets,) and targets < 13
        assert kinds == {"rms_norm": 5, "swiglu": 2, "ffn": 6, "head": 1}
        assert all(node.output.data.shape[:1] != (18,) for node in tape.nodes)


@st.composite
def ragged_batches(draw):
    """1-4 rows of 2-8 real tokens, right-padded to the longest."""
    lengths = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4))
    width = max(lengths)
    rows = [draw(st.lists(st.integers(2, 10), min_size=n, max_size=n))
            + [0] * (width - n) for n in lengths]
    pads = [[True] * n + [False] * (width - n) for n in lengths]
    return rows, pads


def padded_rows(lengths, width):
    """Right-padded rows of the given real lengths, with their pad masks."""
    return ([[2 + (i + j) % 9 for j in range(n)] + [0] * (width - n)
             for i, n in enumerate(lengths)],
            [[True] * n + [False] * (width - n) for n in lengths])


def with_run_examples(test):
    """Add @examples whose adjacent padded rows of one length attend as one
    multi-row run, for both objectives and kv_heads 1, 2 and 4."""
    for lengths, width in (((3, 3, 5, 3), 5), ((4, 4, 4), 6)):
        for kv_heads in (1, 2, 4):
            for objective in Objective:
                test = example(batch=padded_rows(lengths, width),
                               kv_heads=kv_heads, objective=objective,
                               seed=kv_heads, layers=1 + kv_heads % 2)(test)
    return test


class TestBatchedMatchesPerRow:
    """pretrain_loss (one batched forward) against the mean of per-row
    forward + clm_loss / mlm_loss: the loss and every parameter gradient."""

    @staticmethod
    def per_row_loss(objective, params, cfg, batch):
        losses = []
        for i, seq in enumerate(batch.seqs):
            if objective is Objective.CLM:
                _, logits = forward(params, cfg, seq, AttentionMode.CAUSAL)
                losses.append(clm_loss(logits, seq))
            else:
                plan = batch.plans[i]
                _, logits = forward(params, cfg, plan.apply(seq),
                                    AttentionMode.BIDIRECTIONAL)
                losses.append(mlm_loss(logits, plan))
        total = losses[0]
        for loss in losses[1:]:
            total = T.add(total, loss)
        return T.scale(total, 1.0 / len(losses))

    @settings(max_examples=30, deadline=None)
    @given(batch=ragged_batches(), kv_heads=st.sampled_from([1, 2, 4]),
           objective=st.sampled_from(list(Objective)),
           seed=st.integers(0, 2 ** 16), layers=st.integers(1, 2))
    @with_run_examples
    def test_loss_and_grads_match(self, batch, kv_heads, objective, seed,
                                  layers):
        cfg = ModelConfig(layers=layers, embed_dim=16, ffn_dim=32, heads=4,
                          kv_heads=kv_heads, vocab_size=11, max_seq_len=16)
        params = init_params(cfg, seed)
        rows, pads = batch
        plans = [select_mask(r[:sum(p)], 0.4,
                             np.random.default_rng([seed, i]), 1)
                 for i, (r, p) in enumerate(zip(rows, pads))]
        lm = LmBatch(rows, pads, plans)
        results = []
        for loss_fn in (pretrain_loss, self.per_row_loss):
            for p in params.values():
                p.zero_grad()
            with Tape() as tape:
                loss = loss_fn(objective, params, cfg, lm)
            backward(loss, tape)
            results.append((loss.item(),
                            {n: p.grad for n, p in params.items()}))
        (batched, fused), (reference, per_row) = results
        assert abs(batched - reference) <= 1e-12
        for name in params:
            assert np.abs(fused[name] - per_row[name]).max() <= 1e-12, name
