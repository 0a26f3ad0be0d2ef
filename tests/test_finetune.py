import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bplm import tensor as T
from bplm.data import (PAD_ID, TASK_SEQ_LEN, TC_TAGSET, BatchStream,
                       CorpusSpec, TaskDataset, TaskExample, gen_corpus,
                       gen_task_data)
from bplm.finetune import (EVAL_CHUNK, GridSearchSpec, accuracy, bio_spans,
                           ci95_half_width, encode, entity_f1, evaluate,
                           finetune_one, init_head, ndcg_at_10, qa_f1,
                           run_grid_search, select_best_lr, task_loss,
                           write_report)
from bplm.model import AttentionMode, ModelConfig, forward, init_params
from bplm.objectives import Objective
from bplm.optim import WsdSchedule
from bplm.runner import TrainConfig, run_pfs
from bplm.tensor import Tape, Tensor, backward

import bplm.finetune
import reference

CFG = ModelConfig(layers=1, embed_dim=16, ffn_dim=32, heads=4, kv_heads=2,
                  vocab_size=64, max_seq_len=32)


def pretrained_base(steps=20, seed=0):
    corpus = gen_corpus(CorpusSpec(num_symbols=40, target_tokens=3000,
                                   min_len=4, max_len=12, seed=seed))
    stream = BatchStream(corpus.sequences, batch_rows=2, min_len=4,
                         max_len=12, pad_id=PAD_ID, seed=seed)
    cfg = TrainConfig(objective_plan=[(Objective.MLM, steps)],
                      schedule=WsdSchedule(1e-3, 2, steps, 2), seed=seed)
    return run_pfs(cfg, stream, CFG)


def brute_force_f1(pred_spans, gold_spans):
    tp = len(pred_spans & gold_spans)
    fp = len(pred_spans - gold_spans)
    fn = len(gold_spans - pred_spans)
    if tp + fp + fn == 0:
        return 1.0
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


class TestAccuracy:
    def test_examples(self):
        assert accuracy([1, 2, 3], [1, 2, 0]) == pytest.approx(2 / 3)
        assert accuracy([0], [0]) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestBioSpans:
    def test_basic(self):
        tags = ["O", "B-PER", "I-PER", "O", "B-LOC"]
        assert bio_spans(tags) == {("PER", 1, 2), ("LOC", 4, 4)}

    def test_stray_i_opens_span(self):
        assert bio_spans(["O", "I-PER", "I-PER"]) == {("PER", 1, 2)}

    def test_adjacent_b_splits(self):
        assert bio_spans(["B-PER", "B-PER"]) == {("PER", 0, 0), ("PER", 1, 1)}

    def test_type_change_splits(self):
        assert bio_spans(["B-PER", "I-LOC"]) == {("PER", 0, 0), ("LOC", 1, 1)}

    def test_span_to_end(self):
        assert bio_spans(["B-LOC", "I-LOC"]) == {("LOC", 0, 1)}

    def test_all_o(self):
        assert bio_spans(["O", "O"]) == set()


class TestEntityF1:
    def test_exact_match(self):
        tags = ["B-PER", "I-PER", "O"]
        assert entity_f1(tags, tags) == 1.0

    def test_no_overlap(self):
        assert entity_f1(["B-PER", "O"], ["O", "B-LOC"]) == 0.0

    def test_both_empty(self):
        assert entity_f1(["O", "O"], ["O", "O"]) == 1.0

    def test_half_precision(self):
        # pred 2 spans, gold 1, one shared: P=0.5, R=1 -> F1=2/3
        pred = ["B-PER", "O", "B-LOC"]
        gold = ["B-PER", "O", "O"]
        assert entity_f1(pred, gold) == pytest.approx(2 / 3)

    def test_micro_average_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        tagset = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        preds, golds = [], []
        for _ in range(200):
            n = int(rng.integers(1, 10))
            preds.append([tagset[i] for i in rng.integers(0, 5, size=n)])
            golds.append([tagset[i] for i in rng.integers(0, 5, size=n)])
        tp = fp = fn = 0
        for p, g in zip(preds, golds):
            ps, gs = bio_spans(p), bio_spans(g)
            tp += len(ps & gs)
            fp += len(ps - gs)
            fn += len(gs - ps)
        expected = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        assert entity_f1(preds, golds) == expected  # exact: same division

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entity_f1(["O"], ["O", "O"])


class TestQaF1:
    def test_exact(self):
        assert qa_f1([5, 6], [5, 6]) == 1.0

    def test_both_empty(self):
        assert qa_f1([], []) == 1.0

    def test_one_empty(self):
        assert qa_f1([], [5]) == 0.0
        assert qa_f1([5], []) == 0.0

    def test_partial_overlap(self):
        # overlap 1, |pred|=2, |gold|=1: P=0.5, R=1 -> 2/3
        assert qa_f1([5, 6], [5]) == pytest.approx(2 / 3)

    def test_multiset_counting(self):
        # duplicates count up to min multiplicity
        assert qa_f1([5, 5, 5], [5, 5]) == pytest.approx(2 * (2 / 3) * 1.0
                                                         / (2 / 3 + 1.0))

    def test_order_invariant(self):
        assert qa_f1([5, 6, 7], [7, 6, 5]) == 1.0


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at_10([0, 1, 2], {0: 1}) == 1.0

    def test_relevant_at_rank_3(self):
        assert ndcg_at_10([7, 8, 0, 9], {0: 1}) == pytest.approx(1 / math.log2(4))
        assert ndcg_at_10([7, 8, 0, 9], {0: 1}) == pytest.approx(0.5)

    def test_graded_relevance_bruteforce(self):
        rel = {0: 3, 1: 1, 2: 2}
        ranked = [1, 2, 0, 9]
        dcg = 1 / math.log2(2) + 2 / math.log2(3) + 3 / math.log2(4)
        idcg = 3 / math.log2(2) + 2 / math.log2(3) + 1 / math.log2(4)
        assert ndcg_at_10(ranked, rel) == pytest.approx(dcg / idcg)

    def test_cutoff_at_10(self):
        ranked = list(range(1, 11)) + [0]  # relevant doc at rank 11
        assert ndcg_at_10(ranked, {0: 1}) == 0.0

    def test_nothing_relevant(self):
        assert ndcg_at_10([0, 1], {}) is None
        assert ndcg_at_10([0, 1], {0: 0}) is None


class TestTaskLoss:
    def test_sc_zero_head_uniform(self):
        params = init_params(CFG, 0)
        ds = gen_task_data("SC", 30, 0)
        head = {"w": Tensor(np.zeros((CFG.embed_dim, 3)), requires_grad=True)}
        loss = task_loss("SC", head, params, CFG, ds.train[:4], ds)
        assert abs(loss.item() - math.log(3)) < 1e-12

    def test_tc_zero_head_uniform(self):
        params = init_params(CFG, 0)
        ds = gen_task_data("TC", 30, 0)
        head = {"w": Tensor(np.zeros((CFG.embed_dim, 5)), requires_grad=True)}
        loss = task_loss("TC", head, params, CFG, ds.train[:3], ds)
        assert abs(loss.item() - math.log(5)) < 1e-12

    def test_qa_zero_head_uniform(self):
        params = init_params(CFG, 0)
        ds = gen_task_data("QA", 30, 0)
        head = {"w": Tensor(np.zeros((CFG.embed_dim, 2)), requires_grad=True)}
        loss = task_loss("QA", head, params, CFG, ds.train[:3], ds)
        # 0.5 * (ln T + ln T) = ln T over positions
        assert abs(loss.item() - math.log(TASK_SEQ_LEN)) < 1e-12

    def test_ir_identical_embeddings(self):
        # same document everywhere -> uniform similarities -> ln(num docs)
        params = init_params(CFG, 0)
        ds = gen_task_data("IR", 30, 0)
        ex = ds.train[0]
        from bplm.data import TaskExample
        clones = [TaskExample("IR", query=ex.query, positive=ex.positive,
                              negatives=[ex.positive] * 3) for _ in range(2)]
        loss = task_loss("IR", {}, params, CFG, clones, ds)
        # 2 queries over 2 positives + 6 negatives = 8 candidates, but the
        # two queries are identical too, so every similarity row is constant
        assert abs(loss.item() - math.log(8)) < 1e-9

    def test_ir_single_example_no_negatives(self):
        params = init_params(CFG, 0)
        ds = gen_task_data("IR", 30, 0)
        from bplm.data import TaskExample
        ex = TaskExample("IR", query=ds.train[0].query,
                         positive=ds.train[0].positive, negatives=[])
        loss = task_loss("IR", {}, params, CFG, [ex], ds)
        assert loss.item() == 0.0  # one candidate, trivially correct

    @pytest.mark.parametrize("task", ["SC", "TC", "QA", "IR"])
    def test_empty_batch(self, task):
        ds = gen_task_data(task, 30, 0)
        head = init_head(task, CFG, ds, 0)
        with pytest.raises(ValueError, match="empty batch"):
            task_loss(task, head, init_params(CFG, 0), CFG, [], ds)

    def test_task_mismatch(self):
        ds = gen_task_data("SC", 30, 0)
        tc = gen_task_data("TC", 30, 0)
        head = init_head("SC", CFG, ds, 0)
        with pytest.raises(ValueError, match="mismatch"):
            task_loss("SC", head, init_params(CFG, 0), CFG, tc.train[:2], ds)


class TestEncode:
    def test_bidirectional_always(self):
        # position 0's representation depends on later tokens
        params = init_params(CFG, 0)
        a = encode(params, CFG, [[8, 9, 10]])[0].data
        b = encode(params, CFG, [[8, 9, 11]])[0].data
        assert not np.allclose(a[0], b[0])

    def test_sequences_of_mixed_lengths(self):
        params = init_params(CFG, 0)
        hidden, lengths = encode(params, CFG, [[8, 9], [10, 11, 12, 13], [14]])
        # the 7 tokens' rows, sequence after sequence
        assert hidden.data.shape == (7, CFG.embed_dim)
        np.testing.assert_array_equal(lengths, [2, 4, 1])
        # each sequence's rows equal its own forward
        for at, seq in zip((0, 2, 6), [[8, 9], [10, 11, 12, 13], [14]]):
            alone, _ = forward(params, CFG, seq, AttentionMode.BIDIRECTIONAL)
            np.testing.assert_allclose(
                hidden.data[at: at + len(seq)], alone.data,
                rtol=0, atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            encode(init_params(CFG, 0), CFG, [])

    def test_tc_batch_of_mixed_lengths_pinned(self):
        # encode takes the sequences as they are and task_loss concatenates
        # the tag targets; both values are pinned from the per-row padding
        # that preceded pad_rows
        params = init_params(CFG, 0)
        ds = gen_task_data("TC", 40, 0)
        batch = [TaskExample("TC", tokens=ex.tokens[:n], tags=ex.tags[:n])
                 for ex, n in zip(ds.train, (16, 3, 9, 1, 12))]
        head = init_head("TC", CFG, ds, 0)
        loss = task_loss("TC", head, params, CFG, batch, ds).item()
        assert loss.hex() == "0x1.98a296b92ecbbp+0"
        score = evaluate("TC", head, params, CFG, batch, ds)
        assert score.hex() == "0x1.8618618618619p-4"

    def test_sc_batch_of_mixed_lengths_pinned(self):
        # both values are pinned from the encode that returned the padded
        # [B*W, d] grid
        params = init_params(CFG, 0)
        ds = gen_task_data("SC", 40, 0)
        batch = [TaskExample("SC", tokens=ex.tokens[:n], label=ex.label)
                 for ex, n in zip(ds.train, (16, 3, 9, 1, 12))]
        head = init_head("SC", CFG, ds, 0)
        loss = task_loss("SC", head, params, CFG, batch, ds).item()
        assert loss.hex() == "0x1.15d5c46611f9bp+0"
        score = evaluate("SC", head, params, CFG, batch, ds)
        assert score.hex() == "0x1.999999999999ap-3"

    def test_qa_batch_of_mixed_lengths_pinned(self):
        # both values are pinned from the encode that returned the padded
        # [B*W, d] grid; spans cut off by the shortening become no-answer
        params = init_params(CFG, 0)
        ds = gen_task_data("QA", 40, 0)
        batch = [TaskExample("QA", tokens=ex.tokens[:n],
                             span=ex.span if ex.span and ex.span[1] < n
                             else None)
                 for ex, n in zip(ds.train, (16, 6, 11, 2, 13, 4))]
        head = init_head("QA", CFG, ds, 0)
        loss = task_loss("QA", head, params, CFG, batch, ds).item()
        assert loss.hex() == "0x1.ef5b564a52481p+0"
        score = evaluate("QA", head, params, CFG, batch, ds)
        assert score.hex() == "0x1.e79e79e79e79fp-2"

    def test_ir_batch_of_ragged_queries_and_negatives_pinned(self):
        # queries and documents share one encode; both values are pinned
        # from the separate query and document encodes that preceded it
        params = init_params(CFG, 0)
        ds = gen_task_data("IR", 40, 0)
        shape = [(5, 16, (16, 7, 11)), (2, 9, ()), (4, 12, (5, 14)),
                 (1, 3, (16,))]  # query, positive and negative lengths
        batch = [TaskExample("IR", query=ex.query[:q], positive=ex.positive[:p],
                             negatives=[neg[:n] for neg, n
                                        in zip(ex.negatives, negs)])
                 for ex, (q, p, negs) in zip(ds.train, shape)]
        loss = task_loss("IR", {}, params, CFG, batch, ds).item()
        assert loss.hex() == "0x1.5e4dac02db1f7p+3"
        score = evaluate("IR", {}, params, CFG, batch, ds)
        assert score.hex() == "0x1.a1849cc1a9aa0p-1"


class TestPerTokenWork:
    @pytest.mark.parametrize("task", ["SC", "TC", "QA", "IR"])
    def test_runs_on_real_tokens_only(self, task):
        # in a step of mixed lengths every RMSNorm node holds the N tokens
        # and no node holds a row per position of a padded [B*W] grid, but
        # QA's [B*W, 2] grid of start and end scores
        ds = gen_task_data(task, 40, 0)
        if task == "IR":
            shape = [(5, 16, (16, 7, 11)), (2, 9, ()), (4, 12, (5, 14))]
            batch = [TaskExample("IR", query=ex.query[:q],
                                 positive=ex.positive[:p],
                                 negatives=[neg[:n] for neg, n
                                            in zip(ex.negatives, negs)])
                     for ex, (q, p, negs) in zip(ds.train, shape)]
            lengths = [len(s) for ex in batch
                       for s in [ex.query, ex.positive, *ex.negatives]]
        else:
            lengths = [16, 3, 9, 1, 12]
            batch = [TaskExample(task, tokens=ex.tokens[:n],
                                 tags=ex.tags and ex.tags[:n],
                                 label=ex.label, span=None)
                     for ex, n in zip(ds.train, lengths)]
        grid_rows = len(lengths) * max(lengths)
        with Tape() as tape:
            task_loss(task, init_head(task, CFG, ds, 0), init_params(CFG, 0),
                      CFG, batch, ds)
        norms = [node.output.data.shape for node in tape.nodes
                 if node.backward_fn.__qualname__.startswith("rms_norm")]
        assert norms == [(sum(lengths), CFG.embed_dim)] * 3
        grids = [node.output.data.shape for node in tape.nodes
                 if node.output.data.shape[:1] == (grid_rows,)]
        assert grids == ([(grid_rows, 2)] if task == "QA" else [])


class TestIrTies:
    """A negative that scores equal to the positive ranks above it, so a
    collapsed encoder does not get a perfect NDCG."""

    def test_negatives_equal_to_the_positive(self):
        ds = gen_task_data("IR", 30, 0)
        ex = ds.train[0]
        tied = TaskExample("IR", query=ex.query, positive=ex.positive,
                           negatives=[ex.positive] * 3)
        score = evaluate("IR", {}, init_params(CFG, 0), CFG, [tied], ds)
        assert score == 1 / math.log2(5)  # the positive ranks fourth of four

    def test_collapsed_encoder(self):
        # every weight but final_norm zero: every embedding is zero, so
        # every similarity is zero and the positive ranks last
        params = {name: Tensor(p.data if name == "final_norm"
                               else np.zeros_like(p.data))
                  for name, p in init_params(CFG, 0).items()}
        ds = gen_task_data("IR", 30, 0)
        expected = np.mean([1 / math.log2(len(ex.negatives) + 2)
                            for ex in ds.test])
        assert expected < 1
        assert evaluate("IR", {}, params, CFG, ds.test, ds) == expected


@st.composite
def ragged_examples(draw):
    """A task and 1..20 examples with ragged lengths (one to eight tokens)."""
    task = draw(st.sampled_from(["SC", "TC", "QA", "IR"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    length = st.integers(1, 8)

    def tokens(n):
        return [int(t) for t in rng.integers(3, CFG.vocab_size, size=n)]

    examples = []
    for _ in range(draw(st.integers(1, 20))):
        if task == "SC":
            examples.append(TaskExample("SC", tokens=tokens(draw(length)),
                                        label=int(rng.integers(0, 3))))
        elif task == "TC":
            n = draw(length)
            examples.append(TaskExample("TC", tokens=tokens(n), tags=[
                TC_TAGSET[i] for i in rng.integers(0, len(TC_TAGSET), n)]))
        elif task == "QA":
            n = draw(length)
            span = None
            if draw(st.booleans()):
                start = int(rng.integers(0, n))
                span = (start, int(rng.integers(start, n)))
            examples.append(TaskExample("QA", tokens=tokens(n), span=span))
        else:
            negatives = [tokens(draw(length))
                         for _ in range(draw(st.integers(0, 2)))]
            examples.append(TaskExample(
                "IR", query=tokens(draw(length)),
                positive=tokens(draw(length)), negatives=negatives))
    return task, examples


class TestBatchedMatchesPerExample:
    """task_loss and evaluate (one batched encode per batch or chunk)
    against one model.forward per sequence, as fine-tuning ran before."""

    DATASET = TaskDataset("", [], [], [], num_classes=3, tagset=TC_TAGSET)

    @staticmethod
    def hidden(params, cfg, tokens):
        return forward(params, cfg, tokens, AttentionMode.BIDIRECTIONAL)[0]

    @classmethod
    def pooled(cls, params, cfg, tokens):
        return T.mean_pool(cls.hidden(params, cfg, tokens), [len(tokens)])

    @staticmethod
    def mean(losses):
        total = losses[0]
        for loss in losses[1:]:
            total = T.add(total, loss)
        return T.scale(total, 1.0 / len(losses))

    @classmethod
    def reference_loss(cls, task, head, params, cfg, batch, dataset,
                       temperature=0.05):
        if task == "IR":
            docs = ([ex.positive for ex in batch]
                    + [neg for ex in batch for neg in ex.negatives])

            def stack(seqs):
                rows = T.stack_rows([cls.pooled(params, cfg, s) for s in seqs])
                return T.l2_normalize_rows(
                    T.reshape(rows, len(seqs), cfg.embed_dim))
            sims = T.matmul(stack([ex.query for ex in batch]),
                            T.transpose(stack(docs)))
            return T.cross_entropy_from_logits(
                T.scale(sims, 1.0 / temperature), list(range(len(batch))))
        losses = []
        for ex in batch:
            if task == "SC":
                logits = T.matmul(cls.pooled(params, cfg, ex.tokens), head["w"])
                losses.append(T.cross_entropy_from_logits(logits, [ex.label]))
                continue
            scores = T.matmul(cls.hidden(params, cfg, ex.tokens), head["w"])
            if task == "TC":
                losses.append(T.cross_entropy_from_logits(
                    scores, [dataset.tagset.index(t) for t in ex.tags]))
            else:
                s, e = ex.span or (0, 0)
                losses.append(T.scale(T.add(
                    T.cross_entropy_from_logits(
                        T.transpose(T.slice_cols(scores, 0, 1)), [s]),
                    T.cross_entropy_from_logits(
                        T.transpose(T.slice_cols(scores, 1, 2)), [e])), 0.5))
        return cls.mean(losses)

    @classmethod
    def reference_evaluate(cls, task, head, params, cfg, examples, dataset):
        if task == "SC":
            return accuracy([int(T.matmul(cls.pooled(params, cfg, ex.tokens),
                                          head["w"]).data.argmax())
                             for ex in examples], [ex.label for ex in examples])
        if task == "TC":
            preds = [[dataset.tagset[i] for i in T.matmul(
                cls.hidden(params, cfg, ex.tokens), head["w"]).data.argmax(1)]
                for ex in examples]
            return entity_f1(preds, [ex.tags for ex in examples])
        scores = []
        for ex in examples:
            if task == "QA":
                sc = T.matmul(cls.hidden(params, cfg, ex.tokens),
                              head["w"]).data
                s, e = int(sc[:, 0].argmax()), int(sc[:, 1].argmax())
                pred = [] if s == 0 or e == 0 else ex.tokens[s: max(s, e) + 1]
                gold = ex.tokens[ex.span[0]: ex.span[1] + 1] if ex.span else []
                scores.append(qa_f1(pred, gold))
                continue
            q = cls.pooled(params, cfg, ex.query).data[0]
            sims = []
            for doc in [ex.positive] + ex.negatives:
                d = cls.pooled(params, cfg, doc).data[0]
                sims.append(float(q @ d / (np.linalg.norm(q) * np.linalg.norm(d)
                                           + 1e-12)))
            ranked = sorted(range(len(sims)), key=lambda i: (-sims[i], i == 0))
            scores.append(ndcg_at_10(ranked, {0: 1}))
        return float(np.mean(scores))

    @settings(max_examples=60, deadline=None)
    @given(drawn=ragged_examples(), kv_heads=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2 ** 16))
    def test_loss_grads_and_scores_match(self, drawn, kv_heads, seed):
        task, examples = drawn
        cfg = ModelConfig(layers=2, embed_dim=16, ffn_dim=32, heads=4,
                          kv_heads=kv_heads, vocab_size=CFG.vocab_size,
                          max_seq_len=16)
        params = init_params(cfg, seed)
        head = init_head(task, cfg, self.DATASET, seed)
        trainable = dict(params, **{f"head.{k}": v for k, v in head.items()})
        results = []
        for loss_fn in (task_loss, self.reference_loss):
            for p in trainable.values():
                p.zero_grad()
            with Tape() as tape:
                loss = loss_fn(task, head, params, cfg, examples, self.DATASET)
            backward(loss, tape)
            results.append((loss.item(),
                            {n: p.grad for n, p in trainable.items()}))
        (batched, grads), (reference, per_example) = results
        assert abs(batched - reference) <= 1e-12
        for name in trainable:
            if per_example[name] is None:  # the LM head: no fine-tune loss
                assert grads[name] is None, name
                continue
            assert np.abs(grads[name] - per_example[name]).max() <= 1e-12, name
        assert evaluate(task, head, params, cfg, examples, self.DATASET) \
            == self.reference_evaluate(task, head, params, cfg, examples,
                                       self.DATASET)

    def test_evaluate_encodes_in_chunks(self, monkeypatch):
        import bplm.finetune as ft
        sizes = []

        def counting_encode(params, cfg, seqs):
            sizes.append(len(seqs))
            return encode(params, cfg, seqs)
        monkeypatch.setattr(ft, "encode", counting_encode)
        params = init_params(CFG, 0)
        sc = gen_task_data("SC", 60, 0)
        evaluate("SC", init_head("SC", CFG, sc, 0), params, CFG,
                 sc.train[:2 * EVAL_CHUNK + 3], sc)
        assert sizes == [EVAL_CHUNK, EVAL_CHUNK, 3]
        sizes.clear()
        ir = gen_task_data("IR", 60, 0)
        evaluate("IR", {}, params, CFG, ir.train[:EVAL_CHUNK + 1], ir)
        # per chunk one encode of the queries and every document together
        assert sizes == [5 * EVAL_CHUNK, 5]
        sizes.clear()
        task_loss("IR", {}, params, CFG, ir.train[:3], ir)
        assert sizes == [15]


class TestInitHead:
    def test_shapes(self):
        sc = gen_task_data("SC", 30, 0)
        tc = gen_task_data("TC", 30, 0)
        qa = gen_task_data("QA", 30, 0)
        ir = gen_task_data("IR", 30, 0)
        assert init_head("SC", CFG, sc, 0)["w"].data.shape == (16, 3)
        assert init_head("TC", CFG, tc, 0)["w"].data.shape == (16, 5)
        assert init_head("QA", CFG, qa, 0)["w"].data.shape == (16, 2)
        assert init_head("IR", CFG, ir, 0) == {}

    def test_seeded(self):
        ds = gen_task_data("SC", 30, 0)
        a = init_head("SC", CFG, ds, 3)["w"].data
        b = init_head("SC", CFG, ds, 3)["w"].data
        np.testing.assert_array_equal(a, b)
        c = init_head("SC", CFG, ds, 4)["w"].data
        assert not np.array_equal(a, c)


class TestSelectBestLr:
    def test_argmax_on_validation_mean(self):
        rows = []
        for lr, seed in itertools.product((1e-5, 1e-4, 5e-4), range(3)):
            val = {1e-5: 0.5, 1e-4: 0.9, 5e-4: 0.7}[lr] + 0.01 * seed
            rows.append({"lr": lr, "seed": seed, "validation": val,
                         "test": 0.0})
        assert select_best_lr(rows) == 1e-4

    def test_tie_goes_to_smaller(self):
        rows = [{"lr": 1e-4, "validation": 0.8},
                {"lr": 2e-4, "validation": 0.8}]
        assert select_best_lr(rows) == 1e-4


class TestCi95:
    def test_known_value(self):
        # std([1..5], ddof=1) = sqrt(2.5); 1.96*sqrt(2.5)/sqrt(5)
        expected = 1.96 * math.sqrt(2.5) / math.sqrt(5)
        assert ci95_half_width([1, 2, 3, 4, 5]) == pytest.approx(expected)
        assert expected == pytest.approx(1.386, abs=1e-3)

    def test_zero_variance(self):
        assert ci95_half_width([0.5, 0.5, 0.5]) == 0.0
        assert ci95_half_width([0.7, 0.7, 0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_single_value(self):
        assert ci95_half_width([0.7]) is None


class TestGridSearchSpec:
    @pytest.mark.parametrize("field, value", [
        ("seeds", ()), ("learning_rates", ()), ("max_steps", 0),
        ("batch_size", 0)])
    def test_empty_grid_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridSearchSpec(**{field: value})


class TestFinetuneEndToEnd:
    def test_sc_learnable(self):
        base = pretrained_base()
        ds = gen_task_data("SC", 60, 0)
        spec = GridSearchSpec(learning_rates=(5e-3,), seeds=(0,),
                              max_steps=40, batch_size=8)
        params, head = finetune_one(base, ds, 5e-3, 0, spec)
        acc = evaluate("SC", head, params, CFG, ds.test, ds)
        assert acc > 0.5  # well above the 1/3 chance level

    def test_base_checkpoint_not_mutated(self):
        base = pretrained_base()
        before = {n: p.data.copy() for n, p in base.params.items()}
        ds = gen_task_data("SC", 30, 0)
        spec = GridSearchSpec(learning_rates=(1e-3,), seeds=(0,),
                              max_steps=3, batch_size=8)
        finetune_one(base, ds, 1e-3, 0, spec)
        for name in before:
            np.testing.assert_array_equal(base.params[name].data, before[name])

    @pytest.mark.parametrize("task", ["SC", "TC", "QA", "IR"])
    def test_lm_head_kept_from_the_base(self, task):
        # no task loss reaches the LM head, so the optimizer never sees it;
        # every other parameter gets a gradient, as adamw_step requires
        base = pretrained_base()
        spec = GridSearchSpec(max_steps=3, batch_size=8)
        params, _ = finetune_one(base, gen_task_data(task, 30, 0), 1e-3, 0,
                                 spec)
        assert params["head"].data.tobytes() \
            == base.params["head"].data.tobytes()
        for name in params.keys() - {"head"}:
            assert not np.array_equal(params[name].data,
                                      base.params[name].data), name

    def test_reference_optimizer_gives_the_same_params(self, monkeypatch):
        base = pretrained_base()
        ds = gen_task_data("QA", 30, 0)
        spec = GridSearchSpec(max_steps=3, batch_size=8)
        runs = [finetune_one(base, ds, 1e-3, 0, spec)]
        monkeypatch.setattr(bplm.finetune, "adamw_step",
                            reference.adamw_step)
        runs.append(finetune_one(base, ds, 1e-3, 0, spec))
        (params, head), (ref_params, ref_head) = runs
        for fast, ref in ((params, ref_params), (head, ref_head)):
            assert fast.keys() == ref.keys()
            for name in fast:
                np.testing.assert_array_equal(fast[name].data,
                                              ref[name].data)

    def test_deterministic(self):
        base = pretrained_base()
        ds = gen_task_data("TC", 30, 0)
        spec = GridSearchSpec(max_steps=3, batch_size=8)

        def run():
            params, head = finetune_one(base, ds, 1e-4, 1, spec)
            return evaluate("TC", head, params, CFG, ds.test, ds)
        assert run() == run()

    def test_grid_search_report(self):
        base = pretrained_base()
        ds = gen_task_data("SC", 30, 0)
        spec = GridSearchSpec(learning_rates=(1e-4, 1e-3), seeds=(0, 1),
                              max_steps=3, batch_size=8)
        report = run_grid_search(base, ds, spec)
        assert len(report.rows) == 4
        assert report.selected_lr in (1e-4, 1e-3)
        chosen = [r["test"] for r in report.rows
                  if r["lr"] == report.selected_lr]
        assert report.test_mean == pytest.approx(float(np.mean(chosen)))
        assert report.ci95 == pytest.approx(ci95_half_width(chosen))

    def test_report_csv(self, tmp_path):
        import csv
        base = pretrained_base()
        ds = gen_task_data("SC", 30, 0)
        spec = GridSearchSpec(learning_rates=(1e-4,), seeds=(0,),
                              max_steps=2, batch_size=8)
        report = run_grid_search(base, ds, spec)
        path = tmp_path / "runs.csv"
        write_report(report, "sc-synth", path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2  # one validation + one test row
        assert rows[0]["task"] == "SC" and rows[0]["metric"] == "accuracy"
        assert {r["split"] for r in rows} == {"validation", "test"}

    def test_empty_split_rejected(self):
        base = pretrained_base()
        ds = gen_task_data("SC", 30, 0)
        ds.validation = []
        with pytest.raises(ValueError, match="validation"):
            run_grid_search(base, ds, GridSearchSpec())

    @pytest.mark.parametrize("jobs", [0, -3, 2])
    def test_jobs_other_than_one_refused(self, jobs):
        # 0 and -3 used to run serially, and 2 in a process pool
        base = pretrained_base()
        ds = gen_task_data("SC", 30, 0)
        with pytest.raises(ValueError, match=f"jobs must be 1, got {jobs}"):
            run_grid_search(base, ds, GridSearchSpec(), jobs=jobs)

    def test_diverging_cell_names_its_step_lr_and_seed(self):
        # used to raise a bare "non-finite gradient norm nan"
        base = pretrained_base()
        ds = gen_task_data("SC", 60, 0)
        spec = GridSearchSpec(learning_rates=(1e6,), seeds=(2,),
                              batch_size=2)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(ValueError, match=r"^non-finite .* at step "
                              r"\d+ of the lr=1e\+06, seed=2 cell$"):
            run_grid_search(base, ds, spec)
