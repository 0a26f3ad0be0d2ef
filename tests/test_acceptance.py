"""Acceptance criteria, one test per criterion, each printing one PASS/FAIL
line (run with -s to see the lines as they happen).

C10 is directional and non-gating: deviations are printed, never failed.
"""

import math
import time

import numpy as np

from bplm import tensor as T
from bplm.data import (MASK_ID, NUM_RESERVED, BatchStream,
                       CorpusSpec, gen_corpus, gen_task_data)
from bplm.finetune import (GridSearchSpec, accuracy, ci95_half_width,
                           entity_f1, evaluate, finetune_one, ndcg_at_10,
                           qa_f1, run_grid_search)
from bplm.model import AttentionMode, ModelConfig, forward, init_params
from bplm.objectives import (MaskingPlan, LmBatch, Objective, mlm_loss,
                             pretrain_loss, select_mask)
from bplm.optim import (ADAM_EPS, AdamWState, WsdSchedule, adamw_step,
                        clip_global_norm, wsd_lr)
from bplm.runner import Checkpoint, TrainConfig, load_checkpoint, run_pfs
from bplm.tensor import Tape, Tensor, backward

from reference import grad_check, mul, sum_all


def criterion(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


GRAD_CFG = ModelConfig(layers=2, embed_dim=16, ffn_dim=32, heads=4,
                       kv_heads=2, vocab_size=16, max_seq_len=32)
DESK_CFG = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                       kv_heads=2, vocab_size=16, max_seq_len=64)


def anchored(f):
    """f(x) + sum(x): shifts every gradient coordinate by exactly 1 so the
    relative-error denominator never collapses to the 1e-8 floor on
    coordinates whose true gradient is ~0, without hiding backward errors."""
    return lambda x: T.add(f(x), sum_all(x))


class TestC1GradientCorrectness:
    def test_c1(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        other = Tensor(rng.normal(size=(4, 4)))
        op_cases = {
            "matmul": lambda x: sum_all(T.matmul(x, other)),
            "add": lambda x: sum_all(mul(T.add(x, other), x)),
            "mul": lambda x: sum_all(mul(x, x)),
            "scale": lambda x: sum_all(mul(T.scale(x, 1.7), x)),
            "add_const": lambda x: sum_all(
                mul(T.add_const(x, other.data), x)),
            "transpose": lambda x: sum_all(T.matmul(T.transpose(x), x)),
            "slice_cols": lambda x: sum_all(
                mul(T.slice_cols(x, 1, 3), T.slice_cols(x, 0, 2))),
            "concat_cols": lambda x: sum_all(
                mul(T.concat_cols([x, x]), T.concat_cols([x, x]))),
            "stack_rows": lambda x: sum_all(mul(
                T.stack_rows([T.mean_pool(x, [4])] * 2),
                T.stack_rows([T.mean_pool(x, [4])] * 2))),
            "gather_rows": lambda x: sum_all(
                mul(T.gather_rows(x, [0, 2, 2]), T.gather_rows(x, [0, 2, 2]))),
            "scatter_rows": lambda x: sum_all(
                mul(T.scatter_rows(x, [5, 0, 2, 3], 6),
                      T.scatter_rows(x, [5, 0, 2, 3], 6))),
            "softmax": lambda x: sum_all(mul(T.softmax(x), other)),
            "rms_norm": lambda x: sum_all(
                mul(T.rms_norm(x, Tensor(np.ones(4)), 1e-5), other)),
            "swiglu": lambda x: sum_all(T.swiglu(x, other)),
            "rope": lambda x: sum_all(
                mul(T.rope_apply(x, [0, 1, 2, 3], 10000.0), other)),
            "cross_entropy": lambda x: T.cross_entropy_from_logits(
                x, [0, 3, 1, 2]),
            "mean_pool": lambda x: sum_all(mul(
                T.stack_rows([T.mean_pool(x, [4])]),
                T.stack_rows([T.mean_pool(x, [4])]))),
            "mean_pool ragged rows": lambda x: sum_all(mul(
                T.mean_pool(x, [1, 3]), T.mean_pool(x, [1, 3]))),
            "reshape": lambda x: sum_all(
                mul(T.reshape(x, 2, 8), T.reshape(other, 2, 8))),
            "l2_normalize": lambda x: sum_all(
                mul(T.l2_normalize_rows(x), other)),
        }
        worst = 0.0
        for name, f in op_cases.items():
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            err = grad_check(anchored(f), x, eps=1e-5)
            worst = max(worst, err)
            assert err < 1e-6, f"op {name}: {err:.2e}"

        # the fused attention op through each of q, k and v, two query heads
        # per kv group, 2 sequences in both modes: of 3 positions each, and
        # packed, with the second one token short
        batches = {"": [3, 3], "packed ": [3, 2]}
        qkv = [rng.normal(size=(6, 8)), rng.normal(size=(6, 4)),
               rng.normal(size=(6, 4))]
        probe = rng.normal(size=(6, 8))
        for label, lengths in batches.items():
            real = np.arange(sum(lengths))
            for mode in AttentionMode:
                causal = mode is AttentionMode.CAUSAL
                for i, which in enumerate("qkv"):
                    def f(x, i=i, lengths=lengths, real=real, causal=causal):
                        args = [Tensor(a[real]) for a in qkv]
                        args[i] = x
                        return sum_all(mul(T.gqa_attention(
                            *args, lengths, causal, 4, 2, 100.0),
                            Tensor(probe[real])))
                    x = Tensor(qkv[i][real], requires_grad=True)
                    err = grad_check(anchored(f), x, eps=1e-5)
                    worst = max(worst, err)
                    assert err < 1e-6, \
                        f"{label}gqa_attention {which} {mode.value}: {err:.2e}"

        tokens = [3, 7, 5, 9, 4, 6]
        plan = select_mask(tokens, 0.4, np.random.default_rng(1), MASK_ID)
        batches = {
            Objective.CLM: LmBatch([tokens]),
            Objective.MLM: LmBatch([tokens], [plan]),
        }
        params = init_params(GRAD_CFG, 0)
        for objective, batch in batches.items():
            for name in params:
                def f(x, name=name, objective=objective, batch=batch):
                    p = dict(params)
                    p[name] = x
                    return pretrain_loss(objective, p, GRAD_CFG, batch)
                err = grad_check(anchored(f), params[name], eps=1e-5)
                worst = max(worst, err)
                assert err < 1e-6, f"{objective.value} {name}: {err:.2e}"
        elapsed = time.time() - t0
        ok = worst < 1e-6 and elapsed < 120
        assert criterion("C1 gradient correctness", ok,
                         f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestC2Causality:
    def test_c2(self):
        params = init_params(DESK_CFG, 0)
        rng = np.random.default_rng(42)
        causal_ok = 0
        bidir_broken = 0
        for _ in range(100):
            tokens = [int(t) for t in rng.integers(3, 16, size=8)]
            t = int(rng.integers(0, 7))
            perturbed = list(tokens)
            for j in range(t + 1, 8):
                perturbed[j] = int(rng.integers(3, 16))
            if perturbed == tokens:
                perturbed[-1] = 3 if perturbed[-1] != 3 else 4
            _, a = forward(params, DESK_CFG, tokens, AttentionMode.CAUSAL)
            _, b = forward(params, DESK_CFG, perturbed, AttentionMode.CAUSAL)
            if np.abs(a.data[: t + 1] - b.data[: t + 1]).max() <= 1e-12:
                causal_ok += 1
            _, c = forward(params, DESK_CFG, tokens,
                           AttentionMode.BIDIRECTIONAL)
            _, d = forward(params, DESK_CFG, perturbed,
                           AttentionMode.BIDIRECTIONAL)
            if np.abs(c.data[: t + 1] - d.data[: t + 1]).max() > 1e-12:
                bidir_broken += 1
        ok = causal_ok == 100 and bidir_broken >= 95
        assert criterion("C2 causality", ok,
                         f"causal {causal_ok}/100, bidir broken "
                         f"{bidir_broken}/100")


class TestC3ScheduleExactness:
    def test_c3(self):
        s = WsdSchedule(peak_lr=5e-4, warmup_steps=2000, total_steps=42_000,
                        decay_steps=2000)
        plateau = all(wsd_lr(s, step) == 5e-4
                      for step in (1999, 2000, 5000, 21_000, 39_998, 39_999))
        mid_decay = wsd_lr(s, 41_000) == 2.5e-4
        ok = plateau and mid_decay
        assert criterion("C3 schedule exactness", ok,
                         f"plateau {plateau}, lr(41000)={wsd_lr(s, 41_000)}")


class TestC4OptimizerOracle:
    def test_c4(self):
        # unit gradient, fresh state, zero params (so no decay term): update
        # is -lr/(1+ADAM_EPS)
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        adamw_step(p, {"w": np.ones(3)}, AdamWState(), lr=0.01)
        step_err = float(np.abs(p["w"].data + 0.01 / (1 + ADAM_EPS)).max())

        # decoupled decay, zero gradient: exact (1 - lr*wd) factor
        p2 = {"w": Tensor(np.array([1.5, -2.0]), requires_grad=True)}
        adamw_step(p2, {"w": np.zeros(2)}, AdamWState(), lr=0.1)
        expected = np.array([1.5, -2.0]) * (1 - 0.1 * 0.1)
        decay_exact = float(np.abs(p2["w"].data - expected).max()) < 1e-15

        rng = np.random.default_rng(0)
        grads = {f"p{i}": rng.normal(size=16) * 5 for i in range(4)}
        clip_global_norm(grads)
        post = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))

        ok = step_err < 1e-9 and decay_exact and post <= 1.0 + 1e-12
        assert criterion("C4 optimizer oracle", ok,
                         f"step err {step_err:.1e}, decay exact {decay_exact},"
                         f" post-clip norm {post:.12f}")


class TestC5MaskingStatistics:
    def test_c5(self):
        rng = np.random.default_rng(0)
        tokens = [int(t) for t in rng.integers(3, 16, size=100)]
        results = []
        for ratio in (0.20, 0.30, 0.40, 0.50):
            n_masked = 0
            n_total = 0
            for row in range(1000):  # 10^5 positions per ratio
                plan = select_mask(tokens, ratio,
                                   np.random.default_rng([row, int(ratio * 100)]),
                                   MASK_ID)
                n_masked += len(plan.masked_positions)
                n_total += len(tokens)
            sd = math.sqrt(n_total * ratio * (1 - ratio))
            results.append((ratio, n_masked, abs(n_masked - n_total * ratio) <= 3 * sd))

        logits = Tensor(np.random.default_rng(1).normal(size=(8, 16)),
                        requires_grad=True)
        plan = MaskingPlan(MASK_ID, [1, 4, 6], [3, 5, 7])
        with Tape() as tape:
            loss = mlm_loss(logits, plan)
        backward(loss, tape)
        unmasked_zero = all(
            np.array_equal(logits.grad[pos], np.zeros(16))
            for pos in range(8) if pos not in plan.masked_positions)

        ok = all(r[2] for r in results) and unmasked_zero
        detail = ", ".join(f"{r[0]:.2f}->{r[1]}" for r in results)
        assert criterion("C5 masking statistics", ok,
                         detail + f"; unmasked grads zero {unmasked_zero}")


# -- independent brute-force metric oracles for C6 --------------------------

def bf_accuracy(preds, golds):
    hits = 0
    for p, g in zip(preds, golds):
        if p == g:
            hits += 1
    return hits / len(preds)


def bf_spans(tags):
    """Maximal-run decoder: any B-/I- opens a span extended by I-same-type."""
    spans = set()
    i = 0
    while i < len(tags):
        if tags[i] == "O":
            i += 1
            continue
        etype = tags[i][2:]
        j = i + 1
        while j < len(tags) and tags[j] == f"I-{etype}":
            j += 1
        spans.add((etype, i, j - 1))
        i = j
    return spans


def bf_entity_f1(pred_seqs, gold_seqs):
    tp = fp = fn = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        p, g = bf_spans(pred), bf_spans(gold)
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    if tp + fp + fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def bf_qa_f1(pred, gold):
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    overlap = 0
    remaining = sorted(gold)
    for tok in sorted(pred):  # merge-style multiset intersection
        if tok in remaining:
            remaining.remove(tok)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def bf_ndcg(ranked, relevance, k=10):
    if not any(v > 0 for v in relevance.values()):
        return None
    dcg = 0.0
    for rank, doc in enumerate(ranked[:k]):
        dcg += relevance.get(doc, 0) / math.log2(rank + 2)
    idcg = 0.0
    for rank, rel in enumerate(sorted(relevance.values(), reverse=True)[:k]):
        idcg += rel / math.log2(rank + 2)
    return dcg / idcg


class TestC6MetricOracles:
    def test_c6(self):
        rng = np.random.default_rng(0)
        tagset = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]

        acc_exact = f1_exact = qa_exact = True
        ndcg_worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            preds = [int(x) for x in rng.integers(0, 4, size=n)]
            golds = [int(x) for x in rng.integers(0, 4, size=n)]
            acc_exact &= accuracy(preds, golds) == bf_accuracy(preds, golds)

            p_tags = [tagset[i] for i in rng.integers(0, 5, size=n)]
            g_tags = [tagset[i] for i in rng.integers(0, 5, size=n)]
            f1_exact &= entity_f1(p_tags, g_tags) == bf_entity_f1([p_tags],
                                                                 [g_tags])

            pred = [int(x) for x in rng.integers(0, 6, size=rng.integers(0, 6))]
            gold = [int(x) for x in rng.integers(0, 6, size=rng.integers(0, 6))]
            qa_exact &= qa_f1(pred, gold) == bf_qa_f1(pred, gold)

            docs = list(range(int(rng.integers(2, 15))))
            relevance = {d: int(rng.integers(0, 4)) for d in docs
                         if rng.random() < 0.5}
            ranked = [int(d) for d in rng.permutation(docs)]
            a, b = ndcg_at_10(ranked, relevance), bf_ndcg(ranked, relevance)
            if a is None or b is None:
                assert a is None and b is None
            else:
                ndcg_worst = max(ndcg_worst, abs(a - b))

        rank3 = ndcg_at_10([101, 102, 0, 103], {0: 1})
        ok = (acc_exact and f1_exact and qa_exact and ndcg_worst <= 1e-12
              and rank3 == 0.5)
        assert criterion(
            "C6 metric oracles", ok,
            f"acc/f1/qa exact {acc_exact}/{f1_exact}/{qa_exact}, "
            f"ndcg max diff {ndcg_worst:.1e}, rank-3 {rank3}")


def analytic_clm_cross_entropy(params, cfg, sequences, transition) -> float:
    """Expected cross entropy of the model against the true chain, averaged
    over prediction positions. No sampling noise from targets, so the value
    is >= the entropy rate up to float roundoff."""
    total = 0.0
    count = 0
    n = transition.shape[1]
    for seq in sequences:
        _, logits = forward(params, cfg, seq, AttentionMode.CAUSAL)
        z = logits.data
        z = z - z.max(axis=1, keepdims=True)
        logq = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        for t in range(len(seq) - 1):
            state = seq[t] - NUM_RESERVED
            row = transition[state]
            total -= float(
                (row * logq[t, NUM_RESERVED: NUM_RESERVED + n]).sum())
            count += 1
    return total / count


class TestC7LearnabilityFloor:
    def test_c7(self):
        t0 = time.time()
        # zero-entropy pattern (0, 1, 2), a deterministic table: loss must
        # approach 0
        pattern_corpus = gen_corpus(CorpusSpec(
            num_symbols=3, transition=((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            target_tokens=30_000, min_len=16, max_len=48))
        stream = BatchStream(pattern_corpus.sequences, 4, 16, 48, 0)
        cfg = TrainConfig(objective_plan=[(Objective.CLM, 2000)],
                          schedule=WsdSchedule(1e-3, 200, 2000, 100))
        trace = []
        run_pfs(cfg, stream, DESK_CFG, trace=trace)
        pattern_loss = float(np.mean([r["loss"] for r in trace[-20:]]))

        # order-1 Markov chain: analytic cross entropy must sit in
        # [H - 1e-6, H + 0.15]
        markov = gen_corpus(CorpusSpec(num_symbols=6, seed=5,
                                       target_tokens=60_000, min_len=16,
                                       max_len=48))
        stream = BatchStream(markov.sequences, 4, 16, 48, 0)
        cfg = TrainConfig(objective_plan=[(Objective.CLM, 2000)],
                          schedule=WsdSchedule(1e-3, 200, 2000, 100))
        final = run_pfs(cfg, stream, DESK_CFG)
        held_out = gen_corpus(CorpusSpec(
            num_symbols=6, seed=6, target_tokens=10_000, min_len=16,
            max_len=48,
            transition=tuple(tuple(row) for row in markov.transition)))
        loss = analytic_clm_cross_entropy(final.params, DESK_CFG,
                                          held_out.sequences,
                                          markov.transition)
        H = markov.entropy_rate
        elapsed = time.time() - t0
        ok = (pattern_loss < 0.05 and H - 1e-6 <= loss <= H + 0.15
              and elapsed < 600)
        assert criterion(
            "C7 learnability floor", ok,
            f"pattern loss {pattern_loss:.4f}, markov loss {loss:.4f} vs "
            f"H={H:.4f}, {elapsed:.0f}s")


class TestC8RegimeIdentities:
    def params_equal(self, a, b):
        return sorted(a) == sorted(b) and all(
            np.array_equal(a[n].data, b[n].data) for n in a)

    def test_c8(self, tmp_path):
        def stream():
            corpus = gen_corpus(CorpusSpec(num_symbols=5, target_tokens=4000,
                                           min_len=8, max_len=16))
            return BatchStream(corpus.sequences, 2, 8, 16, 0)

        sched = WsdSchedule(1e-3, 4, 30, 4)

        def cfg(plan, **kw):
            return TrainConfig(objective_plan=plan, schedule=sched, **kw)

        pure_clm = run_pfs(cfg([(Objective.CLM, 30)]), stream(), DESK_CFG)
        pure_mlm = run_pfs(cfg([(Objective.MLM, 30)]), stream(), DESK_CFG)
        bi_clm = run_pfs(cfg([(Objective.CLM, 30), (Objective.MLM, 0)]),
                         stream(), DESK_CFG)
        bi_mlm = run_pfs(cfg([(Objective.CLM, 0), (Objective.MLM, 30)]),
                         stream(), DESK_CFG)
        identities = (self.params_equal(pure_clm.params, bi_clm.params)
                      and self.params_equal(pure_mlm.params, bi_mlm.params))

        # handoff: weights at the switch equal a pure-CLM run stopped there
        d1, d2 = tmp_path / "bi", tmp_path / "clm"
        d1.mkdir(), d2.mkdir()
        run_pfs(cfg([(Objective.CLM, 10), (Objective.MLM, 20)],
                    checkpoint_cadence=10, checkpoint_dir=str(d1)),
                stream(), DESK_CFG)
        run_pfs(cfg([(Objective.CLM, 30)], checkpoint_cadence=10,
                    checkpoint_dir=str(d2)), stream(), DESK_CFG)
        at_switch = load_checkpoint(d1 / "step_00000010.ckpt")
        clm_there = load_checkpoint(d2 / "step_00000010.ckpt")
        handoff = self.params_equal(at_switch.params, clm_there.params)

        # save/load/resume reproduces an uninterrupted run bit-exactly
        d3 = tmp_path / "resume"
        d3.mkdir()
        resume_cfg = cfg([(Objective.MLM, 30)], checkpoint_cadence=15,
                         checkpoint_dir=str(d3))
        full = run_pfs(resume_cfg, stream(), DESK_CFG)
        mid = load_checkpoint(d3 / "step_00000015.ckpt")
        resumed = run_pfs(resume_cfg, stream(), DESK_CFG, resume_from=mid)
        resume_exact = self.params_equal(full.params, resumed.params)

        ok = identities and handoff and resume_exact
        assert criterion("C8 regime identities", ok,
                         f"degenerate {identities}, handoff {handoff}, "
                         f"resume {resume_exact}")


class TestC9HarnessContract:
    def test_c9(self):
        model_cfg = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                                kv_heads=2, vocab_size=64, max_seq_len=64)
        sched = WsdSchedule(1e-3, 2, 10, 2)
        base = Checkpoint(model_cfg, init_params(model_cfg, 0), AdamWState(),
                          sched, step=10)
        ds = gen_task_data("SC", 150, seed=0)
        spec = GridSearchSpec()  # the exact study grid: 6 lrs x 5 seeds
        report = run_grid_search(base, ds, spec)
        runs_ok = len(report.rows) == 30

        by_lr = {}
        for row in report.rows:
            by_lr.setdefault(row["lr"], []).append(row["validation"])
        means = {lr: float(np.mean(v)) for lr, v in by_lr.items()}
        best = max(means.values())
        expected_lr = min(lr for lr, m in means.items() if m == best)
        argmax_ok = report.selected_lr == expected_lr

        hand = ci95_half_width([1, 2, 3, 4, 5])
        table_ok = (abs(hand - 1.386) < 1e-3
                    and float(np.mean([1, 2, 3, 4, 5])) == 3.0)
        chosen = [r["test"] for r in report.rows
                  if r["lr"] == report.selected_lr]
        ci_ok = report.ci95 == ci95_half_width(chosen) and len(chosen) == 5

        ok = runs_ok and argmax_ok and table_ok and ci_ok
        assert criterion(
            "C9 harness contract", ok,
            f"runs {len(report.rows)}, lr {report.selected_lr}, "
            f"hand ci95 {hand:.3f}, test {report.test_mean:.3f}"
            f"+/-{report.ci95:.3f}")


class TestC10DirectionalTrend:
    def test_c10(self):
        model_cfg = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                                kv_heads=2, vocab_size=64, max_seq_len=64)
        corpus = gen_corpus(CorpusSpec(num_symbols=40, target_tokens=60_000,
                                       min_len=16, max_len=48, seed=0))
        sched = WsdSchedule(1e-3, 300, 3000, 150)
        plans = {
            "mlm-only": [(Objective.MLM, 3000)],
            "biphasic-25-75": [(Objective.CLM, 750), (Objective.MLM, 2250)],
            "biphasic-50-50": [(Objective.CLM, 1500), (Objective.MLM, 1500)],
        }
        ds = gen_task_data("SC", 500, seed=0)
        spec = GridSearchSpec(learning_rates=(1e-3,), seeds=(0, 1, 2, 3, 4))
        means = {}
        for name, plan in plans.items():
            stream = BatchStream(corpus.sequences, 4, 16, 48, 0)
            cfg = TrainConfig(objective_plan=plan, schedule=sched,
                              mask_ratio=0.4)
            ckpt = run_pfs(cfg, stream, model_cfg)
            scores = []
            for seed in spec.seeds:
                params, head = finetune_one(ckpt, ds, 1e-3, seed, spec)
                scores.append(evaluate("SC", head, params, model_cfg,
                                       ds.test, ds))
            means[name] = float(np.mean(scores))

        deviations = [name for name in ("biphasic-25-75", "biphasic-50-50")
                      if means[name] < means["mlm-only"] - 0.02]
        detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
        if deviations:
            detail += f"; deviations (logged, non-gating): {deviations}"
        criterion("C10 directional trend (non-gating)", not deviations,
                  detail)
        # non-gating by design: the criterion line reports any deviation
        assert True
