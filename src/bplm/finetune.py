"""Fine-tuning protocol and evaluation harness for the four task families.

All fine-tuning runs use bidirectional attention regardless of how the
checkpoint was pretrained, a linear-warmup/linear-decay schedule, and a grid
of learning rates repeated across seeds. Metrics: accuracy (SC), span-level
F1 (TC), token-overlap F1 (QA), and NDCG@10 (IR).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .data import TaskDataset, TaskExample
# forward is not called here; benchmark/probes.py wraps bplm.finetune.forward
from .model import (AttentionMode, ModelConfig, Parameters, forward,  # noqa: F401
                    forward_batch)
from .optim import (AdamWState, adamw_step, clip_global_norm,
                    rescaled_schedule, wsd_lr)
from .runner import Checkpoint
from .tensor import Tape, Tensor, backward

STUDY_LEARNING_RATES = (1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4)

REPORT_FIELDS = ("task", "dataset", "lr", "seed", "split", "metric", "value")

INFONCE_TEMPERATURE = 0.05  # IR similarities are divided by this


@dataclass(frozen=True)
class GridSearchSpec:
    learning_rates: Tuple[float, ...] = STUDY_LEARNING_RATES
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    max_steps: int = 1000
    batch_size: int = 32

    def __post_init__(self):
        for name in ("learning_rates", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("max_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class RunReport:
    task: str
    rows: List[dict]            # lr, seed, split ("validation"/"test"), value
    selected_lr: float
    test_mean: float
    ci95: Optional[float]       # None when fewer than 2 seeds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def accuracy(preds: Sequence[int], golds: Sequence[int]) -> float:
    if len(preds) != len(golds):
        raise ValueError("length mismatch")
    if not preds:
        raise ValueError("empty input")
    return sum(p == g for p, g in zip(preds, golds)) / len(preds)


def bio_spans(tags: Sequence[str]) -> set:
    """Decode (type, start, end) spans; a stray I- opens a new span."""
    spans = set()
    start = None
    etype = None
    for i, tag in enumerate(tags):
        if tag.startswith("B-") or (tag.startswith("I-")
                                    and (start is None or tag[2:] != etype)):
            if start is not None:
                spans.add((etype, start, i - 1))
            start, etype = i, tag[2:]
        elif tag == "O":
            if start is not None:
                spans.add((etype, start, i - 1))
            start, etype = None, None
    if start is not None:
        spans.add((etype, start, len(tags) - 1))
    return spans


def entity_f1(pred_tags, gold_tags) -> float:
    """Micro-averaged exact-span F1. Accepts one tag sequence or a list of
    sequences (corpus-level micro average)."""
    if pred_tags and isinstance(pred_tags[0], str):
        pred_tags, gold_tags = [pred_tags], [gold_tags]
    tp = fp = fn = 0
    for pred, gold in zip(pred_tags, gold_tags):
        if len(pred) != len(gold):
            raise ValueError("tag sequence length mismatch")
        p_spans, g_spans = bio_spans(pred), bio_spans(gold)
        tp += len(p_spans & g_spans)
        fp += len(p_spans - g_spans)
        fn += len(g_spans - p_spans)
    if tp + fp + fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def qa_f1(pred_tokens: Sequence[int], gold_tokens: Sequence[int]) -> float:
    """Token-multiset overlap F1; both empty (both no-answer) scores 1."""
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    from collections import Counter
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


NDCG_K = 10  # the ranks ndcg_at_10 scores


def ndcg_at_10(ranked_ids: Sequence, relevance: Dict) -> Optional[float]:
    """DCG@NDCG_K with gain = relevance and discount 1/log2(rank+1),
    normalized by the ideal DCG. Returns None when nothing is relevant."""
    rels = [relevance.get(doc, 0) for doc in ranked_ids[:NDCG_K]]
    ideal = sorted(relevance.values(), reverse=True)[:NDCG_K]
    if not ideal or ideal[0] <= 0:
        return None
    dcg = sum(r / math.log2(rank + 2) for rank, r in enumerate(rels))
    idcg = sum(r / math.log2(rank + 2) for rank, r in enumerate(ideal))
    return dcg / idcg


# ---------------------------------------------------------------------------
# encoding and task heads
# ---------------------------------------------------------------------------

EVAL_CHUNK = 16  # examples per encode in evaluate (an IR chunk's queries
                 # and documents share it); bounds peak memory


def encode(params: Parameters, cfg: ModelConfig,
           seqs: Sequence[Sequence[int]]) -> Tuple[Tensor, np.ndarray]:
    """Hidden states in Bidirectional mode (the fine-tuning contract) of B
    sequences as one batched forward: the [N, d] hidden states of their N
    tokens, sequence after sequence, and the B lengths."""
    return (forward_batch(params, cfg, seqs, AttentionMode.BIDIRECTIONAL),
            np.array([len(s) for s in seqs]))


def init_head(task: str, cfg: ModelConfig, dataset: TaskDataset,
              seed: int) -> Dict[str, Tensor]:
    """The task head: one [d, width] weight "w", or none at width 0 (IR
    scores by similarity)."""
    widths = {"SC": dataset.num_classes, "TC": len(dataset.tagset),
              "QA": 2, "IR": 0}
    if task not in widths:
        raise ValueError(f"unknown task {task!r}")
    if not widths[task]:
        return {}
    rng = np.random.default_rng([seed, 7])
    w = rng.normal(0.0, 0.02, size=(cfg.embed_dim, widths[task]))
    return {"w": Tensor(w, requires_grad=True)}


def _scores(task: str, head: Dict[str, Tensor], params: Parameters,
            cfg: ModelConfig, batch: Sequence[TaskExample]) -> Tensor:
    """The task head's scores for a batch of B examples, from one encode,
    as task_loss and evaluate both read them:
    - SC: class logits [B, classes];
    - TC: tag logits [N, tags], one row per token, example after
      example;
    - QA: position logits [2B, W], the B start rows then the B end rows,
      NEG_INF past each example's end;
    - IR: cosine similarities [B, D] of each query to every document: the
      B positives in batch order, then each example's negatives in turn.
      The B queries and the D documents share one encode, queries first.
      With 5-token queries and d = 32 an evaluate chunk of 16 examples
      ran 1.00-1.03x the time of two encodes, with 16- or 64-token
      documents alike.
    """
    if task == "IR":
        seqs = ([ex.query for ex in batch] + [ex.positive for ex in batch]
                + [neg for ex in batch for neg in ex.negatives or ()])
        unit = T.l2_normalize_rows(T.mean_pool(*encode(params, cfg, seqs)))
        b = len(batch)
        return T.matmul(T.gather_rows(unit, range(b)), T.transpose(
            T.gather_rows(unit, range(b, len(seqs)))))
    if task not in ("SC", "TC", "QA"):
        raise ValueError(f"unknown task {task!r}")
    hidden, lengths = encode(params, cfg, [ex.tokens for ex in batch])
    if task == "SC":
        return T.matmul(T.mean_pool(hidden, lengths), head["w"])
    scores = T.matmul(hidden, head["w"])
    if task == "TC":
        return scores
    real = np.arange(lengths.max()) < lengths[:, None]  # [B, W] grid
    rows, width = real.shape
    grid = T.scatter_rows(scores, np.flatnonzero(real), real.size)
    return T.add_const(T.reshape(T.transpose(grid), 2 * rows, width),
                       np.where(np.tile(real, (2, 1)), 0.0, T.NEG_INF))


def task_loss(task: str, head: Dict[str, Tensor], params: Parameters,
              cfg: ModelConfig, batch: Sequence[TaskExample],
              dataset: TaskDataset) -> Tensor:
    """Mean over the batch of each example's loss: cross-entropy of the SC
    label, of each TC tag (the example's mean over its tokens), of the QA
    start and end positions (their mean; no-answer targets position 0), or
    InfoNCE of each IR query against every document in the batch."""
    if any(ex.task != task for ex in batch):
        raise ValueError("batch task mismatch")
    scores = _scores(task, head, params, cfg, batch)
    if task == "SC":
        return T.cross_entropy_from_logits(scores, [ex.label for ex in batch])
    if task == "TC":
        tag_ids = {t: i for i, t in enumerate(dataset.tagset)}
        lengths = np.array([len(ex.tags) for ex in batch])
        return T.cross_entropy_from_logits(
            scores, [tag_ids[t] for ex in batch for t in ex.tags],
            np.repeat(1.0 / (lengths * len(batch)), lengths))
    if task == "QA":
        spans = [ex.span or (0, 0) for ex in batch]
        return T.cross_entropy_from_logits(
            scores, [s for s, _ in spans] + [e for _, e in spans])
    return T.cross_entropy_from_logits(
        T.scale(scores, 1.0 / INFONCE_TEMPERATURE), list(range(len(batch))))


# ---------------------------------------------------------------------------
# prediction and per-split evaluation
# ---------------------------------------------------------------------------

def _predict_span(start_scores: np.ndarray, end_scores: np.ndarray
                  ) -> Optional[Tuple[int, int]]:
    """Independent argmax with start<=end repair; position 0 is no-answer."""
    s = int(start_scores.argmax())
    e = int(end_scores.argmax())
    if s == 0 or e == 0:
        return None
    if s > e:
        e = s
    return s, e


def _span_tokens(tokens: List[int], span: Optional[Tuple[int, int]]
                 ) -> List[int]:
    return tokens[span[0]: span[1] + 1] if span is not None else []


def evaluate(task: str, head: Dict[str, Tensor], params: Parameters,
             cfg: ModelConfig, examples: Sequence[TaskExample],
             dataset: TaskDataset) -> float:
    """The split's score, over chunks of at most EVAL_CHUNK examples: SC
    accuracy, TC entity F1, QA token F1, or IR mean NDCG@10 with the
    example's labeled documents as the candidate pool, of which the positive
    is the one relevant document."""
    if not examples:
        raise ValueError("empty split")
    preds = []
    for lo in range(0, len(examples), EVAL_CHUNK):
        chunk = examples[lo: lo + EVAL_CHUNK]
        scores = _scores(task, head, params, cfg, chunk).data
        n = len(chunk)
        if task == "SC":
            preds += [int(i) for i in scores.argmax(axis=1)]
        elif task == "TC":
            ends = np.cumsum([len(ex.tokens) for ex in chunk])[:-1]
            preds += [[dataset.tagset[i] for i in row]
                      for row in np.split(scores.argmax(axis=1), ends)]
        elif task == "QA":
            for b, ex in enumerate(chunk):
                span = _predict_span(scores[b], scores[n + b])
                preds.append(qa_f1(_span_tokens(ex.tokens, span),
                                   _span_tokens(ex.tokens, ex.span)))
        else:
            at = n  # the chunk's negatives follow its positives
            for b, ex in enumerate(chunk):
                n_neg = len(ex.negatives or ())
                row = [scores[b, b]] + list(scores[b, at: at + n_neg])
                at += n_neg
                # a negative tied with the positive ranks above it
                ranked = sorted(range(len(row)),
                                key=lambda i: (-row[i], i == 0))
                preds.append(ndcg_at_10(ranked, {0: 1}))
    if task == "SC":
        return accuracy(preds, [ex.label for ex in examples])
    if task == "TC":
        return entity_f1(preds, [ex.tags for ex in examples])
    return float(np.mean(preds))


# ---------------------------------------------------------------------------
# fine-tuning loop and grid search
# ---------------------------------------------------------------------------

def finetune_one(base: Checkpoint, dataset: TaskDataset, lr: float, seed: int,
                 spec: GridSearchSpec) -> Tuple[Parameters, Dict[str, Tensor]]:
    """Fine-tune a copy of the checkpoint for up to min(max_steps, 1 epoch)."""
    cfg = base.model_config
    # adamw_step copies the weights into buffers of its own at its first step
    params = {name: Tensor(p.data, requires_grad=True)
              for name, p in base.params.items()}
    head = init_head(dataset.task, cfg, dataset, seed)
    # encode never reaches the LM head, so it stays as the base has it
    trainable = {name: p for name, p in params.items() if name != "head"}
    trainable.update({f"__head.{k}": v for k, v in head.items()})

    rng = np.random.default_rng([seed, 13])
    order = rng.permutation(len(dataset.train))
    steps_per_epoch = math.ceil(len(dataset.train) / spec.batch_size)
    total_steps = min(spec.max_steps, steps_per_epoch)
    # 10% warmup, then linear decay to zero at total_steps
    schedule = rescaled_schedule(lr, total_steps, 1.0)
    opt = AdamWState()
    cell = f"the lr={lr:g}, seed={seed} cell"  # names a diverging cell

    for step in range(total_steps):
        lo = step * spec.batch_size
        batch = [dataset.train[i] for i in order[lo: lo + spec.batch_size]]
        with Tape() as tape:
            loss = task_loss(dataset.task, head, params, cfg, batch, dataset)
        if not math.isfinite(loss.item()):
            raise ValueError(
                f"non-finite loss {loss.item()} at step {step} of {cell}")
        backward(loss, tape)
        grads = {n: p.grad for n, p in trainable.items() if p.grad is not None}
        try:
            clip_global_norm(grads)
        except ValueError as err:
            raise ValueError(f"{err} at step {step} of {cell}") from None
        adamw_step(trainable, grads, opt, wsd_lr(schedule, step))
        for p in trainable.values():
            p.zero_grad()
    return params, head


def _finetune_and_eval(base: Checkpoint, dataset: TaskDataset, lr: float,
                       seed: int, spec: GridSearchSpec) -> dict:
    params, head = finetune_one(base, dataset, lr, seed, spec)
    return {
        "lr": lr, "seed": seed,
        "validation": evaluate(dataset.task, head, params, base.model_config,
                               dataset.validation, dataset),
        "test": evaluate(dataset.task, head, params, base.model_config,
                         dataset.test, dataset),
    }


def select_best_lr(rows: Sequence[dict]) -> float:
    """Argmax of the mean validation metric; ties go to the smaller lr."""
    by_lr: Dict[float, List[float]] = {}
    for row in rows:
        by_lr.setdefault(row["lr"], []).append(row["validation"])
    means = {lr: float(np.mean(v)) for lr, v in by_lr.items()}
    best = max(means.values())
    return min(lr for lr, m in means.items() if m == best)


def ci95_half_width(values: Sequence[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    return 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))


def run_grid_search(base: Checkpoint, dataset: TaskDataset,
                    spec: GridSearchSpec = GridSearchSpec(),
                    jobs: int = 1) -> RunReport:
    """The full protocol: every (lr, seed) cell fine-tuned and evaluated,
    lr selected on validation, test mean and ci95 reported across seeds."""
    # the cells run one after another; jobs stays only because
    # benchmark/workloads.py passes jobs=1 by keyword
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    for name, split in dataset.splits().items():
        if not split:
            raise ValueError(f"empty {name} split")
    rows = [_finetune_and_eval(base, dataset, lr, seed, spec)
            for lr in spec.learning_rates for seed in spec.seeds]
    selected = select_best_lr(rows)
    test_scores = [r["test"] for r in rows if r["lr"] == selected]
    return RunReport(
        task=dataset.task, rows=rows, selected_lr=selected,
        test_mean=float(np.mean(test_scores)),
        ci95=ci95_half_width(test_scores),
    )


def write_report(report: RunReport, dataset_name: str, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        for row in report.rows:
            for split in ("validation", "test"):
                writer.writerow({
                    "task": report.task, "dataset": dataset_name,
                    "lr": row["lr"], "seed": row["seed"], "split": split,
                    "metric": _metric_name(report.task), "value": row[split],
                })


def _metric_name(task: str) -> str:
    return {"SC": "accuracy", "TC": "entity_f1", "QA": "qa_f1",
            "IR": "ndcg@10"}[task]
