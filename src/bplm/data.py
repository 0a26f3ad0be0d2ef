"""Reserved token ids, synthetic corpora with known entropy rates,
unpadded variable-length batches, and synthetic fine-tuning datasets.

Every corpus comes from an order-k Markov table, whose exact conditional
entropy is computable, so trained-model losses can be checked against an
information-theoretic floor instead of opaque reference numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .objectives import LmBatch, select_mask  # noqa: F401 (re-export)

PAD_ID = 0  # reserved; src pads no tokens, benchmark/workloads.py reads it
MASK_ID = 1
NUM_RESERVED = 3  # ids 0..2; id 2 is reserved but unused
MAX_MARKOV_STATES = 4096  # gen_corpus's dense state chain: 128 MiB
PEAKEDNESS = 8.0  # added to one entry per Markov row; higher, lower entropy


@dataclass(frozen=True)
class CorpusSpec:
    order: int = 1
    num_symbols: int = 6
    seed: int = 0
    target_tokens: int = 50_000
    min_len: int = 8
    max_len: int = 128
    transition: Optional[Tuple[Tuple[float, ...], ...]] = None  # explicit P

    def __post_init__(self):
        if self.min_len < 2:
            raise ValueError("min_len must be >= 2")
        if self.max_len < self.min_len:
            raise ValueError("max_len < min_len")
        if self.target_tokens < 1:
            raise ValueError("target_tokens must be >= 1")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be >= 1")
        if self.num_symbols ** self.order > MAX_MARKOV_STATES:
            raise ValueError(f"num_symbols ** order = {self.num_symbols} ** "
                             f"{self.order} exceeds {MAX_MARKOV_STATES} states")


@dataclass
class Corpus:
    sequences: List[List[int]]
    entropy_rate: float  # nats per token, exact for the generating chain
    transition: np.ndarray  # [states x symbols]


def _stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix via eigenvector."""
    vals, vecs = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi)
    return pi / pi.sum()


def _markov_table(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic transition table over order-k states via a Dirichlet
    with one entry per row boosted by PEAKEDNESS (peaked, so learnable)."""
    n_states = spec.num_symbols ** spec.order
    P = rng.dirichlet(np.ones(spec.num_symbols), size=n_states)
    boost = rng.integers(0, spec.num_symbols, size=n_states)
    P[np.arange(n_states), boost] += PEAKEDNESS
    P /= P.sum(axis=1, keepdims=True)
    return P


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF Generator.choice(a, p=p) builds before its searchsorted;
    one per row of a 2-D p."""
    c = np.cumsum(p, axis=-1)
    c /= c[..., -1:]
    return c


def gen_corpus(spec: CorpusSpec) -> Corpus:
    """Generate token sequences plus the exact entropy rate of the source.

    Symbols occupy ids NUM_RESERVED .. NUM_RESERVED+num_symbols-1 so that
    pad/mask ids never collide with corpus tokens. The output is the one a
    per-token rng.choice(n, p=P[state]) walk gives: each choice maps one
    random() double through searchsorted(cdf, side="right"). So all lengths
    are drawn in one call, all doubles in another, and every sequence steps
    at once: at each step a live sequence's symbol is the count of its CDF
    row's entries <= its double, which is searchsorted's answer.
    """
    rng = np.random.default_rng(spec.seed)
    lengths_rng = np.random.default_rng(spec.seed + 1)

    n = spec.num_symbols
    k = spec.order
    n_states = n ** k
    if spec.transition is not None:
        P = np.asarray(spec.transition, dtype=np.float64)
        # the row-sum tolerance Generator.choice applied to each row
        atol = np.sqrt(np.finfo(np.float64).eps)
        if P.shape != (n_states, n) \
                or not (np.abs(P.sum(axis=1) - 1.0) <= atol).all():
            raise ValueError("transition table must be row-stochastic "
                             "with one row per order-k state")
        if (P < 0).any():
            raise ValueError("transition table has negative entries")
    else:
        P = _markov_table(spec, rng)
    # state-to-state chain for the stationary distribution; add.at sums in
    # index order, as a loop over (state, symbol) would
    Q = np.zeros((n_states, n_states))
    src = np.repeat(np.arange(n_states), n)
    np.add.at(Q, (src, (src * n + np.tile(np.arange(n), n_states))
                  % n_states), P.ravel())
    pi = _stationary(Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(P > 0, np.log(P), 0.0)
    # + 0.0: a deterministic table sums to -0.0, which reads as 0.0
    entropy = float(-(pi[:, None] * P * logs).sum()) + 0.0

    # one call of size m gives the values of m single draws; cut after the
    # first prefix that reaches the target
    lengths = lengths_rng.integers(spec.min_len, spec.max_len + 1,
                                   size=-(-spec.target_tokens // spec.min_len))
    lengths = lengths[:np.searchsorted(np.cumsum(lengths),
                                       spec.target_tokens) + 1]
    emits = np.maximum(lengths - k, 0)
    # one double for the start state, then one per emitted symbol
    first = np.cumsum(1 + emits) - (1 + emits)
    u = rng.random(int(first[-1] + 1 + emits[-1]))

    # longest first (stable), so the sequences live at step t are a prefix;
    # start from a stationary state so no sequence has a transient, its k
    # symbols oldest first
    order = np.argsort(-emits, kind="stable")
    first, emits = first[order], emits[order]
    width = int(emits[0])
    state = np.searchsorted(_cdf(pi), u[first], side="right")
    # one row per step, one column per sequence; so are the doubles, whose
    # entries past a sequence's end go unread
    out = np.empty((k + width, len(order)), dtype=np.int64)
    out[:k] = state // n ** np.arange(k - 1, -1, -1)[:, None] % n
    U = u[np.minimum(first + np.arange(1, width + 1)[:, None], len(u) - 1)]
    cols = np.ascontiguousarray(_cdf(P).T)  # one row per symbol
    # live[t]: how many sequences emit a symbol at step t
    live = np.searchsorted(-emits, -np.arange(width), side="left")
    for t, m in enumerate(live.tolist()):
        s = state[:m]
        sym = (cols.take(s, axis=1) <= U[t, :m]).sum(axis=0)
        out[k + t, :m] = sym
        state[:m] = (s * n + sym) % n_states
    tokens = np.empty_like(out.T)
    tokens[order] = out.T + NUM_RESERVED
    sequences = [row[:length] for row, length
                 in zip(tokens.tolist(), lengths.tolist())]
    return Corpus(sequences, entropy, P)


class BatchStream:
    """Deterministic, randomly-accessible stream of LmBatch values.

    batch(step) depends only on (seed, step), which makes mid-run resumes
    exact: a resumed runner regenerates precisely the batches it would have
    seen. The pool's sequences are read-only int64 arrays, which batches
    hold without a copy.
    """

    def __init__(self, sequences: Sequence[Sequence[int]], batch_rows: int,
                 min_len: int, max_len: int, seed: int):
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if max_len < min_len:
            raise ValueError(f"max_len {max_len} < min_len {min_len}")
        self.pool = [np.array(s[:max_len], dtype=np.int64)
                     for s in sequences if len(s) >= min_len]
        for seq in self.pool:
            seq.flags.writeable = False
        self.discarded = len(sequences) - len(self.pool)
        if not self.pool:
            raise ValueError("no sequences of at least min_len tokens")
        self.batch_rows = batch_rows
        self.seed = seed

    def batch(self, step: int) -> LmBatch:
        rng = np.random.default_rng([self.seed, step])
        idx = rng.integers(0, len(self.pool), size=self.batch_rows)
        return LmBatch([self.pool[i] for i in idx])


def pack_batches(sequences, batch_rows, min_len, max_len, pad_id, seed):
    """BatchStream under the name and signature benchmark/workloads.py
    calls; pad_id is unused, since batches hold their sequences unpadded."""
    return BatchStream(sequences, batch_rows, min_len, max_len, seed)


# ---------------------------------------------------------------------------
# synthetic fine-tuning tasks
# ---------------------------------------------------------------------------

@dataclass
class TaskExample:
    task: str  # "SC" | "TC" | "QA" | "IR"
    tokens: Optional[List[int]] = None
    label: Optional[int] = None                    # SC
    tags: Optional[List[str]] = None               # TC, BIO strings
    span: Optional[Tuple[int, int]] = None         # QA, None = no-answer
    query: Optional[List[int]] = None              # IR
    positive: Optional[List[int]] = None
    negatives: Optional[List[List[int]]] = None


@dataclass
class TaskDataset:
    task: str
    train: List[TaskExample]
    validation: List[TaskExample]
    test: List[TaskExample]
    num_classes: int = 0      # SC
    tagset: Tuple[str, ...] = ()  # TC

    def splits(self) -> Dict[str, List[TaskExample]]:
        return {"train": self.train, "validation": self.validation,
                "test": self.test}


TC_TYPES = ("PER", "LOC")
TC_TAGSET = ("O",) + tuple(f"{b}-{t}" for t in TC_TYPES for b in ("B", "I"))
TASK_SEQ_LEN = 16  # tokens per sequence (each IR document)
IR_NEGATIVES = 3  # documents per IR example besides the positive

# token-id layout for synthetic tasks (all < 64 so tiny vocabs work)
_FILLER = np.arange(8, 24)
_SC_KEYWORDS = (24, 25, 26)          # one per class
_TC_ENTITY = {"PER": (28, 31), "LOC": (32, 35)}  # inclusive id ranges
_QA_MARKER = 36
_IR_RARE = np.arange(40, 56)
_BOS = 7


def _rand_filler(rng, n) -> List[int]:
    # the draw Generator.choice(_FILLER, size=n) makes
    return _FILLER[rng.integers(0, len(_FILLER), size=n)].tolist()


def _gen_sc(rng) -> TaskExample:
    label = int(rng.integers(0, len(_SC_KEYWORDS)))
    tokens = _rand_filler(rng, TASK_SEQ_LEN)
    tokens[int(rng.integers(0, TASK_SEQ_LEN))] = _SC_KEYWORDS[label]
    return TaskExample("SC", tokens=tokens, label=label)


def _gen_tc(rng) -> TaskExample:
    tokens = _rand_filler(rng, TASK_SEQ_LEN)
    tags = ["O"] * TASK_SEQ_LEN
    n_entities = int(rng.integers(1, 3))
    for _ in range(n_entities):
        etype = TC_TYPES[int(rng.integers(0, len(TC_TYPES)))]
        lo, hi = _TC_ENTITY[etype]
        length = int(rng.integers(1, 4))
        start = int(rng.integers(0, TASK_SEQ_LEN - length + 1))
        if any(tags[i] != "O" for i in range(start, start + length)):
            continue
        for j in range(length):
            tokens[start + j] = int(rng.integers(lo, hi + 1))
            tags[start + j] = ("B-" if j == 0 else "I-") + etype
    return TaskExample("TC", tokens=tokens, tags=tags)


def _gen_qa(rng) -> TaskExample:
    # answer = run of tokens right after the marker; position 0 is a BOS
    # sentinel reserved for no-answer examples
    tokens = [_BOS] + _rand_filler(rng, TASK_SEQ_LEN - 1)
    if rng.random() < 0.25:
        return TaskExample("QA", tokens=tokens, span=None)
    ans_len = int(rng.integers(1, 4))
    start = int(rng.integers(1, TASK_SEQ_LEN - ans_len - 1))
    tokens[start - 1] = _QA_MARKER
    return TaskExample("QA", tokens=tokens, span=(start, start + ans_len - 1))


def _gen_ir(rng) -> TaskExample:
    rare = int(_IR_RARE[rng.integers(0, len(_IR_RARE))])
    query = _rand_filler(rng, 4) + [rare]
    positive = _rand_filler(rng, TASK_SEQ_LEN)
    positive[int(rng.integers(0, TASK_SEQ_LEN))] = rare
    negatives = [_rand_filler(rng, TASK_SEQ_LEN) for _ in range(IR_NEGATIVES)]
    return TaskExample("IR", query=query, positive=positive,
                       negatives=negatives)


def _example_key(ex: TaskExample) -> tuple:
    return (tuple(ex.tokens or ()), tuple(ex.query or ()),
            tuple(ex.positive or ()))


def gen_task_data(task: str, size: int, seed: int) -> TaskDataset:
    """Learnable-by-construction synthetic dataset with disjoint splits."""
    if size < 30:
        raise ValueError("size must be >= 30 to stratify splits")
    gen = {"SC": _gen_sc, "TC": _gen_tc, "QA": _gen_qa, "IR": _gen_ir}
    if task not in gen:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    examples: List[TaskExample] = []
    seen = set()
    while len(examples) < size:
        ex = gen[task](rng)
        key = _example_key(ex)
        if key in seen:
            continue
        seen.add(key)
        examples.append(ex)
    n_test = max(size // 5, 5)
    n_val = max(size // 5, 5)
    ds = TaskDataset(
        task=task,
        train=examples[: size - n_val - n_test],
        validation=examples[size - n_val - n_test: size - n_test],
        test=examples[size - n_test:],
    )
    if task == "SC":
        ds.num_classes = len(_SC_KEYWORDS)
    if task == "TC":
        ds.tagset = TC_TAGSET
    return ds


# ---------------------------------------------------------------------------
# JSONL task files
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = {
    "SC": ("tokens", "label"),
    "TC": ("tokens", "tags"),
    "QA": ("tokens", "span"),
    "IR": ("query", "positive", "negatives"),
}
_NONEMPTY_FIELDS = ("tokens", "tags", "query", "positive")


def _token_list(value) -> bool:
    # JSON true is a Python bool, which isinstance(..., int) would take
    return isinstance(value, list) and bool(value) \
        and all(type(t) is int and t >= 0 for t in value)


# what each field must hold, and the test of it
_FIELD_TYPES = {
    **dict.fromkeys(("tokens", "query", "positive"),
                    ("a list of non-negative ints", _token_list)),
    "label": ("an int", lambda v: type(v) is int),
    "tags": ("a list of strings",
             lambda v: isinstance(v, list)
             and all(isinstance(t, str) for t in v)),
    "span": ("null or a list of two ints",
             lambda v: v is None or (isinstance(v, list) and len(v) == 2
                                     and all(type(i) is int for i in v))),
    "negatives": ("null or a list of non-empty token lists",
                  lambda v: v is None
                  or (isinstance(v, list) and all(map(_token_list, v)))),
}


def save_jsonl(examples: Sequence[TaskExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {"task": ex.task}
            for name in _REQUIRED_FIELDS[ex.task]:
                value = getattr(ex, name)
                rec[name] = list(value) if name == "span" and value else value
            f.write(json.dumps(rec) + "\n")


def _read_jsonl(path, task: str):
    """(place, TaskExample) for each non-blank line, checked on its own;
    place names the file and the line for error messages."""
    if task not in _REQUIRED_FIELDS:
        raise ValueError(f"unknown task {task!r}")
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where}: invalid JSON: {e}") from e
            if rec.get("task") != task:
                raise ValueError(f"{where}: task mismatch "
                                 f"(got {rec.get('task')!r}, want {task!r})")
            ex = TaskExample(task=task)
            for name in _REQUIRED_FIELDS[task]:
                if name not in rec:
                    raise ValueError(f"{where}: missing field {name!r}")
                value = rec[name]
                if name in _NONEMPTY_FIELDS and not value:
                    raise ValueError(f"{where}: empty {name!r}")
                kind, holds = _FIELD_TYPES[name]
                if not holds(value):
                    raise ValueError(f"{where}: {name!r} must be {kind}")
                if name == "span" and value is not None:
                    value = tuple(value)
                setattr(ex, name, value)
            _validate_example(ex, where)
            yield where, ex


def load_jsonl(path, task: str) -> List[TaskExample]:
    """Load and validate one TaskExample per line; errors name the file and
    the line."""
    return [ex for _, ex in _read_jsonl(path, task)]


def save_task_dataset(ds: TaskDataset, directory) -> None:
    """Dataset directory: dataset.json metadata + one JSONL per split."""
    import os
    os.makedirs(directory, exist_ok=True)
    meta = {"task": ds.task, "num_classes": ds.num_classes,
            "tagset": list(ds.tagset)}
    with open(os.path.join(directory, "dataset.json"), "w") as f:
        json.dump(meta, f)
    for split, examples in ds.splits().items():
        save_jsonl(examples, os.path.join(directory, f"{split}.jsonl"))


def load_task_dataset(directory) -> TaskDataset:
    """Load a dataset directory; besides load_jsonl's checks, SC labels must
    lie in [0, num_classes) and TC tags in the tagset."""
    import os
    path = os.path.join(directory, "dataset.json")
    with open(path) as f:
        meta = json.load(f)
    for key, kind, default in (("task", str, None), ("num_classes", int, 0),
                               ("tagset", list, [])):
        value = meta.get(key, default) if isinstance(meta, dict) else None
        if type(value) is not kind:
            raise ValueError(f"{path}: {key!r} must be a {kind.__name__}, "
                             f"got {value!r}")
    ds = TaskDataset(task=meta["task"], train=[], validation=[], test=[],
                     num_classes=meta.get("num_classes", 0),
                     tagset=tuple(meta.get("tagset", ())))
    for split, examples in ds.splits().items():
        path = os.path.join(directory, f"{split}.jsonl")
        for where, ex in _read_jsonl(path, ds.task):
            if ex.task == "SC" and not 0 <= ex.label < ds.num_classes:
                raise ValueError(f"{where}: label {ex.label} outside "
                                 f"[0, {ds.num_classes})")
            if ex.task == "TC" and not set(ex.tags) <= set(ds.tagset):
                unknown = sorted(set(ex.tags) - set(ds.tagset))
                raise ValueError(f"{where}: tags {unknown} not in the tagset")
            examples.append(ex)
    return ds


def _validate_example(ex: TaskExample, where: str) -> None:
    if ex.task == "TC" and len(ex.tags) != len(ex.tokens):
        raise ValueError(f"{where}: tags length != tokens length")
    if ex.task == "QA" and ex.span is not None:
        s, e = ex.span
        if not (0 <= s <= e < len(ex.tokens)):
            raise ValueError(f"{where}: span {ex.span} out of bounds")
