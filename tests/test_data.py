import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplm.data import (MAX_MARKOV_STATES, NUM_RESERVED, PAD_ID, BatchStream,
                       Corpus, CorpusSpec, _markov_table, _stationary,
                       gen_corpus, gen_task_data, load_jsonl,
                       load_task_dataset, save_jsonl,
                       save_task_dataset)


def power_iteration_stationary(P, iters=10_000):
    """Independent oracle: stationary distribution by repeated multiplication."""
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        nxt = pi @ P
        if np.abs(nxt - pi).max() < 1e-15:
            return nxt
        pi = nxt
    return pi


def reference_gen_corpus(spec: CorpusSpec) -> Corpus:
    """The per-token sampler gen_corpus replaces: one rng.choice per symbol,
    each length drawn just before its sequence. gen_corpus must give the
    same corpus."""
    rng = np.random.default_rng(spec.seed)
    lengths_rng = np.random.default_rng(spec.seed + 1)

    if spec.transition is not None:
        P = np.asarray(spec.transition, dtype=np.float64)
    else:
        P = _markov_table(spec, rng)
    n = spec.num_symbols
    n_states = n ** spec.order
    Q = np.zeros((n_states, n_states))
    for s in range(n_states):
        for sym in range(n):
            Q[s, (s * n + sym) % n_states] += P[s, sym]
    pi = _stationary(Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(P > 0, np.log(P), 0.0)
    entropy = float(-(pi[:, None] * P * logs).sum())

    def unpack(state):
        syms = []
        for _ in range(spec.order):
            syms.append(state % n)
            state //= n
        return syms[::-1]

    def sample_seq(length):
        state = int(rng.choice(n_states, p=pi))
        seq = unpack(state)
        while len(seq) < length:
            sym = int(rng.choice(n, p=P[state]))
            seq.append(sym)
            state = (state * n + sym) % n_states
        return [NUM_RESERVED + s for s in seq[:length]]

    sequences = []
    total = 0
    while total < spec.target_tokens:
        length = int(lengths_rng.integers(spec.min_len, spec.max_len + 1))
        sequences.append(sample_seq(length))
        total += length
    return Corpus(sequences, entropy, P)


@st.composite
def corpus_specs(draw):
    """Small specs; some carry an explicit table with zero entries."""
    order = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(2, 40))
    hi = draw(st.integers(lo, 40))
    kw = dict(order=order, num_symbols=n,
              seed=draw(st.integers(0, 2**16)), min_len=lo, max_len=hi,
              target_tokens=draw(st.integers(1, 300)))
    if draw(st.booleans()):
        table_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        P = table_rng.dirichlet(np.ones(n), size=n ** order)
        P[table_rng.random(P.shape) < draw(st.floats(0.0, 0.7))] = 0.0
        P[np.arange(n ** order), table_rng.integers(0, n, n ** order)] += 0.5
        P /= P.sum(axis=1, keepdims=True)
        kw["transition"] = tuple(tuple(row) for row in P)
    return CorpusSpec(**kw)


# the deterministic table of the pattern (0, 1, 2): symbol i is followed by
# i + 1 mod 3
CYCLE3 = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


def token_lists(corpus: Corpus):
    return [s.tolist() for s in corpus.sequences]


def sequences_sha256(corpus: Corpus) -> str:
    return hashlib.sha256(json.dumps(token_lists(corpus)).encode()).hexdigest()


class TestGenCorpus:
    def test_uniform_chain_entropy(self):
        # explicit uniform 4-symbol chain: entropy rate is exactly ln 4
        P = tuple(tuple([0.25] * 4) for _ in range(4))
        corpus = gen_corpus(CorpusSpec(num_symbols=4, transition=P,
                                       target_tokens=1000))
        assert abs(corpus.entropy_rate - math.log(4)) < 1e-12

    def test_deterministic_chain_entropy(self):
        # cyclic permutation chain: next symbol is certain, entropy +0.0
        corpus = gen_corpus(CorpusSpec(num_symbols=3, transition=CYCLE3,
                                       target_tokens=500))
        assert corpus.entropy_rate == 0.0
        assert math.copysign(1.0, corpus.entropy_rate) == 1.0
        # every sequence is the pattern (0, 1, 2), from any phase
        for seq in corpus.sequences:
            for a, b in zip(seq, seq[1:]):
                assert b - NUM_RESERVED == (a - NUM_RESERVED + 1) % 3

    def test_entropy_matches_independent_oracle(self):
        corpus = gen_corpus(CorpusSpec(num_symbols=5, seed=3,
                                       target_tokens=2000))
        P = corpus.transition
        pi = power_iteration_stationary(P)
        expected = -sum(pi[s] * P[s, t] * math.log(P[s, t])
                        for s in range(5) for t in range(5) if P[s, t] > 0)
        assert abs(corpus.entropy_rate - expected) < 1e-10

    def test_order_two_entropy_oracle(self):
        corpus = gen_corpus(CorpusSpec(num_symbols=3, order=2, seed=1,
                                       target_tokens=2000))
        n, P = 3, corpus.transition
        assert P.shape == (9, 3)
        Q = np.zeros((9, 9))
        for s in range(9):
            for sym in range(n):
                Q[s, (s * n + sym) % 9] += P[s, sym]
        pi = power_iteration_stationary(Q)
        expected = float(-(pi[:, None] * P
                           * np.where(P > 0, np.log(P), 0.0)).sum())
        assert abs(corpus.entropy_rate - expected) < 1e-10

    def test_symbol_range(self):
        corpus = gen_corpus(CorpusSpec(num_symbols=6, target_tokens=1000))
        ids = {t for seq in corpus.sequences for t in seq}
        assert min(ids) >= NUM_RESERVED
        assert max(ids) < NUM_RESERVED + 6

    def test_target_tokens_reached(self):
        corpus = gen_corpus(CorpusSpec(target_tokens=5000))
        assert sum(len(s) for s in corpus.sequences) >= 5000

    def test_length_bounds(self):
        spec = CorpusSpec(min_len=4, max_len=9, target_tokens=2000)
        corpus = gen_corpus(spec)
        assert all(4 <= len(s) <= 9 for s in corpus.sequences)

    def test_deterministic_in_seed(self):
        a = gen_corpus(CorpusSpec(seed=9, target_tokens=800))
        b = gen_corpus(CorpusSpec(seed=9, target_tokens=800))
        assert token_lists(a) == token_lists(b)

    def test_seed_changes_output(self):
        a = gen_corpus(CorpusSpec(seed=0, target_tokens=800))
        b = gen_corpus(CorpusSpec(seed=1, target_tokens=800))
        assert token_lists(a) != token_lists(b)

    def test_sequences_are_read_only_views_of_one_buffer(self):
        corpus = gen_corpus(CorpusSpec(order=2, target_tokens=2000,
                                       min_len=2, max_len=20))
        seqs = corpus.sequences
        buffer = seqs[0].base
        assert buffer.dtype == np.int64 and buffer.ndim == 1
        assert buffer.size == sum(map(len, seqs))
        assert not buffer.flags.writeable
        assert all(s.base is buffer for s in seqs)
        assert np.shares_memory(seqs[0], buffer) \
            and np.shares_memory(seqs[-1], buffer)
        # sequence after sequence, each starting where the last one ended
        starts = [s.__array_interface__["data"][0] for s in seqs]
        offsets = np.cumsum([0] + [len(s) for s in seqs[:-1]]) * 8
        assert np.array_equal(np.subtract(starts, starts[0]), offsets)
        assert starts[0] == buffer.__array_interface__["data"][0]
        for seq in (seqs[0], seqs[-1]):
            with pytest.raises(ValueError, match="read-only"):
                seq[0] = NUM_RESERVED

    def test_empirical_bigram_frequencies(self):
        # law of large numbers: observed conditional frequencies approach P
        P = ((0.8, 0.2), (0.3, 0.7))
        corpus = gen_corpus(CorpusSpec(num_symbols=2, transition=P,
                                       target_tokens=200_000, max_len=256))
        counts = np.zeros((2, 2))
        for seq in corpus.sequences:
            for a, b in zip(seq, seq[1:]):
                counts[a - NUM_RESERVED, b - NUM_RESERVED] += 1
        observed = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(observed - np.asarray(P)).max() < 0.01

    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            gen_corpus(CorpusSpec(num_symbols=2,
                                  transition=((0.5, 0.4), (0.3, 0.7))))

    def test_min_len_floor(self):
        with pytest.raises(ValueError):
            CorpusSpec(min_len=1)


class TestGenCorpusMatchesReference:
    @given(spec=corpus_specs())
    @settings(max_examples=80, deadline=None)
    def test_same_corpus_as_per_token_sampler(self, spec):
        got, want = gen_corpus(spec), reference_gen_corpus(spec)
        assert token_lists(got) == want.sequences
        assert got.entropy_rate == want.entropy_rate
        np.testing.assert_array_equal(got.transition, want.transition)

    # beyond the strategy's 300 tokens: many sequences end at every step
    # of the all-sequences walk
    ZERO_TABLE = ((0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 1.0, 0.0),
                  (0.25, 0.25, 0.0, 0.5), (0.0, 0.7, 0.0, 0.3))
    LARGER = {
        # some sequences no longer than the order emit nothing
        "order2-lengths-2-64": dict(order=2, num_symbols=5, seed=21,
                                    target_tokens=4_000, min_len=2,
                                    max_len=64),
        # the cut lands exactly on the target
        "fixed-length": dict(num_symbols=3, seed=22, target_tokens=1_200,
                             min_len=24, max_len=24),
        # zero entries repeat CDF values
        "zero-entries": dict(num_symbols=4, seed=23, target_tokens=5_000,
                             min_len=2, max_len=40, transition=ZERO_TABLE),
    }

    @pytest.mark.parametrize("name", sorted(LARGER))
    def test_larger_corpus_as_per_token_sampler(self, name):
        spec = CorpusSpec(**self.LARGER[name])
        got = gen_corpus(spec)
        assert token_lists(got) == reference_gen_corpus(spec).sequences
        lengths = [len(s) for s in got.sequences]
        if name == "fixed-length":
            assert sum(lengths) == spec.target_tokens
        else:
            assert min(lengths) <= max(spec.order, 2)
            assert len(set(lengths)) > (spec.max_len - spec.min_len) * 0.9

    # SHA-256 of the sequences, taken from the per-token sampler
    PINNED = {
        "c7-order1": (dict(num_symbols=6, seed=5, target_tokens=60_000,
                           min_len=16, max_len=48),
                      "c1b885935a8555630f39273e56fbbde2"
                      "ca5b4fca8d25541024e341ea29d031a9"),
        "clm-cpt-order2": (dict(order=2, num_symbols=6, seed=5,
                                target_tokens=20_000, min_len=8, max_len=64),
                           "44d768d14c9746a1f146caec5fea7f2e"
                           "e8c34079c212559a858e888a974667d5"),
        "c10-40-symbols": (dict(num_symbols=40, seed=0, target_tokens=60_000,
                                min_len=16, max_len=48),
                           "ebe8691604326b53c2a302329381a487"
                           "d04846a08ab6bdb0b11e84e833d222da"),
        "order3-short-rows": (dict(order=3, num_symbols=4, seed=7,
                                   target_tokens=5_000, min_len=2,
                                   max_len=10),
                              "3361243d6c8a5ba0a14987b487ccdac6"
                              "23d7b173248d10fbcd03fd9fe6db8e14"),
        "cycle-table": (dict(num_symbols=3, transition=CYCLE3,
                             target_tokens=30_000, min_len=16, max_len=48),
                        "59b5f20b28056b994198d565755320d6"
                        "938efcb199e5cab77a85d8603ea66ef9"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_corpus_bytes(self, name):
        kw, digest = self.PINNED[name]
        assert sequences_sha256(gen_corpus(CorpusSpec(**kw))) == digest


class TestCorpusSpecValidation:
    @pytest.mark.parametrize("kw,field", [
        (dict(target_tokens=0), "target_tokens"),
        (dict(target_tokens=-5), "target_tokens"),
        (dict(order=-1), "order"),
        (dict(num_symbols=0), "num_symbols"),
        (dict(order=3, num_symbols=17), r"num_symbols \*\* order"),
    ], ids=["target-zero", "target-negative", "order-negative",
            "no-symbols", "too-many-states"])
    def test_bad_spec_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            CorpusSpec(**kw)

    def test_state_bound(self):
        assert 16 ** 3 == MAX_MARKOV_STATES
        CorpusSpec(order=3, num_symbols=16)

    def test_order_zero_is_iid(self):
        corpus = gen_corpus(CorpusSpec(order=0, num_symbols=4,
                                       target_tokens=500))
        assert corpus.transition.shape == (1, 4)
        assert {t for seq in corpus.sequences for t in seq} <= set(
            range(NUM_RESERVED, NUM_RESERVED + 4))

    def test_negative_transition_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            gen_corpus(CorpusSpec(num_symbols=2,
                                  transition=((1.5, -0.5), (0.3, 0.7))))

    def test_row_sum_tolerance_of_choice(self):
        # Generator.choice refused rows off by more than sqrt(eps)
        with pytest.raises(ValueError, match="row-stochastic"):
            gen_corpus(CorpusSpec(num_symbols=2,
                                  transition=((0.5, 0.5 + 1e-6), (0.3, 0.7))))


def padded(batch):
    """The batch's sequences right-padded with PAD_ID to the longest, as
    lists of rows and of real-token masks."""
    width = max(batch.lengths)
    return ([s.tolist() + [PAD_ID] * (width - len(s)) for s in batch.seqs],
            [[True] * len(s) + [False] * (width - len(s)) for s in batch.seqs])


class TestBatchStream:
    def make(self, **kw):
        corpus = gen_corpus(CorpusSpec(target_tokens=2000, min_len=4,
                                       max_len=12))
        defaults = dict(batch_rows=3, min_len=4, max_len=12, seed=0)
        defaults.update(kw)
        return BatchStream(corpus.sequences, **defaults)

    def test_random_access_deterministic(self):
        stream = self.make()
        a, b = stream.batch(17), stream.batch(17)
        assert padded(a) == padded(b) \
            and np.array_equal(a.pad_masks, b.pad_masks)

    def test_steps_differ(self):
        stream = self.make()
        assert padded(stream.batch(0))[0] != padded(stream.batch(1))[0]

    def test_padding_consistent(self):
        batch = self.make().batch(3)
        rows, _ = padded(batch)
        width = len(rows[0])
        for row, pad in zip(rows, batch.pad_masks):
            assert len(row) == len(pad) == width
            for tok, keep in zip(row, pad):
                assert keep == (tok != PAD_ID)

    def test_truncation_to_max_len(self):
        stream = self.make(max_len=6)
        for step in range(10):
            assert all(len(s) <= 6 for s in stream.batch(step).seqs)

    def test_max_len_below_min_len_refused(self):
        # kept 3-token rows of a stream whose rows hold at least 6
        with pytest.raises(ValueError, match="max_len 3 < min_len 6"):
            BatchStream([[5, 6, 7, 8, 9, 10]], 1, min_len=6, max_len=3,
                        seed=0)

    # SHA-256 of steps 0-9, the sequences right-padded with PAD_ID and their
    # masks in list form; taken from the list-of-lists batches that preceded
    # the [B, T] arrays
    PINNED = {
        "small": ("64e55ce3421cbf4af8855270e88c036e"
                  "73ae6ef4d0ada9ed487f52bc0ac1559b"),
        "desk": ("0b5b0b617dbfe54cd23dddd874596efe"
                 "2436eabe810e1b942d0d61b3a7643783"),
    }

    @pytest.mark.parametrize("name, spec, rows, min_len, max_len, seed", [
        ("small", CorpusSpec(target_tokens=2000, min_len=4, max_len=12),
         3, 4, 12, 0),
        ("desk", CorpusSpec(num_symbols=6, target_tokens=4000, min_len=16,
                            max_len=48, seed=5), 8, 16, 40, 7),
    ])
    def test_batches_pinned(self, name, spec, rows, min_len, max_len, seed):
        stream = BatchStream(gen_corpus(spec).sequences, rows, min_len,
                             max_len, seed)
        out = [list(padded(b)) for b in map(stream.batch, range(10))]
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == self.PINNED[name]

    def test_batch_layout(self):
        batch = self.make().batch(5)
        assert all(s.dtype == np.int64 and s.ndim == 1 for s in batch.seqs)
        assert batch.pad_masks.dtype == bool
        assert batch.pad_masks.shape == (3, max(batch.lengths))
        assert batch.pad_masks[:, 0].all()  # every row has real tokens

    def test_pad_masks_count_the_real_tokens(self):
        # benchmark/workloads.py counts a step's tokens from pad_masks
        stream = self.make()
        for step in range(20):
            batch = stream.batch(step)
            assert batch.pad_masks.sum() == batch.lengths.sum() \
                == sum(map(len, batch.seqs))

    def test_sequences_are_the_pool_read_only(self):
        stream = self.make()
        before = [s.copy() for s in stream.pool]
        batch = stream.batch(0)
        assert all(any(s is p for p in stream.pool) for s in batch.seqs)
        with pytest.raises(ValueError, match="read-only"):
            batch.seqs[0][0] = 99
        assert all(np.array_equal(a, b) for a, b in zip(stream.pool, before))

    def test_corpus_sequences_pooled_without_a_copy(self):
        corpus = gen_corpus(CorpusSpec(target_tokens=2000, min_len=4,
                                       max_len=12))
        stream = BatchStream(corpus.sequences, 3, 6, 9, 0)
        kept = [s for s in corpus.sequences if len(s) >= 6]
        assert len(stream.pool) == len(kept)
        for seq, pooled in zip(kept, stream.pool):
            assert np.shares_memory(pooled, seq)
            assert np.array_equal(pooled, seq[:9])

    @pytest.mark.parametrize("kind", ["list", "writeable", "read-only-view",
                                      "int32"])
    def test_callers_sequences_copied(self, kind):
        # the caller's objects can change after construction; only a
        # read-only int64 array over memory nothing writes to is kept
        rows = np.array([[5, 6, 7, 8, 9], [9, 8, 7, 6, 5]], dtype=np.int64)
        seqs = {"list": rows.tolist(), "writeable": list(rows),
                "read-only-view": [row.view() for row in rows],
                "int32": [row.astype(np.int32) for row in rows]}[kind]
        if kind in ("read-only-view", "int32"):
            for seq in seqs:
                seq.flags.writeable = False
        stream = BatchStream(seqs, 2, 4, 8, 0)

        def drawn():
            return [[s.tolist() for s in stream.batch(step).seqs]
                    for step in range(5)]

        before = drawn()
        rows[:, 0] = 99  # under the writeable arrays and the views
        if kind == "list":
            for seq in seqs:
                seq[0] = 99
        assert drawn() == before
        assert all(s.dtype == np.int64 and not s.flags.writeable
                   for s in stream.pool)

    def test_discard_counter(self):
        seqs = [[5, 6, 7, 8], [5, 6], [7]]
        stream = BatchStream(seqs, batch_rows=1, min_len=4, max_len=8,
                             seed=0)
        assert stream.discarded == 2

    def test_zero_rows_refused(self):
        with pytest.raises(ValueError, match="batch_rows"):
            self.make(batch_rows=0)

    def test_all_discarded(self):
        with pytest.raises(ValueError):
            BatchStream([[5]], batch_rows=1, min_len=4, max_len=8, seed=0)

    def test_coverage_histogram(self):
        # over many steps every pool sequence should get sampled
        stream = BatchStream([[5, 6, 7, 8]] * 8 + [[8, 7, 6, 5]] * 8,
                             batch_rows=4, min_len=4, max_len=8, seed=0)
        seen = set()
        for step in range(200):
            rng = np.random.default_rng([0, step])
            seen.update(int(i) for i in rng.integers(0, 16, size=4))
        assert seen == set(range(16))


class TestGenTaskData:
    def test_split_sizes(self):
        ds = gen_task_data("SC", 50, seed=0)
        assert len(ds.train) == 30
        assert len(ds.validation) == 10
        assert len(ds.test) == 10

    def test_splits_disjoint(self):
        for task in ("SC", "TC", "QA", "IR"):
            ds = gen_task_data(task, 60, seed=1)
            keys = [
                {(tuple(e.tokens or ()), tuple(e.query or ()),
                  tuple(e.positive or ())) for e in split}
                for split in (ds.train, ds.validation, ds.test)]
            assert not (keys[0] & keys[1])
            assert not (keys[0] & keys[2])
            assert not (keys[1] & keys[2])

    def test_sc_bag_of_tokens_oracle(self):
        # the planted keyword alone determines the label
        ds = gen_task_data("SC", 90, seed=2)
        for ex in ds.train + ds.validation + ds.test:
            hits = [k for k in (24, 25, 26) if k in ex.tokens]
            assert hits == [24 + ex.label]

    def test_tc_tags_align_with_entity_tokens(self):
        ds = gen_task_data("TC", 60, seed=3)
        for ex in ds.train:
            assert len(ex.tags) == len(ex.tokens)
            for tok, tag in zip(ex.tokens, ex.tags):
                if tag == "O":
                    assert tok < 28 or tok > 35
                elif tag.endswith("PER"):
                    assert 28 <= tok <= 31
                else:
                    assert 32 <= tok <= 35

    def test_qa_spans_in_bounds(self):
        ds = gen_task_data("QA", 80, seed=4)
        spans = [ex.span for ex in ds.train if ex.span is not None]
        assert spans  # some answerable examples exist
        for ex in ds.train:
            if ex.span is None:
                continue
            s, e = ex.span
            assert 1 <= s <= e < len(ex.tokens)
            assert ex.tokens[s - 1] == 36  # marker precedes the answer

    def test_qa_has_no_answer_examples(self):
        ds = gen_task_data("QA", 200, seed=5)
        assert any(ex.span is None for ex in ds.train)

    def test_ir_overlap_ranking_oracle(self):
        # the rare query token appears in the positive and in no negative
        ds = gen_task_data("IR", 60, seed=6)
        for ex in ds.train:
            rare = ex.query[-1]
            assert 40 <= rare <= 55
            assert rare in ex.positive
            assert all(rare not in neg for neg in ex.negatives)

    def test_metadata(self):
        assert gen_task_data("SC", 30, 0).num_classes == 3
        assert len(gen_task_data("TC", 30, 0).tagset) == 5

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_task_data("SC", 10, 0)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            gen_task_data("NLI", 50, 0)

    # SHA-256 of every field of every split, taken from the per-call
    # Generator.choice draws
    PINNED = {
        "SC": "ce2b7f918079e283997ba058c21d978ef47876217d8859f801002a53e201ec63",
        "TC": "0d0f7a5642763a8064197ba68e87527c04f1d59d4e27fc02f8dba8b3526898d1",
        "QA": "b3d001da868bff6ba8510acb9dddc04a4be7203de928637d98500857e799e2c7",
        "IR": "0b4a590381d14cc17295b3fc8072eeae637ec2ed4d376fca8af4a9334b903fe5",
    }

    @pytest.mark.parametrize("task", sorted(PINNED))
    def test_pinned_task_data_bytes(self, task):
        ds = gen_task_data(task, 72, 11)
        payload = {split: [dataclasses.asdict(ex) for ex in examples]
                   for split, examples in ds.splits().items()}
        payload["meta"] = [ds.task, ds.num_classes, list(ds.tagset)]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == self.PINNED[task]

    def test_deterministic(self):
        a = gen_task_data("QA", 40, 7)
        b = gen_task_data("QA", 40, 7)
        assert [e.tokens for e in a.train] == [e.tokens for e in b.train]


class TestJsonl:
    def test_roundtrip_all_tasks(self, tmp_path):
        for task in ("SC", "TC", "QA", "IR"):
            ds = gen_task_data(task, 40, 0)
            path = tmp_path / f"{task}.jsonl"
            save_jsonl(ds.train, path)
            loaded = load_jsonl(path, task)
            assert len(loaded) == len(ds.train)
            for a, b in zip(loaded, ds.train):
                assert a.tokens == b.tokens
                assert a.label == b.label
                assert a.tags == b.tags
                assert a.span == b.span
                assert a.query == b.query
                assert a.positive == b.positive
                assert a.negatives == b.negatives

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_jsonl(path, "SC") == []

    def test_invalid_json_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "SC", "tokens": [8], "label": 0}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path, "SC")

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "SC", "tokens": [8]}\n')
        with pytest.raises(ValueError, match="label"):
            load_jsonl(path, "SC")

    def test_task_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "TC", "tokens": [8], "tags": ["O"]}\n')
        with pytest.raises(ValueError, match="mismatch"):
            load_jsonl(path, "SC")

    def test_span_out_of_bounds(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "QA", "tokens": [7, 8], "span": [1, 5]}\n')
        with pytest.raises(ValueError, match="line 1.*span"):
            load_jsonl(path, "QA")

    def test_tag_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "TC", "tokens": [8, 9], "tags": ["O"]}\n')
        with pytest.raises(ValueError, match="length"):
            load_jsonl(path, "TC")

    def test_dataset_directory_roundtrip(self, tmp_path):
        ds = gen_task_data("TC", 40, 0)
        save_task_dataset(ds, tmp_path / "tc")
        loaded = load_task_dataset(tmp_path / "tc")
        assert loaded.task == "TC"
        assert loaded.tagset == ds.tagset
        assert len(loaded.train) == len(ds.train)
        assert loaded.validation[0].tags == ds.validation[0].tags

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "SC", "tokens": [8]}\n')
        with pytest.raises(ValueError, match="bad.jsonl: line 1"):
            load_jsonl(path, "SC")

    @pytest.mark.parametrize("task,record,field", [
        ("SC", {"tokens": [], "label": 0}, "tokens"),
        ("TC", {"tokens": [8], "tags": None}, "tags"),
        ("IR", {"query": [], "positive": [8], "negatives": []}, "query"),
        ("IR", {"query": [8], "positive": [], "negatives": []}, "positive"),
    ])
    def test_empty_sequence_rejected(self, tmp_path, task, record, field):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(dict(record, task=task)) + "\n")
        with pytest.raises(ValueError, match=f"line 1: empty '{field}'"):
            load_jsonl(path, task)


    GOOD = {
        "SC": {"tokens": [8, 9], "label": 0},
        "TC": {"tokens": [8, 9], "tags": ["O", "B-PER"]},
        "QA": {"tokens": [8, 9], "span": [0, 1]},
        "IR": {"query": [8], "positive": [9], "negatives": [[10], [11]]},
    }

    @pytest.mark.parametrize("task, field, value", [
        ("SC", "label", True),
        ("SC", "label", 1.0),
        ("SC", "label", "1"),
        ("SC", "tokens", [8.5, 9]),
        ("SC", "tokens", "abc"),
        ("SC", "tokens", [8, True]),
        ("SC", "tokens", [8, -1]),
        ("SC", "tokens", {"8": 9}),
        ("TC", "tags", "OO"),
        ("TC", "tags", ["O", 1]),
        ("QA", "span", [0.5, 1]),
        ("QA", "span", [0]),
        ("QA", "span", [0, 1, 1]),
        ("QA", "span", [False, 1]),
        ("QA", "span", "0,1"),
        ("IR", "query", [8.0]),
        ("IR", "positive", "x"),
        ("IR", "negatives", [[]]),
        ("IR", "negatives", "x"),
        ("IR", "negatives", [[10], 11]),
        ("IR", "negatives", [[10.5]]),
    ])
    def test_wrong_type_refused(self, tmp_path, task, field, value):
        # the good record first, so the error must name line 2
        path = tmp_path / "bad.jsonl"
        good = dict(self.GOOD[task], task=task)
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps(dict(good, **{field: value})) + "\n")
        with pytest.raises(ValueError,
                           match=f"bad.jsonl: line 2: '{field}' must be"):
            load_jsonl(path, task)

    @pytest.mark.parametrize("task", sorted(GOOD))
    def test_good_records_load(self, tmp_path, task):
        path = tmp_path / "good.jsonl"
        path.write_text(json.dumps(dict(self.GOOD[task], task=task)) + "\n")
        assert len(load_jsonl(path, task)) == 1

    def test_null_span_and_negatives_load(self, tmp_path):
        path = tmp_path / "good.jsonl"
        path.write_text(
            json.dumps({"task": "QA", "tokens": [8], "span": None}) + "\n")
        assert load_jsonl(path, "QA")[0].span is None
        path.write_text(json.dumps({"task": "IR", "query": [8],
                                    "positive": [9], "negatives": None}) + "\n")
        assert load_jsonl(path, "IR")[0].negatives is None


class TestTaskDatasetLabels:
    """load_task_dataset checks labels against the dataset's metadata and
    names the file and line of the first bad one."""

    def replace_line(self, directory, task, split, index, record):
        save_task_dataset(gen_task_data(task, 40, 0), directory)
        path = directory / f"{split}.jsonl"
        lines = path.read_text().splitlines()
        lines[index] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

    def test_tc_tag_outside_tagset(self, tmp_path):
        self.replace_line(tmp_path, "TC", "train", 2,
                          {"task": "TC", "tokens": [8, 9],
                           "tags": ["O", "X-FOO"]})
        with pytest.raises(ValueError,
                           match=r"train.jsonl: line 3: tags \['X-FOO'\]"):
            load_task_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("task", None), ("num_classes", "3"), ("tagset", "OBI")])
    def test_bad_metadata(self, tmp_path, key, value):
        save_task_dataset(gen_task_data("SC", 40, 0), tmp_path)
        path = tmp_path / "dataset.json"
        meta = json.loads(path.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"dataset.json: '{key}' must"):
            load_task_dataset(tmp_path)

    @pytest.mark.parametrize("label", [3, -1])
    def test_sc_label_outside_classes(self, tmp_path, label):
        self.replace_line(tmp_path, "SC", "validation", 1,
                          {"task": "SC", "tokens": [8, 9], "label": label})
        with pytest.raises(ValueError, match=(
                rf"validation.jsonl: line 2: label {label} outside \[0, 3\)")):
            load_task_dataset(tmp_path)
