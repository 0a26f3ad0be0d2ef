"""The three benchmark workloads, driven through bplm's public API.

Each workload is a closed loop: one process, one caller, each call waits for
the previous one. ``setup`` builds the inputs from the workload seed and is
timed on its own; ``run_pass`` is one timed pass over those inputs and
returns what the metrics and the correctness checks need. Every pass of a
run repeats the same deterministic work, so the passes double as the
determinism check. Timings are kept as raw ``perf_counter`` intervals; the
run scales them with the calibration clock (calibrate.py), whose ``tick``
the workloads call between steps and between evaluation rows. README.md in
this directory says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

import bplm.data as data
import bplm.finetune as finetune
import bplm.model as model
import bplm.runner as runner
from bplm.model import AttentionMode, ModelConfig
from bplm.objectives import Objective, select_mask
from bplm.optim import AdamWState, WsdSchedule

from probes import StepClock

# the configuration of the C7 learnability test (tests/test_acceptance.py)
DESK_CFG = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                       kv_heads=2, vocab_size=16, max_seq_len=64)
# the CLI default model
CLI_CFG = ModelConfig()
# DESK_CFG widened to the task token ids, as in the C9 harness test
TASK_CFG = ModelConfig(layers=2, embed_dim=32, ffn_dim=64, heads=4,
                       kv_heads=2, vocab_size=64, max_seq_len=64)

SEED_PURPOSES = ("corpus", "stream", "init", "heldout", "tasks")
# The Markov source (its transition table, hence its entropy rate) is part
# of a workload's definition and is the same at every workload seed; the
# seed draws the corpus, the held-out rows, the batch order and the init.
# Seed 5 is the source of the C7 test.
SOURCE_SEED = 5


def sub_seeds(seed: int) -> dict:
    """Independent seeds for each input, all derived from the workload seed."""
    return {name: int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            for i, name in enumerate(SEED_PURPOSES)}


@dataclass
class PassResult:
    span: tuple              # (start, end) of the timed pass
    steps: list              # (start, end) of each optimizer step
    step_tokens: list        # non-pad tokens through forward+backward
    losses: list             # training loss per step
    evals: list              # (start, end) of each evaluation interval
    eval_examples: int
    final_loss: float
    task_score: float
    fingerprint: str         # hash of final checkpoint bytes + loss trace
    cells: int = 0           # grid cells run (fine-tune only)
    checks: list = field(default_factory=list)   # (name, ok)


class StepTrace(list):
    """The trace list handed to the runner. The runner appends a row after
    each step, outside its own timing of the step, so ``append`` stamps the
    step's end and lets the clock take a sample between steps."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.steps = []

    def append(self, row):
        end = time.perf_counter()
        super().append(row)
        self.steps.append((end - row["wall_ms"] / 1e3, end))
        self.clock.tick()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _loss_trace_bytes(trace) -> bytes:
    rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in trace]
    return json.dumps(rows, sort_keys=True).encode()


def _checkpoint_bytes(ckpt, path) -> bytes:
    runner.save_checkpoint(ckpt, path)
    with open(path, "rb") as f:
        return f.read()


def _reloads_identically(path, scratch) -> bool:
    """Load a checkpoint file and write it again: the bytes must not move."""
    with open(path, "rb") as f:
        original = f.read()
    return _checkpoint_bytes(runner.load_checkpoint(path), scratch) == original


def _finite_checks(losses):
    return [("finite_loss", math.isfinite(v)) for v in losses]


# ---------------------------------------------------------------------------
# pretrain workloads
# ---------------------------------------------------------------------------

def _stream_tokens(stream, steps):
    return [sum(sum(m) for m in stream.batch(s).pad_masks)
            for s in range(steps)]


def _timed_rows(rows, clock, evals):
    """Yield the rows, timing each as one evaluation interval and giving
    the clock a chance to sample between rows."""
    for i, row in enumerate(rows):
        t0 = time.perf_counter()
        yield i, row
        evals.append((t0, time.perf_counter()))
        clock.tick()


def _clm_accuracy(params, cfg, rows, clock, evals):
    """Held-out next-token accuracy, forward only, causal mask."""
    hits = total = 0
    for _, row in _timed_rows(rows, clock, evals):
        _, logits = model.forward(params, cfg, row, AttentionMode.CAUSAL)
        pred = logits.data[:-1].argmax(axis=1)
        hits += int((pred == np.asarray(row[1:])).sum())
        total += len(row) - 1
    return hits / total


def _mlm_accuracy(params, cfg, rows, ratio, seed, clock, evals):
    """Held-out masked-token accuracy, forward only, bidirectional mask."""
    hits = total = 0
    for i, row in _timed_rows(rows, clock, evals):
        plan = select_mask(row, ratio, np.random.default_rng([seed, i]),
                           data.MASK_ID)
        _, logits = model.forward(params, cfg, plan.apply(row),
                                  AttentionMode.BIDIRECTIONAL)
        pred = logits.data[plan.masked_positions].argmax(axis=1)
        hits += int((pred == np.asarray(plan.original_targets)).sum())
        total += len(plan.masked_positions)
    return hits / total


@dataclass
class PretrainInputs:
    stream: data.BatchStream
    heldout: list
    step_tokens: list = None  # per stream step, filled after set-up


def _markov_inputs(seeds, order, min_len, max_len, heldout_rows):
    """Training stream plus held-out rows from the workload's fixed source.
    Held-out rows all have the mid length, so the evaluation's work does
    not change with the seed."""
    def corpus(seed, target_tokens, lo=min_len, hi=max_len, transition=None):
        return data.gen_corpus(data.CorpusSpec(
            order=order, num_symbols=6, seed=seed,
            target_tokens=target_tokens, min_len=lo, max_len=hi,
            transition=transition))

    table = tuple(tuple(r) for r in corpus(SOURCE_SEED, 1).transition)
    train = corpus(seeds["corpus"], 20_000, transition=table)
    mid = (min_len + max_len) // 2
    heldout = corpus(seeds["heldout"], heldout_rows * mid, mid, mid, table)
    stream = data.pack_batches(train.sequences, 4, min_len, max_len,
                               data.PAD_ID, seeds["stream"])
    return PretrainInputs(stream, heldout.sequences[:heldout_rows])


class PretrainClm:
    """C7 configuration: DESK_CFG, order-1 Markov source, run_pfs under CLM."""

    name = "pretrain-clm"
    runner_loop = True
    steps = 200
    heldout_rows = 160

    def __init__(self, seed, workdir, clock):
        self.seeds = sub_seeds(seed)
        self.workdir = workdir
        self.clock = clock

    def setup(self):
        return _markov_inputs(self.seeds, 1, 16, 48, self.heldout_rows)

    def prepare(self, inputs):
        inputs.step_tokens = _stream_tokens(inputs.stream, self.steps)

    def run_pass(self, inputs, index):
        cfg = runner.TrainConfig(
            objective_plan=[(Objective.CLM, self.steps)],
            schedule=WsdSchedule(1e-3, 20, self.steps, 10),
            seed=self.seeds["init"])
        trace, evals = StepTrace(self.clock), []
        t0 = time.perf_counter()
        final = runner.run_pfs(cfg, inputs.stream, DESK_CFG, trace=trace)
        score = _clm_accuracy(final.params, DESK_CFG, inputs.heldout,
                              self.clock, evals)
        end = time.perf_counter()
        return final, trace, PassResult(
            span=(t0, end), steps=trace.steps,
            step_tokens=list(inputs.step_tokens),
            losses=[r["loss"] for r in trace],
            evals=evals, eval_examples=len(inputs.heldout),
            final_loss=float(np.mean([r["loss"] for r in trace[-50:]])),
            task_score=score, fingerprint="")

    def finish_pass(self, out, index):
        final, trace, res = out
        path = os.path.join(self.workdir, f"pass{index}.ckpt")
        res.fingerprint = _digest(_checkpoint_bytes(final, path),
                                  _loss_trace_bytes(trace))
        res.checks += _finite_checks(res.losses)
        res.checks.append(("checkpoint_reload", _reloads_identically(
            path, os.path.join(self.workdir, "reload.ckpt"))))
        return res

    def final_checks(self, inputs):
        return []


class ClmCpt:
    """`bplm pretrain` then `bplm cpt`: CLI-default model, order-2 source,
    PFS CLM with cadence checkpoints, save/load, CPT MLM at 0.40, save."""

    name = "clm-cpt"
    runner_loop = True
    pfs_steps = 60
    cadence = 15
    cpt_steps = 60
    heldout_rows = 320

    def __init__(self, seed, workdir, clock):
        self.seeds = sub_seeds(seed)
        self.workdir = workdir
        self.clock = clock
        self._last = None

    def setup(self):
        return _markov_inputs(self.seeds, 2, 8, 64, self.heldout_rows)

    def prepare(self, inputs):
        inputs.step_tokens = _stream_tokens(
            inputs.stream, max(self.pfs_steps, self.cpt_steps))

    def _pfs_cfg(self, directory):
        return runner.TrainConfig(
            objective_plan=[(Objective.CLM, self.pfs_steps)],
            schedule=WsdSchedule(1e-3, 6, self.pfs_steps, 3),
            seed=self.seeds["init"], checkpoint_cadence=self.cadence,
            checkpoint_dir=directory)

    def run_pass(self, inputs, index):
        directory = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(directory, exist_ok=True)
        pfs_cfg = self._pfs_cfg(directory)
        cpt_cfg = runner.TrainConfig(
            objective_plan=[(Objective.MLM, self.cpt_steps)],
            schedule=WsdSchedule(1e-3, 6, self.cpt_steps, 3),
            mask_ratio=0.40, seed=self.seeds["init"])
        pfs_trace, cpt_trace = StepTrace(self.clock), StepTrace(self.clock)
        evals = []
        t0 = time.perf_counter()
        pfs_final = runner.run_pfs(pfs_cfg, inputs.stream, CLI_CFG,
                                   data.MASK_ID, trace=pfs_trace)
        pfs_path = os.path.join(directory, "pfs_final.ckpt")
        runner.save_checkpoint(pfs_final, pfs_path)
        base = runner.load_checkpoint(pfs_path)
        cpt_final = runner.run_cpt(base, self.cpt_steps, cpt_cfg,
                                   inputs.stream, data.MASK_ID,
                                   trace=cpt_trace)
        cpt_path = os.path.join(directory, "cpt_final.ckpt")
        runner.save_checkpoint(cpt_final, cpt_path)
        score = _mlm_accuracy(cpt_final.params, CLI_CFG, inputs.heldout,
                              0.40, self.seeds["heldout"], self.clock, evals)
        end = time.perf_counter()
        trace = pfs_trace + cpt_trace
        tokens = (inputs.step_tokens[:self.pfs_steps]
                  + inputs.step_tokens[:self.cpt_steps])
        res = PassResult(
            span=(t0, end), steps=pfs_trace.steps + cpt_trace.steps,
            step_tokens=tokens,
            losses=[r["loss"] for r in trace],
            evals=evals, eval_examples=len(inputs.heldout),
            final_loss=float(np.mean([r["loss"] for r in cpt_trace[-20:]])),
            task_score=score, fingerprint="")
        return directory, pfs_final, trace, res

    def finish_pass(self, out, index):
        directory, pfs_final, trace, res = out
        with open(os.path.join(directory, "cpt_final.ckpt"), "rb") as f:
            res.fingerprint = _digest(f.read(), _loss_trace_bytes(trace))
        res.checks += _finite_checks(res.losses)
        scratch = os.path.join(self.workdir, "reload.ckpt")
        for name in sorted(os.listdir(directory)):
            res.checks.append(("checkpoint_reload", _reloads_identically(
                os.path.join(directory, name), scratch)))
        if self._last is not None:  # keep only the files final_checks reads
            shutil.rmtree(self._last[0])
        self._last = (directory, pfs_final)
        return res

    def final_checks(self, inputs):
        """C8 on this config: resume the mid-run cadence checkpoint and
        reach the uninterrupted PFS final state bit-exactly."""
        directory, pfs_final = self._last
        mid_step = (self.pfs_steps // 2) // self.cadence * self.cadence
        mid = runner.load_checkpoint(
            os.path.join(directory, f"step_{mid_step:08d}.ckpt"))
        cfg = replace(self._pfs_cfg(None), checkpoint_cadence=0)
        resumed = runner.run_pfs(cfg, inputs.stream, CLI_CFG, data.MASK_ID,
                                 resume_from=mid)
        a = _checkpoint_bytes(resumed, os.path.join(self.workdir, "r.ckpt"))
        b = _checkpoint_bytes(pfs_final, os.path.join(self.workdir, "u.ckpt"))
        return [("resume_bit_exact", a == b)]


# ---------------------------------------------------------------------------
# fine-tune workload
# ---------------------------------------------------------------------------

@dataclass
class FinetuneInputs:
    base: runner.Checkpoint
    datasets: dict


class FinetuneGrid:
    """run_grid_search (jobs=1) over the four task families from one base
    checkpoint. The base is built from init_params alone, so no pretraining
    code runs in this workload."""

    name = "finetune-grid"
    runner_loop = False
    tasks = ("SC", "TC", "QA", "IR")
    # gen_task_data draws the examples; the benchmark re-splits them so the
    # test split is large enough for a steady task_score at a small
    # training cost (6 steps of 4 examples per cell)
    split = {"train": 24, "validation": 8, "test": 40}
    spec = finetune.GridSearchSpec(learning_rates=(2e-4, 5e-4),
                                   seeds=(0, 1, 2), max_steps=1000,
                                   batch_size=4)

    def __init__(self, seed, workdir, clock):
        self.seeds = sub_seeds(seed)
        self.workdir = workdir
        self.clock = clock
        self.base_path = os.path.join(workdir, "base.ckpt")
        params = model.init_params(TASK_CFG, self.seeds["init"])
        base = runner.Checkpoint(TASK_CFG, params, AdamWState(),
                                 WsdSchedule(1e-3, 2, 10, 2), step=10)
        runner.save_checkpoint(base, self.base_path)

    def _dataset(self, task, seed):
        drawn = data.gen_task_data(task, sum(self.split.values()), seed)
        examples = drawn.train + drawn.validation + drawn.test
        parts, at = {}, 0
        for name, n in self.split.items():
            parts[name] = examples[at:at + n]
            at += n
        return replace(drawn, **parts)

    def setup(self):
        datasets = {task: self._dataset(task, self.seeds["tasks"] + i)
                    for i, task in enumerate(self.tasks)}
        return FinetuneInputs(runner.load_checkpoint(self.base_path), datasets)

    def prepare(self, inputs):
        pass

    def run_pass(self, inputs, index):
        reports = []
        with StepClock(self.clock) as clock:
            t0 = time.perf_counter()
            for task in self.tasks:
                reports.append(finetune.run_grid_search(
                    inputs.base, inputs.datasets[task], self.spec, jobs=1))
            end = time.perf_counter()
        rows = [dict(r, task=rep.task) for rep in reports for r in rep.rows]
        final_loss = self._final_loss(clock.losses, inputs)
        res = PassResult(
            span=(t0, end), steps=clock.steps,
            step_tokens=clock.step_tokens, losses=clock.losses,
            evals=clock.evals, eval_examples=clock.eval_examples,
            final_loss=final_loss,
            task_score=float(np.mean([r["test"] for r in rows])),
            fingerprint=_digest(json.dumps(rows, sort_keys=True).encode(),
                                json.dumps(clock.losses).encode()),
            cells=len(rows))
        return rows, res

    def _final_loss(self, losses, inputs):
        """Geometric mean over the tasks of each task's mean training loss
        over the second half of every grid cell. The tasks' losses differ
        in scale (IR's InfoNCE at temperature 0.05 is the largest and the
        most seed-dependent), so an arithmetic mean would be mostly IR;
        the geometric mean moves by the same share for the same relative
        change in any one task."""
        cells = len(self.spec.learning_rates) * len(self.spec.seeds)
        task_means, at = [], 0
        for task in self.tasks:
            steps = min(self.spec.max_steps, math.ceil(
                len(inputs.datasets[task].train) / self.spec.batch_size))
            task_means.append(np.mean(
                [losses[lo + steps // 2:lo + steps]
                 for lo in range(at, at + cells * steps, steps)]))
            at += cells * steps
        return float(np.exp(np.mean(np.log(task_means))))

    def finish_pass(self, out, index):
        rows, res = out
        res.checks += _finite_checks(res.losses)
        res.checks += [("score_in_unit_interval", 0.0 <= r[split] <= 1.0)
                       for r in rows for split in ("validation", "test")]
        return res

    def final_checks(self, inputs):
        return []


WORKLOADS = {w.name: w for w in (PretrainClm, ClmCpt, FinetuneGrid)}
