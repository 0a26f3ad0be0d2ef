"""Probes the benchmark installs around bplm's public functions.

Every probe replaces a name where the caller looks it up (a module global
such as ``bplm.runner.backward``, an attribute of ``bplm.tensor`` reached as
``T.<op>``, or a method on a class) and puts the original back on exit.
Nothing under ``src/`` knows about them.

``StepClock`` runs in every fine-tune pass, traced or not: it stamps the
start and end of each fine-tuning step and evaluation call (two clock reads
each), because ``run_grid_search`` exposes no per-step timing of its own,
and lets the calibration clock sample between them.
``Tracer`` is the per-layer breakdown and is installed only around traced
passes.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import bplm.data
import bplm.finetune
import bplm.model
import bplm.objectives
import bplm.runner
import bplm.tensor

# the tensor ops the model, objectives and task heads reach through ``T.``
TENSOR_OPS = (
    "matmul", "add", "scale", "add_const", "transpose", "slice_cols",
    "concat_cols", "stack_rows", "gather_rows", "softmax", "rms_norm",
    "swiglu", "rope_apply", "cross_entropy_from_logits", "mean_pool",
    "l2_normalize_rows",
)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _example_tokens(ex) -> int:
    if ex.task == "IR":
        return (len(ex.query) + len(ex.positive)
                + sum(len(n) for n in ex.negatives or ()))
    return len(ex.tokens)


class StepClock:
    """Fine-tuning step times, token counts, losses and evaluation time.

    A step runs from the entry of ``task_loss`` to the return of
    ``adamw_step``, as ``finetune_one`` calls them.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.steps = []          # (start, end) of each step
        self.step_tokens = []
        self.losses = []
        self.evals = []          # (start, end) of each evaluate call
        self.eval_examples = 0
        self._t0 = None
        self._patches = Patches()

    def __enter__(self):
        clock = self

        def task_loss(fn):
            def probe(task, head, params, cfg, batch, *a, **k):
                clock.step_tokens.append(sum(map(_example_tokens, batch)))
                clock._t0 = time.perf_counter()
                loss = fn(task, head, params, cfg, batch, *a, **k)
                clock.losses.append(loss.item())
                return loss
            return probe

        def adamw_step(fn):
            def probe(*a, **k):
                out = fn(*a, **k)
                clock.steps.append((clock._t0, time.perf_counter()))
                clock.calibration.tick()
                return out
            return probe

        def evaluate(fn):
            def probe(task, head, params, cfg, examples, *a, **k):
                t0 = time.perf_counter()
                out = fn(task, head, params, cfg, examples, *a, **k)
                clock.evals.append((t0, time.perf_counter()))
                clock.eval_examples += len(examples)
                clock.calibration.tick()
                return out
            return probe

        self._patches.wrap(bplm.finetune, "task_loss", task_loss)
        self._patches.wrap(bplm.finetune, "adamw_step", adamw_step)
        self._patches.wrap(bplm.finetune, "evaluate", evaluate)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


class Tracer:
    """Per-layer spans, aggregated in memory by (scope, name).

    Scope is "step" between the first layer call of a training step
    (``BatchStream.batch`` in the pretrain loop, ``task_loss`` in the
    fine-tune loop) and the return of ``adamw_step``; everything else
    (evaluation, checkpoint I/O, corpus generation) is scope "other".
    A span's self time is its duration minus the time of the spans it
    encloses. Aggregates accumulate over every install, so several traced
    passes pool into one set of per-step figures.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)   # work counts: nodes, bytes, ...
        self.top_s = defaultdict(float)    # spans with no enclosing span
        self.steps = 0
        self._in_step = False
        self._stack = []
        self._patches = Patches()

    # -- span machinery ----------------------------------------------------

    def _scope(self) -> str:
        return "step" if self._in_step else "other"

    def span(self, name, starts_step=False, ends_step=False, before=None,
             after=None):
        """Wrapper factory: time ``fn`` as span ``name``.

        ``before(scope, args, kwargs)`` and ``after(scope, args, kwargs,
        result)`` record work counts at the boundary."""
        tracer = self

        def make(fn):
            def probe(*args, **kwargs):
                if starts_step:
                    tracer._in_step = True
                scope = tracer._scope()
                if before is not None:
                    before(scope, args, kwargs)
                tracer._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    child = tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1] += dur
                    else:
                        tracer.top_s[scope] += dur
                    key = (scope, name)
                    tracer.calls[key] += 1
                    tracer.incl_s[key] += dur
                    tracer.self_s[key] += dur - child
                if after is not None:
                    after(scope, args, kwargs, out)
                if ends_step and scope == "step":
                    tracer.steps += 1
                    tracer._in_step = False
                return out
            return probe
        return make

    def count(self, scope, name, amount):
        self.counts[(scope, name)] += amount

    # -- install -----------------------------------------------------------

    def __enter__(self):
        p, span, count = self._patches, self.span, self.count
        for op in TENSOR_OPS:
            p.wrap(bplm.tensor, op, span(f"tensor.op.{op}"))

        def tape_nodes(scope, args, kwargs):
            count(scope, "tensor.tape_nodes", len(args[1].nodes))
        for mod in (bplm.runner, bplm.finetune):
            p.wrap(mod, "backward", span("tensor.backward", before=tape_nodes))

        def positions(scope, args, kwargs):
            tokens = args[2]
            pad = args[4] if len(args) > 4 else kwargs.get("pad_mask")
            count(scope, "data.positions", len(tokens))
            count(scope, "data.real_positions",
                  len(tokens) if pad is None else sum(bool(b) for b in pad))
        for mod in (bplm.model, bplm.objectives, bplm.finetune):
            p.wrap(mod, "forward", span("model.forward", before=positions))
        p.wrap(bplm.model, "attention", span("model.attention"))

        def clm_predicted(scope, args, kwargs):
            logits, tokens = args[0], args[1]
            pad = args[2] if len(args) > 2 else kwargs.get("pad_mask")
            pad = [True] * len(tokens) if pad is None else list(pad)
            count(scope, "objectives.logit_positions", logits.data.shape[0])
            count(scope, "objectives.loss_positions",
                  sum(pad[t] and pad[t + 1] for t in range(len(tokens) - 1)))

        def mlm_predicted(scope, args, kwargs):
            logits, plan = args[0], args[1]
            count(scope, "objectives.logit_positions", logits.data.shape[0])
            count(scope, "objectives.loss_positions",
                  len(plan.masked_positions))
        p.wrap(bplm.objectives, "clm_loss",
               span("objectives.loss", before=clm_predicted))
        p.wrap(bplm.objectives, "mlm_loss",
               span("objectives.loss", before=mlm_predicted))
        p.wrap(bplm.runner, "pretrain_loss", span("objectives.pretrain_loss"))
        for mod in (bplm.runner, bplm.data):
            p.wrap(mod, "select_mask", span("objectives.select_mask"))

        for mod in (bplm.runner, bplm.finetune):
            p.wrap(mod, "clip_global_norm", span("optim.clip"))
            p.wrap(mod, "adamw_step", span("optim.adamw", ends_step=True))

        def ckpt_bytes(scope, args, kwargs, out):
            count(scope, "runner.ckpt_bytes", os.path.getsize(args[1]))
        p.wrap(bplm.runner, "save_checkpoint",
               span("runner.ckpt_save", after=ckpt_bytes))
        p.wrap(bplm.runner, "load_checkpoint", span("runner.ckpt_load"))

        p.wrap(bplm.data.BatchStream, "batch",
               span("data.batch", starts_step=True))
        p.wrap(bplm.data, "gen_corpus", span("data.gen_corpus"))
        p.wrap(bplm.data, "gen_task_data", span("data.gen_task_data"))

        def eval_examples(scope, args, kwargs):
            count(scope, "finetune.eval_examples", len(args[4]))
        p.wrap(bplm.finetune, "task_loss",
               span("finetune.task_loss", starts_step=True))
        p.wrap(bplm.finetune, "encode", span("finetune.encode"))
        p.wrap(bplm.finetune, "evaluate",
               span("finetune.evaluate", before=eval_examples))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._in_step = False
        self._stack.clear()
        return False

    # -- read-out ----------------------------------------------------------

    def total(self, name, scope=None, kind="incl"):
        table = {"incl": self.incl_s, "self": self.self_s,
                 "calls": self.calls, "count": self.counts}[kind]
        return sum(v for (s, n), v in table.items()
                   if n == name and (scope is None or s == scope))
