"""Outside-in benchmark for bplm.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see workloads.py and README.md) through bplm's public
API from the ``src/`` tree next to this directory, checks its outputs, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
breakdown, from passes run under the probes in probes.py.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import NOMINAL_S, Clock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import bplm from this checkout's src/ tree and nowhere else."""
    package = os.path.join(SRC, "bplm")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"benchmark: no bplm sources at {package}")
    sys.path.insert(0, SRC)
    import bplm
    if os.path.dirname(os.path.abspath(bplm.__file__)) != package:
        sys.exit(f"benchmark: bplm imported from {bplm.__file__}, "
                 f"not from {package}")


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "seed": seed,
    }


def quantile(values, q):
    return float(np.percentile(values, q))


def run_passes(workload, inputs, seconds, traced, clock):
    """Repeat the pass until the measuring time is spent (at least
    MIN_PASSES), sampling the calibration kernel before each pass and, in
    untraced passes, between steps. In a traced run, passes alternate
    untraced and traced so the tracing overhead is measured in the same
    process; traced passes take no samples inside, so no kernel time falls
    inside a span."""
    from probes import Tracer
    tracer = Tracer() if traced else None
    passes = []   # (is_traced, PassResult)
    start = time.perf_counter()
    longest = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        clock.sample()
        under_trace = traced and len(passes) % 2 == 1
        index = len(passes)
        clock.ticking = not under_trace
        with tracer if under_trace else contextlib.nullcontext():
            out = workload.run_pass(inputs, index)
        clock.ticking = True
        passes.append((under_trace, workload.finish_pass(out, index)))
        longest = max(longest, time.perf_counter() - t0)
    clock.sample()
    return passes, tracer


def pass_times(clock, r):
    """A pass's timings at nominal speed: wall, step times, eval time."""
    return (clock.scaled(*r.span), [clock.scaled(*s) for s in r.steps],
            sum(clock.scaled(*e) for e in r.evals))


def end_to_end(clock, setup_s, results):
    """Every timing is scaled to nominal speed by the kernel samples taken
    next to it, taken per pass, and reported as the median over the
    passes."""
    times = [(r, *pass_times(clock, r)) for r in results]

    def med(per_pass):
        return statistics.median(per_pass(*t) for t in times)

    first = results[0]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (med(lambda r, wall, steps, ev: wall), "s"),
        "train_tokens_per_s": (med(
            lambda r, wall, steps, ev: sum(r.step_tokens) / sum(steps)),
            "tokens/s"),
        "step_ms_p50": (med(
            lambda r, wall, steps, ev: quantile(steps, 50)) * 1e3, "ms"),
        "step_ms_p90": (med(
            lambda r, wall, steps, ev: quantile(steps, 90)) * 1e3, "ms"),
        "eval_examples_per_s": (med(
            lambda r, wall, steps, ev: r.eval_examples / ev), "examples/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_loss": (first.final_loss, "nats"),
        "task_score": (first.task_score, "score"),
    }


def per_layer(clock, tracer, setup_counts, plain, traced, runner_loop):
    """Span totals are measured times, rescaled afterwards by the run's
    mean kernel time (``at_nominal_speed``)."""
    from probes import TENSOR_OPS
    steps = max(tracer.steps, 1)
    total = tracer.total

    def per_step(name, kind="incl", scale=1e3):
        return total(name, "step", kind) * scale / steps

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "tensor.tape_nodes_per_step": (
            per_step("tensor.tape_nodes", "count", 1), "count"),
        "tensor.backward_ms_per_step": (per_step("tensor.backward"), "ms"),
    }
    for op in TENSOR_OPS:
        m[f"tensor.op.{op}.calls_per_step"] = (
            per_step(f"tensor.op.{op}", "calls", 1), "count")
        m[f"tensor.op.{op}.fwd_ms_per_step"] = (
            per_step(f"tensor.op.{op}"), "ms")
    m.update({
        "model.forward_calls_per_step": (
            per_step("model.forward", "calls", 1), "count"),
        "model.forward_ms_per_step": (per_step("model.forward"), "ms"),
        "model.attention_ms_per_step": (per_step("model.attention"), "ms"),
        "model.attention_self_ms_per_step": (
            per_step("model.attention", "self"), "ms"),
        "objectives.loss_ms_per_step": (per_step("objectives.loss"), "ms"),
        "objectives.select_mask_ms_per_step": (
            per_step("objectives.select_mask"), "ms"),
        "objectives.predicted_fraction": (ratio(
            total("objectives.loss_positions", "step", "count"),
            total("objectives.logit_positions", "step", "count")), "fraction"),
        "optim.adamw_ms_per_step": (per_step("optim.adamw"), "ms"),
        "optim.clip_ms_per_step": (per_step("optim.clip"), "ms"),
    })
    saves = total("runner.ckpt_save", kind="calls")
    loads = total("runner.ckpt_load", kind="calls")
    loop_self = 0.0
    if runner_loop:
        loop_self = (sum(b - a for r in traced for a, b in r.steps)
                     - tracer.top_s["step"])
    m.update({
        "runner.ckpt_save_ms": (
            ratio(total("runner.ckpt_save") * 1e3, saves), "ms"),
        "runner.ckpt_load_ms": (
            ratio(total("runner.ckpt_load") * 1e3, loads), "ms"),
        "runner.ckpt_bytes": (
            ratio(total("runner.ckpt_bytes", kind="count"), saves), "bytes"),
        "runner.loop_self_ms_per_step": (loop_self * 1e3 / steps, "ms"),
        "data.gen_corpus_s": (setup_counts["data.gen_corpus"], "s"),
        "data.gen_task_data_s": (setup_counts["data.gen_task_data"], "s"),
        "data.batch_ms_per_step": (per_step("data.batch"), "ms"),
        "data.real_token_fraction": (ratio(
            total("data.real_positions", "step", "count"),
            total("data.positions", "step", "count")), "fraction"),
        "finetune.task_loss_ms_per_step": (
            per_step("finetune.task_loss"), "ms"),
        "finetune.encode_calls_per_step": (
            per_step("finetune.encode", "calls", 1), "count"),
        "finetune.evaluate_ms_per_example": (ratio(
            total("finetune.evaluate") * 1e3,
            total("finetune.eval_examples", kind="count")), "ms"),
        "finetune.cell_s": (statistics.median(
            ratio(clock.raw(*r.span), r.cells) for r in traced), "s"),
        # measured times: traced passes take no kernel samples inside, and
        # samples taken between steps read slower than those between
        # passes, so scaling would compare the two kinds unevenly
        "trace.overhead_ratio": (
            statistics.median(clock.raw(*r.span) for r in traced)
            / statistics.median(clock.raw(*r.span) for r in plain),
            "ratio"),
        "trace.coverage": (
            sum(tracer.top_s.values())
            / sum(clock.raw(*r.span) for r in traced), "fraction"),
    })
    return m


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True),
          flush=True)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        result = measure(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def at_nominal_speed(metrics, factor):
    """Rescale every time and rate by one factor (see calibrate.py);
    other values pass through."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = (value, unit)
    return out


def measure(workload_cls, args, workdir):
    from probes import Tracer
    clock = Clock()
    workload = workload_cls(args.seed, workdir, clock)

    setups = []
    setup_tracer = Tracer()
    setup_spans = {"data.gen_corpus": [], "data.gen_task_data": []}
    for _ in range(SETUP_REPEATS):
        clock.sample()
        before = {n: setup_tracer.total(n) for n in setup_spans}
        t0 = time.perf_counter()
        with setup_tracer if args.trace else contextlib.nullcontext():
            inputs = workload.setup()
        setups.append((t0, time.perf_counter()))
        for n in setup_spans:
            setup_spans[n].append(setup_tracer.total(n) - before[n])
    workload.prepare(inputs)

    passes, tracer = run_passes(workload, inputs, args.seconds, args.trace,
                                clock)
    factor = NOMINAL_S / clock.mean_kernel_s()
    results = [r for _, r in passes]
    checks = [c for r in results for c in r.checks]
    checks += workload.final_checks(inputs)
    reference = results[0].fingerprint
    checks += [("deterministic_repeat", r.fingerprint == reference)
               for r in results[1:]]
    failed = sum(not ok for _, ok in checks)
    failures = sorted({name for name, ok in checks if not ok})

    plain = [r for traced, r in passes if not traced]
    if args.trace:
        traced = [r for t, r in passes if t]
        setup_medians = {n: statistics.median(v)
                         for n, v in setup_spans.items()}
        metrics = at_nominal_speed(
            per_layer(clock, tracer, setup_medians, plain, traced,
                      workload.runner_loop), factor)
    else:
        metrics = end_to_end(
            clock, [clock.scaled(*s) for s in setups], plain)

    step_samples = sum(len(r.steps) for r in plain)
    print(f"passes {len(results)} ({len(plain)} untraced), step samples "
          f"{step_samples}, calibration kernel mean "
          f"{clock.mean_kernel_s() * 1e3:.4f} ms over "
          f"{clock.samples()} samples (mean speed factor {factor:.4f}), "
          f"ops_total {len(checks)}, failed {failed}, "
          f"fail_ratio {failed / len(checks):.6f}"
          + (f", failing checks: {', '.join(failures)}" if failures else ""),
          flush=True)
    return {
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
