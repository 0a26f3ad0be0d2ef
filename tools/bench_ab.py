"""A/B benchmark of two trees: a base revision against this checkout.

    python3 tools/bench_ab.py --base <rev> --label X \\
        --workloads finetune-grid pretrain-clm --seeds 901-910 [--trace 1]

Exports two trees side by side into one temporary directory with ``git
archive``: the base revision's committed files, and, as the head side, the
tracked files of the checkout this file sits in as they are on disk (``git
stash create``; untracked files are left out). Both sides run from such a
copy: in an A/A test on pretrain-clm the same code read 1-2% slower run
from the checkout than from an export. Runs each tree's own
``benchmark/run.py`` on every workload and seed, alternating which side
runs first from one seed to the next, for BENCHMARK.json's ``run_seconds``
each, and removes the copies at the end, also when SIGTERM stops it (the
run it was waiting on is killed). A run that reports
``"correct": false`` stops the tool with a message naming its side,
workload and seed.
Writes ``BENCH_<label>.json`` at the root of this checkout: per-seed rows
for both sides and, per end-to-end metric, each side's median and
quartiles, the pairs each side won and whether the head side meets the
gain rule (at least 10 pairs, 9 in 10 of them won, and a median gap wider
than the base's q1-q3 spread). With ``--trace 1`` it adds one
traced pair per workload, on the first seed, under ``per_layer``.

Standard library only; numbers come from the runs, none from this process.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
LIMITS = (
    "clm-cpt's final_loss amplifies ulp changes to about 2.3e-10 relative, "
    "so bit-drift claims go through cmp of CLI outputs, not this file",
    "a metric's wins count pairs where the head side is strictly better; "
    "ties count for neither side",
)


def parse_seeds(text):
    """'a-b' (inclusive) or 'a' -> a list of ints."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare to")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="inclusive range a-b")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        p.error("--label may hold letters, digits, '-' and '_' only")
    return args


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the files of commit rev into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # extraction filters came in 3.10.12 and 3.11.4; the archive is
        # git's own, so older versions extract it unfiltered
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **kwargs)


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark/run.py process; returns (env line, result object)."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_ab: {' '.join(cmd)} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    result = json.loads(lines[-1])
    return env, {"correct": result["correct"],
                 "attempted": result["attempted"], "failed": result["failed"],
                 "metrics": {name: m["value"]
                             for name, m in result["metrics"].items()}}


def run_pair(trees, workload, seed, seconds, trace, base_first):
    order = ("base", "head") if base_first else ("head", "base")
    row, env = {"seed": seed, "first": order[0]}, None
    for side in order:
        print(f"bench_ab: {workload} seed {seed} {side}"
              f"{' traced' if trace else ''}", file=sys.stderr, flush=True)
        env, row[side] = run_once(trees[side], workload, seed, seconds, trace)
        if not row[side]["correct"]:
            sys.exit(f"bench_ab: the {side} side's {workload} run, seed "
                     f"{seed}, reported incorrect output "
                     f"({row[side]['failed']} of {row[side]['attempted']} "
                     "checks failed)")
    return env, row


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(rows, metrics):
    """Per metric: each side's median and quartiles, the head median's
    change relative to the base median, and the pairs the head won.
    metrics maps a name to {"unit", "better"}."""
    out = {}
    for name, spec in metrics.items():
        pairs = [(r["base"]["metrics"][name], r["head"]["metrics"][name])
                 for r in rows if name in r["base"]["metrics"]
                 and name in r["head"]["metrics"]]
        if not pairs:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "pairs": len(pairs),
                 "head_wins": sum(sign * (h - b) > 0 for b, h in pairs),
                 "base_wins": sum(sign * (h - b) < 0 for b, h in pairs)}
        for side, values in (("base", [b for b, _ in pairs]),
                             ("head", [h for _, h in pairs])):
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        base, head = entry["base"], entry["head"]
        entry["relative_change"] = ((head["median"] - base["median"])
                                    / base["median"]
                                    if base["median"] else None)
        # the gain rule: at least 10 pairs, 9 in 10 of them won, and a
        # median gap wider than the base's own q1-q3 spread
        entry["gain_rule_met"] = (
            len(pairs) >= 10
            and 10 * entry["head_wins"] >= 9 * len(pairs)
            and sign * (head["median"] - base["median"])
            > base["q3"] - base["q1"])
        out[name] = entry
    return out


def stop(signum, frame):
    """SIGTERM as SystemExit: subprocess.run kills the run it waits on, and
    main's finally removes the exported trees."""
    sys.exit(f"bench_ab: stopped by signal {signum}")


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    known = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in args.workloads if w not in known]
    if unknown:
        sys.exit(f"bench_ab: unknown workloads {unknown}; known: "
                 f"{sorted(known)}")
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "benchmark"))
    revs = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "head": git("stash", "create") or head_rev}
    signal.signal(signal.SIGTERM, stop)
    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    try:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        env, workloads, traced = None, {}, {}
        for workload in args.workloads:
            rows = []
            for i, seed in enumerate(args.seeds):
                env, row = run_pair(trees, workload, seed, seconds, 0,
                                    base_first=i % 2 == 0)
                rows.append(row)
            workloads[workload] = {"rows": rows,
                                   "summary": summarize(rows, end_to_end)}
            if args.trace:
                _, row = run_pair(trees, workload, args.seeds[0], seconds,
                                  1, base_first=True)
                traced[workload] = {"rows": [row],
                                    "summary": summarize([row], per_layer)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "label": args.label,
        "command": ["tools/bench_ab.py", *(argv or sys.argv[1:])],
        "base": {"rev": revs["base"]},
        "head": {"rev": head_rev,
                 "src_or_benchmark_modified": dirty},
        "seconds": seconds, "seeds": args.seeds,
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "cpu_count": os.cpu_count(),
                 "numpy": env and env.get("numpy"),
                 "blas": env and env.get("blas"),
                 "blas_threads_in_runs": env and env.get("blas_threads"),
                 "blas_thread_vars": {v: os.environ.get(v)
                                      for v in BLAS_THREAD_VARS}},
        "limits": list(LIMITS),
        "workloads": workloads,
    }
    if traced:
        report["per_layer"] = traced
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench_ab: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
