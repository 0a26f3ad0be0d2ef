"""Command-line entry point: pretrain, cpt, finetune, report.

Configs are flat INI files whose sections and keys are DEFAULTS's; a named
preset under [experiment] expands to fully explicit values, and the expanded
config is written next to the outputs for provenance.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .data import (BatchStream, CorpusSpec, MASK_ID, gen_corpus,
                   load_task_dataset)
from .finetune import (REPORT_FIELDS, GridSearchSpec, ci95_half_width,
                       run_grid_search, write_report)
from .model import ModelConfig
from .objectives import Objective, STUDY_MASK_RATIOS
from .optim import WsdSchedule, rescaled_schedule
from .runner import (CPT_DECAY_SHARE, CheckpointError, TrainConfig,
                     load_checkpoint, run_cpt, run_pfs, save_checkpoint,
                     write_trace)

PRESETS = {
    "pfs-clm": {"train": {"clm_fraction": 1.0}},
    "pfs-mlm-20": {"train": {"clm_fraction": 0.0, "mask_ratio": 0.20}},
    "pfs-mlm-30": {"train": {"clm_fraction": 0.0, "mask_ratio": 0.30}},
    "pfs-mlm-40": {"train": {"clm_fraction": 0.0, "mask_ratio": 0.40}},
    "pfs-mlm-50": {"train": {"clm_fraction": 0.0, "mask_ratio": 0.50}},
    "biphasic-25-75": {"train": {"clm_fraction": 0.25}},
    "biphasic-50-50": {"train": {"clm_fraction": 0.50}},
    "biphasic-75-25": {"train": {"clm_fraction": 0.75}},
    "cpt-from-clm-2k": {"cpt": {"steps": 2000}},
    "cpt-from-clm-12k": {"cpt": {"steps": 12000}},
    "cpt-from-clm-22k": {"cpt": {"steps": 22000}},
}

# The schema: every settable section and key, with its default, whose type
# is the type a value in the file is converted to.
DEFAULTS = {
    "experiment": {"preset": ""},
    "model": asdict(ModelConfig()),
    "train": {
        "total_steps": 100, "warmup_steps": 10, "decay_steps": 5,
        "peak_lr": 5e-4, "mask_ratio": 0.40, "clm_fraction": 1.0,
        "batch_rows": 4, "seed": 0, "checkpoint_cadence": 0,
    },
    "data": {
        "order": 1, "num_symbols": 6, "target_tokens": 20000,
        "min_len": 8, "max_len": 64, "seed": 0,
    },
    "cpt": {"steps": 2000},
}


class CliError(Exception):
    pass


def expand_config(path: str) -> dict:
    """The run's config, {section: {key: typed value}}: DEFAULTS, then the
    [experiment] preset, then the file's values, each converted to its
    default's type. A section, key or value DEFAULTS does not take raises
    CliError naming it."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except configparser.Error as e:  # names the file; one line, not several
        raise CliError(" ".join(str(e).split())) from None
    if parser.defaults():
        raise CliError(f"{path}: unknown section [{parser.default_section}]")
    given = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise CliError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            where = f"{path}: [{section}] {key}"
            if key not in DEFAULTS[section]:
                raise CliError(f"{where}: unknown key")
            kind = type(DEFAULTS[section][key])
            try:
                value = kind(parser[section][key])
            except (configparser.Error, ValueError) as e:
                raise CliError(f"{where}: {e}") from None
            if kind is float and not math.isfinite(value):
                raise CliError(f"{where}: {value} is not finite")
            given.setdefault(section, {})[key] = value
    preset = given.get("experiment", {}).get("preset", "")
    if preset and preset not in PRESETS:
        raise CliError(f"unknown preset {preset!r}; "
                       f"known: {', '.join(sorted(PRESETS))}")
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    for layer in (PRESETS.get(preset, {}), given):
        for section, keys in layer.items():
            cfg[section].update(keys)
    return cfg


def _out_dir(args, default_name: str) -> str:
    """The output directory's path; each command creates it when it first
    writes there, so a refused command leaves nothing behind."""
    return args.out or os.path.join(
        os.environ.get("BPLM_OUT_DIR", "runs"), default_name)


def _train(args) -> int:
    """bplm pretrain and bplm cpt. --seed is written into cfg, so config.ini
    records the seed the run used, and its [model] is the model the run
    trained. Pretraining's plan is int(total_steps * clm_fraction) CLM
    steps, then MLM, an empty phase left out. CPT's is [cpt] steps of MLM
    from its base (0 included: a checkpoint of the base's params under the
    run's seed), under the rescaled CPT schedule at [train] peak_lr;
    [train]'s plan and schedule are not read. Both mask at [train]
    mask_ratio. Cadence checkpoints, final.ckpt, the trace and the expanded
    config go to the output directory, which the run creates."""
    cfg = expand_config(args.config)
    cpt = args.command == "cpt"
    base = load_checkpoint(args.base) if cpt else None
    model_cfg = base.model_config if cpt else ModelConfig(**cfg["model"])
    t = cfg["train"]
    if args.seed is not None:
        t["seed"] = args.seed
    if cpt:
        steps = cfg["cpt"]["steps"]
        if steps < 0:
            raise ValueError("[cpt] steps must be >= 0")
        plan = [(Objective.MLM, steps)]
        schedule = rescaled_schedule(t["peak_lr"], steps, CPT_DECAY_SHARE)
    else:
        steps = t["total_steps"]
        if steps < 1:
            raise ValueError("[train] total_steps must be >= 1")
        if not 0 <= t["clm_fraction"] <= 1:
            raise CliError(f"[train] clm_fraction must lie in [0, 1], "
                           f"got {t['clm_fraction']}")
        clm_steps = int(steps * t["clm_fraction"])
        plan = [(Objective.CLM, clm_steps), (Objective.MLM, steps - clm_steps)]
        schedule = WsdSchedule(
            peak_lr=t["peak_lr"], warmup_steps=t["warmup_steps"],
            total_steps=steps, decay_steps=t["decay_steps"])
    mask_ratio = t["mask_ratio"]
    if (cpt or dict(plan)[Objective.MLM]) and not args.allow_nonstudy:
        if not any(abs(mask_ratio - r) < 1e-12 for r in STUDY_MASK_RATIOS):
            raise CliError(
                f"masking ratio {mask_ratio} outside the study set "
                f"{STUDY_MASK_RATIOS}; pass --allow-nonstudy to override")
    out = _out_dir(args, "cpt" if cpt
                   else cfg["experiment"]["preset"] or "pretrain")
    train_cfg = TrainConfig(
        objective_plan=plan, schedule=schedule, mask_ratio=mask_ratio,
        seed=t["seed"], checkpoint_cadence=t["checkpoint_cadence"],
        checkpoint_dir=out)
    spec = CorpusSpec(**dict(cfg["data"], max_len=min(
        cfg["data"]["max_len"], model_cfg.max_seq_len)))
    corpus = gen_corpus(spec)
    stream = BatchStream(corpus.sequences, t["batch_rows"],
                         spec.min_len, spec.max_len, train_cfg.seed)

    trace: list = []
    if cpt:
        final = run_cpt(base, steps, train_cfg, stream, MASK_ID,
                        force=args.force, trace=trace)
    else:
        final = run_pfs(train_cfg, stream, model_cfg, MASK_ID, trace=trace)
    os.makedirs(out, exist_ok=True)
    save_checkpoint(final, os.path.join(out, "final.ckpt"))
    write_trace(trace, out)
    cfg["model"] = asdict(model_cfg)  # CPT's is the base's
    parser = configparser.ConfigParser()
    parser.read_dict(cfg)
    with open(os.path.join(out, "config.ini"), "w") as f:
        parser.write(f)
    if cpt:
        print(f"cpt complete: {steps} MLM steps (bidirectional from step 0); "
              f"history {final.objective_history}; artifacts in {out}")
    else:
        if train_cfg.switch_step() is not None:
            print(f"biphasic switch at step {train_cfg.switch_step()}")
        print(f"pretrained {final.step} steps; corpus entropy rate "
              f"{corpus.entropy_rate:.4f} nats/token; final loss "
              f"{trace[-1]['loss']:.4f}; artifacts in {out}")
    return 0


def cmd_finetune(args) -> int:
    base = load_checkpoint(args.checkpoint)
    dataset = load_task_dataset(args.task_data)
    seeds = tuple(range(args.seeds))
    if args.seeds != 5:
        print(f"warning: study protocol uses 5 seeds, running {args.seeds}",
              file=sys.stderr)
    spec = GridSearchSpec(seeds=seeds)
    out = _out_dir(args, f"finetune-{dataset.task.lower()}")
    report = run_grid_search(base, dataset, spec)
    os.makedirs(out, exist_ok=True)
    name = os.path.basename(os.path.normpath(args.task_data))
    write_report(report, name, os.path.join(out, "runs.csv"))
    with open(os.path.join(out, "aggregate.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "dataset", "selected_lr", "test_mean", "ci95"])
        ci = "" if report.ci95 is None else f"{report.ci95:.6f}"
        writer.writerow([report.task, name, report.selected_lr,
                         f"{report.test_mean:.6f}", ci])
    if report.ci95 is None:
        print("warning: fewer than 2 seeds, ci95 left empty", file=sys.stderr)
    print(f"{len(report.rows)} runs; selected lr {report.selected_lr}; "
          f"test {report.test_mean:.4f}"
          + (f" +/- {report.ci95:.4f}" if report.ci95 is not None else "")
          + f"; artifacts in {out}")
    return 0


def cmd_report(args) -> int:
    """Aggregate per-run CSVs (runs.csv files) into one summary table. A
    file that is not UTF-8 or whose header is not REPORT_FIELDS, or a row
    without one field per column and a finite numeric value, raises CliError
    naming the file and line."""
    groups: dict = {}
    for root, _dirs, files in os.walk(args.runs_dir):
        for name in files:
            if name != "runs.csv":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                raw = f.read()
            try:  # as write_report writes it
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                line = raw.count(b"\n", 0, e.start) + 1
                raise CliError(f"{path}: line {line}: byte "
                               f"{raw[e.start]:#04x} is not UTF-8") from None
            reader = csv.reader(io.StringIO(text, newline=""))
            if tuple(next(reader, ())) != REPORT_FIELDS:
                raise CliError(f"{path}: header is not "
                               f"{','.join(REPORT_FIELDS)}")
            for row in filter(None, reader):  # skip blank lines
                where = f"{path}: line {reader.line_num}"
                if len(row) != len(REPORT_FIELDS):
                    raise CliError(f"{where}: {len(row)} fields, not "
                                   f"{len(REPORT_FIELDS)}")
                task, dataset, lr, _seed, split, metric, value = row
                try:
                    value = float(value)
                except ValueError:
                    raise CliError(f"{where}: value {value!r} is not "
                                   f"a number") from None
                if not math.isfinite(value):
                    raise CliError(f"{where}: value {value} is not finite")
                groups.setdefault((task, dataset, lr, split, metric),
                                  []).append(value)
    if not groups:
        raise CliError(f"no runs.csv files under {args.runs_dir}")
    out = args.out or os.path.join(args.runs_dir, "summary.csv")
    with open(out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "dataset", "lr", "split", "metric",
                         "mean", "ci95", "n"])
        for key in sorted(groups):
            vals = groups[key]
            ci = ci95_half_width(vals)
            writer.writerow(list(key) + [
                f"{np.mean(vals):.6f}",
                "" if ci is None else f"{ci:.6f}", len(vals)])
    print(f"summary written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bplm",
        description="Deterministic desk-scale CLM/MLM pretraining study")
    sub = parser.add_subparsers(dest="command", required=True)
    # no subcommand takes abbreviated flags: with them, a command line that
    # names a dropped flag can be read as another the name is a prefix of,
    # as finetune's dropped --seed would be read as --seeds
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def out(p):
        p.add_argument("--out", help="output directory "
                       "(default: $BPLM_OUT_DIR/<name>)")

    def common(p):
        out(p)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--allow-nonstudy", action="store_true",
                       help="permit values outside the study grid")

    p = command("pretrain", help="run PFS or biphasic pretraining")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=_train)

    p = command("cpt", help="continued pretraining from a checkpoint")
    p.add_argument("base", help="path to the base checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--force", action="store_true",
                   help="accept a non-decayed base checkpoint")
    common(p)
    p.set_defaults(fn=_train)

    p = command("finetune", help="grid-search fine-tune and evaluate")
    p.add_argument("checkpoint")
    p.add_argument("task_data", help="task dataset directory")
    p.add_argument("--seeds", type=int, default=5)
    out(p)
    p.set_defaults(fn=cmd_finetune)

    p = command("report", help="aggregate run CSVs into a summary")
    p.add_argument("runs_dir")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
