"""Pretraining regimes and bit-exact checkpoint persistence.

run_pfs is the one training loop. It runs the config's objective plan (one
objective, or biphasic CLM switching to MLM before the decay window with the
schedule uninterrupted) from a start checkpoint that gives params, moments,
step and objective history: the step-0 one built from the config, a cadence
checkpoint to resume, or a CPT start, for which run_cpt checks its decayed
base and takes the base's params with fresh moments under MLM and a short
rescaled schedule. Training never changes its start checkpoint.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .data import MASK_ID, BatchStream
from .model import ModelConfig, Parameters, init_params, param_shapes
from .objectives import LmBatch, Objective, pretrain_loss, select_mask
from .optim import (AdamWState, WsdSchedule, adamw_step, clip_global_norm,
                    rescaled_schedule, wsd_lr)
from .tensor import Tape, Tensor, backward

CHECKPOINT_MAGIC = b"BPLM"
CHECKPOINT_VERSION = 4

CPT_DECAY_SHARE = 0.05  # of the CPT steps, after a 10% warmup

# metrics.csv holds the deterministic columns, so reruns match byte for
# byte; the wall clock goes to timing.csv
TRACE_FIELDS = ("step", "phase", "objective", "lr", "loss", "masked_fraction")
TIMING_FIELDS = ("step", "wall_ms")


@dataclass
class TrainConfig:
    objective_plan: List[Tuple[Objective, int]]
    schedule: WsdSchedule
    mask_ratio: float = 0.4
    seed: int = 0
    checkpoint_cadence: int = 0       # steps between saves; 0 disables
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must lie in (0, 1], "
                             f"got {self.mask_ratio}")
        if self.checkpoint_cadence < 0:
            raise ValueError("checkpoint_cadence must be >= 0")
        if any(steps < 0 for _, steps in self.objective_plan):
            raise ValueError("phase step counts must be non-negative")
        planned = sum(steps for _, steps in self.objective_plan)
        if planned != self.schedule.total_steps:
            raise ValueError("objective plan must cover schedule.total_steps")
        # a zero-step phase runs nothing, so a plan holds none
        self.objective_plan = [(o, n) for o, n in self.objective_plan if n]
        phases = self.objective_plan
        if len(phases) == 2:
            if phases[0][0] is not Objective.CLM or phases[1][0] is not Objective.MLM:
                raise ValueError("biphasic plans run CLM first, then MLM")
        elif len(phases) > 2:
            raise ValueError("at most two non-empty phases are supported")
        switch = self.switch_step()
        if switch is not None and switch >= self.schedule.decay_start:
            raise ValueError("phase boundary must precede the decay window")

    def objective_at(self, step: int) -> Tuple[int, Objective]:
        """(phase index, objective) in effect at a global step."""
        at = 0
        for i, (obj, steps) in enumerate(self.objective_plan):
            at += steps
            if step < at:
                return i, obj
        raise ValueError(f"step {step} beyond the objective plan")

    def switch_step(self) -> Optional[int]:
        """Global step at which a two-phase plan switches, else None."""
        if len(self.objective_plan) != 2:
            return None
        return self.objective_plan[0][1]


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: Parameters
    opt_state: AdamWState
    schedule: WsdSchedule
    step: int
    objective_history: List[dict] = field(default_factory=list)
    seed: int = 0
    mask_ratio: float = 0.4

    @property
    def decayed(self) -> bool:
        """True once the run has completed its learning-rate decay."""
        return self.step >= self.schedule.total_steps


def _mask_batch(batch: LmBatch, ratio: float, mask_id: int, seed: int,
                step: int) -> LmBatch:
    """Attach one deterministic MaskingPlan per row, keyed on (seed, step)."""
    plans = [select_mask(tokens, ratio,
                         np.random.default_rng([seed, step, row_idx]), mask_id)
             for row_idx, tokens in enumerate(batch.seqs)]
    return LmBatch(batch.seqs, plans)


def _masked_fraction(batch: LmBatch) -> float:
    if batch.plans is None:
        return 0.0
    masked = sum(len(p.masked_positions) for p in batch.plans)
    return masked / int(batch.lengths.sum())  # > 0: the loss ran


def _check_start(start: Checkpoint, cfg: TrainConfig,
                 model_cfg: ModelConfig) -> None:
    """A start checkpoint must come from a run under the same config, its
    history ending in the plan's phases (CPT's "cpt" marker aside)."""
    plan = [(obj.value, n) for obj, n in cfg.objective_plan]
    ran = [(h["objective"], h["steps"]) for h in start.objective_history]
    for name, have, want in (
            ("model_config", start.model_config, model_cfg),
            ("schedule", start.schedule, cfg.schedule),
            ("seed", start.seed, cfg.seed),
            ("mask_ratio", start.mask_ratio, cfg.mask_ratio),
            ("objective_plan", ran[len(ran) - len(plan):], plan)):
        if have != want:
            raise ValueError(f"start checkpoint {name} {have!r} does not "
                             f"match the run's {want!r}")


def run_pfs(cfg: TrainConfig, stream: BatchStream, model_cfg: ModelConfig,
            mask_id: int = MASK_ID,
            resume_from: Optional[Checkpoint] = None,
            trace: Optional[List[dict]] = None) -> Checkpoint:
    """Train under cfg's objective plan from a start checkpoint: resume_from,
    or with None the step-0 one (params from cfg.seed, fresh moments, the
    plan's history). It must match cfg and model_cfg, and it is left
    unchanged. A biphasic plan trains CLM at stable lr, then MLM; the
    schedule runs on uninterrupted and decays only in phase 2. Cadence
    checkpoints go to cfg.checkpoint_dir, created at the first save."""
    start = resume_from
    if start is None:
        start = Checkpoint(
            model_cfg, init_params(model_cfg, cfg.seed), AdamWState(),
            cfg.schedule, 0, [{"objective": obj.value, "steps": steps}
                              for obj, steps in cfg.objective_plan],
            cfg.seed, cfg.mask_ratio)
    _check_start(start, cfg, model_cfg)
    # adamw_step moves params and moments into buffers of its own at its
    # first step, so fresh wrappers and dicts leave the start's unchanged
    params = {name: Tensor(p.data, requires_grad=True)
              for name, p in start.params.items()}
    opt_state = replace(start.opt_state, m=dict(start.opt_state.m),
                        v=dict(start.opt_state.v))
    history = list(start.objective_history)

    def snapshot(step: int) -> Checkpoint:
        return Checkpoint(model_cfg, params, opt_state, cfg.schedule, step,
                          history, cfg.seed, cfg.mask_ratio)

    if trace is None:
        trace = []
    total = cfg.schedule.total_steps
    for step in range(start.step, total):
        t0 = time.perf_counter()
        phase, objective = cfg.objective_at(step)
        batch = stream.batch(step)
        if objective is Objective.MLM:
            batch = _mask_batch(batch, cfg.mask_ratio, mask_id, cfg.seed, step)
        lr = wsd_lr(cfg.schedule, step)

        with Tape() as tape:
            loss = pretrain_loss(objective, params, model_cfg, batch)
        if not math.isfinite(loss.item()):
            raise ValueError(f"non-finite loss {loss.item()} at step {step}")
        backward(loss, tape)
        grads = {name: p.grad for name, p in params.items()
                 if p.grad is not None}
        try:
            clip_global_norm(grads)
        except ValueError as err:
            raise ValueError(f"{err} at step {step}") from None
        adamw_step(params, grads, opt_state, lr)
        for p in params.values():  # so a returned checkpoint holds no grads
            p.zero_grad()

        trace.append({
            "step": step, "phase": phase, "objective": objective.value,
            "lr": lr, "loss": loss.item(),
            "masked_fraction": _masked_fraction(batch),
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        })
        done = step + 1
        if cfg.checkpoint_cadence and cfg.checkpoint_dir \
                and done % cfg.checkpoint_cadence == 0 and done < total:
            os.makedirs(cfg.checkpoint_dir, exist_ok=True)
            save_checkpoint(snapshot(done), os.path.join(
                cfg.checkpoint_dir, f"step_{done:08d}.ckpt"))
    return snapshot(total)


def run_cpt(base: Checkpoint, cpt_steps: int, cfg: TrainConfig,
            stream: BatchStream, mask_id: int = MASK_ID, force: bool = False,
            trace: Optional[List[dict]] = None) -> Checkpoint:
    """Continue a decayed checkpoint with MLM under the rescaled schedule
    (CPT_DECAY_SHARE) at cfg's peak lr; optimizer moments restart. Of cfg's
    plan and schedule only the peak lr is read.
    """
    if not base.decayed and not force:
        raise ValueError("CPT base checkpoint has not undergone lr decay; "
                         "pass --force (force=True) to continue it anyway")
    if cpt_steps == 0:
        return base
    schedule = rescaled_schedule(cfg.schedule.peak_lr, cpt_steps,
                                 CPT_DECAY_SHARE)
    cpt_cfg = replace(cfg, objective_plan=[(Objective.MLM, cpt_steps)],
                      schedule=schedule)
    history = list(base.objective_history) + [
        {"objective": Objective.MLM.value, "steps": cpt_steps, "cpt": True}]
    start = Checkpoint(base.model_config, base.params, AdamWState(),
                       schedule, 0, history, cfg.seed, cfg.mask_ratio)
    return run_pfs(cpt_cfg, stream, base.model_config, mask_id,
                   resume_from=start, trace=trace)


def write_trace(trace: Sequence[dict], directory) -> None:
    """The trace's metrics.csv (TRACE_FIELDS) and timing.csv
    (TIMING_FIELDS) in directory."""
    for name, fields in (("metrics.csv", TRACE_FIELDS),
                         ("timing.csv", TIMING_FIELDS)):
        with open(os.path.join(directory, name), "w", newline="",
                  encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=fields,
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(trace)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

_BLOCK_KEYS = {"model_config", "schedule", "step", "objective_history",
               "seed", "mask_ratio", "opt"}


def _config_block(ckpt: Checkpoint) -> bytes:
    cfg = {
        "model_config": asdict(ckpt.model_config),
        "schedule": asdict(ckpt.schedule),
        "step": ckpt.step,
        "objective_history": ckpt.objective_history,
        "seed": ckpt.seed,
        "mask_ratio": ckpt.mask_ratio,
        "opt": {"step_count": ckpt.opt_state.step_count},
    }
    return json.dumps(cfg, sort_keys=True).encode("utf-8")


def _tensor_record(name: str, arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    name_b = name.encode("utf-8")
    rec = struct.pack("<I", len(name_b)) + name_b
    rec += struct.pack("<I", arr.ndim)
    rec += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    rec += payload
    rec += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return rec


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Atomic write of the documented binary layout (temp then rename)."""
    tensors: List[Tuple[str, np.ndarray]] = [
        (f"param.{name}", t.data) for name, t in sorted(ckpt.params.items())]
    for name in sorted(ckpt.opt_state.m):
        tensors.append((f"opt.m.{name}", ckpt.opt_state.m[name]))
        tensors.append((f"opt.v.{name}", ckpt.opt_state.v[name]))

    cfg_block = _config_block(ckpt)
    body = b"".join([CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
                     struct.pack("<I", len(cfg_block)), cfg_block,
                     struct.pack("<I", len(tensors))]
                    + [_tensor_record(name, arr) for name, arr in tensors])
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(body)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class CheckpointError(Exception):
    pass


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def read(self, n: int) -> bytes:
        if self.at + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.at: self.at + n]
        self.at += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]


def _typed(cls, **values):
    """cls(**values), once each int field given holds an int (not a bool)
    and each float field an int or a float."""
    for name, kind in get_type_hints(cls).items():
        if kind in (int, float) and name in values:
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise TypeError(f"{cls.__name__}.{name} must be "
                                f"{kind.__name__}, not {value!r}")
    return cls(**values)


def _parse_config_block(block: bytes) -> Checkpoint:
    """The checkpoint a config block describes, with no params or moments
    yet. A block that is not UTF-8 JSON, or that lacks a key, has an unknown
    one, holds a value of the wrong type or one the config classes refuse,
    or a negative step or step_count, is a CheckpointError."""
    try:
        cfg = json.loads(block.decode("utf-8"))
        unknown = sorted(set(cfg) - _BLOCK_KEYS)
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        for entry in cfg["objective_history"]:  # resume checks read these
            if type(entry["steps"]) is not int:
                raise TypeError(f"history steps {entry['steps']!r}")
            Objective(entry["objective"])
        ckpt = _typed(Checkpoint,
                      model_config=_typed(ModelConfig, **cfg["model_config"]),
                      params={}, opt_state=_typed(AdamWState, **cfg["opt"]),
                      schedule=_typed(WsdSchedule, **cfg["schedule"]),
                      step=cfg["step"],
                      objective_history=cfg["objective_history"],
                      seed=cfg["seed"], mask_ratio=cfg["mask_ratio"])
        # from step_count -1, the next adamw_step divides by 1 - BETA1 ** 0
        for name, value in (("step", ckpt.step),
                            ("opt.step_count", ckpt.opt_state.step_count)):
            if value < 0:
                raise ValueError(f"negative {name} {value}")
        return ckpt
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(
            f"malformed config block: {type(err).__name__}: {err}") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    (file_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != file_crc:
        raise CheckpointError("file-level CRC mismatch")
    r = _Reader(raw[4:-4])
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    ckpt = _parse_config_block(r.read(r.u32()))
    # the block fixes the records: every parameter in sorted-name order,
    # then, once the optimizer has stepped, each one's m and v moments
    shapes = sorted(param_shapes(ckpt.model_config).items())
    layout = [(f"param.{name}", shape) for name, shape in shapes]
    if ckpt.opt_state.step_count > 0:
        layout += [(f"opt.{kind}.{name}", shape)
                   for name, shape in shapes for kind in "mv"]
    count = r.u32()
    arrays = []
    for name, shape in layout[:count]:
        # name and rank are checked before the shape words are read, the
        # shape before the payload; a name that is not UTF-8 keeps a U+FFFD
        held = r.read(r.u32()).decode("utf-8", "replace")
        ndim = r.u32()
        expects = f"the config block expects {name!r} of shape {shape}"
        if held != name or ndim != len(shape):
            raise CheckpointError(f"{expects}, the file holds {held!r} of "
                                  f"rank {ndim}")
        held_shape = struct.unpack(f"<{ndim}Q", r.read(8 * ndim))
        if held_shape != shape:
            raise CheckpointError(f"{expects}, the file holds shape "
                                  f"{held_shape}")
        payload = r.read(8 * math.prod(shape))
        if zlib.crc32(payload) & 0xFFFFFFFF != r.u32():
            raise CheckpointError(f"payload CRC mismatch for tensor {name!r}")
        arrays.append(np.frombuffer(payload, "<f8").reshape(shape).copy())
    if count != len(layout):  # each record it holds matched: too few or many
        raise CheckpointError(f"the file holds {count} tensor records, its "
                              f"config block implies {len(layout)}")
    if r.at != len(r.data):
        raise CheckpointError(f"the file holds {len(r.data) - r.at} bytes "
                              f"after its last tensor record")
    names = [name for name, _ in shapes]
    ckpt.params.update((name, Tensor(arr, requires_grad=True))
                       for name, arr in zip(names, arrays))
    moments = arrays[len(names):]
    ckpt.opt_state.m.update(zip(names, moments[0::2]))
    ckpt.opt_state.v.update(zip(names, moments[1::2]))
    return ckpt
