import csv
import hashlib
import json
import math
import os
import pickle
import struct
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bplm.data import MASK_ID, BatchStream, CorpusSpec, gen_corpus
from bplm.model import ModelConfig, param_shapes
from bplm.objectives import Objective
from bplm.optim import AdamWState, WsdSchedule, rescaled_schedule, wsd_lr
from bplm.runner import (CHECKPOINT_VERSION, CPT_DECAY_SHARE, Checkpoint,
                         CheckpointError, TrainConfig, _mask_batch,
                         load_checkpoint, run_cpt, run_pfs, save_checkpoint,
                         write_trace)
from bplm.tensor import Tensor

import bplm.runner
import reference

CFG = ModelConfig(layers=1, embed_dim=16, ffn_dim=32, heads=4, kv_heads=2,
                  vocab_size=16, max_seq_len=32)


def make_stream(seed=0):
    corpus = gen_corpus(CorpusSpec(num_symbols=5, target_tokens=3000,
                                   min_len=4, max_len=12, seed=seed))
    return BatchStream(corpus.sequences, batch_rows=2, min_len=4, max_len=12,
                       seed=seed)


def train_cfg(plan, total, warmup=2, decay=2, **kw):
    return TrainConfig(objective_plan=plan,
                       schedule=WsdSchedule(1e-3, warmup, total, decay), **kw)


def ckpt_bytes(ckpt, path):
    save_checkpoint(ckpt, path)
    return path.read_bytes()


def config_block(path):
    """The config block of a saved file, parsed."""
    raw = path.read_bytes()
    (size,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + size])


def rewrite_config_block(path, edit, version=CHECKPOINT_VERSION):
    """Replace a saved file's config block with edit(block) and its version
    with version, recomputing the file CRC so only the edit is wrong."""
    raw = path.read_bytes()
    (size,) = struct.unpack("<I", raw[8:12])
    block = edit(raw[12:12 + size])
    body = (raw[:4] + struct.pack("<II", version, len(block)) + block
            + raw[12 + size:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def write_with_crc(path, body):
    """body and its file CRC, so a change in body reaches the parser."""
    path.write_bytes(bytes(body)
                     + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def structure_offsets(raw):
    """Offsets of a saved file's version, size and count fields, and of each
    tensor record's name length, ndim and shape: the bytes that steer the
    parser, as opposed to the config block, names, payloads and CRCs."""
    (size,) = struct.unpack("<I", raw[8:12])
    at = 12 + size
    offsets = list(range(4, 12)) + list(range(at, at + 4))
    (count,) = struct.unpack("<I", raw[at: at + 4])
    at += 4
    for _ in range(count):
        (name_len,) = struct.unpack("<I", raw[at: at + 4])
        dims = at + 4 + name_len
        (ndim,) = struct.unpack("<I", raw[dims: dims + 4])
        shape = struct.unpack(f"<{ndim}Q", raw[dims + 4: dims + 4 + 8 * ndim])
        offsets += range(at, at + 4)
        offsets += range(dims, dims + 4 + 8 * ndim)
        at = dims + 4 + 8 * ndim + 8 * math.prod(shape) + 4
    return offsets


def edit_json(change):
    """A block edit that applies change to the parsed block in place."""
    def edit(block):
        cfg = json.loads(block)
        change(cfg)
        return json.dumps(cfg, sort_keys=True).encode("utf-8")
    return edit


def assert_params_equal(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


class TestTrainConfig:
    def test_plan_must_cover_schedule(self):
        with pytest.raises(ValueError, match="cover"):
            train_cfg([(Objective.CLM, 5)], total=10)

    def test_negative_checkpoint_cadence_refused(self):
        with pytest.raises(ValueError, match="checkpoint_cadence"):
            train_cfg([(Objective.CLM, 10)], total=10, checkpoint_cadence=-1)

    def test_biphasic_order_enforced(self):
        with pytest.raises(ValueError, match="CLM first"):
            train_cfg([(Objective.MLM, 5), (Objective.CLM, 5)], total=10)

    def test_objective_at(self):
        cfg = train_cfg([(Objective.CLM, 3), (Objective.MLM, 7)], total=10)
        assert cfg.objective_at(2) == (0, Objective.CLM)
        assert cfg.objective_at(3) == (1, Objective.MLM)
        assert cfg.switch_step() == 3

    def test_single_phase_has_no_switch(self):
        assert train_cfg([(Objective.CLM, 10)], total=10).switch_step() is None

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_mask_ratio_outside_unit_interval_refused(self, ratio):
        # select_mask's range; a biphasic run used to fail only at the switch
        with pytest.raises(ValueError, match=r"mask_ratio must lie in \(0, 1\]"):
            train_cfg([(Objective.CLM, 4), (Objective.MLM, 6)], total=10,
                      mask_ratio=ratio)
        assert train_cfg([(Objective.MLM, 10)], total=10,
                         mask_ratio=1.0).mask_ratio == 1.0


class TestRunPfs:
    def test_lr_trace_matches_schedule(self):
        cfg = train_cfg([(Objective.CLM, 10)], total=10, warmup=3, decay=4)
        trace = []
        run_pfs(cfg, make_stream(), CFG, trace=trace)
        assert [row["step"] for row in trace] == list(range(10))
        for row in trace:
            assert row["lr"] == wsd_lr(cfg.schedule, row["step"])
            assert row["objective"] == "clm"
            assert row["masked_fraction"] == 0.0
            assert np.isfinite(row["loss"])

    def test_bit_identical_twins(self):
        def run():
            cfg = train_cfg([(Objective.MLM, 8)], total=8)
            return run_pfs(cfg, make_stream(), CFG)
        a, b = run(), run()
        assert_params_equal(a.params, b.params)

    def test_mlm_trace_reports_masking(self):
        cfg = train_cfg([(Objective.MLM, 5)], total=5, mask_ratio=0.4)
        trace = []
        run_pfs(cfg, make_stream(), CFG, trace=trace)
        assert all(0 < row["masked_fraction"] <= 1 for row in trace)
        assert all(row["objective"] == "mlm" for row in trace)

    def test_final_checkpoint_is_decayed(self):
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        ckpt = run_pfs(cfg, make_stream(), CFG)
        assert ckpt.step == 6 and ckpt.decayed

    def test_loss_decreases_on_pattern_corpus(self):
        # the pattern (0, 1, 2) as a deterministic table
        corpus = gen_corpus(CorpusSpec(
            num_symbols=3, transition=((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            target_tokens=2000, min_len=8, max_len=16))
        stream = BatchStream(corpus.sequences, batch_rows=4, min_len=8,
                             max_len=16, seed=0)
        cfg = train_cfg([(Objective.CLM, 60)], total=60, warmup=5, decay=5)
        trace = []
        run_pfs(cfg, stream, CFG, trace=trace)
        assert trace[-1]["loss"] < trace[0]["loss"] / 2

    def test_non_finite_step_stops_the_run(self, tmp_path):
        # peak lr 1e6 diverges; the run stops at the first non-finite loss
        # or gradient, before that step's update, and saves nothing later
        cfg = TrainConfig([(Objective.CLM, 20)], WsdSchedule(1e6, 2, 20, 2),
                          checkpoint_cadence=5, checkpoint_dir=str(tmp_path))
        trace = []
        with pytest.warns(RuntimeWarning), \
                pytest.raises(ValueError, match="non-finite") as info:
            run_pfs(cfg, make_stream(), CFG, trace=trace)
        failed = len(trace)  # steps 0 .. failed-1 completed
        assert 5 <= failed < 20
        assert str(info.value).endswith(f"at step {failed}")
        assert sorted(os.listdir(tmp_path)) == [
            f"step_{done:08d}.ckpt" for done in range(5, failed + 1, 5)]
        mid = load_checkpoint(tmp_path / "step_00000005.ckpt")
        with pytest.warns(RuntimeWarning), \
                pytest.raises(ValueError, match=f"at step {failed}$"):
            run_pfs(cfg, make_stream(), CFG, resume_from=mid)
        assert all(np.isfinite(p.data).all() for p in mid.params.values())


class TestMaskBatch:
    def masked(self, seed, step):
        return _mask_batch(make_stream().batch(5), 0.4, MASK_ID, seed, step)

    def test_plans_attached(self):
        batch = self.masked(0, 5)
        assert batch.plans is not None and len(batch.plans) == len(batch.seqs)
        for plan, n in zip(batch.plans, batch.lengths):
            assert plan.masked_positions
            assert all(0 <= p < n for p in plan.masked_positions)

    def test_plans_deterministic(self):
        def positions(seed, step):
            return [p.masked_positions for p in self.masked(seed, step).plans]
        assert positions(0, 5) == positions(0, 5)
        assert positions(0, 5) != positions(1, 5)


class TestBiphasic:
    def test_degenerate_plans_match_single_phase(self):
        # (CLM n, MLM 0) must be bit-exactly a pure CLM run, and vice versa
        for plan, pure in (
            ([(Objective.CLM, 8), (Objective.MLM, 0)], [(Objective.CLM, 8)]),
            ([(Objective.CLM, 0), (Objective.MLM, 8)], [(Objective.MLM, 8)]),
        ):
            bi = run_pfs(train_cfg(plan, total=8), make_stream(), CFG)
            pfs = run_pfs(train_cfg(pure, total=8), make_stream(), CFG)
            assert_params_equal(bi.params, pfs.params)

    def test_degenerate_plan_trace_matches_single_phase(self):
        # the empty CLM phase is dropped, so the MLM steps are phase 0
        traces = []
        for plan in ([(Objective.CLM, 0), (Objective.MLM, 4)],
                     [(Objective.MLM, 4)]):
            cfg = train_cfg(plan, total=4)
            assert cfg.objective_plan == [(Objective.MLM, 4)]
            trace = []
            run_pfs(cfg, make_stream(), CFG, trace=trace)
            traces.append([{k: v for k, v in row.items() if k != "wall_ms"}
                           for row in trace])
        assert traces[0] == traces[1]

    def test_handoff_weight_equality(self):
        # weights at the switch equal a pure CLM run stopped there
        plan = [(Objective.CLM, 4), (Objective.MLM, 6)]
        cfg = train_cfg(plan, total=10, warmup=2, decay=2,
                        checkpoint_cadence=4)
        clm_cfg = train_cfg([(Objective.CLM, 4), (Objective.MLM, 6)], total=10)

        import tempfile
        with tempfile.TemporaryDirectory() as d:
            cfg.checkpoint_dir = d
            run_pfs(cfg, make_stream(), CFG)
            mid = load_checkpoint(os.path.join(d, "step_00000004.ckpt"))

        # replay CLM-only for 4 steps on the same stream/schedule
        replay = train_cfg([(Objective.CLM, 4), (Objective.MLM, 6)], total=10,
                           warmup=2, decay=2, checkpoint_cadence=4)
        with tempfile.TemporaryDirectory() as d:
            replay.checkpoint_dir = d
            run_pfs(replay, make_stream(), CFG)
            mid2 = load_checkpoint(os.path.join(d, "step_00000004.ckpt"))
        assert_params_equal(mid.params, mid2.params)
        assert mid.objective_history == [{"objective": "clm", "steps": 4},
                                         {"objective": "mlm", "steps": 6}]

    def test_switch_inside_decay_rejected(self):
        plan = [(Objective.CLM, 9), (Objective.MLM, 1)]
        with pytest.raises(ValueError, match="decay"):
            train_cfg(plan, total=10, warmup=2, decay=2)

    def test_switch_at_decay_boundary_rejected(self):
        plan = [(Objective.CLM, 8), (Objective.MLM, 2)]
        with pytest.raises(ValueError):
            train_cfg(plan, total=10, warmup=2, decay=2)


class TestResume:
    def test_resume_equivalence(self, tmp_path):
        cfg = train_cfg([(Objective.MLM, 10)], total=10,
                        checkpoint_cadence=5, checkpoint_dir=str(tmp_path))
        full = run_pfs(cfg, make_stream(), CFG)

        mid = load_checkpoint(tmp_path / "step_00000005.ckpt")
        assert mid.step == 5 and not mid.decayed
        resumed = run_pfs(cfg, make_stream(), CFG, resume_from=mid)
        assert_params_equal(full.params, resumed.params)
        for name in full.opt_state.m:
            np.testing.assert_array_equal(full.opt_state.m[name],
                                          resumed.opt_state.m[name])
            np.testing.assert_array_equal(full.opt_state.v[name],
                                          resumed.opt_state.v[name])

    @pytest.mark.parametrize("k", [2, 6])  # the switch is at step 4
    def test_biphasic_resume_saves_the_same_bytes(self, tmp_path, k):
        cfg = train_cfg([(Objective.CLM, 4), (Objective.MLM, 6)], total=10,
                        checkpoint_cadence=k, checkpoint_dir=str(tmp_path))
        full = run_pfs(cfg, make_stream(), CFG)
        mid_path = tmp_path / f"step_{k:08d}.ckpt"
        mid_bytes = mid_path.read_bytes()
        mid = load_checkpoint(mid_path)
        # cadence and directory may differ from the interrupted run
        resumed = run_pfs(replace(cfg, checkpoint_cadence=0), make_stream(),
                          CFG, resume_from=mid)
        assert ckpt_bytes(resumed, tmp_path / "resumed.ckpt") \
            == ckpt_bytes(full, tmp_path / "full.ckpt")
        assert ckpt_bytes(mid, tmp_path / "mid.ckpt") == mid_bytes

    def test_resume_from_a_live_checkpoint_leaves_it_unchanged(self,
                                                               tmp_path):
        # the returned checkpoint's params and moments are the optimizer's
        # buffers; a run started from it must train on copies
        cfg = train_cfg([(Objective.MLM, 10)], total=10)
        full = run_pfs(cfg, make_stream(), CFG)
        before = ckpt_bytes(full, tmp_path / "before.ckpt")
        run_pfs(cfg, make_stream(), CFG, resume_from=replace(full, step=6))
        assert ckpt_bytes(full, tmp_path / "after.ckpt") == before

    def test_live_checkpoint_pickles_like_a_loaded_one(self, tmp_path):
        # a live checkpoint, as run_pfs returns it, pickles (as deepcopy
        # copies it) like a loaded one: no optimizer buffers and no grads
        # beside its params and moments, and unpickled it resumes to the
        # same bytes
        cfg = train_cfg([(Objective.MLM, 10)], total=10)
        live = run_pfs(cfg, make_stream(), CFG)
        assert all(p.grad is None for p in live.params.values())
        save_checkpoint(live, tmp_path / "live.ckpt")
        loaded = load_checkpoint(tmp_path / "live.ckpt")
        pickled = pickle.dumps(live)
        assert len(pickled) <= 1.01 * len(pickle.dumps(loaded))

        def resumed(start, name):
            return ckpt_bytes(run_pfs(cfg, make_stream(), CFG,
                                      resume_from=replace(start, step=6)),
                              tmp_path / name)

        assert resumed(pickle.loads(pickled), "unpickled.ckpt") \
            == resumed(loaded, "loaded.ckpt")

    def test_cpt_resume_saves_the_same_bytes(self, tmp_path):
        base = run_pfs(train_cfg([(Objective.CLM, 6)], total=6),
                       make_stream(), CFG)
        cfg = train_cfg([(Objective.CLM, 6)], total=6, checkpoint_cadence=4,
                        checkpoint_dir=str(tmp_path))
        full = run_cpt(base, 10, cfg, make_stream(1))
        mid = load_checkpoint(tmp_path / "step_00000004.ckpt")
        cpt_cfg = TrainConfig([(Objective.MLM, 10)],
                              rescaled_schedule(1e-3, 10, CPT_DECAY_SHARE))
        resumed = run_pfs(cpt_cfg, make_stream(1), CFG, resume_from=mid)
        assert resumed.objective_history == full.objective_history
        assert ckpt_bytes(resumed, tmp_path / "resumed.ckpt") \
            == ckpt_bytes(full, tmp_path / "full.ckpt")

    @pytest.mark.parametrize("name, cfg_kw, model_kw", [
        ("model_config", {}, {"max_seq_len": 64}),
        ("schedule", {"warmup": 3}, {}),
        ("seed", {"seed": 1}, {}),
        ("mask_ratio", {"mask_ratio": 0.3}, {}),
        ("objective_plan",
         {"plan": [(Objective.CLM, 4), (Objective.MLM, 6)]}, {}),
    ])
    def test_mismatched_start_refused(self, tmp_path, name, cfg_kw, model_kw):
        run_pfs(train_cfg([(Objective.MLM, 10)], total=10,
                          checkpoint_cadence=5, checkpoint_dir=str(tmp_path)),
                make_stream(), CFG)
        mid = load_checkpoint(tmp_path / "step_00000005.ckpt")
        cfg = train_cfg(**{"plan": [(Objective.MLM, 10)], "total": 10,
                           **cfg_kw})
        trace = []
        with pytest.raises(ValueError, match=f"start checkpoint {name} "):
            run_pfs(cfg, make_stream(), replace(CFG, **model_kw),
                    resume_from=mid, trace=trace)
        assert trace == []


class TestReferenceOptimizer:
    def test_biphasic_run_saves_the_same_bytes(self, tmp_path, monkeypatch):
        """run_pfs under the flat optimizer and under the per-parameter
        reference writes the same cadence and final checkpoint bytes."""
        def run(directory):
            cfg = train_cfg([(Objective.CLM, 4), (Objective.MLM, 6)],
                            total=10, checkpoint_cadence=3,
                            checkpoint_dir=str(directory))
            save_checkpoint(run_pfs(cfg, make_stream(), CFG),
                            directory / "final.ckpt")
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        fast = run(tmp_path / "fast")
        monkeypatch.setattr(bplm.runner, "adamw_step", reference.adamw_step)
        assert sorted(fast) == ["final.ckpt", "step_00000003.ckpt",
                                "step_00000006.ckpt", "step_00000009.ckpt"]
        assert run(tmp_path / "reference") == fast


class TestCheckpointIo:
    def make_ckpt(self):
        cfg = train_cfg([(Objective.CLM, 4)], total=4)
        return run_pfs(cfg, make_stream(), CFG)

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "a.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert_params_equal(ckpt.params, loaded.params)
        assert loaded.step == ckpt.step
        assert loaded.schedule == ckpt.schedule
        assert loaded.model_config == ckpt.model_config
        assert loaded.opt_state.step_count == ckpt.opt_state.step_count
        assert loaded.objective_history == ckpt.objective_history
        for name in ckpt.opt_state.m:
            np.testing.assert_array_equal(ckpt.opt_state.m[name],
                                          loaded.opt_state.m[name])

    def test_save_is_deterministic(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        save_checkpoint(ckpt, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() \
            == (tmp_path / "b.ckpt").read_bytes()

    def test_byte_flip_detected(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "a.ckpt"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        ckpt = self.make_ckpt()
        path = tmp_path / "a.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        import struct
        import zlib
        body = b"BPLM" + struct.pack("<I", 99)
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path = tmp_path / "a.ckpt"
        path.write_bytes(body)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        # version 1 blocks also held init_std, tie_embeddings and
        # decay_norm_gains
        def v1_keys(cfg):
            cfg["model_config"].update(init_std=0.2 ** 0.5,
                                       tie_embeddings=False)
            cfg["opt"]["decay_norm_gains"] = False
        path = tmp_path / "v1.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        rewrite_config_block(path, edit_json(v1_keys), version=1)
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_version_2_refused(self, tmp_path):
        # version 2 blocks also held rope_theta, rmsnorm_eps and weight_decay
        def v2_keys(cfg):
            cfg["model_config"].update(rope_theta=10_000.0, rmsnorm_eps=1e-5)
            cfg["opt"]["weight_decay"] = 0.1
        path = tmp_path / "v2.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        rewrite_config_block(path, edit_json(v2_keys), version=2)
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_version_3_refused(self, tmp_path):
        # version 3 blocks also held AdamW's beta1, beta2 and eps
        def v3_keys(cfg):
            cfg["opt"].update(beta1=0.9, beta2=0.95, eps=1e-5)
        path = tmp_path / "v3.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        rewrite_config_block(path, edit_json(v3_keys), version=3)
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 3"):
            load_checkpoint(path)

    def test_config_block_keys_are_the_fields(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        block = config_block(path)
        assert set(block) == {"model_config", "schedule", "opt", "step",
                              "objective_history", "seed", "mask_ratio"}
        for key, cls, skip in (("model_config", ModelConfig, ()),
                               ("schedule", WsdSchedule, ()),
                               ("opt", AdamWState, ("m", "v"))):
            assert set(block[key]) \
                == {f.name for f in fields(cls)} - set(skip), key

    @pytest.mark.parametrize("edit", [
        edit_json(lambda c: c.pop("seed")),
        edit_json(lambda c: c["model_config"].update(dropout=0.1)),
        lambda block: block[:-1],
        lambda block: b"\xff" + block,
        edit_json(lambda c: c["schedule"].update(warmup_steps=100)),
        edit_json(lambda c: c["model_config"].update(kv_heads=0)),
        edit_json(lambda c: c["model_config"].update(layers="1")),
        edit_json(lambda c: c["model_config"].update(layers=1.0)),
        edit_json(lambda c: c["model_config"].update(layers=True)),
        edit_json(lambda c: c.update(step="4")),
        edit_json(lambda c: c["opt"].update(step_count="x")),
        edit_json(lambda c: c["schedule"].update(peak_lr="1e-3")),
        edit_json(lambda c: c.update(objective_history=[1])),
        edit_json(lambda c: c["objective_history"][0].update(steps="4")),
        edit_json(lambda c: c["objective_history"][0].update(objective="x")),
        edit_json(lambda c: c.update(rng_state={})),
        edit_json(lambda c: c.update(step=-1)),
        edit_json(lambda c: c["opt"].update(step_count=-1)),
    ], ids=["missing_seed", "unknown_model_key", "not_json", "not_utf8",
            "warmup_exceeds_total", "zero_kv_heads", "str_layers",
            "float_layers", "bool_layers", "str_step", "str_step_count",
            "str_peak_lr", "int_history_entry", "str_history_steps",
            "unknown_history_objective", "unknown_top_level_key",
            "negative_step", "negative_step_count"])
    def test_malformed_config_block_refused(self, tmp_path, edit):
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        rewrite_config_block(path, edit)
        with pytest.raises(CheckpointError, match="malformed config block"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_refused(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        raw = bytearray(path.read_bytes()[:-4])
        (size,) = struct.unpack("<I", raw[8:12])
        raw[12 + size + 8] = 0xFF  # first byte of the first tensor's name
        path.write_bytes(bytes(raw)
                         + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="expects 'param.embed' of "
                           "shape [(]16, 16[)], the file holds '\ufffdaram"):
            load_checkpoint(path)

    def test_huge_shape_reads_as_truncation(self, tmp_path):
        # ndim 2 -> 201 is refused on the rank, before any of the 201 shape
        # words, which would be read from the payload, is read
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        body = bytearray(path.read_bytes()[:-4])
        at = body.index(b"param.head") + len(b"param.head")
        assert body[at] == 2
        body[at] = 201
        write_with_crc(path, body)
        with pytest.raises(CheckpointError, match="expects 'param.head' of "
                           "shape [(]16, 16[)], the file holds 'param.head' "
                           "of rank 201$"):
            load_checkpoint(path)

    def test_empty_shape_past_numpy_limits_refused(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        body = bytearray(path.read_bytes()[:-4])
        (size,) = struct.unpack("<I", body[8:12])
        (count,) = struct.unpack("<I", body[12 + size: 16 + size])
        body[12 + size: 16 + size] = struct.pack("<I", count + 1)
        name = b"param.huge"  # no elements, so an empty payload, CRC 0
        body += struct.pack("<I", len(name)) + name + struct.pack(
            "<I2QI", 2, 0, 2 ** 63, 0)
        write_with_crc(path, body)
        n = 3 * len(param_shapes(CFG))  # params, then m and v of each
        with pytest.raises(CheckpointError, match=f"the file holds {n + 1} "
                           f"tensor records, its config block implies {n}$"):
            load_checkpoint(path)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_file_raises_only_checkpoint_error(self, tmp_path, data):
        # truncations and 1-3 overwritten bytes, biased to the bytes that
        # steer the parser, with the file CRC recomputed
        raw = self.fuzz_base(tmp_path)
        body = bytearray(raw[:-4])
        where = st.sampled_from(structure_offsets(raw)) \
            | st.integers(0, len(body) - 1)
        for at in data.draw(st.lists(where, min_size=1, max_size=3)):
            body[at] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            body = body[:data.draw(st.integers(0, len(body)))]
        path = tmp_path / "fuzzed.ckpt"
        write_with_crc(path, body)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    def fuzz_base(self, tmp_path):
        path = tmp_path / "base.ckpt"
        if not path.exists():
            save_checkpoint(self.make_ckpt(), path)
        return path.read_bytes()

    def test_float_field_takes_an_int(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        rewrite_config_block(path, edit_json(
            lambda c: c["schedule"].update(peak_lr=1)))
        assert load_checkpoint(path).schedule.peak_lr == 1

    def save_altered(self, tmp_path, alter):
        ckpt = self.make_ckpt()
        alter(ckpt)
        path = tmp_path / "altered.ckpt"
        save_checkpoint(ckpt, path)
        return path

    def test_missing_param_rejected(self, tmp_path):
        path = self.save_altered(
            tmp_path, lambda c: c.params.pop("layer.0.ffn.w_down"))
        with pytest.raises(CheckpointError, match="expects "
                           "'param.layer.0.ffn.w_down' of shape [(]32, 16[)], "
                           "the file holds 'param.layer.0.ffn.w_gate'"):
            load_checkpoint(path)

    def test_unknown_param_rejected(self, tmp_path):
        def alter(c):
            c.params["layer.7.attn.wq"] = c.params["layer.0.attn.wq"]
        path = self.save_altered(tmp_path, alter)
        with pytest.raises(CheckpointError, match="expects 'opt.m.embed' of "
                           "shape [(]16, 16[)], the file holds "
                           "'param.layer.7.attn.wq'"):
            load_checkpoint(path)

    def test_param_shape_rejected(self, tmp_path):
        def alter(c):
            c.params["embed"] = Tensor(c.params["embed"].data[:-1])
        path = self.save_altered(tmp_path, alter)
        with pytest.raises(CheckpointError, match="expects 'param.embed' of "
                           "shape [(]16, 16[)], the file holds shape "
                           "[(]15, 16[)]$"):
            load_checkpoint(path)

    def test_moment_for_unknown_param_rejected(self, tmp_path):
        def alter(c):
            c.opt_state.m["nope"] = c.opt_state.m["embed"]
            c.opt_state.v["nope"] = c.opt_state.v["embed"]
        path = self.save_altered(tmp_path, alter)
        n = 3 * len(param_shapes(CFG))  # the (m, v) of nope come last
        with pytest.raises(CheckpointError, match=f"the file holds {n + 2} "
                           f"tensor records, its config block implies {n}$"):
            load_checkpoint(path)

    def test_moment_shape_rejected(self, tmp_path):
        def alter(c):
            c.opt_state.v["final_norm"] = c.opt_state.v["final_norm"][:-1]
        path = self.save_altered(tmp_path, alter)
        with pytest.raises(CheckpointError, match="expects 'opt.v.final_norm' "
                           "of shape [(]16,[)], the file holds shape "
                           "[(]15,[)]$"):
            load_checkpoint(path)

    def test_unpaired_moment_rejected(self, tmp_path, monkeypatch):
        # save_checkpoint always writes (m, v) pairs; write v of embed under
        # m's name so the file holds an m without its v
        from bplm import runner
        plain = runner._tensor_record

        def renamed(name, arr):
            return plain("opt.m.embed" if name == "opt.v.embed" else name, arr)
        monkeypatch.setattr(runner, "_tensor_record", renamed)
        save_checkpoint(self.make_ckpt(), tmp_path / "a.ckpt")
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="expects 'opt.v.embed' of "
                           "shape [(]16, 16[)], the file holds 'opt.m.embed'"):
            load_checkpoint(tmp_path / "a.ckpt")

    def test_swapped_records_refused(self, tmp_path):
        # the first two parameter records swapped, both intact, with the
        # file CRC recomputed: the records are read in the block's order
        ckpt = self.make_ckpt()
        path = tmp_path / "a.ckpt"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        first, second = (bplm.runner._tensor_record(f"param.{name}",
                                                    ckpt.params[name].data)
                         for name in ("embed", "final_norm"))
        at = raw.index(first + second)
        write_with_crc(path, raw[:at] + second + first
                       + raw[at + len(first + second):-4])
        with pytest.raises(CheckpointError, match="expects 'param.embed' of "
                           "shape [(]16, 16[)], the file holds "
                           "'param.final_norm'"):
            load_checkpoint(path)

    def test_bytes_after_the_last_record_refused(self, tmp_path):
        # 16 zero bytes between the last tensor record and the file CRC,
        # with the CRC recomputed
        path = tmp_path / "a.ckpt"
        save_checkpoint(self.make_ckpt(), path)
        write_with_crc(path, path.read_bytes()[:-4] + bytes(16))
        with pytest.raises(CheckpointError, match="the file holds 16 bytes "
                           "after its last tensor record"):
            load_checkpoint(path)

    @pytest.mark.parametrize("step_count, moments", [(3, False), (0, True)])
    def test_moments_only_once_the_optimizer_stepped(self, tmp_path,
                                                     step_count, moments):
        # a stepped optimizer's moments are in the file, a fresh one's not
        def alter(c):
            c.opt_state.step_count = step_count
            if not moments:
                c.opt_state.m.clear()
                c.opt_state.v.clear()
        path = self.save_altered(tmp_path, alter)
        n = len(param_shapes(CFG))
        held, implied = (3 * n, n) if moments else (n, 3 * n)
        with pytest.raises(CheckpointError, match=f"the file holds {held} "
                           f"tensor records, its config block implies "
                           f"{implied}$"):
            load_checkpoint(path)

    def test_bytes_pinned(self, tmp_path):
        # a fixed tiny checkpoint; the digest moves only if the layout does
        cfg = ModelConfig(layers=1, embed_dim=4, ffn_dim=8, heads=2,
                          kv_heads=1, vocab_size=5, max_seq_len=8)
        params = {name: Tensor(np.linspace(-1.0, 1.0, int(np.prod(shape)))
                               .reshape(shape))
                  for name, shape in param_shapes(cfg).items()}
        opt = AdamWState(step_count=3)
        for name, p in params.items():
            opt.m[name] = 0.5 * p.data
            opt.v[name] = p.data ** 2
        ckpt = Checkpoint(cfg, params, opt, WsdSchedule(1e-3, 1, 4, 1), 3,
                          [{"objective": "clm", "steps": 4}], 7, 0.4)
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        assert hashlib.sha256((tmp_path / "a.ckpt").read_bytes()).hexdigest() \
            == "3816669c3f113d6ea584fd1fade77c004c33cd094b07407ae306c9d0a71b0aca"

    def test_no_tmp_file_left(self, tmp_path):
        save_checkpoint(self.make_ckpt(), tmp_path / "a.ckpt")
        assert os.listdir(tmp_path) == ["a.ckpt"]


class TestCpt:
    def decayed_base(self):
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        return run_pfs(cfg, make_stream(), CFG)

    def test_requires_decayed_base(self, tmp_path):
        cfg = train_cfg([(Objective.MLM, 10)], total=10,
                        checkpoint_cadence=5, checkpoint_dir=str(tmp_path))
        run_pfs(cfg, make_stream(), CFG)
        mid = load_checkpoint(tmp_path / "step_00000005.ckpt")
        with pytest.raises(ValueError, match="decay"):
            run_cpt(mid, 4, cfg, make_stream())
        run_cpt(mid, 4, cfg, make_stream(), force=True)  # override works

    def test_zero_steps_returns_base(self):
        base = self.decayed_base()
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        assert run_cpt(base, 0, cfg, make_stream()) is base

    def test_fresh_moments_and_schedule(self):
        base = self.decayed_base()
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        trace = []
        final = run_cpt(base, 20, cfg, make_stream(1), trace=trace)
        # rescaled schedule: 10% warmup (2 steps), 5% decay (1 step)
        sched = WsdSchedule(cfg.schedule.peak_lr, 2, 20, 1)
        assert [row["lr"] for row in trace] \
            == [wsd_lr(sched, s) for s in range(20)]
        assert final.opt_state.step_count == 20  # restarted, not 26
        assert all(row["objective"] == "mlm" for row in trace)

    def test_history_appended(self):
        base = self.decayed_base()
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        final = run_cpt(base, 10, cfg, make_stream(1))
        assert final.objective_history[-1] == {"objective": "mlm",
                                               "steps": 10, "cpt": True}
        assert final.objective_history[0]["objective"] == "clm"

    def test_base_left_unchanged(self, tmp_path):
        # the paper's CPT sweeps run several lengths from one base
        base = self.decayed_base()
        base_bytes = ckpt_bytes(base, tmp_path / "base.ckpt")
        cfg = train_cfg([(Objective.CLM, 6)], total=6)
        first = run_cpt(base, 4, cfg, make_stream(1))
        second = run_cpt(base, 8, cfg, make_stream(1))
        assert ckpt_bytes(base, tmp_path / "again.ckpt") == base_bytes
        for final, steps in ((first, 4), (second, 8)):
            fresh = run_cpt(load_checkpoint(tmp_path / "base.ckpt"), steps,
                            cfg, make_stream(1))
            assert ckpt_bytes(final, tmp_path / "a.ckpt") \
                == ckpt_bytes(fresh, tmp_path / "b.ckpt")

    def test_deterministic(self):
        def run():
            base = self.decayed_base()
            cfg = train_cfg([(Objective.CLM, 6)], total=6)
            return run_cpt(base, 8, cfg, make_stream(1))
        assert_params_equal(run().params, run().params)


class TestWriteTrace:
    def test_csv_fields_and_rows(self, tmp_path):
        cfg = train_cfg([(Objective.MLM, 5)], total=5)
        trace = []
        run_pfs(cfg, make_stream(), CFG, trace=trace)
        write_trace(trace, tmp_path)
        with open(tmp_path / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        with open(tmp_path / "timing.csv") as f:
            timing = list(csv.DictReader(f))
        assert len(rows) == len(timing) == 5
        assert list(rows[0]) == ["step", "phase", "objective", "lr", "loss",
                                 "masked_fraction"]
        assert list(timing[0]) == ["step", "wall_ms"]
        assert [int(r["step"]) for r in rows] == list(range(5))
        assert [int(r["step"]) for r in timing] == list(range(5))
        assert float(rows[0]["lr"]) == trace[0]["lr"]
        assert float(timing[0]["wall_ms"]) == trace[0]["wall_ms"]
