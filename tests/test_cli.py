import configparser
import csv
import functools
import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

import bplm.cli
from bplm.cli import CliError, expand_config, main
from bplm.data import (MASK_ID, BatchStream, CorpusSpec, gen_corpus,
                       gen_task_data, save_task_dataset)
from bplm.finetune import REPORT_FIELDS, GridSearchSpec, run_grid_search
from bplm.objectives import Objective
from bplm.optim import rescaled_schedule
from bplm.runner import (CPT_DECAY_SHARE, CheckpointError, TrainConfig,
                         load_checkpoint, run_pfs, save_checkpoint)

TINY_MODEL = """
[model]
layers = 1
embed_dim = 16
ffn_dim = 32
heads = 4
kv_heads = 2
vocab_size = 16
max_seq_len = 32
"""

TINY_DATA = """
[data]
num_symbols = 5
target_tokens = 2000
min_len = 4
max_len = 12
"""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def write_config(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestExpandConfig:
    def test_preset_expansion(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\npreset = pfs-mlm-30\n")
        cfg = expand_config(path)
        assert cfg["train"]["clm_fraction"] == 0.0
        assert cfg["train"]["mask_ratio"] == 0.30
        assert cfg["model"]["layers"] == 2  # defaults filled in

    def test_explicit_overrides_preset(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\npreset = pfs-mlm-30\n"
                                      "[train]\nmask_ratio = 0.50\n")
        cfg = expand_config(path)
        assert cfg["train"]["mask_ratio"] == 0.50

    def test_unknown_preset(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\npreset = nope\n")
        with pytest.raises(CliError, match="unknown preset"):
            expand_config(path)

    def test_missing_file(self):
        with pytest.raises(CliError, match="not found"):
            expand_config("/does/not/exist.ini")

    @pytest.mark.parametrize("preset", ["", "biphasic-25-75"])
    def test_written_config_reads_back_equal(self, tmp_path, preset):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + f"[experiment]\npreset = {preset}\n"
                             "[train]\ntotal_steps = 8\nwarmup_steps = 2\n"
                             "decay_steps = 2\npeak_lr = 1e-3\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        written = expand_config(os.path.join(out, "config.ini"))
        assert written == expand_config(cfg)
        assert written["train"]["peak_lr"] == 1e-3

    @pytest.mark.parametrize("body, named", [
        ("[modle]\nlayers = 1\n", "unknown section [modle]"),
        ("[DEFAULT]\nseed = 1\n", "unknown section [DEFAULT]"),
        ("[model]\nembed_dims = 32\n", "[model] embed_dims: unknown key"),
        ("[train]\ntotl_steps = 8\n", "[train] totl_steps: unknown key"),
        ("[data]\nsymbols = 4\n", "[data] symbols: unknown key"),
        ("[data]\ngenerator = markov_k\n", "[data] generator: unknown key"),
        ("[train]\nobjective = clm\n", "[train] objective: unknown key"),
        ("[cpt]\nmask_ratio = 0.40\n", "[cpt] mask_ratio: unknown key"),
        ("[cpt]\nstep = 4\n", "[cpt] step: unknown key"),
        ("[experiment]\npreset = pfs-clm\nname = x\n",
         "[experiment] name: unknown key"),
        ("[model]\nlayers = 2.5\n", "[model] layers: invalid literal"),
        ("[train]\npeak_lr = inf\n", "[train] peak_lr: inf is not"),
        ("layers = 1\n", "no section headers"),
        ("[model]\nlayers = 1\nlayers = 2\n", "option 'layers' in section "
                                              "'model' already exists"),
        ("[train]\npeak_lr = 5e-4%\n", "[train] peak_lr: '%' must be"),
        ("[train]\nclip_norm = 1e-6\n", "[train] clip_norm: unknown key"),
        ("[train]\nweight_decay = 0.0\n",
         "[train] weight_decay: unknown key"),
        ("[model]\nrope_theta = 500\n", "[model] rope_theta: unknown key"),
        ("[model]\nrmsnorm_eps = 1e-6\n",
         "[model] rmsnorm_eps: unknown key"),
    ], ids=["section", "default-section", "model-key", "train-key",
            "data-key", "generator-dropped", "objective-dropped",
            "cpt-mask-ratio-dropped", "cpt-key", "experiment-key",
            "int-given-float",
            "inf", "no-header", "duplicate-key", "stray-percent",
            "clip-norm-constant", "weight-decay-constant",
            "rope-theta-constant", "rmsnorm-eps-constant"])
    def test_bad_config_refused(self, tmp_path, capsys, body, named):
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]+\n", err), err
        assert named in err
        assert not os.path.exists(out)


class TestPretrain:
    def test_artifacts_written(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 1\ntotal_steps = 8\n"
                             "warmup_steps = 2\ndecay_steps = 2\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["config.ini", "final.ckpt",
                                           "metrics.csv", "timing.csv"]
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert len(rows) == 8 and "wall_ms" not in rows[0]
        timing = read_csv(os.path.join(out, "timing.csv"))
        assert [list(r) for r in timing] == [["step", "wall_ms"]] * 8
        assert [int(r["step"]) for r in timing] == list(range(8))
        ckpt = load_checkpoint(os.path.join(out, "final.ckpt"))
        assert ckpt.step == 8 and ckpt.decayed

    def test_biphasic_switch_position(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[experiment]\npreset = biphasic-25-75\n"
                             "[train]\ntotal_steps = 12\nwarmup_steps = 2\n"
                             "decay_steps = 2\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        assert "switch at step 3" in capsys.readouterr().out
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert [r["objective"] for r in rows[:3]] == ["clm"] * 3
        assert [r["objective"] for r in rows[3:]] == ["mlm"] * 9

    @pytest.mark.parametrize("preset", [
        "pfs-clm", "pfs-mlm-20", "pfs-mlm-30", "pfs-mlm-40", "pfs-mlm-50",
        "biphasic-25-75", "biphasic-50-50", "biphasic-75-25"])
    def test_preset_plan(self, tmp_path, preset):
        # int(10 * 0.25) and int(10 * 0.75) round down
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + f"[experiment]\npreset = {preset}\n"
                             "[train]\ntotal_steps = 10\nwarmup_steps = 2\n"
                             "decay_steps = 2\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        clm_steps = {"pfs-clm": 10, "biphasic-25-75": 2, "biphasic-50-50": 5,
                     "biphasic-75-25": 7}.get(preset, 0)
        mlm_phase = "1" if clm_steps else "0"  # no empty CLM phase
        assert [(r["phase"], r["objective"]) for r in rows] == (
            [("0", "clm")] * clm_steps
            + [(mlm_phase, "mlm")] * (10 - clm_steps))

    def test_rerun_identical_modulo_wall_ms(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 0\ntotal_steps = 6\n"
                             "warmup_steps = 2\ndecay_steps = 2\n")
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["pretrain", "--config", cfg, "--out", out]) == 0
            outs.append(out)
        for name in ("metrics.csv", "final.ckpt"):  # wall_ms is in timing.csv
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
            assert a == b

    def test_nonstudy_mask_ratio_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 0\nmask_ratio = 0.70\n"
                             "total_steps = 4\nwarmup_steps = 1\n"
                             "decay_steps = 1\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        assert "outside the study set" in capsys.readouterr().err
        assert main(["pretrain", "--config", cfg, "--out", out,
                     "--allow-nonstudy"]) == 0

    def test_diverging_run_fails_naming_the_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 1\ntotal_steps = 20\n"
                             "warmup_steps = 2\ndecay_steps = 2\n"
                             "peak_lr = 1e6\n")
        out = str(tmp_path / "out")
        with pytest.warns(RuntimeWarning):
            assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite .* at step \d+\n", err), err
        assert not os.path.exists(os.path.join(out, "final.ckpt"))

    @pytest.mark.parametrize("ratio", [0.0, 1.5])
    def test_mask_ratio_outside_unit_interval_refused(self, tmp_path, capsys,
                                                       ratio):
        # used to train the CLM phase, save its cadence checkpoints and only
        # then fail at the switch
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[experiment]\npreset = biphasic-50-50\n"
                             "[train]\ntotal_steps = 8\nwarmup_steps = 1\n"
                             f"decay_steps = 1\nmask_ratio = {ratio}\n"
                             "checkpoint_cadence = 2\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out,
                     "--allow-nonstudy"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: mask_ratio must lie in \(0, 1\][^\n]*\n",
                            err), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [
        ("total_steps", 0), ("checkpoint_cadence", -1), ("batch_rows", 0),
        ("clm_fraction", 1.5), ("clm_fraction", -0.25)])
    def test_run_bounds_refused(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nwarmup_steps = 0\ndecay_steps = 0\n"
                           + f"{key} = {value}\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: [^\n]*{key}[^\n]*\n", err), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["heads", "kv_heads"])
    def test_zero_heads_refused(self, tmp_path, capsys, key):
        # heads % kv_heads and embed_dim % heads used to end in a
        # ZeroDivisionError traceback
        model = re.sub(rf"^{key} = \d+$", f"{key} = 0", TINY_MODEL,
                       flags=re.M)
        cfg = write_config(tmp_path, model + TINY_DATA)
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {key} must be >= 1, got 0\n", err), err
        assert not os.path.exists(out)

    def test_negative_decay_steps_refused(self, tmp_path, capsys):
        # used to train with no decay and save a final.ckpt counted decayed
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\ntotal_steps = 6\nwarmup_steps = 2\n"
                             "decay_steps = -3\n")
        out = str(tmp_path / "out")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*decay_steps[^\n]*\n", err), err
        assert not os.path.exists(out)

    def test_blas_threads_unset_or_one_write_same_bytes(self, tmp_path):
        # bplm pins BLAS to one thread unless the caller set these
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 0\ntotal_steps = 6\n"
                             "warmup_steps = 2\ndecay_steps = 2\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outs = []
        for name in ("unset", "one"):
            env = {k: v for k, v in os.environ.items()
                   if k not in BLAS_THREAD_VARS}
            if name == "one":
                env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
            env["PYTHONPATH"] = src
            outs.append(str(tmp_path / name))
            subprocess.run([sys.executable, "-m", "bplm.cli", "pretrain",
                            "--config", cfg, "--out", outs[-1]],
                           env=env, check=True, capture_output=True)
        for name in ("final.ckpt", "metrics.csv"):
            a, b = (Path(out, name).read_bytes() for out in outs)
            assert a == b, name

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\nclm_fraction = 1\ntotal_steps = 4\n"
                             "warmup_steps = 1\ndecay_steps = 1\n")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["pretrain", "--config", cfg, "--out", a, "--seed", "1"])
        main(["pretrain", "--config", cfg, "--out", b, "--seed", "2"])
        assert Path(a, "final.ckpt").read_bytes() \
            != Path(b, "final.ckpt").read_bytes()


class TestCpt:
    def pretrain(self, tmp_path, total=6, cadence=0):
        body = (TINY_MODEL + TINY_DATA
                + f"[train]\nclm_fraction = 1\ntotal_steps = {total}\n"
                  f"warmup_steps = 2\ndecay_steps = 2\n"
                  f"checkpoint_cadence = {cadence}\n")
        cfg = write_config(tmp_path, body, "pre.ini")
        out = str(tmp_path / "pre")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        return out

    def cpt_config(self, tmp_path, steps=4):
        return write_config(tmp_path, TINY_MODEL + TINY_DATA
                            + f"[cpt]\nsteps = {steps}\n", "cpt.ini")

    def test_cpt_from_decayed(self, tmp_path, capsys):
        pre = self.pretrain(tmp_path)
        cfg = self.cpt_config(tmp_path)
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"),
                     "--config", cfg, "--out", out]) == 0
        assert "4 MLM steps" in capsys.readouterr().out
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert len(rows) == 4
        assert all(r["objective"] == "mlm" for r in rows)
        final = load_checkpoint(os.path.join(out, "final.ckpt"))
        assert final.objective_history[-1]["cpt"] is True

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_short_cpt(self, tmp_path, steps):
        pre = self.pretrain(tmp_path)
        cfg = self.cpt_config(tmp_path, steps)
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"),
                     "--config", cfg, "--out", out]) == 0
        assert len(read_csv(os.path.join(out, "metrics.csv"))) == steps

    def test_seed_override_recorded(self, tmp_path):
        pre = self.pretrain(tmp_path)
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"), "--config",
                     self.cpt_config(tmp_path), "--out", out,
                     "--seed", "7"]) == 0
        assert load_checkpoint(os.path.join(out, "final.ckpt")).seed == 7
        recorded = configparser.ConfigParser()
        recorded.read(os.path.join(out, "config.ini"))
        assert recorded["train"]["seed"] == "7"

    def test_train_plan_and_schedule_not_read(self, tmp_path):
        # [train]'s plan and schedule are pretraining's, invalid as one here;
        # CPT runs [cpt] steps under its own schedule at [train] peak_lr
        pre = self.pretrain(tmp_path)
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\ntotal_steps = 2\nwarmup_steps = 10\n"
                             "peak_lr = 1e-3\n[cpt]\nsteps = 4\n", "cpt.ini")
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"),
                     "--config", cfg, "--out", out]) == 0
        assert len(read_csv(os.path.join(out, "metrics.csv"))) == 4
        assert load_checkpoint(os.path.join(out, "final.ckpt")).schedule \
            == rescaled_schedule(1e-3, 4, CPT_DECAY_SHARE)

    def test_masks_at_train_mask_ratio(self, tmp_path, capsys):
        pre = self.pretrain(tmp_path)
        base = os.path.join(pre, "final.ckpt")
        out = str(tmp_path / "cpt")
        for ratio, code in ((0.70, 1), (0.20, 0)):
            cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                               + f"[train]\nmask_ratio = {ratio}\n"
                                 "[cpt]\nsteps = 4\n", "cpt.ini")
            assert main(["cpt", base, "--config", cfg, "--out", out]) == code
        assert "outside the study set" in capsys.readouterr().err
        assert load_checkpoint(os.path.join(out, "final.ckpt")).mask_ratio \
            == 0.20

    def test_malformed_base_fails_without_traceback(self, tmp_path, capsys):
        base = tmp_path / "bad.ckpt"
        base.write_bytes(b"XXXX" + b"\x00" * 16)
        out = str(tmp_path / "cpt")
        assert main(["cpt", str(base), "--config",
                     self.cpt_config(tmp_path), "--out", out]) == 1
        assert "error: bad magic" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_steps_refused(self, tmp_path, capsys):
        pre = self.pretrain(tmp_path)
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"), "--config",
                     self.cpt_config(tmp_path, -3), "--out", out]) == 1
        assert capsys.readouterr().err == "error: [cpt] steps must be >= 0\n"
        assert not os.path.exists(out)

    def test_zero_steps_write_a_cpt_checkpoint(self, tmp_path):
        # a CPT of no steps is a CPT run: the base's params under the run's
        # own seed, which config.ini and final.ckpt both record
        pre = self.pretrain(tmp_path)
        base = load_checkpoint(os.path.join(pre, "final.ckpt"))
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"), "--config",
                     self.cpt_config(tmp_path, 0), "--out", out,
                     "--seed", "7"]) == 0
        final = load_checkpoint(os.path.join(out, "final.ckpt"))
        assert final.seed == 7
        assert expand_config(os.path.join(out, "config.ini"))["train"][
            "seed"] == 7
        for name in base.params:
            assert final.params[name].data.tobytes() \
                == base.params[name].data.tobytes()
        assert (final.step, final.opt_state.step_count) == (0, 0)
        assert final.opt_state.m == {} and final.decayed
        assert final.objective_history[-1] == {"objective": "mlm",
                                               "steps": 0, "cpt": True}

    def test_config_records_the_base_model(self, tmp_path):
        # the config file has no [model]; the run trained the base's
        pre = self.pretrain(tmp_path)
        base = load_checkpoint(os.path.join(pre, "final.ckpt"))
        cfg = write_config(tmp_path, TINY_DATA + "[cpt]\nsteps = 2\n",
                           "cpt.ini")
        out = str(tmp_path / "cpt")
        assert main(["cpt", os.path.join(pre, "final.ckpt"),
                     "--config", cfg, "--out", out]) == 0
        assert expand_config(os.path.join(out, "config.ini"))["model"] \
            == asdict(base.model_config)

    def test_zero_steps_fine_tune_as_the_base(self, tmp_path):
        # the CLM-base point of a CPT budget sweep: no CPT steps, the
        # base's fine-tuning rows
        cfg = write_config(tmp_path, TINY_MODEL.replace(
            "vocab_size = 16", "vocab_size = 64") + TINY_DATA
            + "[train]\nclm_fraction = 1\ntotal_steps = 4\n"
              "warmup_steps = 1\ndecay_steps = 1\n[cpt]\nsteps = 0\n")
        pre, cpt = str(tmp_path / "pre"), str(tmp_path / "cpt")
        assert main(["pretrain", "--config", cfg, "--out", pre]) == 0
        assert main(["cpt", os.path.join(pre, "final.ckpt"), "--config", cfg,
                     "--out", cpt, "--seed", "3"]) == 0
        dataset = gen_task_data("SC", 30, 0)
        spec = GridSearchSpec(learning_rates=(1e-3, 1e-2), seeds=(0, 1),
                              max_steps=2, batch_size=4)
        base, final = (run_grid_search(load_checkpoint(
            os.path.join(out, "final.ckpt")), dataset, spec)
            for out in (pre, cpt))
        assert final.rows == base.rows

    def test_cadence_checkpoints_resume_to_final(self, tmp_path):
        pre = self.pretrain(tmp_path)
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\ncheckpoint_cadence = 2\n"
                             "[cpt]\nsteps = 8\n", "cpt.ini")
        out = tmp_path / "cpt"
        assert main(["cpt", os.path.join(pre, "final.ckpt"),
                     "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("step_*.ckpt")) == [
            "step_00000002.ckpt", "step_00000004.ckpt", "step_00000006.ckpt"]
        # the run's own stream and CPT config, rebuilt from its config.ini
        ran = expand_config(str(out / "config.ini"))
        spec = CorpusSpec(**ran["data"])
        stream = BatchStream(gen_corpus(spec).sequences,
                             ran["train"]["batch_rows"], spec.min_len,
                             spec.max_len, ran["train"]["seed"])
        cpt_cfg = TrainConfig(
            [(Objective.MLM, 8)],
            rescaled_schedule(ran["train"]["peak_lr"], 8, CPT_DECAY_SHARE),
            mask_ratio=ran["train"]["mask_ratio"], seed=ran["train"]["seed"])
        mid = load_checkpoint(out / "step_00000004.ckpt")
        resumed = run_pfs(cpt_cfg, stream, mid.model_config, MASK_ID,
                          resume_from=mid)
        save_checkpoint(resumed, tmp_path / "resumed.ckpt")
        assert (tmp_path / "resumed.ckpt").read_bytes() \
            == (out / "final.ckpt").read_bytes()

    def test_huge_tensor_shape_in_base_fails_without_traceback(
            self, tmp_path, capsys):
        # a CRC-valid base whose param.head record claims 201 dims
        pre = self.pretrain(tmp_path)
        body = bytearray(Path(pre, "final.ckpt").read_bytes())
        del body[-4:]
        body[body.index(b"param.head") + len(b"param.head")] = 201
        base = tmp_path / "huge.ckpt"
        base.write_bytes(bytes(body) + struct.pack(
            "<I", zlib.crc32(body) & 0xFFFFFFFF))
        message = ("the config block expects 'param.head' of shape (16, 16), "
                   "the file holds 'param.head' of rank 201")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(base)
        assert str(info.value) == message
        out = str(tmp_path / "cpt")
        assert main(["cpt", str(base), "--config", self.cpt_config(tmp_path),
                     "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    def test_non_decayed_base_refused(self, tmp_path, capsys):
        pre = self.pretrain(tmp_path, total=6, cadence=3)
        mid = os.path.join(pre, "step_00000003.ckpt")
        cfg = self.cpt_config(tmp_path)
        out = str(tmp_path / "cpt")
        assert main(["cpt", mid, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "decay" in err and "--force" in err
        assert not os.path.exists(out)
        assert main(["cpt", mid, "--config", cfg, "--out", out,
                     "--force"]) == 0


class TestFinetuneAndReport:
    def checkpoint(self, tmp_path, vocab=16):
        # SC token ids need a 64-vocab model; the tiny one has 16
        cfg = write_config(tmp_path, TINY_MODEL.replace(
            "vocab_size = 16", f"vocab_size = {vocab}") + TINY_DATA
            + "[train]\nclm_fraction = 0\ntotal_steps = 6\n"
              "warmup_steps = 2\ndecay_steps = 2\n", "pre.ini")
        out = str(tmp_path / "pre")
        assert main(["pretrain", "--config", cfg, "--out", out]) == 0
        return os.path.join(out, "final.ckpt")

    def test_single_seed_warns_and_empty_ci(self, tmp_path, capsys):
        ckpt = self.checkpoint(tmp_path, vocab=64)
        ds_dir = str(tmp_path / "sc-synth")
        save_task_dataset(gen_task_data("SC", 30, 0), ds_dir)
        out = str(tmp_path / "ft")
        assert main(["finetune", ckpt, ds_dir, "--seeds", "1",
                     "--out", out]) == 0
        err = capsys.readouterr().err
        assert "5 seeds" in err and "ci95" in err

        agg = read_csv(os.path.join(out, "aggregate.csv"))
        assert len(agg) == 1
        assert agg[0]["ci95"] == ""
        assert agg[0]["task"] == "SC"

        runs = read_csv(os.path.join(out, "runs.csv"))
        assert len(runs) == 6 * 1 * 2  # 6 lrs, 1 seed, val+test rows
        assert {r["dataset"] for r in runs} == {"sc-synth"}

        # report aggregates the runs.csv into a summary
        assert main(["report", str(tmp_path)]) == 0
        summary = read_csv(os.path.join(tmp_path, "summary.csv"))
        assert len(summary) == 6 * 2  # per (lr, split)
        assert all(r["metric"] == "accuracy" for r in summary)
        assert all(r["n"] == "1" and r["ci95"] == "" for r in summary)

    def test_zero_seeds_refused(self, tmp_path, capsys):
        ds_dir = str(tmp_path / "sc-synth")
        save_task_dataset(gen_task_data("SC", 30, 0), ds_dir)
        out = str(tmp_path / "ft")
        assert main(["finetune", self.checkpoint(tmp_path), ds_dir,
                     "--seeds", "0", "--out", out]) == 1
        assert "error: seeds must not be empty" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_vocabulary_too_small_names_the_id(self, tmp_path, capsys):
        # SC token ids run from 8 to 26; the tiny model's vocabulary has 16
        ds_dir = str(tmp_path / "sc-synth")
        save_task_dataset(gen_task_data("SC", 30, 0), ds_dir)
        assert main(["finetune", self.checkpoint(tmp_path), ds_dir,
                     "--out", str(tmp_path / "ft")]) == 1
        err = capsys.readouterr().err
        bad = re.fullmatch(r"error: token id (\d+) out of range for "
                           r"vocab_size 16\n", err)
        assert bad, err
        assert 16 <= int(bad[1]) < 64

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--seed", "3"],
                                      ["--allow-nonstudy"]])
    def test_dropped_flags_refused(self, tmp_path, capsys, flag):
        # finetune reads none of them; --seed and --allow-nonstudy used to
        # be taken and ignored
        out = str(tmp_path / "ft")
        with pytest.raises(SystemExit) as info:
            main(["finetune", str(tmp_path / "final.ckpt"),
                  str(tmp_path / "sc-synth"), "--out", out] + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" \
            in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_diverging_cell_fails_naming_it(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(bplm.cli, "GridSearchSpec", functools.partial(
            GridSearchSpec, learning_rates=(1e6,), batch_size=2))
        ds_dir = str(tmp_path / "sc-synth")
        save_task_dataset(gen_task_data("SC", 60, 0), ds_dir)
        out = str(tmp_path / "ft")
        with pytest.warns(RuntimeWarning):
            assert main(["finetune", self.checkpoint(tmp_path, vocab=64),
                         ds_dir, "--seeds", "1", "--out", out]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert re.fullmatch(r"error: non-finite .* at step \d+ of the "
                            r"lr=1e\+06, seed=0 cell", errors[0]), errors
        assert not os.path.exists(out)

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no runs.csv" in capsys.readouterr().err

    HEADER = ",".join(REPORT_FIELDS) + "\n"

    @pytest.mark.parametrize("body, named", [
        ("a,b\n1,2\n", "header is not task,dataset,"),
        ("", "header is not task,dataset,"),
        (HEADER.replace("seed,", "") + "SC,d,0.001,test,accuracy,0.5\n",
         "header is not task,dataset,"),
        (HEADER + "SC,d,0.001,0,test,accuracy,\n",
         "line 2: value '' is not a number"),
        (HEADER + "SC,d,0.001,0,test,accuracy,0.5\n"
                  "SC,d,0.001,1,test,accuracy,high\n",
         "line 3: value 'high' is not a number"),
        (HEADER + "SC,d,0.001,0,test\n", "line 2: 5 fields, not 7"),
        (HEADER + "SC,d,0.001,0,test,accuracy,0.5,x\n",
         "line 2: 8 fields, not 7"),
        (HEADER + "SC,d,0.001,0,test,accuracy,nan\n",
         "line 2: value nan is not finite"),
        (HEADER + "SC,d,0.001,0,test,accuracy,0.5\n"
                  "SC,d,0.001,1,test,accuracy,-inf\n",
         "line 3: value -inf is not finite"),
        ((HEADER + "SC,d,0.001,0,test,accuracy,0.5\n").encode()
         + b"SC,d\xff,0.001,1,test,accuracy,0.5\n",
         "line 3: byte 0xff is not UTF-8"),
    ], ids=["foreign-header", "empty-file", "missing-column", "empty-value",
            "word-value", "short-row", "long-row", "nan-value", "inf-value",
            "not-utf8"])
    def test_report_malformed_runs_csv(self, tmp_path, capsys, body, named):
        runs = tmp_path / "cell"
        runs.mkdir()
        (runs / "runs.csv").write_bytes(
            body if isinstance(body, bytes) else body.encode())
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]+\n", err), err
        assert f"{runs / 'runs.csv'}: {named}" in err
        assert not (tmp_path / "summary.csv").exists()


class TestNoAbbreviations:
    @pytest.mark.parametrize("args, error", [
        (["pretrain", "--conf", "{cfg}", "--out", "{out}"],
         "the following arguments are required: --config"),
        (["pretrain", "--config", "{cfg}", "--allow", "--out", "{out}"],
         "unrecognized arguments: --allow"),
        (["pretrain", "--config", "{cfg}", "--se", "1", "--out", "{out}"],
         "unrecognized arguments: --se 1"),
        (["cpt", "{base}", "--config", "{cfg}", "--fo", "--out", "{out}"],
         "unrecognized arguments: --fo"),
        (["report", "{runs}", "--o", "{out}"],
         "unrecognized arguments: --o"),
    ], ids=["pretrain_conf", "pretrain_allow", "pretrain_se", "cpt_fo",
            "report_o"])
    def test_abbreviated_flag_refused(self, tmp_path, capsys, args, error):
        # each line would run, and write, if its flag were read as the one
        # it abbreviates
        cfg = write_config(tmp_path, TINY_MODEL + TINY_DATA
                           + "[train]\ntotal_steps = 4\nwarmup_steps = 1\n"
                             "decay_steps = 1\n[cpt]\nsteps = 2\n")
        base = tmp_path / "base"
        assert main(["pretrain", "--config", cfg, "--out", str(base)]) == 0
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "runs.csv").write_text(",".join(REPORT_FIELDS)
                                       + "\nSC,d,0.001,0,test,accuracy,0.5\n")
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        paths = {"cfg": cfg, "base": str(base / "final.ckpt"),
                 "runs": str(runs), "out": str(tmp_path / "out")}
        with pytest.raises(SystemExit) as info:
            main([arg.format(**paths) for arg in args])
        assert info.value.code == 2
        assert error in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
