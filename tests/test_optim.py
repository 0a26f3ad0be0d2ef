import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bplm.optim
from bplm.optim import (ADAM_EPS, ADAMW_CHUNK, WEIGHT_DECAY, AdamWState,
                        WsdSchedule, adamw_step, clip_global_norm,
                        rescaled_schedule, wsd_lr)
from bplm.tensor import Tensor

import reference

PAPER_SCHEDULE = WsdSchedule(peak_lr=5e-4, warmup_steps=2000,
                             total_steps=42_000, decay_steps=2000)


class TestWsdLr:
    def test_end_of_warmup(self):
        assert wsd_lr(PAPER_SCHEDULE, 1999) == 5e-4

    def test_stable_plateau(self):
        assert wsd_lr(PAPER_SCHEDULE, 21_000) == 5e-4
        assert wsd_lr(PAPER_SCHEDULE, 39_999) == 5e-4

    def test_mid_decay(self):
        # linear interpolation oracle over the final 2000 steps
        assert abs(wsd_lr(PAPER_SCHEDULE, 41_000) - 2.5e-4) < 1e-19

    def test_warmup_continuous_at_boundary(self):
        s = WsdSchedule(1e-3, 10, 100, 10)
        assert wsd_lr(s, 9) == pytest.approx(1e-3)
        assert wsd_lr(s, 10) == 1e-3

    def test_step_zero_nonzero(self):
        assert wsd_lr(PAPER_SCHEDULE, 0) > 0

    def test_non_negative_everywhere(self):
        s = WsdSchedule(1e-3, 5, 50, 7)
        values = [wsd_lr(s, step) for step in range(50)]
        assert all(v >= 0 for v in values)
        assert max(values) == 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wsd_lr(PAPER_SCHEDULE, 42_000)
        with pytest.raises(ValueError):
            wsd_lr(PAPER_SCHEDULE, -1)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            WsdSchedule(5e-4, 60, 100, 50)

    def test_negative_warmup_refused(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            WsdSchedule(5e-4, -4, 6, 0)

    def test_negative_decay_refused(self):
        # used to train at peak lr throughout and still count as decayed
        with pytest.raises(ValueError, match="decay_steps"):
            WsdSchedule(5e-4, 2, 6, -3)


def finetune_lr(peak_lr, total_steps, step):
    """The fine-tuning lr: the rescaled schedule decaying over every step
    after warmup."""
    return wsd_lr(rescaled_schedule(peak_lr, total_steps, 1.0), step)


class TestFinetuneLr:
    def test_end_of_warmup(self):
        assert finetune_lr(1e-4, 1000, 99) == 1e-4

    def test_mid_decay(self):
        expected = 1e-4 * (1000 - 549) / 900
        assert finetune_lr(1e-4, 1000, 549) == pytest.approx(expected)
        assert expected == pytest.approx(0.5011e-4, rel=1e-3)

    def test_decay_endpoint(self):
        assert finetune_lr(1e-4, 1000, 999) == pytest.approx(1e-4 / 900)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            finetune_lr(1e-4, 1000, 1000)

    @given(st.sampled_from((1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 0.3)),
           st.integers(min_value=1, max_value=2000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_peak(self, peak, total, data):
        step = data.draw(st.integers(min_value=0, max_value=total - 1))
        assert 0 < finetune_lr(peak, total, step) <= peak

    def test_step_at_end_of_warmup_is_peak(self):
        # unclamped, 1e-4 * 900 / 900 lands one ulp above the peak
        assert 1e-4 * (1000 - 100) / 900 > 1e-4
        assert finetune_lr(1e-4, 1000, 100) == 1e-4

    def test_last_warmup_step_is_peak(self):
        # unclamped, 5e-5 * 26 / 26 lands one ulp above the peak
        assert 5e-5 * 26 / 26 > 5e-5
        assert finetune_lr(5e-5, 251, 25) == 5e-5


class TestRescaledSchedule:
    @pytest.mark.parametrize("steps, share, warmup, decay", [
        (1, 0.05, 1, 0), (1, 1.0, 1, 0), (10, 0.05, 1, 1), (20, 0.05, 2, 1),
        (2000, 0.05, 200, 100), (6, 1.0, 1, 5), (1000, 1.0, 100, 900),
        (0, 0.05, 0, 0)])
    def test_shape(self, steps, share, warmup, decay):
        assert rescaled_schedule(1e-3, steps, share) \
            == WsdSchedule(1e-3, warmup, steps, decay)


class TestClipGlobalNorm:
    def test_exact_halving(self):
        grads = {"a": np.array([2.0, 0.0]), "b": np.zeros(3)}
        factor = clip_global_norm(grads)
        assert factor == 0.5
        assert math.sqrt(sum((g ** 2).sum() for g in grads.values())) \
            == pytest.approx(1.0)

    def test_under_threshold(self):
        grads = {"a": np.array([0.5])}
        assert clip_global_norm(grads) == 1.0
        np.testing.assert_array_equal(grads["a"], [0.5])

    def test_zero_gradients(self):
        assert clip_global_norm({"a": np.zeros(4)}) == 1.0

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        grads = {f"p{i}": rng.normal(size=rng.integers(1, 10)) * 10
                 for i in range(3)}
        before = {k: np.abs(v).copy() for k, v in grads.items()}
        clip_global_norm(grads)
        total = math.sqrt(sum((g ** 2).sum() for g in grads.values()))
        assert total <= 1.0 + 1e-12
        for k in grads:  # clipping never increases a magnitude
            assert (np.abs(grads[k]) <= before[k] + 1e-15).all()


class TestAdamW:
    def test_closed_form_single_step(self):
        # m-hat = v-hat = 1 for unit gradient from a fresh state, so the
        # step is lr/(1 + ADAM_EPS), and the decoupled decay adds
        # lr * WEIGHT_DECAY * w
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        adamw_step(params, {"w": np.ones(2)}, AdamWState(), lr=0.1)
        step = 0.1 / (1 + ADAM_EPS)
        np.testing.assert_allclose(params["w"].data,
                                   [0.99 - step, -1.98 - step], atol=1e-9)

    def test_zero_gradient_identity(self):
        params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
        state = AdamWState()
        adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1)
        # only the decoupled decay moves w
        np.testing.assert_array_equal(params["w"].data,
                                      [3.0 - 0.1 * WEIGHT_DECAY * 3.0])
        np.testing.assert_array_equal(state.m["w"], [0.0])
        np.testing.assert_array_equal(state.v["w"], [0.0])
        assert state.step_count == 1

    def test_decoupled_decay(self):
        params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        adamw_step(params, {"w": np.zeros(1)}, AdamWState(), lr=0.1)
        np.testing.assert_allclose(params["w"].data, [2.0 * 0.99], atol=1e-15)

    def test_norm_gains_skip_decay(self):
        params = {"final_norm": Tensor(np.array([2.0]), requires_grad=True)}
        adamw_step(params, {"final_norm": np.zeros(1)}, AdamWState(), lr=0.1)
        np.testing.assert_array_equal(params["final_norm"].data, [2.0])

    def test_bit_identical_twins(self, rng):
        def run():
            params = {"w": Tensor(np.linspace(-1, 1, 8), requires_grad=True)}
            state = AdamWState()
            g = np.random.default_rng(5)
            for step in range(20):
                adamw_step(params, {"w": g.normal(size=8)}, state, lr=1e-3)
            return params["w"].data
        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ValueError):
            adamw_step(params, {"w": np.zeros(2)}, AdamWState(), lr=0.1)

    def test_step_count_increments(self):
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        state = AdamWState()
        for expected in (1, 2, 3):
            adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1)
            assert state.step_count == expected

    def test_bad_gradient_changes_nothing(self):
        # "a" comes before the mismatched or missing "b", so a check made
        # while updating would already have moved it
        params = {"a": Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  "b": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamWState()
        adamw_step(params, {"a": np.ones(2), "b": np.ones((2, 2))}, state,
                   lr=0.1)
        before = [(name, p.data.copy(), state.m[name].copy(),
                   state.v[name].copy()) for name, p in params.items()]
        for grads, message in (({"a": np.ones(2), "b": np.ones(4)},
                                "gradient shape mismatch for b"),
                               ({"a": np.ones(2)}, "missing gradient for b")):
            with pytest.raises(ValueError, match=message):
                adamw_step(params, grads, state, lr=0.1)
        assert state.step_count == 1
        for name, p, m, v in before:
            np.testing.assert_array_equal(params[name].data, p)
            np.testing.assert_array_equal(state.m[name], m)
            np.testing.assert_array_equal(state.v[name], v)

    def test_replaced_data_takes_effect(self):
        # the optimizer keeps parameters in buffers of its own; a .data
        # set between steps must be what the next step updates
        runs = []
        for step in (adamw_step, reference.adamw_step):
            params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
            state = AdamWState()
            step(params, {"w": np.array([0.5, 1.0])}, state, lr=0.1)
            params["w"].data = np.array([4.0, 3.0])
            step(params, {"w": np.array([-1.0, 2.0])}, state, lr=0.1)
            runs.append((params["w"].data, state.m["w"], state.v["w"]))
        for fast, ref in zip(*runs):
            np.testing.assert_array_equal(fast, ref)
        # one step of lr 0.1 from the replaced value, not from the old one
        np.testing.assert_allclose(runs[0][0], [4.0, 3.0], atol=0.5)

    def test_deep_copy_steps_like_the_original(self):
        # AdamWState.__getstate__ drops the flat buffers: a deep copy of
        # them would keep views that no longer share the copied buffers, so
        # the copy's params would stop moving
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  "final_norm": Tensor(np.ones(3), requires_grad=True)}
        state = AdamWState()
        grads = {"w": np.array([0.5, 1.0]), "final_norm": np.full(3, 0.25)}
        adamw_step(params, grads, state, lr=0.1)
        twin_params, twin_state = copy.deepcopy((params, state))
        before = params["w"].data.copy()
        adamw_step(params, grads, state, lr=0.1)
        adamw_step(twin_params, grads, twin_state, lr=0.1)
        assert not np.array_equal(params["w"].data, before)
        for name, p in params.items():
            assert twin_params[name].data.tobytes() == p.data.tobytes()
            assert twin_state.m[name].tobytes() == state.m[name].tobytes()
            assert twin_state.v[name].tobytes() == state.v[name].tobytes()


PARAM_NAMES = ("embed", "layer.0.attn_norm", "layer.0.attn.wq",
               "layer.0.ffn_norm", "final_norm", "head", "__head.w")
SHAPES = st.sampled_from([(1,), (3,), (5,), (2, 3), (4, 1), (3, 4)])


class TestMatchesReference:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_params_and_moments_match(self, data):
        """The flat update equals the per-parameter reference bit for bit,
        over several steps: norm gains and decayed parameters, 1-D and 2-D
        shapes, moments present at the start as load_checkpoint leaves
        them, and chunks that end inside a parameter and inside the decayed
        prefix."""
        names = data.draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=1,
                                   max_size=6, unique=True))
        shapes = {name: data.draw(SHAPES) for name in names}
        loaded = data.draw(st.booleans())
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        chunk = data.draw(st.sampled_from([1, 2, 5, 7, ADAMW_CHUNK]))

        def start():
            rng = np.random.default_rng(seed)
            params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                      for name, shape in shapes.items()}
            state = AdamWState()
            if loaded:
                state.step_count = 7
                state.m = {name: rng.normal(size=shape)
                           for name, shape in shapes.items()}
                state.v = {name: rng.random(size=shape)
                           for name, shape in shapes.items()}
            return params, state

        (params, state), (ref_params, ref_state) = start(), start()
        rng = np.random.default_rng([seed, 1])
        for step in range(4):
            grads = {name: rng.normal(scale=10.0 ** (step - 2), size=shape)
                     for name, shape in shapes.items()}
            lr = 1e-3 * (step + 1)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bplm.optim, "ADAMW_CHUNK", chunk)
                adamw_step(params, grads, state, lr)
            reference.adamw_step(ref_params, grads, ref_state, lr)
        assert state.step_count == ref_state.step_count
        assert set(state.m) == set(ref_state.m) == set(names)
        for name in names:
            np.testing.assert_array_equal(params[name].data,
                                          ref_params[name].data)
            np.testing.assert_array_equal(state.m[name], ref_state.m[name])
            np.testing.assert_array_equal(state.v[name], ref_state.v[name])
