import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplm.optim import (WEIGHT_DECAY, AdamWState, WsdSchedule, adamw_step,
                        clip_global_norm, rescaled_schedule, wsd_lr)
from bplm.tensor import Tensor

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


def fresh(eps=1e-12):
    return AdamWState(beta1=0.9, beta2=0.95, eps=eps)


class TestAdamW:
    def test_closed_form_single_step(self):
        # m-hat = v-hat = 1 for unit gradient from a fresh state, and the
        # decoupled decay adds lr * WEIGHT_DECAY * w
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        adamw_step(params, {"w": np.ones(2)}, fresh(), lr=0.1)
        np.testing.assert_allclose(params["w"].data, [0.89, -2.08], atol=1e-9)

    def test_zero_gradient_identity(self):
        params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
        state = fresh()
        adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1)
        # only the decoupled decay moves w
        np.testing.assert_array_equal(params["w"].data,
                                      [3.0 - 0.1 * WEIGHT_DECAY * 3.0])
        np.testing.assert_array_equal(state.m["w"], [0.0])
        np.testing.assert_array_equal(state.v["w"], [0.0])
        assert state.step_count == 1

    def test_decoupled_decay(self):
        params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        adamw_step(params, {"w": np.zeros(1)}, fresh(), lr=0.1)
        np.testing.assert_allclose(params["w"].data, [2.0 * 0.99], atol=1e-15)

    def test_norm_gains_skip_decay(self):
        params = {"final_norm": Tensor(np.array([2.0]), requires_grad=True)}
        adamw_step(params, {"final_norm": np.zeros(1)}, fresh(), lr=0.1)
        np.testing.assert_array_equal(params["final_norm"].data, [2.0])

    def test_bit_identical_twins(self, rng):
        def run():
            params = {"w": Tensor(np.linspace(-1, 1, 8), requires_grad=True)}
            state = fresh(eps=1e-5)
            g = np.random.default_rng(5)
            for step in range(20):
                adamw_step(params, {"w": g.normal(size=8)}, state, lr=1e-3)
            return params["w"].data
        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ValueError):
            adamw_step(params, {"w": np.zeros(2)}, fresh(), lr=0.1)

    def test_step_count_increments(self):
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        state = fresh()
        for expected in (1, 2, 3):
            adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1)
            assert state.step_count == expected
