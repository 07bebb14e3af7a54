"""Tests for the frame geometry."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pullpush.frame import FrameConfig, InfeasibleSplitError, q_max, split_for_q

DEFAULT_CONFIG = FrameConfig()  # tau_s=0.25 ms, F=101, k_w=4, k_t=1, k_c=1


def valid_configs():
    return st.builds(
        FrameConfig,
        tau_s=st.floats(min_value=1e-6, max_value=1.0),
        frame_slots=st.integers(min_value=20, max_value=400),
        k_w=st.integers(min_value=1, max_value=6),
        k_t=st.integers(min_value=1, max_value=4),
        k_c=st.integers(min_value=1, max_value=4),
    )


class TestFrameConfig:
    def test_defaults_are_reference_setup(self):
        assert DEFAULT_CONFIG.tau_s == 0.25e-3
        assert DEFAULT_CONFIG.frame_slots == 101
        assert (DEFAULT_CONFIG.k_w, DEFAULT_CONFIG.k_t, DEFAULT_CONFIG.k_c) == (4, 1, 1)
        assert DEFAULT_CONFIG.t_frame_s == pytest.approx(25.25e-3, rel=1e-15)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            FrameConfig(tau_s=0.0)

    def test_rejects_too_small_frame(self):
        with pytest.raises(ValueError):
            FrameConfig(frame_slots=6)  # k_c + k_w + k_t + 1 = 7

    def test_rejects_zero_slot_counts(self):
        with pytest.raises(ValueError):
            FrameConfig(k_w=0)

    @pytest.mark.parametrize("tau_s", [1e307, 1.6e-308, 1e-310, 5e-324])
    def test_rejects_tau_whose_frame_time_or_start_rate_overflows(self, tau_s):
        # 1e307 * 101 and 3 * 101 / (1.6e-308 * 101) exceed the largest float.
        message = (r"^tau_s must keep tau_s \* frame_slots and 3 \* frame_slots / \(tau_s \* frame_slots\) "
                   rf"finite at frame_slots=101, got {re.escape(repr(tau_s))}$")
        with pytest.raises(ValueError, match=message):
            FrameConfig(tau_s=tau_s)

    @pytest.mark.parametrize("tau_s", [1e306, 1.7e-308])
    def test_accepts_tau_whose_frame_time_and_start_rate_fit(self, tau_s):
        config = FrameConfig(tau_s=tau_s)
        assert math.isfinite(config.t_frame_s) and math.isfinite(3.0 * config.frame_slots / config.t_frame_s)

    @pytest.mark.parametrize("field", ["tau_s", "frame_slots", "k_w", "k_t", "k_c"])
    def test_rejects_bool(self, field):
        with pytest.raises(ValueError, match=field):
            FrameConfig(**{field: True})


class TestQMax:
    def test_reference_config(self):
        assert q_max(DEFAULT_CONFIG) == 19

    def test_single_service_fits(self):
        assert q_max(FrameConfig(frame_slots=7, k_w=4, k_t=1, k_c=1)) == 1

    def test_wider_transmission(self):
        assert q_max(FrameConfig(frame_slots=101, k_w=2, k_t=2, k_c=1)) == 24


class TestSplitForQ:
    def test_reference_q2(self):
        split = split_for_q(DEFAULT_CONFIG, 2)
        assert split.k_a == 90
        assert split.t_pull_s == pytest.approx(2.5e-3, rel=1e-15)
        assert split.t_push_s == pytest.approx(22.75e-3, rel=1e-15)

    def test_all_push_frame(self):
        split = split_for_q(DEFAULT_CONFIG, 0)
        assert split.k_a == 100
        assert split.t_pull_s == 0.0

    def test_q_max_split(self):
        assert split_for_q(DEFAULT_CONFIG, 19).k_a == 5

    def test_infeasible_q_names_constraint(self):
        with pytest.raises(InfeasibleSplitError, match="k_a"):
            split_for_q(DEFAULT_CONFIG, 20)

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            split_for_q(DEFAULT_CONFIG, -1)

    @given(config=valid_configs(), data=st.data())
    def test_durations_sum_to_frame(self, config, data):
        q = data.draw(st.integers(min_value=0, max_value=q_max(config)))
        split = split_for_q(config, q)
        total = split.t_pull_s + split.t_push_s
        frame = config.tau_s * config.frame_slots
        assert abs(total - frame) <= math.ulp(frame)

    @given(config=valid_configs())
    def test_k_a_strictly_decreasing_with_service_step(self, config):
        k_values = [split_for_q(config, q).k_a for q in range(q_max(config) + 1)]
        steps = {a - b for a, b in zip(k_values, k_values[1:])}
        assert steps <= {config.k_w + config.k_t}

    @given(config=valid_configs(), data=st.data())
    def test_round_trip(self, config, data):
        q = data.draw(st.integers(min_value=0, max_value=q_max(config)))
        split = split_for_q(config, q)
        derived = (config.frame_slots - config.k_c - split.k_a) // config.slots_per_service
        assert derived == q
