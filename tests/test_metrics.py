"""Tests for the closed-form metrics, with independent oracles.

The push closed forms are checked against the truncated conditional-success
series and an exhaustive two-packet enumeration; tests/test_simulate.py checks
the simulator's singleton law, the per-packet slot model, against every slot
choice and against the conditional mean n(1 - 1/k_a)^(n-1).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poisson_pmf, push_success_prob_given
from pullpush.frame import FrameConfig, q_max, split_for_q
from pullpush.metrics import (
    MetricsReport,
    TrafficLoad,
    Weights,
    evaluate_metrics,
    mean_served_queries,
    push_success_prob,
    push_throughput,
    query_success_prob,
)

DEFAULT_CONFIG = FrameConfig()
T_FRAME = DEFAULT_CONFIG.t_frame_s  # 25.25 ms


def poisson_cutoff(mean, tail=1e-12):
    """Smallest n with P(X <= n) >= 1 - tail."""
    cdf = 0.0
    n = 0
    cap = int(mean + 20.0 * math.sqrt(mean) + 200.0)
    while cdf < 1.0 - tail and n <= cap:
        cdf += poisson_pmf(n, mean)
        n += 1
    return n


def series_push_success(k_a, mean):
    terms = [
        push_success_prob_given(k_a, n) * poisson_pmf(n, mean)
        for n in range(poisson_cutoff(mean) + 1)
    ]
    return math.fsum(terms)


def series_push_throughput(k_a, mean, t_frame):
    terms = [
        n * push_success_prob_given(k_a, n) * poisson_pmf(n, mean)
        for n in range(poisson_cutoff(mean) + 1)
    ]
    return math.fsum(terms) / t_frame


class TestQuerySuccess:
    def test_no_queries(self):
        assert query_success_prob(5, 0.0) == 1.0

    def test_no_servers(self):
        assert query_success_prob(0, 3.0) == 0.0

    def test_two_servers_unit_load(self):
        assert query_success_prob(2, 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_monotone_on_reference_grid(self):
        for mean in (0.0, 0.5, 1.0, 6.3125, 20.0, 50.0):
            values = [query_success_prob(q, mean) for q in range(20)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for q in (0, 1, 2, 10, 19):
            values = [query_success_prob(q, m) for m in np.linspace(0.0, 50.0, 26)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestMeanServedQueries:
    def test_no_queries(self):
        assert mean_served_queries(5, 0.0) == 0.0

    def test_two_servers_unit_load(self):
        assert mean_served_queries(2, 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_matches_series_oracle(self):
        q, mean = 10, 6.3125
        p = query_success_prob(q, mean)
        oracle = math.fsum(
            n * p * poisson_pmf(n, mean) for n in range(poisson_cutoff(mean) + 1)
        )
        assert mean_served_queries(q, mean) == pytest.approx(oracle, abs=1e-10)


class TestPushSuccessGiven:
    def test_single_slot_collision(self):
        assert push_success_prob_given(1, 2) == 0.0

    def test_single_slot_single_packet(self):
        assert push_success_prob_given(1, 1) == 1.0

    def test_two_packets_many_slots(self):
        assert push_success_prob_given(90, 2) == pytest.approx(89.0 / 90.0, rel=1e-15)

    def test_two_packet_exhaustive_enumeration(self):
        # All 90*90 slot pairs: a tagged packet survives iff slots differ.
        k_a = 90
        survived = sum(1 for a in range(k_a) for b in range(k_a) if a != b)
        assert push_success_prob_given(k_a, 2) == pytest.approx(survived / k_a**2, rel=1e-12)


class TestPushSuccess:
    def test_empty_frame(self):
        assert push_success_prob(17, 0.0) == 1.0

    def test_reference_operating_point(self):
        assert push_success_prob(90, 835.0 * T_FRAME) == pytest.approx(0.800, abs=2e-3)
        assert push_success_prob(50, 12.625) == pytest.approx(0.7927, abs=1e-3)

    @pytest.mark.parametrize("k_a", [1, 2, 3, 5, 10, 17, 30, 50, 90, 100])
    @pytest.mark.parametrize("mean", [0.1, 1.0, 5.0, 12.625, 30.0])
    def test_series_consistency(self, k_a, mean):
        assert abs(push_success_prob(k_a, mean) - series_push_success(k_a, mean)) < 1e-10

    @pytest.mark.parametrize("mean", [0.5, 1.0, 5.0, 20.0])
    def test_branch_continuity_at_single_slot(self, mean):
        # Evaluate the k_a > 1 form just above 1 in 50-digit arithmetic.
        with mp.workdps(50):
            k_a = mp.mpf(1) + mp.mpf("1e-9")
            m = mp.mpf(mean)
            near = (k_a * mp.e ** (-m / k_a) - mp.e ** (-m)) / (k_a - 1)
            assert abs(float(near) - push_success_prob(1, mean)) < 1e-6

    def test_stable_form_handles_heavy_load(self):
        # The textbook form overflows around mean 700; ours must not.
        value = push_success_prob(10, 5000.0)
        assert 0.0 <= value <= 1.0

    def test_monotone_on_reference_grid(self):
        for k_a in (1, 2, 17, 50, 100):
            values = [push_success_prob(k_a, m) for m in np.linspace(0.0, 60.0, 31)]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for mean in (0.0, 0.5, 12.625, 37.875, 60.0):
            values = [push_success_prob(k_a, mean) for k_a in range(1, 101)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            push_success_prob(0, 1.0)


class TestPushThroughput:
    def test_no_packets(self):
        assert push_throughput(30, 0.0, T_FRAME) == 0.0

    def test_reference_values(self):
        assert push_throughput(90, 835.0 * T_FRAME, T_FRAME) == pytest.approx(660.0, abs=2.0)
        assert push_throughput(85, 791.0 * T_FRAME, T_FRAME) == pytest.approx(625.0, abs=2.0)

    @pytest.mark.parametrize("k_a", [1, 2, 3, 5, 10, 17, 30, 50, 90, 100])
    @pytest.mark.parametrize("mean", [0.1, 1.0, 5.0, 12.625, 30.0])
    def test_series_consistency(self, k_a, mean):
        closed = push_throughput(k_a, mean, T_FRAME)
        assert abs(closed - series_push_throughput(k_a, mean, T_FRAME)) < 1e-10 / T_FRAME

    def test_nonpositive_frame_duration_rejected(self):
        with pytest.raises(ValueError):
            push_throughput(10, 1.0, 0.0)

    @given(
        k_a=st.integers(min_value=1, max_value=100),
        mean=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_bounds(self, k_a, mean):
        value = push_throughput(k_a, mean, T_FRAME)
        assert value <= mean / T_FRAME + 1e-9  # never above the offered rate
        assert value * T_FRAME <= k_a  # never above the slot budget


class TestTrafficLoad:
    @pytest.mark.parametrize("field", ["lambda_q", "lambda_p"])
    def test_rejects_bool(self, field):
        rates = {"lambda_q": 1.0, "lambda_p": 1.0} | {field: True}
        with pytest.raises(ValueError, match=field):
            TrafficLoad(**rates)


class TestWeights:
    def test_traffic_fair(self):
        w = Weights.traffic_fair(TrafficLoad(250.0, 500.0))
        assert w.w_q == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert w.w_p == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_zero_traffic_is_symmetric(self):
        assert Weights.traffic_fair(TrafficLoad(0.0, 0.0)) == Weights(0.5, 0.5)

    def test_scale_invariance(self):
        base = Weights.traffic_fair(TrafficLoad(39.0, 835.0))
        scaled = Weights.traffic_fair(TrafficLoad(39.0 * 7.0, 835.0 * 7.0))
        assert scaled.w_q == pytest.approx(base.w_q, rel=1e-12)
        assert scaled.w_p == pytest.approx(base.w_p, rel=1e-12)

    def test_invalid_sum_rejected(self):
        with pytest.raises(ValueError, match=r"^weights must sum to 1, got 1\.2$"):
            Weights(0.6, 0.6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Weights(-0.1, 1.1)
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\], got \(1\.5, 0\.0\)"):
            Weights(1.5, 0.0)

    def test_traffic_fair_names_an_overflowing_total(self):
        with pytest.raises(ValueError, match=r"^lambda_q \+ lambda_p must be finite, got inf$"):
            Weights.traffic_fair(TrafficLoad(1e308, 1e308))


class TestWeightedSuccess:
    @pytest.mark.parametrize(
        "lambda_q,q,expected",
        [
            (250.0, 10, 0.844061),
            (500.0, 14, 0.770406),
            (750.0, 15, 0.670817),
        ],
    )
    def test_reference_bar_values(self, lambda_q, q, expected):
        load = TrafficLoad(lambda_q, 500.0)
        report = evaluate_metrics(DEFAULT_CONFIG, load, q)
        assert report.p_s_weighted == pytest.approx(expected, abs=1e-4)

    @given(
        frame_slots=st.sampled_from((12, 101)),  # 12 slots give k_a = 1 at q = 2
        q=st.integers(min_value=0, max_value=19),
        lambda_q=st.floats(min_value=0.0, max_value=2000.0),
        lambda_p=st.floats(min_value=0.0, max_value=2400.0),
        w_q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_convex_combination(self, frame_slots, q, lambda_q, lambda_p, w_q):
        config = FrameConfig(frame_slots=frame_slots)
        q = min(q, q_max(config))
        weights = Weights(w_q, 1.0 - w_q)
        combined = evaluate_metrics(config, TrafficLoad(lambda_q, lambda_p), q, weights).p_s_weighted
        p_query = query_success_prob(q, lambda_q * config.t_frame_s)
        p_push = push_success_prob(split_for_q(config, q).k_a, lambda_p * config.t_frame_s)
        assert min(p_query, p_push) - 1e-12 <= combined <= max(p_query, p_push) + 1e-12


class TestEvaluateMetrics:
    def test_zero_traffic(self):
        report = evaluate_metrics(DEFAULT_CONFIG, TrafficLoad(0.0, 0.0), 1)
        assert report.p_s_query == 1.0
        assert report.p_s_push == 1.0
        assert report.throughput_push == 0.0
        assert report.p_s_weighted == 1.0
        assert report.n_served_mean == 0.0

    def test_reference_point(self):
        report = evaluate_metrics(DEFAULT_CONFIG, TrafficLoad(250.0, 500.0), 10)
        assert report.q == 10 and report.k_a == 50
        assert report.p_s_weighted == pytest.approx(0.84406, abs=1e-4)

    def test_balanced_operating_point(self):
        report = evaluate_metrics(DEFAULT_CONFIG, TrafficLoad(39.0, 835.0), 2)
        assert report.p_s_query == pytest.approx(0.80, abs=5e-3)
        assert report.p_s_push == pytest.approx(0.80, abs=5e-3)

    def test_explicit_weights_override_default(self):
        load = TrafficLoad(250.0, 500.0)
        report = evaluate_metrics(DEFAULT_CONFIG, load, 10, Weights(1.0, 0.0))
        assert report.p_s_weighted == report.p_s_query

    def test_report_is_internally_consistent(self):
        load = TrafficLoad(100.0, 900.0)
        w = Weights.traffic_fair(load)
        report = evaluate_metrics(DEFAULT_CONFIG, load, 5)
        assert report.p_s_weighted == pytest.approx(
            w.w_q * report.p_s_query + w.w_p * report.p_s_push, abs=1e-15
        )
        assert isinstance(report, MetricsReport)
