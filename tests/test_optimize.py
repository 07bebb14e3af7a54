"""Tests for the frame-design procedures."""

import hashlib
import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pullpush.optimize as optimize_module
from pullpush.frame import FrameConfig, InfeasibleSplitError, q_max, split_for_q
from pullpush.metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    push_success_prob,
    query_success_prob,
)
from pullpush.optimize import (
    InfeasibleTargetError,
    crossover_push_rate,
    design_guidelines,
    max_push_rate,
    max_query_rate,
    optimal_q,
)

DEFAULT_CONFIG = FrameConfig()
T_FRAME = DEFAULT_CONFIG.t_frame_s


class TestOptimalQ:
    @pytest.mark.parametrize(
        "lambda_q,expected",
        [(250.0, 10), (500.0, 14), (750.0, 15)],
    )
    def test_reference_optima(self, lambda_q, expected):
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(lambda_q, 500.0))
        assert result.q_star == expected

    def test_pure_push_prefers_zero_services(self):
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(0.0, 400.0))
        assert result.q_star == 0

    def test_pure_pull_prefers_max_services(self):
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(400.0, 0.0))
        assert result.q_star == q_max(DEFAULT_CONFIG)

    def test_tie_breaks_to_smallest_q(self):
        # Zero load: every q >= 1 scores exactly 1.0 (q=0 scores 0.5 because
        # zero servers block everything), so the smallest tied q must win.
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(0.0, 0.0))
        assert result.q_star == 1
        assert result.p_s_at_star == 1.0
        tied = [row.q for row in result.per_q_table if row.p_s_weighted == 1.0]
        assert tied == list(range(1, q_max(DEFAULT_CONFIG) + 1))

    def test_table_covers_every_feasible_q_once(self):
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(250.0, 500.0))
        assert [row.q for row in result.per_q_table] == list(range(q_max(DEFAULT_CONFIG) + 1))

    def test_self_consistent_argmax(self):
        result = optimal_q(DEFAULT_CONFIG, TrafficLoad(500.0, 500.0))
        best = max(result.per_q_table, key=lambda row: (row.p_s_weighted, -row.q))
        assert result.q_star == best.q
        assert result.p_s_at_star == best.p_s_weighted

    def test_large_frame_is_one_recursion_pass(self):
        # q_max = 19999: a scan that restarts the recursion per q takes
        # q_max^2 / 2 = 2e8 steps here.
        config = FrameConfig(frame_slots=100_001)
        load = TrafficLoad(5000.0, 5000.0)
        start = time.perf_counter()
        result = optimal_q(config, load)
        assert time.perf_counter() - start < 2.0
        weights = Weights.traffic_fair(load)
        for q in (0, 1, 19, q_max(config)):
            row = result.per_q_table[q]
            report = evaluate_metrics(config, load, q, weights)
            assert (row.q, row.p_s_weighted, row.p_s_query, row.p_s_push, row.k_a) == (
                report.q, report.p_s_weighted, report.p_s_query, report.p_s_push, report.k_a
            )

    def test_table_matches_point_evaluations_bitwise(self):
        load = TrafficLoad(250.0, 500.0)
        weights = Weights.traffic_fair(load)
        result = optimal_q(DEFAULT_CONFIG, load)
        for row in result.per_q_table:
            report = evaluate_metrics(DEFAULT_CONFIG, load, row.q, weights)
            assert row.p_s_weighted == report.p_s_weighted
            assert row.p_s_query == report.p_s_query
            assert row.p_s_push == report.p_s_push
            assert row.k_a == report.k_a


class TestMaxQueryRate:
    def test_reference_value(self):
        rate = max_query_rate(DEFAULT_CONFIG, 2, 0.8)
        assert rate == pytest.approx(39.6, abs=0.5)

    def test_quadratic_oracle(self):
        # B(2, E) = 0.2 solves 2E^2 - E - 1 = 0, i.e. E = 1 exactly, so the
        # rate is one query per frame duration.
        rate = max_query_rate(DEFAULT_CONFIG, 2, 0.8)
        assert rate == pytest.approx(1.0 / T_FRAME, rel=1e-8)

    def test_defining_equation(self):
        rate = max_query_rate(DEFAULT_CONFIG, 2, 0.8)
        assert query_success_prob(2, rate * T_FRAME) == pytest.approx(0.8, abs=1e-8)

    def test_zero_services_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            max_query_rate(DEFAULT_CONFIG, 0, 0.8)

    def test_infeasible_q_propagates(self):
        with pytest.raises(InfeasibleSplitError):
            max_query_rate(DEFAULT_CONFIG, 20, 0.8)

    @pytest.mark.parametrize("p_th", [0.0, 1.0, -0.2, 1.7])
    def test_target_outside_open_interval_rejected(self, p_th):
        with pytest.raises(ValueError):
            max_query_rate(DEFAULT_CONFIG, 2, p_th)

    @given(
        q=st.integers(min_value=1, max_value=19),
        p_th=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200)
    def test_postcondition(self, q, p_th):
        rate = max_query_rate(DEFAULT_CONFIG, q, p_th)
        assert abs(query_success_prob(q, rate * T_FRAME) - p_th) < 1e-8


class TestMaxPushRate:
    def test_reference_values(self):
        assert max_push_rate(DEFAULT_CONFIG, 2, 0.8) == pytest.approx(835.0, abs=2.0)
        assert max_push_rate(DEFAULT_CONFIG, 3, 0.8) == pytest.approx(791.0, abs=2.0)

    def test_certainty_requires_vanishing_load(self):
        rates = [max_push_rate(DEFAULT_CONFIG, 2, p) for p in (0.8, 0.99, 0.999999)]
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] < 1e-2 * rates[0]

    def test_infeasible_split_propagates(self):
        with pytest.raises(InfeasibleSplitError):
            max_push_rate(DEFAULT_CONFIG, 20, 0.8)

    @given(
        q=st.integers(min_value=0, max_value=19),
        p_th=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200)
    def test_postcondition(self, q, p_th):
        rate = max_push_rate(DEFAULT_CONFIG, q, p_th)
        k_a = split_for_q(DEFAULT_CONFIG, q).k_a
        assert abs(push_success_prob(k_a, rate * T_FRAME) - p_th) < 1e-8


class TestDesignGuidelines:
    def test_reference_rows(self):
        rows = {row.q: row for row in design_guidelines(DEFAULT_CONFIG, 0.8)}
        assert rows[2].lambda_q_max == pytest.approx(39.6, abs=0.5)
        assert rows[2].lambda_p_max == pytest.approx(835.0, abs=2.0)
        assert rows[2].throughput_push == pytest.approx(660.0, abs=2.0)
        assert rows[3].lambda_p_max == pytest.approx(791.0, abs=2.0)
        assert rows[3].throughput_push == pytest.approx(625.0, abs=2.0)

    def test_one_row_per_positive_q(self):
        rows = design_guidelines(DEFAULT_CONFIG, 0.8)
        assert [row.q for row in rows] == list(range(1, q_max(DEFAULT_CONFIG) + 1))

    def test_rate_monotonicity_across_q(self):
        rows = design_guidelines(DEFAULT_CONFIG, 0.8)
        q_rates = [row.lambda_q_max for row in rows]
        p_rates = [row.lambda_p_max for row in rows]
        assert all(a < b for a, b in zip(q_rates, q_rates[1:]))
        assert all(a > b for a, b in zip(p_rates, p_rates[1:]))

    def test_lower_target_admits_more_traffic(self):
        by_threshold = {p: design_guidelines(DEFAULT_CONFIG, p) for p in (0.7, 0.8, 0.9)}
        for softer, harder in ((0.7, 0.8), (0.8, 0.9)):
            for row_soft, row_hard in zip(by_threshold[softer], by_threshold[harder]):
                assert row_soft.lambda_q_max >= row_hard.lambda_q_max
                assert row_soft.lambda_p_max >= row_hard.lambda_p_max

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            design_guidelines(DEFAULT_CONFIG, 1.0)


class TestCrossover:
    def test_crossover_exists_for_balanced_ratio(self):
        value = crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5)
        assert value is not None and value > 0.0

    def test_sign_pattern_around_crossover(self):
        value = crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5)

        def gap(lam_p):
            load = TrafficLoad(0.5 * lam_p, lam_p)
            w = Weights.traffic_fair(load)
            low = evaluate_metrics(DEFAULT_CONFIG, load, 1, w).p_s_weighted
            high = evaluate_metrics(DEFAULT_CONFIG, load, 10, w).p_s_weighted
            return low - high

        assert gap(0.5 * value) < 0.0  # more services preferred below
        assert gap(1.5 * value) > 0.0  # fewer services preferred above

    def test_search_builds_no_report(self, monkeypatch):
        # Scan and bisection both evaluate through weighted_success_sweep.
        expected = crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5)

        def refuse(*args, **kwargs):
            raise AssertionError("crossover_push_rate called evaluate_metrics")

        monkeypatch.setattr(optimize_module, "evaluate_metrics", refuse)
        assert crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5) == expected

    def test_pure_push_has_no_crossover(self):
        assert crossover_push_rate(DEFAULT_CONFIG, 0, 10, 0.0) is None

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            crossover_push_rate(DEFAULT_CONFIG, 10, 1, 0.5)

    @pytest.mark.parametrize("ceiling", [math.inf, math.nan, 0.0, -1.0])
    def test_ceiling_must_be_finite_and_positive(self, ceiling):
        with pytest.raises(ValueError, match="lambda_p_ceiling"):
            crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5, lambda_p_ceiling=ceiling)

    def test_crossover_is_a_root_of_the_gap(self):
        value = crossover_push_rate(DEFAULT_CONFIG, 1, 10, 0.5)

        def weighted(q, lam_p):
            load = TrafficLoad(0.5 * lam_p, lam_p)
            return evaluate_metrics(DEFAULT_CONFIG, load, q).p_s_weighted

        gap = weighted(1, value) - weighted(10, value)
        slope_scale = abs(weighted(1, value * 1.01) - weighted(1, value)) + 1e-12
        assert abs(gap) < 50.0 * slope_scale  # within the bisection tolerance


class TestBitwisePin:
    def test_guidelines_and_crossovers_digest(self):
        # 4090 outputs: every guideline field at F in {12, 101, 1001} x four
        # targets, and the crossover of all 190 q pairs of the reference
        # frame at three load ratios. The digest was taken before the rate
        # searches were merged into one, so any change of a bit shows here.
        values = []
        for frame_slots in (12, 101, 1001):
            for p_th in (1e-6, 0.5, 0.9, 0.999999):
                for row in design_guidelines(FrameConfig(frame_slots=frame_slots), p_th):
                    values += [row.lambda_q_max, row.lambda_p_max, row.n_served_mean, row.throughput_push]
        for q_low, q_high in itertools.combinations(range(q_max(DEFAULT_CONFIG) + 1), 2):
            for ratio in (0.1, 1.0, 2.0):
                values.append(crossover_push_rate(DEFAULT_CONFIG, q_low, q_high, ratio))
        assert len(values) == 4090
        text = "\n".join("None" if v is None else v.hex() for v in values)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6494463b2a29a51bc5939a81e86f1f98de8fd61aeff95375420aa84402dccfea"
        )
