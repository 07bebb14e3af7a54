"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s``). Tolerances are fixed here, not calibrated.
"""

import contextlib
import math
import time

import mpmath as mp
import numpy as np
import pytest

from pullpush.core import erlang_b, poisson_pmf, sample_poisson_array
from pullpush.frame import FrameConfig, split_for_q
from pullpush.metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    push_success_prob,
    push_success_prob_given,
    query_success_prob,
)
from pullpush.optimize import crossover_push_rate, design_guidelines, optimal_q
from pullpush.simulate import SimConfig, simulate, slot_successes, validate_grid

DEFAULT_CONFIG = FrameConfig()
T_FRAME = DEFAULT_CONFIG.t_frame_s


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_optimal_q_reproduction():
    expected = {250.0: (10, 0.844061), 500.0: (14, 0.770406), 750.0: (15, 0.670817)}
    with criterion(1, "optimal q and weighted success"):
        start = time.perf_counter()
        for lambda_q, (q_star, p_star) in expected.items():
            result = optimal_q(DEFAULT_CONFIG, TrafficLoad(lambda_q, 500.0))
            assert result.q_star == q_star
            assert result.p_s_at_star == pytest.approx(p_star, abs=1e-4)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_guideline_worked_example():
    with criterion(2, "rate ceilings at p_th 0.8"):
        start = time.perf_counter()
        rows = {row.q: row for row in design_guidelines(DEFAULT_CONFIG, 0.8)}
        assert rows[2].lambda_q_max == pytest.approx(39.6, abs=0.5)
        assert rows[2].lambda_p_max == pytest.approx(835.0, abs=2.0)
        assert rows[2].throughput_push == pytest.approx(660.0, abs=2.0)
        assert rows[3].lambda_p_max == pytest.approx(791.0, abs=2.0)
        assert rows[3].throughput_push == pytest.approx(625.0, abs=2.0)
        # The served-query mean at this point is intentionally not asserted.
        assert time.perf_counter() - start < 1.0


def test_criterion_3_simulation_validation_grid():
    with criterion(3, "simulation validation grid"):
        start = time.perf_counter()
        sim = SimConfig(frames=100_000, seed=1)
        rows, summary = validate_grid(
            DEFAULT_CONFIG,
            q_list=[2, 10, 19],
            lambda_q_list=[10.0, 100.0, 400.0],
            lambda_p_list=[100.0, 500.0, 1500.0],
            sim=sim,
        )
        assert summary["points"] == 27
        for row in rows:
            hw_push = row.empirical.half_width_95["p_s_push"]
            assert abs(row.dev_push) <= 4.0 * hw_push, (row.q, row.lambda_q, row.lambda_p)
            hw_query = row.empirical.half_width_95["p_s_query"]
            assert row.dev_query >= -4.0 * hw_query, (row.q, row.lambda_q, row.lambda_p)
            if row.lambda_q == 10.0:
                # Low-rate points sit above the infinite-population bound.
                assert row.dev_query >= 0.0, (row.q, row.lambda_q, row.lambda_p)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "closed forms vs series and direct sums"):
        # Push closed forms vs the truncated conditional-success series on a
        # 50-point grid; the throughput comparison is done per frame (both
        # sides multiplied by the frame duration).
        means = (0.1, 1.0, 5.0, 12.625, 30.0)
        slot_counts = (2, 3, 5, 10, 17, 30, 50, 90, 100, 64)
        for k_a in slot_counts:
            for mean in means:
                cutoff = 0
                cdf = 0.0
                while cdf < 1.0 - 1e-12:
                    cdf += poisson_pmf(cutoff, mean)
                    cutoff += 1
                series_p = math.fsum(
                    push_success_prob_given(k_a, n) * poisson_pmf(n, mean)
                    for n in range(cutoff + 1)
                )
                series_s = math.fsum(
                    n * push_success_prob_given(k_a, n) * poisson_pmf(n, mean)
                    for n in range(cutoff + 1)
                )
                assert abs(push_success_prob(k_a, mean) - series_p) < 1e-10
                assert abs(mean * math.exp(-mean / k_a) - series_s) < 1e-10
        # Erlang-B recursion vs the direct-sum definition.
        for servers in range(26):
            for load in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 6.3125, 10.0, 21.08375, 30.0, 45.0, 60.0):
                log_terms = [
                    i * math.log(load) - math.lgamma(i + 1) for i in range(servers + 1)
                ]
                peak = max(log_terms)
                terms = [math.exp(t - peak) for t in log_terms]
                direct = terms[-1] / math.fsum(terms)
                assert abs(erlang_b(servers, load) - direct) < 1e-12


def test_criterion_5_property_suite():
    cases = 1000
    with criterion(5, "randomized invariants"):
        rng = np.random.default_rng(20240817)

        # Monotonicity of both success probabilities.
        for _ in range(cases):
            q = int(rng.integers(0, 19))
            mean_q = float(rng.uniform(0.0, 50.0))
            bump = float(rng.uniform(1e-3, 5.0))
            assert query_success_prob(q + 1, mean_q) >= query_success_prob(q, mean_q)
            assert query_success_prob(q, mean_q + bump) <= query_success_prob(q, mean_q)
            k_a = int(rng.integers(1, 100))
            mean_p = float(rng.uniform(0.0, 60.0))
            assert push_success_prob(k_a + 1, mean_p) >= push_success_prob(k_a, mean_p)
            assert push_success_prob(k_a, mean_p + bump) <= push_success_prob(k_a, mean_p)

        # Weighted objective stays a convex combination.
        for _ in range(cases):
            q = int(rng.integers(0, 20))
            load = TrafficLoad(float(rng.uniform(0.0, 2000.0)), float(rng.uniform(0.0, 2400.0)))
            w_q = float(rng.uniform(0.0, 1.0))
            weights = Weights(w_q, 1.0 - w_q)
            combined = evaluate_metrics(DEFAULT_CONFIG, load, q, weights).p_s_weighted
            p_query = query_success_prob(q, load.lambda_q * T_FRAME)
            p_push = push_success_prob(split_for_q(DEFAULT_CONFIG, q).k_a, load.lambda_p * T_FRAME)
            assert min(p_query, p_push) - 1e-12 <= combined <= max(p_query, p_push) + 1e-12

        # Conservation: per-frame slot successes bounded by packets and slots.
        counts = rng.integers(0, 25, size=cases)
        successes = slot_successes(counts, 6, np.random.default_rng(404))
        assert np.all(successes <= np.minimum(counts, 6))
        assert np.all(successes >= 0)
        result = simulate(
            DEFAULT_CONFIG, TrafficLoad(300.0, 600.0), 3, SimConfig(frames=2000, seed=5150)
        )
        assert result.queries_served + result.queries_discarded == result.queries_total
        assert result.queries_served <= 3 * result.frames_observed
        assert result.packets_success <= result.packets_total

        # Continuity of the push closed form at the single-slot boundary.
        with mp.workdps(40):
            for _ in range(cases):
                mean = float(rng.uniform(0.01, 30.0))
                k_a = mp.mpf(1) + mp.mpf("1e-9")
                m = mp.mpf(mean)
                near = (k_a * mp.e ** (-m / k_a) - mp.e ** (-m)) / (k_a - 1)
                assert abs(float(near) - push_success_prob(1, mean)) < 1e-6

        # Determinism: identical seeds give identical draws and runs.
        seeds = rng.integers(0, 2**32, size=cases)
        for seed in seeds:
            a = sample_poisson_array(12.625, 1, np.random.default_rng(int(seed))).tolist()
            b = sample_poisson_array(12.625, 1, np.random.default_rng(int(seed))).tolist()
            assert a == b
        sim = SimConfig(frames=1000, seed=8080)
        load = TrafficLoad(150.0, 350.0)
        assert simulate(DEFAULT_CONFIG, load, 4, sim) == simulate(DEFAULT_CONFIG, load, 4, sim)


def test_criterion_6_crossover_behavior():
    with criterion(6, "preference crossover between q choices"):
        ratio = 0.5
        value = crossover_push_rate(DEFAULT_CONFIG, 1, 10, ratio)
        assert value is not None and value > 0.0

        def gap(lam_p):
            load = TrafficLoad(ratio * lam_p, lam_p)
            w = Weights.traffic_fair(load)
            low = evaluate_metrics(DEFAULT_CONFIG, load, 1, w).p_s_weighted
            high = evaluate_metrics(DEFAULT_CONFIG, load, 10, w).p_s_weighted
            return low - high

        ceiling = 3.0 * split_for_q(DEFAULT_CONFIG, 1).k_a / T_FRAME
        grid = np.linspace(ceiling / 200, ceiling, 200)
        signs = [math.copysign(1.0, gap(x)) for x in grid]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1
        assert gap(0.5 * value) < 0.0  # q=10 dominates below the crossover
        assert gap(1.5 * value) > 0.0  # q=1 dominates above it
