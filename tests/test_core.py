"""Tests for the Poisson / Erlang-B primitives and the input rule the package checks in core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullpush.core import (
    _MAX_POISSON_MEAN,
    _check_poisson_mean,
    erlang_b,
    poisson_pmf,
    sample_poisson,
    sample_poisson_array,
)
from pullpush.frame import FrameConfig, split_for_q
from pullpush.metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    push_success_prob,
    push_success_prob_given,
    push_throughput,
)
from pullpush.optimize import crossover_push_rate, design_guidelines
from pullpush.simulate import slot_successes

# High-precision reference for pmf(12, 12.625), computed by direct
# summation of mu^k e^(-mu) / k! in 50-digit arithmetic.
PMF_12_12625 = 0.1125827475733585711


def erlang_b_direct(servers: int, load: float) -> float:
    """Direct-summation definition: (E^m/m!) / sum_i E^i/i!."""
    if load == 0.0:
        return 1.0 if servers == 0 else 0.0
    log_terms = [i * math.log(load) - math.lgamma(i + 1) for i in range(servers + 1)]
    peak = max(log_terms)
    terms = [math.exp(t - peak) for t in log_terms]
    return terms[-1] / math.fsum(terms)


class TestPoissonPmf:
    def test_empty_process(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_direct_definition(self):
        assert poisson_pmf(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_high_precision_reference(self):
        assert poisson_pmf(12, 12.625) == pytest.approx(PMF_12_12625, rel=1e-13)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(0, -1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 2.0)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 6.3125, 12.625, 50.0, 100.0])
    def test_partial_sum_reaches_one(self, mean):
        k_top = math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0)
        total = math.fsum(poisson_pmf(k, mean) for k in range(k_top + 1))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert total <= 1.0 + 1e-12

    @given(
        k=st.integers(min_value=0, max_value=400),
        mean=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
    )
    def test_bounded(self, k, mean):
        assert 0.0 <= poisson_pmf(k, mean) <= 1.0


class TestErlangB:
    def test_no_servers(self):
        assert erlang_b(0, 5.0) == 1.0

    def test_no_load(self):
        assert erlang_b(3, 0.0) == 0.0

    def test_two_servers_unit_load(self):
        # (1/2) / (1 + 1 + 1/2) exactly
        assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(2, -0.5)

    @pytest.mark.parametrize("servers", range(0, 26))
    def test_recursion_matches_direct_sum(self, servers):
        for load in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 6.3125, 10.0, 21.08375, 30.0, 45.0, 60.0):
            assert abs(erlang_b(servers, load) - erlang_b_direct(servers, load)) < 1e-12

    @given(
        servers=st.integers(min_value=1, max_value=25),
        load=st.floats(min_value=1e-6, max_value=60.0),
    )
    def test_strictly_decreasing_in_servers(self, servers, load):
        assert erlang_b(servers, load) < erlang_b(servers - 1, load)

    @given(
        servers=st.integers(min_value=1, max_value=25),
        load=st.floats(min_value=1e-6, max_value=50.0),
        bump=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_increasing_in_load(self, servers, load, bump):
        assert erlang_b(servers, load + bump) > erlang_b(servers, load)


class TestSamplePoisson:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert sample_poisson(0.0, rng) == 0

    def test_negative_mean_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_poisson(-0.1, rng)

    def test_mean_bound(self):
        # The largest accepted mean builds a 948805-entry table; one float
        # above it is rejected before a uniform is drawn.
        assert _check_poisson_mean(_MAX_POISSON_MEAN) == 1e9
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^mean must be at most 1e\+09 per frame, got 1000000000.0000001$"):
            sample_poisson_array(math.nextafter(1e9, math.inf), 3, rng)
        assert rng.bit_generator.state == state

    def test_identical_seeds_identical_sequences(self):
        a = np.random.default_rng(1234)
        b = np.random.default_rng(1234)
        draws_a = [sample_poisson(6.3125, a) for _ in range(1000)]
        draws_b = [sample_poisson(6.3125, b) for _ in range(1000)]
        assert draws_a == draws_b

    def test_array_matches_seeded_rerun(self):
        a = sample_poisson_array(12.625, 5000, np.random.default_rng(77))
        b = sample_poisson_array(12.625, 5000, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(2024)
        draws = sample_poisson_array(12.625, 1_000_000, rng)
        sigma = math.sqrt(12.625 / 1_000_000)
        assert abs(draws.mean() - 12.625) < 4.0 * sigma

    def test_variance_matches_mean(self):
        rng = np.random.default_rng(99)
        draws = sample_poisson_array(6.3125, 1_000_000, rng)
        assert draws.var() == pytest.approx(6.3125, rel=0.05)

    def test_small_mean_distribution(self):
        # Frequency of zero should match exp(-mean).
        rng = np.random.default_rng(5)
        draws = sample_poisson_array(0.98475, 500_000, rng)
        p0 = np.mean(draws == 0)
        assert p0 == pytest.approx(math.exp(-0.98475), abs=4 * math.sqrt(0.37 * 0.63 / 500_000))

    @pytest.mark.parametrize("mean", [0.0, 0.98475, 12.625, 2525.25])
    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_consumes_one_uniform_per_variate(self, mean, size):
        used, twin = np.random.default_rng(31), np.random.default_rng(31)
        sample_poisson_array(mean, size, used)
        twin.random(size)
        assert used.bit_generator.state == twin.bit_generator.state

    def test_law_at_heavy_mean(self):
        # 2525.25 packets per frame: lambda_p = 1e5/s in the reference frame.
        mean, n = 2525.25, 400_000
        draws = sample_poisson_array(mean, n, np.random.default_rng(2525))
        assert abs(draws.mean() - mean) < 4.0 * math.sqrt(mean / n)
        # Var of the sample variance of Poisson(m): (m + 2 m^2) / n.
        assert abs(draws.var() - mean) < 4.0 * math.sqrt((mean + 2.0 * mean**2) / n)
        p_low = math.fsum(poisson_pmf(k, mean) for k in range(int(mean) + 1))
        assert abs(np.mean(draws <= int(mean)) - p_low) < 4.0 * math.sqrt(p_low * (1.0 - p_low) / n)

    @given(mean=st.floats(min_value=0.0, max_value=80.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_nonnegative_and_deterministic(self, mean, seed):
        x = sample_poisson(mean, np.random.default_rng(seed))
        y = sample_poisson(mean, np.random.default_rng(seed))
        assert x == y >= 0


class TestInputRule:
    """Slot and server counts are ints, rates, means and durations finite reals."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: split_for_q(FrameConfig(), True), "q"),
            (lambda: evaluate_metrics(FrameConfig(), TrafficLoad(1.0, 1.0), True), "q"),
            (lambda: erlang_b(2, "3"), "mean"),
            (lambda: erlang_b(2.0, 1.0), "servers"),
            (lambda: erlang_b(np.int64(3), 1.0), "servers"),
            (lambda: poisson_pmf(2.0, 1.0), "k"),
            (lambda: poisson_pmf(1, "3"), "mean"),
            (lambda: push_success_prob(True, 1.0), "k_a"),
            (lambda: push_success_prob(5, "1e2"), "mean"),
            (lambda: push_success_prob_given(2, True), "n_packets"),
            (lambda: push_throughput(5, 1.0, True), "t_frame_s"),
            (lambda: push_throughput(5, 1.0, "0.02"), "t_frame_s"),
            (lambda: Weights(True, False), "w_q"),
            (lambda: Weights("0.5", 0.5), "w_q"),
            (lambda: TrafficLoad(10**400, 0.0), "lambda_q"),
            (lambda: crossover_push_rate(FrameConfig(), 1, 5, True), "load_ratio"),
            (lambda: design_guidelines(FrameConfig(), "0.5"), "p_th"),
            (lambda: slot_successes(np.array([3, 4]), 0, np.random.default_rng(1)), "k_a"),
            (lambda: sample_poisson_array(1.0, 2.5, np.random.default_rng(1)), "size"),
            (lambda: sample_poisson_array(1e15, 1, np.random.default_rng(1)), "mean"),
            (lambda: FrameConfig(frame_slots=10**400), "frame_slots"),
        ],
    )
    def test_bad_input_is_a_value_error_naming_the_argument(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call()

    def test_float64_rates_give_the_same_bits(self):
        mean, t_frame = 10.1, FrameConfig().t_frame_s
        for f, args in [(erlang_b, (10, mean)), (push_success_prob, (50, mean)),
                        (push_throughput, (50, mean, t_frame)), (poisson_pmf, (7, mean))]:
            as_float64 = [np.float64(a) if isinstance(a, float) else a for a in args]
            assert float(f(*as_float64)).hex() == f(*args).hex()
        draws = sample_poisson_array(np.float64(mean), 1000, np.random.default_rng(4))
        assert np.array_equal(draws, sample_poisson_array(mean, 1000, np.random.default_rng(4)))
        load = TrafficLoad(np.float64(250.0), np.float64(500.0))
        assert evaluate_metrics(FrameConfig(), load, 10) == evaluate_metrics(
            FrameConfig(), TrafficLoad(250.0, 500.0), 10)
