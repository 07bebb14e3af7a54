"""Tests for the Poisson / Erlang-B primitives and the input rule the package checks in core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poisson_pmf
from pullpush.core import (
    _MAX_POISSON_MEAN,
    _check_poisson_mean,
    _fill_guide,
    _guide_bins,
    _inversion_table,
    _invert_guided,
    erlang_b,
    sample_poisson_array,
)
from pullpush.frame import FrameConfig, split_for_q
from pullpush.metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    mean_served_queries,
    push_success_prob,
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
    """The oracle of tests/oracles.py, which other tests sum over."""

    def test_empty_process(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_direct_definition(self):
        assert poisson_pmf(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_high_precision_reference(self):
        assert poisson_pmf(12, 12.625) == pytest.approx(PMF_12_12625, rel=1e-13)

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
        assert sample_poisson_array(0.0, 1, rng).tolist() == [0]

    def test_negative_mean_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_poisson_array(-0.1, 1, rng)

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
        draws_a = [sample_poisson_array(6.3125, 1, a).tolist() for _ in range(1000)]
        draws_b = [sample_poisson_array(6.3125, 1, b).tolist() for _ in range(1000)]
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
        [x] = sample_poisson_array(mean, 1, np.random.default_rng(seed)).tolist()
        [y] = sample_poisson_array(mean, 1, np.random.default_rng(seed)).tolist()
        assert x == y >= 0


@st.composite
def cdf_rows(draw, width=None):
    """A nondecreasing row in [0, 1] that ends at 1.0: spread out, clustered
    in one guide bin, with leading zeros, or reaching 1.0 early."""
    if width is None:
        width = draw(st.sampled_from([1, 2, 3, 255, 256, 257]) | st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = _guide_bins(width)
    shape = draw(st.sampled_from(["spread", "cluster", "zeros", "early_one"]))
    if shape == "cluster":  # every entry in one bin, one of them on its edge
        j = int(rng.integers(bins))
        body = (j + rng.random(width - 1)) / bins
        body[: min(1, width - 1)] = j / bins
    else:
        body = rng.random(width - 1)
    row = np.append(np.sort(body), 1.0)
    if shape == "zeros":
        row[: int(rng.integers(width))] = 0.0
    elif shape == "early_one":
        row[int(rng.integers(width)) :] = 1.0
    return row


def guide_of(row):
    guide = np.empty(_guide_bins(len(row)) + 1, dtype=np.min_scalar_type(len(row) - 1))
    _fill_guide(row[None], guide[None])
    return guide


def edge_uniforms(row, rng):
    """Uniforms on every bin edge j/bins and just below it, on every entry of
    ``row`` and just below it, and at random."""
    bins = _guide_bins(len(row))
    edges = np.concatenate([np.arange(bins) / bins, row])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), rng.random(200)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestIndexedSearch:
    """``_invert_guided`` against ``np.searchsorted(row, u, side="right")``."""

    @given(row=cdf_rows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_one_row_equals_searchsorted(self, row, seed):
        u = edge_uniforms(row, np.random.default_rng(seed))
        drawn = _invert_guided(row, guide_of(row), u)
        expected = np.searchsorted(row, u, side="right")
        assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected)

    @given(row=cdf_rows())
    def test_guide_matches_its_definition(self, row):
        guide = guide_of(row)
        bins = len(guide) - 1
        assert np.array_equal(guide[:bins], np.searchsorted(row, np.arange(bins) / bins, side="right"))
        assert guide[bins] == np.argmax(row == 1.0)

    @pytest.mark.parametrize("width, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_guide_type_at_the_uint8_boundary(self, width, dtype):
        assert guide_of(np.linspace(1.0 / width, 1.0, width)).dtype == dtype
        assert _guide_bins(width) >= width > _guide_bins(width) // 2

    @given(data=st.data(), width=st.sampled_from([1, 2, 255, 256, 257]) | st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_table_with_mixed_rows_equals_searchsorted(self, data, width, seed):
        table = np.array(data.draw(st.lists(cdf_rows(width), min_size=1, max_size=6)))
        guide = np.array([guide_of(row) for row in table])
        at_once = np.empty_like(guide)
        _fill_guide(table, at_once)
        assert np.array_equal(at_once, guide)
        rng = np.random.default_rng(seed)
        u = np.concatenate([edge_uniforms(row, rng) for row in table])
        rows = rng.integers(len(table), size=len(u))
        drawn = _invert_guided(table, guide, u, rows)
        expected = np.array([np.searchsorted(table[r], x, side="right") for r, x in zip(rows, u)], dtype=np.intp)
        assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected)

    @pytest.mark.parametrize("mean", [1e-300, 0.25, 12.625, 2525.25, 1e6])
    def test_poisson_table_equals_searchsorted(self, mean):
        first, cdf, guide = _inversion_table(mean)
        u = edge_uniforms(cdf, np.random.default_rng(7))
        assert np.array_equal(_invert_guided(cdf, guide, u), np.searchsorted(cdf, u, side="right"))
        assert np.array_equal(guide, guide_of(cdf))


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
            (lambda: push_success_prob(True, 1.0), "k_a"),
            (lambda: push_success_prob(5, "1e2"), "mean"),
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
            (lambda: mean_served_queries(10, math.inf), "mean"),
        ],
    )
    def test_bad_input_is_a_value_error_naming_the_argument(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            call()

    def test_float64_rates_give_the_same_bits(self):
        mean, t_frame = 10.1, FrameConfig().t_frame_s
        for f, args in [(erlang_b, (10, mean)), (push_success_prob, (50, mean)),
                        (push_throughput, (50, mean, t_frame))]:
            as_float64 = [np.float64(a) if isinstance(a, float) else a for a in args]
            assert float(f(*as_float64)).hex() == f(*args).hex()
        draws = sample_poisson_array(np.float64(mean), 1000, np.random.default_rng(4))
        assert np.array_equal(draws, sample_poisson_array(mean, 1000, np.random.default_rng(4)))
        load = TrafficLoad(np.float64(250.0), np.float64(500.0))
        assert evaluate_metrics(FrameConfig(), load, 10) == evaluate_metrics(
            FrameConfig(), TrafficLoad(250.0, 500.0), 10)
