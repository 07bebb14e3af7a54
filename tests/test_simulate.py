"""Tests for the Monte Carlo simulator."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from pullpush.core import _CDF_TAIL, _inversion_table, poisson_pmf, sample_poisson_array
from pullpush.frame import FrameConfig, InfeasibleSplitError, split_for_q
from pullpush.metrics import TrafficLoad, push_success_prob, push_throughput, query_success_prob
from pullpush.simulate import (
    _CHUNK_FRAMES,
    _LAW_MAX_BYTES,
    _LAW_MAX_STEPS,
    STREAM_VERSION,
    SimConfig,
    _check_simulation,
    _simulate_one,
    _singleton_cap,
    _singleton_law,
    _singleton_law_cost,
    _SingletonLaw,
    _stream,
    simulate,
    slot_successes,
    validate_grid,
)

DEFAULT_CONFIG = FrameConfig()
T_FRAME = DEFAULT_CONFIG.t_frame_s


def batch_service_success(q, mean):
    """Success probability of the accumulate-then-serve pipeline:
    E[min(n, q)] / mean for n ~ Poisson(mean). Independent oracle for the
    query path of the simulator."""
    if mean == 0.0:
        return 1.0
    cap = int(mean + 20.0 * math.sqrt(mean) + 200.0)
    served = math.fsum(min(n, q) * poisson_pmf(n, mean) for n in range(cap + 1))
    return served / mean


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        sim = SimConfig(frames=2000, seed=42)
        load = TrafficLoad(250.0, 500.0)
        first = simulate(DEFAULT_CONFIG, load, 10, sim)
        second = simulate(DEFAULT_CONFIG, load, 10, sim)
        assert first == second

    def test_different_seeds_differ(self):
        load = TrafficLoad(250.0, 500.0)
        a = simulate(DEFAULT_CONFIG, load, 10, SimConfig(frames=2000, seed=1))
        b = simulate(DEFAULT_CONFIG, load, 10, SimConfig(frames=2000, seed=2))
        assert a.packets_total != b.packets_total or a.queries_total != b.queries_total

    def test_stream_version_2_is_pinned(self):
        # Counts drawn under STREAM_VERSION 2, across a chunk boundary. A
        # change that moves them must bump the version.
        sim = SimConfig(frames=40_000, seed=1)
        result = simulate(DEFAULT_CONFIG, TrafficLoad(250.0, 500.0), 10, sim)
        counts = (result.queries_total, result.queries_served, result.packets_total, result.packets_success)
        assert STREAM_VERSION == 2
        assert counts == (251820, 247637, 503869, 390959)

    def test_stream_construction_is_pinned(self):
        # The documented derivation: PCG64 keyed by spawn_key=(0,).
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=123, spawn_key=(0,)))
        )
        actual = _stream(123)
        assert actual.bit_generator.state == expected.bit_generator.state


class TestSimConfig:
    @pytest.mark.parametrize("field", ["frames", "seed"])
    def test_rejects_bool(self, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: True})


class TestTrivialCases:
    def test_zero_load(self):
        result = simulate(DEFAULT_CONFIG, TrafficLoad(0.0, 0.0), 3, SimConfig(frames=1000, seed=9))
        assert result.queries_total == 0
        assert result.packets_total == 0
        assert result.p_s_push_hat == 1.0
        assert result.p_s_query_hat == 1.0
        assert result.zero_query_sample is True
        assert result.throughput_push_hat == 0.0

    def test_single_frame_zero_load(self):
        result = simulate(DEFAULT_CONFIG, TrafficLoad(0.0, 0.0), 1, SimConfig(frames=1, seed=3))
        assert result.frames_observed == 1
        assert result.queries_total == 0

    def test_first_frame_resolves_a_full_pipeline(self):
        load = TrafficLoad(1e4, 0.0)  # ~252 queries per frame
        result = simulate(DEFAULT_CONFIG, load, 3, SimConfig(frames=1, seed=5))
        assert result.queries_total > 0 and result.queries_served == 3

    def test_infeasible_q_propagates(self):
        with pytest.raises(InfeasibleSplitError):
            simulate(DEFAULT_CONFIG, TrafficLoad(1.0, 1.0), 20, SimConfig(frames=10, seed=1))


class TestConservation:
    def test_query_accounting(self):
        result = simulate(DEFAULT_CONFIG, TrafficLoad(300.0, 200.0), 4, SimConfig(frames=5000, seed=21))
        assert result.queries_served + result.queries_discarded == result.queries_total
        assert result.queries_served <= result.queries_total
        assert result.queries_served <= 4 * result.frames_observed
        assert result.packets_success <= result.packets_total

    def test_per_frame_slot_successes_bounded(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 30, size=2000)
        successes = slot_successes(counts, 7, np.random.default_rng(3))
        assert np.all(successes <= np.minimum(counts, 7))
        assert np.all(successes >= 0)

    def test_identities_hold_across_a_chunk_boundary(self):
        frames = _CHUNK_FRAMES + 17
        result = simulate(DEFAULT_CONFIG, TrafficLoad(300.0, 200.0), 4, SimConfig(frames=frames, seed=22))
        assert result.frames_observed == frames
        assert result.queries_served + result.queries_discarded == result.queries_total
        assert result.queries_served <= 4 * frames
        assert result.packets_success <= result.packets_total

    def test_each_mean_builds_its_inversion_table_once(self):
        # Four chunks draw from the same two means: two builds, six reuses.
        load = TrafficLoad(300.0, 200.0)
        _inversion_table.cache_clear()
        _simulate_one(DEFAULT_CONFIG, load, 4, SimConfig(frames=4 * _CHUNK_FRAMES, seed=5))
        info = _inversion_table.cache_info()
        assert (info.misses, info.hits) == (2, 6)
        _, cdf, guide = _inversion_table(load.mean_packets_per_frame(T_FRAME))
        assert not cdf.flags.writeable  # a shared table cannot be altered by a caller
        assert not guide.flags.writeable

    def test_empty_chunk(self):
        successes = slot_successes(np.zeros(10, dtype=np.int64), 5, np.random.default_rng(0))
        assert np.array_equal(successes, np.zeros(10))


class TestSmallCaseOracle:
    def test_two_packets_two_slots(self):
        # Both packets survive iff their slots differ: P = 1/2 exactly.
        frames = 20000
        successes = slot_successes(np.full(frames, 2), 2, np.random.default_rng(123))
        fraction = successes.sum() / (2.0 * frames)
        # Per-frame outcome is 0 or 2 packets, so the per-packet fraction has
        # std 0.5/sqrt(frames).
        assert abs(fraction - 0.5) < 4.0 * 0.5 / math.sqrt(frames)


def enumerated_singleton_cdf(k, n):
    """P(S <= s | n) by enumerating all k^n slot assignments of n packets."""
    picks = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64).reshape(k**n, n)
    occupancy = np.stack([(picks == slot).sum(axis=1) for slot in range(k)], axis=1)
    singles = (occupancy == 1).sum(axis=1)
    return np.cumsum(np.bincount(singles, minlength=min(n, k) + 1)) / k**n


def singleton_pmf(k, n):
    row = _singleton_law(k).rows_through(n)[n][: min(n, k) + 1]
    return np.diff(row, prepend=0.0)


# k_a of the reference frame at q = 0, 2, 10 and 19.
REFERENCE_K_A = [split_for_q(DEFAULT_CONFIG, q).k_a for q in (0, 2, 10, 19)]


class TestSingletonLaw:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_match_enumeration(self, k):
        table = _SingletonLaw(k).rows_through(7)
        for n in range(8):
            exact = enumerated_singleton_cdf(k, n)
            assert np.max(np.abs(table[n, : len(exact)] - exact)) <= 1e-12, (k, n)
            assert np.all(table[n, len(exact) - 1 :] == 1.0)

    @pytest.mark.parametrize("k", REFERENCE_K_A)
    def test_row_means_match_closed_form(self, k):
        n_top = min(_singleton_cap(k), 3000)
        table = _singleton_law(k).rows_through(n_top)
        for n in range(n_top + 1):
            mean = math.fsum(1.0 - table[n])  # E[S] = sum over s of P(S > s)
            expected = n * (1.0 - 1.0 / k) ** (n - 1) if n else 0.0
            assert abs(mean - expected) <= 1e-11 * max(1.0, expected), (k, n)

    @pytest.mark.parametrize("k", [1, 2, 5, 50, 100, 1000])
    def test_cap_is_first_negligible_count(self, k):
        def expected_singletons(n):
            return n * (1.0 - 1.0 / k) ** (n - 1)

        cap = _singleton_cap(k)
        assert cap >= k
        assert expected_singletons(cap) < _CDF_TAIL
        assert cap == k or expected_singletons(cap - 1) >= _CDF_TAIL

    def test_extension_equals_one_build(self):
        grown = _SingletonLaw(7)
        grown.rows_through(3)
        grown.rows_through(20)
        grown.rows_through(12)
        assert np.array_equal(grown.rows, _SingletonLaw(7).rows_through(20))
        # Inside a buffer's spare rows and past them: rows and guide as if built at once.
        for n in (21, 30, 41, 42, 90, 400):
            grown.rows_through(n)
            once = _SingletonLaw(7)
            assert np.array_equal(grown.rows, once.rows_through(n))
            assert np.array_equal(grown.guide, once.guide)

    @pytest.mark.parametrize("k", [1, 5, 50, 100, 255, 256, 300])
    def test_draws_equal_row_searchsorted(self, k):
        # The same uniforms, inverted row by row without the guide.
        counts = np.concatenate([np.arange(3 * k + 3), sample_poisson_array(1.5 * k, 3000, np.random.default_rng(k))])
        drawn = slot_successes(counts, k, np.random.default_rng(k + 1))
        law = _singleton_law(k)
        u = np.random.default_rng(k + 1).random(len(counts))
        n = np.minimum(counts, law.n_cap)
        expected = [np.searchsorted(law.rows[i], x, side="right") for i, x in zip(n, u)]
        assert np.array_equal(drawn, expected)
        assert law.guide.dtype == (np.uint8 if k < 256 else np.uint16)

    def test_counts_beyond_the_cap_never_succeed_and_stay_bounded(self):
        k = 5
        successes = slot_successes(np.array([0, 10**9, 2, 10**12]), k, np.random.default_rng(1))
        assert successes[1] == successes[3] == 0
        assert len(_singleton_law(k).rows) <= _singleton_cap(k) + 1

    def test_one_uniform_per_frame(self):
        counts = np.array([0, 1, 40, 7, 2525, 3])
        used, twin = np.random.default_rng(12), np.random.default_rng(12)
        slot_successes(counts, 50, used)
        twin.random(len(counts))
        assert used.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize(
        "n,k", [(1, 1), (2, 1), (3, 2), (7, 4), (5, 5), (20, 5), (38, 90), (50, 50), (126, 50), (300, 100)]
    )
    def test_samples_follow_the_table(self, n, k):
        frames = 20_000
        drawn = slot_successes(np.full(frames, n), k, np.random.default_rng(1000 * n + k))
        observed = np.bincount(drawn, minlength=min(n, k) + 1)
        expected = frames * singleton_pmf(k, n)
        assert observed[expected == 0.0].sum() == 0
        # Pool neighbouring values of S until each cell expects >= 5 frames.
        cells_o, cells_e, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5.0:
                cells_o.append(acc_o)
                cells_e.append(acc_e)
                acc_o = acc_e = 0.0
        cells_o[-1] += acc_o
        cells_e[-1] += acc_e
        if len(cells_o) == 1:
            return  # S is (numerically) certain: nothing left to test
        chi2 = sum((o - e) ** 2 / e for o, e in zip(cells_o, cells_e))
        dof = len(cells_o) - 1
        p_value = float(mpmath.gammainc(dof / 2.0, chi2 / 2.0, mpmath.inf, regularized=True))
        assert p_value > 1e-4, (n, k, chi2, dof)


class TestMemory:
    def test_heavy_chunk_peak_is_small(self):
        # Mean 2525 packets per frame: the parent per-packet sampler peaked
        # at ~1.68 GB here. The table build is part of the measured call.
        k_a = split_for_q(DEFAULT_CONFIG, 0).k_a
        counts = sample_poisson_array(2525.0, _CHUNK_FRAMES, np.random.default_rng(8))
        _singleton_law.cache_clear()
        tracemalloc.start()
        try:
            slot_successes(counts, k_a, np.random.default_rng(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_replication_peak_does_not_grow_with_frames(self):
        # 12 more chunks would add 3 MB per frames-long int64 array.
        load = TrafficLoad(250.0, 10.0)

        def peak(frames):
            tracemalloc.start()
            try:
                _simulate_one(DEFAULT_CONFIG, load, 10, SimConfig(frames=frames, seed=4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(_CHUNK_FRAMES)  # builds the singleton law outside the comparison
        assert peak(16 * _CHUNK_FRAMES) - peak(4 * _CHUNK_FRAMES) < 2**20


class TestLawBudget:
    """The singleton law a simulation needs is bounded before any draw."""

    @pytest.mark.parametrize(
        "frame_slots, lambda_p, cost",
        [
            (101, 1e5, (3339, 3339 * (8 * 101 + 129), 100 * 101 * 201 // 6 + 3239 * 100**2)),
            (101, 0.0, (60, 60 * (8 * 61 + 65), 60 * 61 * 121 // 6)),
            (1001, 400.0, (311, 311 * (8 * 312 + 2 * 513), 311 * 312 * 623 // 6)),
            (10**7, 1e-4, (68, 68 * (8 * 69 + 129), 68 * 69 * 137 // 6)),  # k_a near 10^7, 0.25 packets/frame
            (1001, 4e5, (49939, 49939 * (8 * 1001 + 2 * 1025), 1000 * 1001 * 2001 // 6 + 48939 * 1000**2)),
        ],
    )
    def test_cost_estimate(self, frame_slots, lambda_p, cost):
        config = FrameConfig(frame_slots=frame_slots)
        k_a = split_for_q(config, 0).k_a
        assert _singleton_law_cost(k_a, lambda_p * config.t_frame_s) == cost

    def test_estimate_covers_the_built_law(self):
        # Reference frame, lambda_p = 1e5/s, q = 0: the heavy_push benchmark's top point.
        k_a, mean = 100, 1e5 * T_FRAME
        rows, size, _ = _singleton_law_cost(k_a, mean)
        law = _singleton_law(k_a)
        law.rows_through(int(sample_poisson_array(mean, 20000, np.random.default_rng(3)).max()))
        assert len(law.rows) <= rows + 1
        assert law.rows[:rows].nbytes + law.guide[:rows].nbytes <= size

    def test_heavy_point_accepted_and_large_frame_rejected(self):
        _check_simulation(DEFAULT_CONFIG, TrafficLoad(400.0, 1e5), 0)
        assert _LAW_MAX_BYTES == 2**28 and _LAW_MAX_STEPS == 10**9
        with pytest.raises(ValueError, match=r"^lambda_p=400000.0 at k_a=1000 needs a singleton law of 49939 rows"):
            simulate(FrameConfig(frame_slots=1001), TrafficLoad(0.0, 4e5), 0, SimConfig(frames=10))

    def test_other_rejections_come_first(self):
        config = FrameConfig(frame_slots=1001)
        with pytest.raises(InfeasibleSplitError):
            _check_simulation(config, TrafficLoad(0.0, 4e5), 1000)
        with pytest.raises(ValueError, match="^mean must be at most"):
            _check_simulation(config, TrafficLoad(1e12, 4e5), 0)


class TestEstimatorConsistency:
    @pytest.mark.parametrize(
        "q,lambda_q,lambda_p",
        [(10, 250.0, 500.0), (2, 39.0, 835.0), (19, 10.0, 100.0)],
    )
    def test_push_estimator_converges(self, q, lambda_q, lambda_p):
        sim = SimConfig(frames=1_000_000, seed=1001)
        result = simulate(DEFAULT_CONFIG, TrafficLoad(lambda_q, lambda_p), q, sim)
        k_a = DEFAULT_CONFIG.frame_slots - DEFAULT_CONFIG.k_c - q * DEFAULT_CONFIG.slots_per_service
        analytic = push_success_prob(k_a, lambda_p * T_FRAME)
        se = result.half_width_95["p_s_push"] / 1.959963984540054
        assert abs(result.p_s_push_hat - analytic) < 4.0 * se

    def test_query_estimator_matches_batch_service_oracle(self):
        q, lambda_q = 2, 39.0
        sim = SimConfig(frames=200_000, seed=2002)
        result = simulate(DEFAULT_CONFIG, TrafficLoad(lambda_q, 0.0), q, sim)
        oracle = batch_service_success(q, lambda_q * T_FRAME)
        se = result.half_width_95["p_s_query"] / 1.959963984540054
        assert abs(result.p_s_query_hat - oracle) < 4.0 * se
        # And the closed form is a lower bound of the batch-service truth.
        assert oracle >= query_success_prob(q, lambda_q * T_FRAME)

    def test_query_bound_tightens_under_heavy_traffic(self):
        # The infinite-population bound converges to the batch-service truth
        # as the load grows past the service capacity.
        q = 2
        gaps = [
            batch_service_success(q, mean) - query_success_prob(q, mean)
            for mean in (2.525, 10.1, 40.0)
        ]
        assert all(g >= 0.0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]


class TestHalfWidths:
    def test_keys_and_positivity(self):
        result = simulate(DEFAULT_CONFIG, TrafficLoad(250.0, 500.0), 10, SimConfig(frames=4000, seed=31))
        assert set(result.half_width_95) == {
            "p_s_query",
            "p_s_push",
            "throughput_push",
            "n_served_mean",
        }
        assert all(v > 0.0 for v in result.half_width_95.values())

    def test_push_intervals_cover(self):
        # 200 seeds of 6000 frames: the share of 95% intervals that cover the
        # analytic push values lies in a band around 0.95 (binomial sd ~0.015).
        q, load = 10, TrafficLoad(250.0, 500.0)
        k_a = split_for_q(DEFAULT_CONFIG, q).k_a
        mean_p = load.lambda_p * T_FRAME
        truth = {
            "p_s_push": push_success_prob(k_a, mean_p),
            "throughput_push": push_throughput(k_a, mean_p, T_FRAME),
        }
        hits = dict.fromkeys(truth, 0)
        for seed in range(200):
            result = simulate(DEFAULT_CONFIG, load, q, SimConfig(frames=6000, seed=seed))
            for key, value in truth.items():
                hits[key] += abs(getattr(result, f"{key}_hat") - value) <= result.half_width_95[key]
        assert all(0.90 <= count / 200 <= 0.99 for count in hits.values()), hits


class TestValidateGrid:
    def test_small_grid_structure(self):
        sim = SimConfig(frames=4000, seed=51)
        rows, summary = validate_grid(DEFAULT_CONFIG, [2, 10], [100.0], [500.0], sim)
        assert len(rows) == 2
        assert summary["points"] == 2
        assert summary["flags"] == sum(len(r.flags) for r in rows)
        for row in rows:
            assert row.dev_push == pytest.approx(
                row.empirical.p_s_push_hat - row.analytic.p_s_push, abs=1e-15
            )

    def test_rows_reproducible_via_point_seeds(self):
        sim = SimConfig(frames=3000, seed=77)
        rows, _ = validate_grid(DEFAULT_CONFIG, [2], [100.0], [500.0, 900.0], sim)
        for index, row in enumerate(rows):
            load = TrafficLoad(row.lambda_q, row.lambda_p)
            rerun = simulate(DEFAULT_CONFIG, load, row.q, SimConfig(frames=3000, seed=77 + index))
            assert rerun == row.empirical

    def test_zero_load_point_agrees_exactly(self):
        sim = SimConfig(frames=500, seed=5)
        rows, summary = validate_grid(DEFAULT_CONFIG, [2], [0.0], [0.0], sim)
        row = rows[0]
        assert row.dev_query == 0.0
        assert row.dev_push == 0.0
        assert row.flags == ()
        assert summary["flags"] == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_grid(DEFAULT_CONFIG, [], [1.0], [1.0], SimConfig(frames=10, seed=1))
