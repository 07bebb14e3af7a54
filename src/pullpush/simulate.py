"""Frame-stepped Monte Carlo of the shared pull/push frame.

Dynamics per frame: queries arriving in frame t are accumulated and the
first q of them (FIFO) are served in frame t+1; the rest are discarded
(one-frame deadline). A served query never fails, because wake-up is
ID-addressed and scheduled. Independently, each of the frame's push
packets picks one of the k_a access slots uniformly and survives iff it
is alone in its slot. The simulator draws the number of such singleton
slots S directly from its exact law given the frame's packet count.

Reproducibility: a run draws from one PCG64 generator keyed by
``numpy.random.SeedSequence(entropy=seed, spawn_key=(0,))``. The stream is
consumed in fixed 32768-frame chunks, in frame order, and each chunk of m
frames takes exactly 3m uniforms in this order:
m for the query batches its frames resolve, m for its packet counts (one
uniform per Poisson variate, see :func:`pullpush.core.sample_poisson_array`)
and m for its singleton counts (one per frame, see :func:`slot_successes`).
Both samplers invert a tabled CDF by indexed search
(:func:`pullpush.core._invert_guided`): each uniform maps to the first
table entry above it, as a bisection of the same table would find.
Results are bitwise reproducible from the seed alone. ``STREAM_VERSION``
names the draw order; it changes whenever a fixed seed gives other draws.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    _CDF_TAIL,
    _check_int,
    _check_poisson_mean,
    _fill_guide,
    _guide_bins,
    _invert_guided,
    _poisson_window,
    sample_poisson_array,
)
from .frame import FrameConfig, split_for_q
from .metrics import MetricsReport, TrafficLoad, evaluate_metrics

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK_FRAMES = 1 << 15  # fixed chunk so memory stays bounded and streams stay aligned
_LAW_CACHE_SIZE = 8  # frame layouts (k_a values) whose singleton law stays built
# Largest singleton law a simulation may build: the bytes of its rows and guide,
# and its build steps, min(n, k_a)^2 for row n (10^9 take ~6 s at k_a = 1000).
_LAW_MAX_BYTES = 1 << 28
_LAW_MAX_STEPS = 10**9

STREAM_VERSION = 2  # order of random draws documented above


@dataclass(frozen=True)
class SimConfig:
    """Run length and seed. The query pipeline starts full: the first frame
    serves a batch that arrived in the frame before it."""

    frames: int = 100_000
    seed: int = 1

    def __post_init__(self):
        _check_int("frames", self.frames, 1)
        _check_int("seed", self.seed, 0, 2**64, must="fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimResult:
    """Empirical estimates plus raw counts and 95% half-widths."""

    p_s_query_hat: float
    p_s_push_hat: float
    throughput_push_hat: float
    n_served_mean_hat: float
    queries_total: int
    queries_served: int
    queries_discarded: int
    packets_total: int
    packets_success: int
    frames_observed: int
    half_width_95: dict[str, float]
    zero_query_sample: bool = False


@dataclass(frozen=True)
class ValidationRow:
    q: int
    lambda_q: float
    lambda_p: float
    analytic: MetricsReport
    empirical: SimResult
    dev_query: float  # empirical - analytic
    dev_push: float
    dev_throughput: float
    flags: tuple[str, ...]


def _stream(seed: int) -> np.random.Generator:
    """The run's generator: PCG64 keyed by ``spawn_key=(0,)``, the key that
    STREAM_VERSION 2 fixed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(ss))


def _singleton_cap(k_a: int) -> int:
    """First n >= k_a with E[S | n] = n (1 - 1/k_a)^(n-1) below _CDF_TAIL.

    E[S | n] bounds P(S >= 1 | n) and decreases in n from n = k_a on, so
    from the cap on S = 0 to within _CDF_TAIL.
    """
    if k_a == 1:
        return 2  # two or more packets in one slot always collide
    step = math.log1p(-1.0 / k_a)
    limit = math.log(_CDF_TAIL)

    def below(n: int) -> bool:
        return math.log(n) + (n - 1) * step < limit

    hi = k_a
    while not below(hi):
        hi *= 2
    return bisect.bisect_left(range(k_a, hi + 1), True, key=below) + k_a


class _SingletonLaw:
    """Exact law of the singleton count S of n packets in k_a slots.

    ``rows[n, s]`` is P(S <= s | n) for s = 0 .. min(n, k_a), padded with
    ones to a common width, and ``guide[n]`` is row n's guide for
    :func:`pullpush.core._invert_guided`. Rows are built by adding one
    packet at a time to the joint law of (occupied slots o, singleton
    slots s): a packet lands in an empty slot with probability
    (k_a - o)/k_a, giving (o + 1, s + 1); in a singleton slot with
    probability s/k_a, giving (o, s - 1); otherwise (o, s) stays. Only the
    reachable states o <= min(n, k_a), s <= o are kept, and rows are built
    on demand up to the largest n asked for, never beyond ``n_cap``.
    ``rows`` and ``guide`` are views of buffers with room for twice the
    rows asked for, up to ``n_cap``, whose pages stay untouched until their
    rows are built: the law moves to new buffers only when the rows asked
    for more than double, or while n < k_a, when the rows widen.
    """

    def __init__(self, k_a: int):
        self.k_a = k_a
        self.n_cap = _singleton_cap(k_a)
        self.joint = np.ones((1, 1))  # P(o, s) after len(rows) - 1 packets
        self.rows = np.ones((1, 1))  # n = 0: S = 0
        self.guide = np.zeros((1, 2), dtype=np.uint8)

    def rows_through(self, n_max: int) -> np.ndarray:
        """The CDF table, built through row ``n_max`` (at most ``n_cap``),
        with ``guide`` built as far."""
        built = len(self.rows) - 1
        if n_max <= built:
            return self.rows
        k, joint = self.k_a, self.joint
        top = min(n_max, k)
        table, guide, unguided = self.rows.base, self.guide.base, built + 1
        if table is None or n_max >= len(table) or top >= table.shape[1]:
            capacity = max(n_max, min(2 * n_max, self.n_cap)) + 1
            table = np.empty((capacity, top + 1))
            table[: built + 1, : self.rows.shape[1]] = self.rows
            table[: built + 1, self.rows.shape[1] :] = 1.0
            guide = np.empty((capacity, _guide_bins(top + 1) + 1), dtype=np.min_scalar_type(top))
            unguided = 0  # the bins may have changed
        o = np.arange(top + 1)[:, None]
        s = np.arange(top + 1)
        stay, single, empty = (o - s) / k, s / k, (k - o) / k
        for row in table[built + 1 : n_max + 1]:
            m = len(joint) - 1  # min(n, k_a) before this packet
            size = min(m + 1, k) + 1
            out = np.zeros((size, size))
            np.multiply(joint, stay[: m + 1, : m + 1], out=out[: m + 1, : m + 1])
            out[: m + 1, :m] += joint[:, 1:] * single[1 : m + 1]
            out[1:, 1:] += joint[: size - 1, : size - 1] * empty[: size - 1]
            joint = out
            row[:size] = np.minimum(np.cumsum(joint.sum(axis=0)), 1.0)
            row[size - 1 :] = 1.0  # u < 1 never inverts past the largest possible S
        _fill_guide(table[unguided : n_max + 1], guide[unguided : n_max + 1])
        self.joint, self.rows, self.guide = joint, table[: n_max + 1], guide[: n_max + 1]
        return self.rows


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _singleton_law(k_a: int) -> _SingletonLaw:
    """The shared, growing law for ``k_a`` slots; built on first use."""
    return _SingletonLaw(k_a)


def _singleton_law_cost(k_a: int, mean_packets: float) -> tuple[int, int, int]:
    """(rows, bytes, build steps) of the singleton law that draws at this
    per-frame packet mean may need: packet counts reach at most the top of
    the Poisson inversion window, and rows never pass ``n_cap``."""
    rows = min(_singleton_cap(k_a), _poisson_window(mean_packets)[1])
    top = min(rows, k_a)
    guide_bytes = (_guide_bins(top + 1) + 1) * np.min_scalar_type(top).itemsize
    steps = top * (top + 1) * (2 * top + 1) // 6 + (rows - top) * top * top
    return rows, rows * (8 * (top + 1) + guide_bytes), steps


def _check_simulation(config: FrameConfig, load: TrafficLoad, q: int) -> None:
    """Reject, before any draw, what a simulation cannot run: an infeasible q,
    a per-frame mean the sampler rejects, or a singleton law over budget."""
    k_a = split_for_q(config, q).k_a
    _check_poisson_mean(load.mean_queries_per_frame(config.t_frame_s))
    mean_p = _check_poisson_mean(load.mean_packets_per_frame(config.t_frame_s))
    rows, size, steps = _singleton_law_cost(k_a, mean_p)
    if size > _LAW_MAX_BYTES or steps > _LAW_MAX_STEPS:
        raise ValueError(
            f"lambda_p={load.lambda_p!r} at k_a={k_a} needs a singleton law of {rows} rows, "
            f"{size} bytes and {steps} build steps; the budget is {_LAW_MAX_BYTES} bytes "
            f"and {_LAW_MAX_STEPS} steps"
        )


def slot_successes(packet_counts: np.ndarray, k_a: int, rng: np.random.Generator) -> np.ndarray:
    """Per-frame count of packets that landed alone in their slot.

    Each frame's singleton count is drawn from its exact law given the
    frame's packet count n (clamped at the law's ``n_cap``), by indexed
    search of one uniform per frame: ``rng.random(len(packet_counts))``.
    """
    law = _singleton_law(_check_int("k_a", k_a, 1))
    counts = np.asarray(packet_counts, dtype=np.int64)
    n = np.minimum(counts, law.n_cap)
    table = law.rows_through(int(n.max(initial=0)))  # grows law.guide as far
    return _invert_guided(table, law.guide, rng.random(len(counts)), n)


@dataclass
class _RunStats:
    frames: int
    queries_total: int = 0
    queries_served: int = 0
    served_sumsq: float = 0.0
    packets_total: int = 0
    packets_success: int = 0
    push_w_sum: float = 0.0
    push_w_sumsq: float = 0.0
    succ_sumsq: float = 0.0

    def estimates(self, t_frame_s: float) -> dict[str, float]:
        return {
            "p_s_query": self.queries_served / self.queries_total if self.queries_total else 1.0,
            "p_s_push": self.push_w_sum / self.frames,
            "throughput_push": self.packets_success / (self.frames * t_frame_s),
            "n_served_mean": self.queries_served / self.frames,
        }


def _simulate_one(config: FrameConfig, load: TrafficLoad, q: int, sim: SimConfig) -> _RunStats:
    split = split_for_q(config, q)
    rng = _stream(sim.seed)
    t_frame = config.t_frame_s
    mean_q = load.mean_queries_per_frame(t_frame)
    mean_p = load.mean_packets_per_frame(t_frame)
    frames = sim.frames
    stats = _RunStats(frames=frames)

    # Query pipeline: the batch arriving in frame t is resolved in frame
    # t+1, so observed frame j resolves the batch of the frame before it,
    # for j = 0 that of a frame run before observation starts. Each chunk
    # draws the batches its frames resolve.
    for start in range(0, frames, _CHUNK_FRAMES):
        size = min(_CHUNK_FRAMES, frames - start)
        resolved = sample_poisson_array(mean_q, size, rng)
        served = np.minimum(resolved, q)
        stats.queries_total += int(resolved.sum())
        stats.queries_served += int(served.sum())
        stats.served_sumsq += float((served * served).sum())

        n_p = sample_poisson_array(mean_p, size, rng)
        succ = slot_successes(n_p, split.k_a, rng)
        w = np.where(n_p > 0, succ / np.maximum(n_p, 1), 1.0)
        stats.packets_total += int(n_p.sum())
        stats.packets_success += int(succ.sum())
        stats.push_w_sum += float(w.sum())
        stats.push_w_sumsq += float((w * w).sum())
        stats.succ_sumsq += float((succ * succ).sum())
    return stats


def _sample_half_width(total: float, sumsq: float, n: int) -> float:
    """95% half-width of a mean of n per-frame samples."""
    if n < 2:
        return 0.0
    var = max(sumsq - total * total / n, 0.0) / (n - 1)
    return _Z95 * math.sqrt(var / n)


def _merge(total: _RunStats, t_frame_s: float) -> SimResult:
    estimates = total.estimates(t_frame_s)
    zero_query = total.queries_total == 0
    p_query = estimates["p_s_query"]
    hw = {
        "p_s_query": 0.0 if zero_query else _Z95 * math.sqrt(p_query * (1.0 - p_query) / total.queries_total),
        "p_s_push": _sample_half_width(total.push_w_sum, total.push_w_sumsq, total.frames),
        "throughput_push": (
            _sample_half_width(float(total.packets_success), total.succ_sumsq, total.frames) / t_frame_s
        ),
        "n_served_mean": _sample_half_width(float(total.queries_served), total.served_sumsq, total.frames),
    }

    return SimResult(
        **{f"{key}_hat": value for key, value in estimates.items()},
        queries_total=total.queries_total,
        queries_served=total.queries_served,
        queries_discarded=total.queries_total - total.queries_served,
        packets_total=total.packets_total,
        packets_success=total.packets_success,
        frames_observed=total.frames,
        half_width_95=hw,
        zero_query_sample=zero_query,
    )


def simulate(config: FrameConfig, load: TrafficLoad, q: int, sim: SimConfig) -> SimResult:
    """Simulate ``sim.frames`` frames from the stream of ``sim.seed``.

    Estimators: served/total for query success; the frame average of
    (1 if no packets else successes/packets) for push success, which is
    the sample analogue of the analytic average over the packet count;
    total successes/(frames * T_frame) for throughput. Half-widths are
    normal-approximation 95% intervals over the independent per-frame
    samples. A load whose singleton law would pass ``_LAW_MAX_BYTES`` or
    ``_LAW_MAX_STEPS`` is rejected before any draw.
    """
    _check_simulation(config, load, q)
    return _merge(_simulate_one(config, load, q, sim), config.t_frame_s)


def validate_grid(
    config: FrameConfig,
    q_list: list[int],
    lambda_q_list: list[float],
    lambda_p_list: list[float],
    sim: SimConfig,
) -> tuple[list[ValidationRow], dict]:
    """Simulate every (q, lambda_q, lambda_p) grid point against the closed forms.

    Grid point i runs with seed ``sim.seed + i`` so each row is independent
    and individually reproducible with :func:`simulate`. Every point's load,
    seed, closed forms, per-frame sampler means and singleton-law budget
    are checked before the first simulation runs. A push metric is flagged
    when |empirical - analytic| exceeds 4 half-widths; the query metric only
    when empirical falls more than 4 half-widths BELOW the analytic value,
    which is a lower bound of the finite-population truth.
    """
    if not (q_list and lambda_q_list and lambda_p_list):
        raise ValueError("q_list, lambda_q_list and lambda_p_list must be nonempty")
    points = [
        (q, TrafficLoad(lambda_q=lam_q, lambda_p=lam_p))
        for q in q_list
        for lam_q in lambda_q_list
        for lam_p in lambda_p_list
    ]
    analytics = [evaluate_metrics(config, load, q) for q, load in points]
    for q, load in points:
        _check_simulation(config, load, q)
    sims = [replace(sim, seed=sim.seed + index) for index in range(len(points))]
    rows = []
    for (q, load), analytic, point_sim in zip(points, analytics, sims):
        empirical = simulate(config, load, q, point_sim)
        dev_query = empirical.p_s_query_hat - analytic.p_s_query
        dev_push = empirical.p_s_push_hat - analytic.p_s_push
        dev_thr = empirical.throughput_push_hat - analytic.throughput_push
        flags = []
        if abs(dev_push) > 4.0 * empirical.half_width_95["p_s_push"]:
            flags.append("push_success_deviation")
        if abs(dev_thr) > 4.0 * empirical.half_width_95["throughput_push"]:
            flags.append("push_throughput_deviation")
        if dev_query < -4.0 * empirical.half_width_95["p_s_query"]:
            flags.append("query_lower_bound_violation")
        rows.append(
            ValidationRow(
                q=q,
                lambda_q=load.lambda_q,
                lambda_p=load.lambda_p,
                analytic=analytic,
                empirical=empirical,
                dev_query=dev_query,
                dev_push=dev_push,
                dev_throughput=dev_thr,
                flags=tuple(flags),
            )
        )
    summary = {
        "points": len(rows),
        "flags": sum(len(r.flags) for r in rows),
        "max_abs_deviation_push": max(abs(r.dev_push) for r in rows),
        "max_lower_bound_violation_query": max(max(-r.dev_query, 0.0) for r in rows),
    }
    return rows, summary
