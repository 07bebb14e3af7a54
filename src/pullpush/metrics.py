"""Closed-form performance metrics for one (frame, load, q) design point.

Query service is modelled as an M/D/q/0 loss system, so the success
probability is 1 minus the Erlang-B blocking at the per-frame query load.
That is a lower bound, not a tight one: in the default frame it reads 0.781
against the simulated pipeline's exact 0.871 at q=10, lambda_q=400/s, and
0.525 against 0.649 at q=2, lambda_q=100/s. The simulator is the ground truth.
This module is the only one that maps blocking to success, in three forms
that agree bit for bit: :func:`query_success_steps` (every q up to a bound,
in one recursion pass), :func:`query_success_curve` (one q, float or array
mean, unchecked) and :func:`query_success_prob` (one q, checked).

Push access is framed ALOHA over k_a slots on a collision channel: a
packet survives iff it is alone in its slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import erlang_b, erlang_b_curve, erlang_b_steps, _check_int, _check_real
from .frame import FrameConfig, split_for_q

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TrafficLoad:
    """Arrival rates: lambda_q [queries/s] and lambda_p [packets/s]."""

    lambda_q: float
    lambda_p: float

    def __post_init__(self):
        _check_real("lambda_q", self.lambda_q)
        _check_real("lambda_p", self.lambda_p)

    def mean_queries_per_frame(self, t_frame_s: float) -> float:
        return self.lambda_q * t_frame_s

    def mean_packets_per_frame(self, t_frame_s: float) -> float:
        return self.lambda_p * t_frame_s


@dataclass(frozen=True)
class Weights:
    """Convex weights for the combined objective; must sum to 1."""

    w_q: float
    w_p: float

    def __post_init__(self):
        if max(_check_real("w_q", self.w_q), _check_real("w_p", self.w_p)) > 1.0:
            raise ValueError(f"weights must lie in [0, 1], got ({self.w_q!r}, {self.w_p!r})")
        if abs(self.w_q + self.w_p - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {self.w_q + self.w_p!r}")

    @classmethod
    def traffic_fair(cls, load: TrafficLoad) -> "Weights":
        """Weights proportional to the arrival rates; (1/2, 1/2) at zero load."""
        total = _check_real("lambda_q + lambda_p", load.lambda_q + load.lambda_p, must="be finite")
        if total == 0.0:
            return cls(0.5, 0.5)
        return cls(load.lambda_q / total, load.lambda_p / total)


@dataclass(frozen=True)
class MetricsReport:
    """All closed-form metrics for one (config, load, q) point."""

    q: int
    k_a: int
    p_s_query: float
    n_served_mean: float  # queries/frame
    p_s_push: float
    throughput_push: float  # packets/s
    p_s_weighted: float


def query_success_prob(q: int, mean_queries: float) -> float:
    """Probability a query is served: 1 - B(q, mean_queries)."""
    return 1.0 - erlang_b(q, mean_queries)  # by name: the benchmark tracer counts erlang_b calls


def query_success_curve(q: int, m):
    """:func:`query_success_prob`, bitwise, at a float or float64-array mean m, unchecked."""
    return 1.0 - erlang_b_curve(q, m)  # not via query_success_steps: a nested generator is slower


def query_success_steps(q_top: int, m):
    """Yield :func:`query_success_curve` at q = 0, 1, ..., q_top, bitwise, from one
    Erlang-B pass, at a float or float64-array mean m, unchecked."""
    for b in erlang_b_steps(q_top, m):
        yield 1.0 - b


def mean_served_queries(q: int, mean_queries: float) -> float:
    """Mean successfully served queries per frame (Poisson thinning)."""
    return mean_queries * query_success_prob(q, mean_queries)


def push_success_prob_given(k_a: int, n_packets: int) -> float:
    """Success probability of a packet when exactly n_packets contend.

    0 if k_a = 1 and n_packets > 1; (1 - 1/k_a)^(n_packets - 1) if
    k_a > 1 and n_packets >= 1; 1 otherwise (n_packets <= 1 with a single
    slot, or an empty frame).
    """
    _check_int("k_a", k_a, 1)
    _check_int("n_packets", n_packets, 0)
    if n_packets <= 1:
        return 1.0
    if k_a == 1:
        return 0.0
    return (1.0 - 1.0 / k_a) ** (n_packets - 1)


def _exp(x):
    """math.exp of a float or per element of a 1-d array (np.exp can differ in the last bit)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)
    return math.exp(x)


def push_success_curve(k_a: int, m):
    """:func:`push_success_prob`, bitwise, at a float or float64-array mean m, unchecked."""
    if k_a == 1:
        return (1.0 + m) * _exp(-m)
    return (k_a * _exp(-m / k_a) - _exp(-m)) / (k_a - 1)


def push_success_prob(k_a: int, mean_packets: float) -> float:
    """Success probability averaged over a Poisson packet count.

    (1 + m) e^{-m} for a single slot. For k_a > 1 the series sums to
    (k_a e^{-m/k_a} - e^{-m}) / (k_a - 1); this form is algebraically the
    same as e^{-m} (k_a e^{(k_a-1)m/k_a} - 1)/(k_a - 1) but cannot
    overflow at large m.
    """
    return push_success_curve(_check_int("k_a", k_a, 1), _check_real("mean", mean_packets))


def push_throughput(k_a: int, mean_packets: float, t_frame_s: float) -> float:
    """Successfully delivered packets per second: (m / T) e^{-m/k_a}."""
    _check_int("k_a", k_a, 1)
    _check_real("t_frame_s", t_frame_s, positive=True)
    m = _check_real("mean", mean_packets)
    return m / t_frame_s * math.exp(-m / k_a)


def evaluate_metrics(
    config: FrameConfig,
    load: TrafficLoad,
    q: int,
    weights: Weights | None = None,
) -> MetricsReport:
    """Evaluate every metric for one design point.

    Default weights are traffic-fair: w_q = lambda_q / (lambda_q + lambda_p),
    degenerating to (1/2, 1/2) at zero load.
    """
    split = split_for_q(config, q)
    w = Weights.traffic_fair(load) if weights is None else weights
    t_frame = config.t_frame_s
    mean_q = load.mean_queries_per_frame(t_frame)
    mean_p = load.mean_packets_per_frame(t_frame)
    p_query = query_success_prob(q, mean_q)
    p_push = push_success_prob(split.k_a, mean_p)
    return MetricsReport(
        q=q,
        k_a=split.k_a,
        p_s_query=p_query,
        n_served_mean=mean_q * p_query,
        p_s_push=p_push,
        throughput_push=push_throughput(split.k_a, mean_p, t_frame),
        p_s_weighted=w.w_q * p_query + w.w_p * p_push,
    )


def weighted_success_sweep(config: FrameConfig, q: int, ratio: float, lambda_p):
    """``evaluate_metrics(config, TrafficLoad(ratio * x, x), q).p_s_weighted``,
    bitwise, at a float x or at each x of a nondecreasing float64 array ``lambda_p``.

    The rates, their per-frame means and their traffic-fair weights are monotone in x, so
    they are valid at every x iff at the last one, the only point checked; a float x is its
    own last point.
    """
    k_a = split_for_q(config, q).k_a
    is_array = isinstance(lambda_p, np.ndarray)
    top = float(lambda_p[-1]) if is_array else lambda_p
    w = Weights.traffic_fair(TrafficLoad(ratio * top, top))
    t_frame = config.t_frame_s
    _check_real("mean", ratio * top * t_frame)
    _check_real("mean", top * t_frame)
    lambda_q = ratio * lambda_p
    p_query = query_success_curve(q, lambda_q * t_frame)
    p_push = push_success_curve(k_a, lambda_p * t_frame)
    if not is_array:
        return w.w_q * p_query + w.w_p * p_push
    total = lambda_q + lambda_p
    w_q = np.divide(lambda_q, total, out=np.full_like(total, 0.5), where=total > 0.0)
    w_p = np.divide(lambda_p, total, out=np.full_like(total, 0.5), where=total > 0.0)
    return w_q * p_query + w_p * p_push
