"""Frame-design procedures: best q, rate ceilings, guideline tables, crossovers.

The q search is exhaustive (the domain has at most q_max + 1 points and the
weighted objective is not guaranteed unimodal) and takes every q's query
success from one pass of ``metrics.query_success_steps``. A rate ceiling,
pull or push, is one search: the rate doubles from slots / T_frame until the
success curve of q servers or k_a access slots falls to the target, then is
bisected. A crossover is a grid scan of the weighted-success gap whose first
bracket is then bisected; scan and bisection use one evaluator,
:func:`weighted_success_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import _check_real
from .frame import FrameConfig, q_max, split_for_q
# perfbench/tracer.py counts calls to the closed forms by these names; it is the
# only user of evaluate_metrics and query_success_prob here.
from .metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    mean_served_queries,
    push_success_curve,
    push_success_prob,
    push_throughput,
    query_success_curve,
    query_success_prob,
    query_success_steps,
    weighted_success_sweep,
)

_BISECT_REL_TOL = 1e-12
_BISECT_MAX_ITER = 200
_CROSSOVER_REL_TOL = 1e-6
_CROSSOVER_GRID = 256


class InfeasibleTargetError(ValueError):
    """No arrival rate can meet the requested success target."""


class QTableRow(NamedTuple):
    q: int
    p_s_weighted: float
    p_s_query: float
    p_s_push: float
    k_a: int


@dataclass(frozen=True)
class OptimizationResult:
    q_star: int
    p_s_at_star: float
    per_q_table: tuple[QTableRow, ...]


@dataclass(frozen=True)
class GuidelineRow:
    q: int
    lambda_q_max: float  # queries/s
    lambda_p_max: float  # packets/s
    n_served_mean: float  # queries/frame, at lambda_q_max
    throughput_push: float  # packets/s, at lambda_p_max


def optimal_q(
    config: FrameConfig,
    load: TrafficLoad,
    weights: Weights | None = None,
) -> OptimizationResult:
    """Exhaustive scan of q in [0, q_max]; ties go to the smallest q."""
    w = Weights.traffic_fair(load) if weights is None else weights
    mean_p = _check_real("mean", load.mean_packets_per_frame(config.t_frame_s))
    mean_q = _check_real("mean", load.mean_queries_per_frame(config.t_frame_s))
    table = []
    for q, p_query in enumerate(query_success_steps(q_max(config), mean_q)):
        k_a = split_for_q(config, q).k_a
        p_push = push_success_prob(k_a, mean_p)
        table.append(QTableRow(q, w.w_q * p_query + w.w_p * p_push, p_query, p_push, k_a))
    best = max(table, key=lambda row: row.p_s_weighted)  # the first of equal maxima
    return OptimizationResult(q_star=best.q, p_s_at_star=best.p_s_weighted, per_q_table=tuple(table))


def _check_p_th(p_th: float) -> None:
    if _check_real("p_th", p_th, positive=True) >= 1.0:
        raise ValueError(f"p_th must lie strictly inside (0, 1), got {p_th!r}")


def _max_rate(config: FrameConfig, slots: int, curve: Callable[[int, float], float], p_th: float) -> float:
    """Largest arrival rate [1/s] with curve(slots, rate * T_frame) >= p_th, for a
    curve strictly decreasing from 1; bisected to relative width _BISECT_REL_TOL."""
    t_frame = config.t_frame_s
    hi = slots / t_frame
    while curve(slots, hi * t_frame) > p_th:
        hi *= 2.0
        if hi > 1e300:
            raise InfeasibleTargetError("success target is never crossed on the swept range")
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if curve(slots, mid * t_frame) > p_th:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
    return 0.5 * (lo + hi)


def max_query_rate(config: FrameConfig, q: int, p_th: float) -> float:
    """Largest query arrival rate [1/s] whose success probability meets p_th."""
    _check_p_th(p_th)
    split_for_q(config, q)  # feasibility check, raises on bad q
    if q == 0:
        raise InfeasibleTargetError("q=0 serves no queries, no arrival rate meets a target")
    return _max_rate(config, q, query_success_curve, p_th)


def max_push_rate(config: FrameConfig, q: int, p_th: float) -> float:
    """Largest packet arrival rate [1/s] whose success probability meets p_th."""
    _check_p_th(p_th)
    return _max_rate(config, split_for_q(config, q).k_a, push_success_curve, p_th)


def design_guidelines(config: FrameConfig, p_th: float) -> list[GuidelineRow]:
    """One row per q in [1, q_max]: the rate ceilings at the target and the
    served-query mean / push throughput attained there."""
    _check_p_th(p_th)
    t_frame = config.t_frame_s
    rows = []
    for q in range(1, q_max(config) + 1):
        k_a = split_for_q(config, q).k_a
        lam_q = _max_rate(config, q, query_success_curve, p_th)
        lam_p = _max_rate(config, k_a, push_success_curve, p_th)
        rows.append(GuidelineRow(q, lam_q, lam_p, mean_served_queries(q, lam_q * t_frame),
                                 push_throughput(k_a, lam_p * t_frame, t_frame)))
    return rows


def crossover_push_rate(
    config: FrameConfig,
    q_low: int,
    q_high: int,
    load_ratio: float,
    lambda_p_ceiling: float | None = None,
) -> float | None:
    """Packet rate where the preference between q_low and q_high flips.

    Sweeps lambda_p over (0, ceiling] with lambda_q = load_ratio * lambda_p
    held proportional and traffic-fair weights; returns the first sign
    change of weighted(q_low) - weighted(q_high), refined by bisection to
    relative width 1e-6, or None when one choice dominates the whole range.
    A tie is not a sign change: a gap of exactly 0.0, as where both choices'
    weighted success underflows to 0, is skipped in the scan, and the
    bisection keeps only a strict sign at its lower end.
    The default ceiling puts the mean packet count at 3x the access slots
    of q_low.
    """
    if not (0 <= q_low < q_high):
        raise ValueError(f"need 0 <= q_low < q_high, got ({q_low!r}, {q_high!r})")
    _check_real("load_ratio", load_ratio)
    k_a_low = split_for_q(config, q_low).k_a
    ceiling = 3.0 * k_a_low / config.t_frame_s if lambda_p_ceiling is None else lambda_p_ceiling
    ceiling = _check_real("lambda_p_ceiling", ceiling, positive=True)
    grid = np.linspace(ceiling / _CROSSOVER_GRID, ceiling, _CROSSOVER_GRID)
    gaps = (weighted_success_sweep(config, q_low, load_ratio, grid)
            - weighted_success_sweep(config, q_high, load_ratio, grid)).tolist()
    signed = [(x, math.copysign(1.0, g)) for x, g in zip(grid.tolist(), gaps) if g != 0.0]
    bracket = next(((lo, hi, s) for (lo, s), (hi, t) in zip(signed, signed[1:]) if s != t), None)
    if bracket is None:
        return None
    lo, hi, sign = bracket
    while hi - lo > _CROSSOVER_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        g = (weighted_success_sweep(config, q_low, load_ratio, mid)
             - weighted_success_sweep(config, q_high, load_ratio, mid))
        if sign * g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
