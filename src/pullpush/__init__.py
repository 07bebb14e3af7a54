"""Shared-frame coexistence of pull (wake-up query) and push (framed ALOHA)
IoT traffic: closed-form metrics, frame-split optimization, and a
reproducible Monte Carlo simulator."""

__version__ = "0.4.0"

from .core import erlang_b, sample_poisson_array
from .frame import FrameConfig, InfeasibleSplitError, q_max, split_for_q
from .metrics import (
    TrafficLoad,
    Weights,
    evaluate_metrics,
    mean_served_queries,
    push_success_prob,
    push_throughput,
    query_success_prob,
)
from .optimize import InfeasibleTargetError, crossover_push_rate, design_guidelines, optimal_q
from .simulate import SimConfig, simulate, validate_grid

__all__ = [
    "__version__",
    "FrameConfig",
    "TrafficLoad",
    "Weights",
    "SimConfig",
    "InfeasibleSplitError",
    "InfeasibleTargetError",
    "q_max",
    "split_for_q",
    "evaluate_metrics",
    "optimal_q",
    "design_guidelines",
    "crossover_push_rate",
    "simulate",
    "validate_grid",
    "erlang_b",
    "query_success_prob",
    "mean_served_queries",
    "push_success_prob",
    "push_throughput",
    "sample_poisson_array",
]
