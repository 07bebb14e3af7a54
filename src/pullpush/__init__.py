"""Shared-frame coexistence of pull (wake-up query) and push (framed ALOHA)
IoT traffic: closed-form metrics, frame-split optimization, and a
reproducible Monte Carlo simulator."""

__version__ = "0.3.0"

from .core import erlang_b, poisson_pmf, sample_poisson_array
from .frame import FrameConfig, FrameSplit, InfeasibleSplitError, q_max, split_for_q
from .metrics import (
    MetricsReport,
    TrafficLoad,
    Weights,
    evaluate_metrics,
    mean_served_queries,
    push_success_prob,
    push_success_prob_given,
    push_throughput,
    query_success_prob,
)
from .optimize import (
    GuidelineRow,
    InfeasibleTargetError,
    OptimizationResult,
    QTableRow,
    crossover_push_rate,
    design_guidelines,
    max_push_rate,
    max_query_rate,
    optimal_q,
)
from .simulate import (
    SimConfig,
    SimResult,
    ValidationRow,
    simulate,
    slot_successes,
    validate_grid,
)

__all__ = [
    "__version__",
    "erlang_b",
    "poisson_pmf",
    "sample_poisson_array",
    "FrameConfig",
    "FrameSplit",
    "InfeasibleSplitError",
    "q_max",
    "split_for_q",
    "MetricsReport",
    "TrafficLoad",
    "Weights",
    "evaluate_metrics",
    "mean_served_queries",
    "push_success_prob",
    "push_success_prob_given",
    "push_throughput",
    "query_success_prob",
    "GuidelineRow",
    "InfeasibleTargetError",
    "OptimizationResult",
    "QTableRow",
    "crossover_push_rate",
    "design_guidelines",
    "max_push_rate",
    "max_query_rate",
    "optimal_q",
    "SimConfig",
    "SimResult",
    "ValidationRow",
    "simulate",
    "slot_successes",
    "validate_grid",
]
