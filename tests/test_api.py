"""The package's public names and version.

Removing or adding a name in ``pullpush.__all__`` is an API change: it
must edit the pinned list below and bump the version in both places.
"""

import re
from pathlib import Path

import pullpush

PUBLIC = [
    "FrameConfig",
    "FrameSplit",
    "GuidelineRow",
    "InfeasibleSplitError",
    "InfeasibleTargetError",
    "MetricsReport",
    "OptimizationResult",
    "QTableRow",
    "SimConfig",
    "SimResult",
    "TrafficLoad",
    "ValidationRow",
    "Weights",
    "__version__",
    "crossover_push_rate",
    "design_guidelines",
    "erlang_b",
    "evaluate_metrics",
    "max_push_rate",
    "max_query_rate",
    "mean_served_queries",
    "optimal_q",
    "poisson_pmf",
    "push_success_prob",
    "push_success_prob_given",
    "push_throughput",
    "q_max",
    "query_success_prob",
    "sample_poisson_array",
    "simulate",
    "slot_successes",
    "split_for_q",
    "validate_grid",
]


def test_public_names_are_pinned():
    assert sorted(pullpush.__all__) == PUBLIC
    assert all(hasattr(pullpush, name) for name in PUBLIC)


def test_version_matches_the_project_metadata():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [pullpush.__version__]
