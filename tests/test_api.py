"""The package's public names and version.

Removing or adding a name in ``pullpush.__all__`` is an API change: it
must edit the pinned list below, README's "Library" section and the
version in both places.
"""

import ast
import re
from pathlib import Path

import pullpush

ROOT = Path(__file__).parents[1]

PUBLIC = [
    "FrameConfig",
    "InfeasibleSplitError",
    "InfeasibleTargetError",
    "SimConfig",
    "TrafficLoad",
    "Weights",
    "__version__",
    "crossover_push_rate",
    "design_guidelines",
    "erlang_b",
    "evaluate_metrics",
    "mean_served_queries",
    "optimal_q",
    "push_success_prob",
    "push_throughput",
    "q_max",
    "query_success_prob",
    "sample_poisson_array",
    "simulate",
    "split_for_q",
    "validate_grid",
]


def test_public_names_are_pinned():
    assert sorted(pullpush.__all__) == PUBLIC
    assert all(hasattr(pullpush, name) for name in PUBLIC)


def test_version_matches_the_project_metadata():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [pullpush.__version__]


def test_readme_library_section_names_every_public_name():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in PUBLIC if f"`{name}`" not in section] == []


def test_every_definition_is_used_in_the_package_or_public():
    # A module-level function or class that no other code of the package refers
    # to and PUBLIC (pinned to __all__ above) does not list serves only tests; it
    # belongs under tests/.
    defined, used = set(), set()
    for path in Path(pullpush.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                names.discard(stmt.name)
            used |= names
    assert sorted(defined - used - set(PUBLIC)) == []
