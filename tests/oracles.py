"""Reference formulas that the tests compare the package against.

They restate the model from its definitions, independently of the closed
forms and samplers under test, and check no input: a test passes them only
valid arguments.
"""

import math


def poisson_pmf(k: int, mean: float) -> float:
    """P(X = k) for X ~ Poisson(mean), as exp(k ln(mean) - mean - lgamma(k + 1)),
    so that large k and large means neither overflow nor lose the leading digits."""
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def push_success_prob_given(k_a: int, n_packets: int) -> float:
    """Success probability of a packet when exactly n_packets contend in k_a slots:
    1 if n_packets <= 1, else 0 on a single slot and (1 - 1/k_a)^(n_packets - 1)."""
    if n_packets <= 1:
        return 1.0
    if k_a == 1:
        return 0.0
    return (1.0 - 1.0 / k_a) ** (n_packets - 1)
