"""Shared numerical primitives: Poisson pmf, Poisson sampling, Erlang-B.

All three are written for stability at the loads this package deals with
(per-frame means into the thousands, server counts up to the 10^6 rows the
optimizer allows): the pmf is evaluated in log space, Erlang-B uses the
forward recursion instead of factorial ratios, and sampling is table
inversion with one uniform per variate.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

# Poisson inversion window: mean -/+ (15 sqrt(mean) + 60), clipped at 0.
# The mass outside it is far below _CDF_TAIL for every mean.
_WINDOW_SIGMAS = 15.0
_WINDOW_PAD = 60.0

# Tail mass that inversion tables may drop.
_CDF_TAIL = 1e-17

# Largest per-frame mean a sampler accepts: its table then has 948805 entries
# (~0.2 s and ~100 MB to build); the table grows as 30 sqrt(mean).
_MAX_POISSON_MEAN = 1e9

# A real argument must fit a float: larger ints are rejected with the infinities.
_FLOAT_MAX = sys.float_info.max


def _check_int(name: str, value, low: int, high: float = math.inf, must: str | None = None) -> int:
    """``value`` if it is an int, not a bool, in [low, high); else the ValueError
    "{name} must {must}, got {value!r}", ``must`` worded from ``low`` by default."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        must = must or ("be a nonnegative integer" if low == 0 else f"be an integer >= {low}")
        raise ValueError(f"{name} must {must}, got {value!r}")
    return value


def _check_real(name: str, value, positive: bool = False, must: str | None = None) -> float:
    """``float(value)`` if it is an int or float (np.float64 too), not a bool, finite
    and >= 0, or > 0 if ``positive``; else the ValueError worded as in _check_int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (0.0 < value if positive else 0.0 <= value) or not value <= _FLOAT_MAX):
        must = must or f"be finite and {'>' if positive else '>='} 0"
        raise ValueError(f"{name} must {must}, got {value!r}")
    return float(value)


def _check_poisson_mean(mean) -> float:
    """``_check_real("mean", mean)``, also rejecting a mean above _MAX_POISSON_MEAN."""
    mean = _check_real("mean", mean)
    if mean > _MAX_POISSON_MEAN:
        raise ValueError(f"mean must be at most {_MAX_POISSON_MEAN:g} per frame, got {mean!r}")
    return mean


def poisson_pmf(k: int, mean: float) -> float:
    """P(X = k) for X ~ Poisson(mean).

    Evaluated as exp(k*ln(mean) - mean - lgamma(k+1)) so that large k and
    large means neither overflow nor lose the leading digits.
    """
    mean = _check_real("mean", mean)
    _check_int("k", k, 0)
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


@functools.lru_cache(maxsize=2)  # a replication draws from two means, chunk after chunk
def _inversion_table(mean: float) -> tuple[int, np.ndarray]:
    """(first value, read-only CDF) of Poisson(mean) over its inversion window.

    The window is [mean - 15 sqrt(mean) - 60, mean + 15 sqrt(mean) + 60]
    clipped at 0; the pmf is evaluated in log space and the CDF normalized
    by its last entry, which is therefore exactly 1.
    """
    half = _WINDOW_SIGMAS * math.sqrt(mean) + _WINDOW_PAD
    first = max(0, math.floor(mean - half))
    ks = np.arange(first, math.ceil(mean + half) + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in ks.tolist()])
    cdf = np.cumsum(np.exp(ks * math.log(mean) - mean - log_fact))
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return first, cdf


def sample_poisson_array(mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Poisson draws; the array analogue of :func:`sample_poisson`.

    Consumes exactly ``size`` uniforms from ``rng`` (``rng.random(size)``),
    one per variate and also when ``mean == 0``, and inverts one CDF table
    with them, so a sequence of calls is reproducible from the seed alone.
    A mean above _MAX_POISSON_MEAN is rejected before any uniform is drawn.
    """
    mean = _check_poisson_mean(mean)
    _check_int("size", size, 0)
    u = rng.random(size)
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    first, cdf = _inversion_table(mean)
    # The smallest k with u < CDF(k); CDF ends at exactly 1 > u.
    return first + np.searchsorted(cdf, u, side="right")


def sample_poisson(mean: float, rng: np.random.Generator) -> int:
    """One draw from Poisson(mean), by inversion of the CDF.

    Consumes exactly one uniform per call, for any mean.
    """
    return int(sample_poisson_array(mean, 1, rng)[0])


def erlang_b_steps(q_top: int, load):
    """Yield the Erlang-B blocking B(0, load), B(1, load), ..., B(q_top, load).

    Forward recursion B(0) = 1, B(m) = E*B(m-1) / (m + E*B(m-1)); exact in
    exact arithmetic and free of the factorial overflow of the ratio form.
    ``load``, unchecked, is a float or a float64 array (bitwise elementwise).
    """
    b = 1.0
    yield b
    for m in range(1, q_top + 1):
        eb = load * b
        b = eb / (m + eb)
        yield b


def erlang_b_curve(servers: int, load):
    """B(servers, load) for a float or float64-array load, unchecked."""
    for b in erlang_b_steps(servers, load):
        pass
    return b


def erlang_b(servers: int, load: float) -> float:
    """Erlang-B blocking probability B(servers, load), by :func:`erlang_b_steps`."""
    return erlang_b_curve(_check_int("servers", servers, 0), _check_real("mean", load))
