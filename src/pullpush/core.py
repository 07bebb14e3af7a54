"""Shared numerical primitives: Poisson pmf, Poisson sampling, Erlang-B.

All three are written for stability at the loads this package deals with
(per-frame means into the thousands, server counts up to the 10^6 rows the
optimizer allows): the pmf is evaluated in log space, Erlang-B uses the
forward recursion instead of factorial ratios, and sampling inverts a
tabled CDF with one uniform per variate, by indexed search: a guide table
per CDF narrows each search to a bracket that one comparison resolves,
except in the few tail bins, which are bisected.
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


def _fill_guide(cdf: np.ndarray, guide: np.ndarray) -> None:
    """Write the guides of the CDF rows ``cdf`` into the rows of ``guide``,
    each bins + 1 entries, bins a power of two: guide[j] = #{s : cdf[s] <= j/bins}
    for j < bins, and guide[bins] = the first s with cdf[s] == 1. cdf[s] <= j/bins
    holds exactly when ceil(cdf[s] * bins) <= j, and both products are exact.
    Rows are taken ~2^13 entries at a time, so temporaries stay small."""
    bins = guide.shape[1] - 1
    step = max(1, (1 << 13) // cdf.shape[1])
    for start in range(0, len(cdf), step):
        rows = cdf[start : start + step]
        at = np.ceil(rows * bins).astype(np.intp)
        at += np.arange(0, len(rows) * (bins + 1), bins + 1)[:, None]  # row r counts into bins r*(bins+1)...
        counts = np.bincount(at.ravel(), minlength=len(rows) * (bins + 1)).reshape(len(rows), bins + 1)
        guide[start : start + step, :bins] = np.cumsum(counts[:, :bins], axis=1)
        guide[start : start + step, bins] = np.count_nonzero(rows < 1.0, axis=1)


def _guide_bins(width: int) -> int:
    """The power of two >= ``width``: the guide bins of a CDF row that wide."""
    return 1 << (width - 1).bit_length()


def _invert_guided(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Per i, #{s : cdf[rows[i], s] <= u[i]}, the smallest s with u[i] < cdf[rows[i], s].

    Indexed search (Chen & Asau 1974; Devroye 1986, III.2.4): ``cdf`` is a
    CDF row, or a table of rows (with ``rows`` then), each nondecreasing and
    ending at 1 > u; ``guide`` holds the row guides of :func:`_fill_guide`.
    With j = floor(u * bins), exact as bins is a power of two, the answer lies
    in [guide[j], guide[j + 1]]; a bracket of width <= 1 is resolved by one
    comparison, and only the wider ones, all in tail bins, are bisected.
    """
    bins = guide.shape[-1] - 1
    width = cdf.shape[-1]
    cdf, guide = cdf.ravel(), guide.ravel()
    at = np.multiply(u, bins, out=np.empty(len(u), dtype=np.intp), casting="unsafe")  # floor(u * bins)
    if rows is not None:
        at += rows * (bins + 1)
    lo = guide[at]
    at += 1
    span = guide[at]
    span -= lo  # the bracket width, >= 0
    at[...] = lo  # the answer's lower bound, as an offset in its row
    if rows is not None:
        base = rows * width  # row starts in the flat table
        at += base
    wide = np.flatnonzero(span > 1)
    first = at[wide]
    at += cdf[at] <= u
    if len(wide):
        u_wide = u[wide]
        last = first + span[wide]
        for _ in range(int(span.max()).bit_length()):
            mid = (first + last) >> 1
            right = cdf[mid] <= u_wide
            first = np.where(right, mid + 1, first)
            last = np.where(right, last, mid)
        at[wide] = first
    if rows is not None:
        at -= base
    return at


def _poisson_window(mean: float) -> tuple[int, int]:
    """First and last value of Poisson(mean)'s inversion window."""
    half = _WINDOW_SIGMAS * math.sqrt(mean) + _WINDOW_PAD
    return max(0, math.floor(mean - half)), math.ceil(mean + half)


@functools.lru_cache(maxsize=2)  # a run draws from two means, chunk after chunk
def _inversion_table(mean: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(first value, read-only CDF, read-only guide) of Poisson(mean) over its
    inversion window.

    The window is [mean - 15 sqrt(mean) - 60, mean + 15 sqrt(mean) + 60]
    clipped at 0; the pmf is evaluated in log space and the CDF normalized
    by its last entry, which is therefore exactly 1. The guide is the
    CDF's for :func:`_invert_guided`.
    """
    first, last = _poisson_window(mean)
    ks = np.arange(first, last + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in ks.tolist()])
    cdf = np.cumsum(np.exp(ks * math.log(mean) - mean - log_fact))
    cdf /= cdf[-1]
    guide = np.empty(_guide_bins(len(cdf)) + 1, dtype=np.min_scalar_type(len(cdf) - 1))
    _fill_guide(cdf[None], guide[None])
    cdf.flags.writeable = guide.flags.writeable = False
    return first, cdf, guide


def sample_poisson_array(mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws from Poisson(mean), by inversion of the CDF; one draw is
    ``sample_poisson_array(mean, 1, rng)``.

    Consumes exactly ``size`` uniforms from ``rng`` (``rng.random(size)``),
    one per variate and also when ``mean == 0``, and inverts one CDF table
    with them by indexed search, so a sequence of calls is reproducible from
    the seed alone. A mean above _MAX_POISSON_MEAN is rejected before any
    uniform is drawn.
    """
    mean = _check_poisson_mean(mean)
    _check_int("size", size, 0)
    u = rng.random(size)
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    first, cdf, guide = _inversion_table(mean)
    draws = _invert_guided(cdf, guide, u)  # the smallest k with u < CDF(k)
    draws += first
    return draws


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
