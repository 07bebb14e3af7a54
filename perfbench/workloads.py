"""Seeded op streams for the three benchmark workloads.

An op is one CLI command, given as the argv ``pullpush.cli.main`` takes.
Ops come in rounds: each round has a fixed mix of command kinds and draws
its parameters from ``(workload, seed, round index)`` alone, so the same
seed gives the same ops, and a run that stops at a round boundary has
seen the same cost mix on every seed. Seeds move the points, not the mix.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

# Reference frame (the CLI defaults): q_max = 19, T_frame = 25.25 ms.
Q_MAX = 19
LAMBDA_MAX = 3000.0  # the paper's load range, per second
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Sim grid of the acceptance suite (README, "validate" example).
GRID_Q = (2, 10, 19)
GRID_LAMBDA_Q = (10.0, 100.0, 400.0)
GRID_LAMBDA_P = (100.0, 500.0, 1500.0)
VALIDATE_FRAMES = 100_000  # validate's default, which the sim_reference ops keep

HEAVY_FRAMES = 20_000
HEAVY_Q = (0, 10, 19)
HEAVY_STRATA = 11  # log-strata of lambda_p in [1e3, 1e5], plus the top point


class Op(NamedTuple):
    kind: str  # CLI subcommand
    argv: tuple[str, ...]
    seed: int | None  # per-op simulator seed; None for analytic ops


def _num(x: float) -> str:
    return repr(round(x, 3))


def _load(rng: random.Random) -> list[str]:
    return ["--lambda-q", _num(rng.uniform(1.0, LAMBDA_MAX)),
            "--lambda-p", _num(rng.uniform(1.0, LAMBDA_MAX))]


def _design_round(rng: random.Random) -> list[Op]:
    """20 ops: 3 analyze, 9 optimize, 5 guidelines, 3 sweep --crossovers.

    Latencies when this benchmark was added (2-core Xeon, Python 3.11):
    analyze ~1.3 ms, optimize ~1.5 ms, guidelines ~1.3 ms + 1.6 ms per
    target, sweep ~1.5 ms + 5 ms per ratio. Sorted,
    optimize spans the 15th-60th percentile, so the median falls well
    inside it; the 3-ratio sweeps are the top 5%, which holds the tail
    percentile (p99 or higher in any run of 1000 ops or more).
    """
    ops = []
    for _ in range(3):
        argv = ["analyze", *_load(rng), "--q", str(rng.randint(0, Q_MAX))]
        ops.append(Op("analyze", tuple(argv), None))
    for _ in range(9):
        ops.append(Op("optimize", ("optimize", *_load(rng)), None))
    for n_targets in (1, 2, 3, 1, 2):
        argv = ["guidelines"]
        for _ in range(n_targets):
            argv += ["--p-th", _num(rng.uniform(0.5, 0.99))]
        ops.append(Op("guidelines", tuple(argv), None))
    for n_ratios in (1, 2, 3):
        q_low, q_high = sorted(rng.sample(range(Q_MAX + 1), 2))
        ratios = ",".join(_num(rng.uniform(0.1, 2.0)) for _ in range(n_ratios))
        lo, hi = _num(rng.uniform(10.0, 100.0)), _num(rng.uniform(1500.0, LAMBDA_MAX))
        argv = ["sweep", "--q-list", f"{q_low},{q_high}", "--ratio-list", ratios,
                "--lambda-p-range", f"{lo}:{hi}:60", "--crossovers"]
        ops.append(Op("sweep", tuple(argv), None))
    rng.shuffle(ops)
    return ops


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _sim_reference_round(rng: random.Random) -> list[Op]:
    """The 27 grid points, each a single-point validate, in seeded order."""
    ops = []
    for q in GRID_Q:
        for lam_q in GRID_LAMBDA_Q:
            for lam_p in GRID_LAMBDA_P:
                seed = _seed(rng)
                argv = ("validate", "--q-list", str(q), "--lambda-q-list", _num(lam_q),
                        "--lambda-p-list", _num(lam_p), "--seed", str(seed))
                ops.append(Op("validate", argv, seed))
    rng.shuffle(ops)
    return ops


def _heavy_push_round(rng: random.Random, offset: float) -> list[Op]:
    """12 simulate ops: lambda_p = 10**(3 + 2x) at x = (i + offset)/11 and x = 1.

    The offset turns by the golden ratio from round to round, so a few
    rounds cover the log range evenly, and the top point fixes peak RSS.
    """
    xs = [(i + offset) / HEAVY_STRATA for i in range(HEAVY_STRATA)] + [1.0]
    ops = []
    for x in xs:
        seed = _seed(rng)
        argv = ("simulate", "--q", str(rng.choice(HEAVY_Q)),
                "--lambda-q", _num(rng.uniform(10.0, 400.0)),
                "--lambda-p", _num(10.0 ** (3.0 + 2.0 * x)),
                "--frames", str(HEAVY_FRAMES), "--seed", str(seed))
        ops.append(Op("simulate", argv, seed))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("design_tables", "sim_reference", "heavy_push")


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Ops of round ``index``; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "design_tables":
        return _design_round(rng)
    if workload == "sim_reference":
        return _sim_reference_round(rng)
    if workload == "heavy_push":
        offset = (random.Random(f"{workload}/{seed}").random() + index * GOLDEN) % 1.0
        return _heavy_push_round(rng, offset)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of rounds 0, 1, 2, ..."""
    index = 0
    while True:
        yield round_ops(workload, seed, index)
        index += 1
