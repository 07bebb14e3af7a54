"""Output checks for every benchmark op, valid for any workload seed.

Analytic documents are compared with an oracle written here from the
formulas, not from ``pullpush``: Erlang-B as the direct ratio of Poisson
terms (``pullpush`` uses the forward recursion) and the Poisson-averaged
push success in the form e^-m + k(e^-m/k - e^-m)/(k - 1). Agreement is
required to 1e-9. Simulation documents must satisfy their conservation
identities and ``validate``'s documented rule: a push metric may deviate
from the closed form by at most 4 half-widths, and query success may fall
at most 4 half-widths below it.
"""

from __future__ import annotations

import json
import math
import shlex

from workloads import VALIDATE_FRAMES, Op

TOL = 1e-9
RULE_HALF_WIDTHS = 4.0
RULE_OF_THREE = 3.0  # 95% upper bound on a rate after zero events in n trials: 3/n
CROSSOVER_PROBE = 1e-4  # relative offset at which a crossover's sign change is probed
CROSSOVER_GRID = 256  # grid of pullpush.optimize.crossover_push_rate

# Reference frame: the CLI defaults, which no benchmark op overrides.
TAU_S, FRAME_SLOTS, K_W, K_T, K_C = 0.25e-3, 101, 4, 1, 1
T_FRAME = TAU_S * FRAME_SLOTS
Q_MAX = (FRAME_SLOTS - K_C - 1) // (K_W + K_T)
CONFIG_ECHO = {"tau_s": TAU_S, "F": FRAME_SLOTS, "k_w": K_W, "k_t": K_T, "k_c": K_C}


class CheckError(Exception):
    """An output check fired."""


# ---------------------------------------------------------------- oracle

def erlang_b(servers: int, load: float) -> float:
    """(E^q/q!) / sum_{k<=q} E^k/k!, summed in log space."""
    if load == 0.0:
        return 1.0 if servers == 0 else 0.0
    logs = [k * math.log(load) - math.lgamma(k + 1) for k in range(servers + 1)]
    top = max(logs)
    return math.exp(logs[-1] - top) / math.fsum(math.exp(v - top) for v in logs)


def push_success(k_a: int, m: float) -> float:
    if k_a == 1:
        return (1.0 + m) * math.exp(-m)
    return math.exp(-m) + k_a * (math.exp(-m / k_a) - math.exp(-m)) / (k_a - 1)


def k_access(q: int) -> int:
    return FRAME_SLOTS - K_C - q * (K_W + K_T)


def closed_forms(q: int, lam_q: float, lam_p: float) -> dict:
    """Every closed-form metric at one point, with traffic-fair weights."""
    k_a = k_access(q)
    e_q, m = lam_q * T_FRAME, lam_p * T_FRAME
    total = lam_q + lam_p
    w_q = lam_q / total if total else 0.5
    p_query = 1.0 - erlang_b(q, e_q)
    p_push = push_success(k_a, m)
    return {
        "k_a": k_a,
        "t_pull_s": q * (K_W + K_T) * TAU_S,
        "t_push_s": (K_C + k_a) * TAU_S,
        "p_s_query": p_query,
        "n_served_mean": e_q * p_query,
        "p_s_push": p_push,
        "throughput_push": m / T_FRAME * math.exp(-m / k_a),
        "p_s_weighted": w_q * p_query + (1.0 - w_q) * p_push,
    }


# ---------------------------------------------------------------- helpers

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(name: str, got, want: float, tol: float = TOL) -> None:
    _expect(isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want)),
            f"{name}: got {got!r}, oracle {want!r}")


def _flags(argv: tuple[str, ...]) -> dict[str, list[str]]:
    """Flag -> values, for the generated argv (values never start with '--')."""
    out: dict[str, list[str]] = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.setdefault(flag, []).append(argv[i + 1])
            i += 2
        else:
            out.setdefault(flag, [])
            i += 1
    return out


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _gap(q_low: int, q_high: int, ratio: float, lam_p: float) -> float:
    lam_q = ratio * lam_p
    return (closed_forms(q_low, lam_q, lam_p)["p_s_weighted"]
            - closed_forms(q_high, lam_q, lam_p)["p_s_weighted"])


# ---------------------------------------------------------------- analytic ops

def _check_analyze(doc: dict, flags: dict) -> None:
    q = int(flags["--q"][0])
    want = closed_forms(q, float(flags["--lambda-q"][0]), float(flags["--lambda-p"][0]))
    _expect(doc["q"] == q and doc["k_a"] == want["k_a"], f"q/k_a: got {doc['q']}/{doc['k_a']}")
    for key in ("t_pull_s", "t_push_s", "p_s_query", "n_served_mean", "p_s_push",
                "throughput_push", "p_s_weighted"):
        _close(key, doc[key], want[key])


def _check_optimize(doc: dict, flags: dict) -> None:
    lam_q, lam_p = float(flags["--lambda-q"][0]), float(flags["--lambda-p"][0])
    table = doc["per_q_table"]
    _expect([row["q"] for row in table] == list(range(Q_MAX + 1)), "per_q_table does not list q = 0..q_max")
    for row in table:
        want = closed_forms(row["q"], lam_q, lam_p)
        _expect(row["k_a"] == want["k_a"], f"q={row['q']}: k_a {row['k_a']} != {want['k_a']}")
        for key in ("p_s_weighted", "p_s_query", "p_s_push"):
            _close(f"q={row['q']} {key}", row[key], want[key])
    weighted = [row["p_s_weighted"] for row in table]
    best = weighted.index(max(weighted))  # first maximum: ties go to the smallest q
    _expect(doc["q_star"] == best, f"q_star={doc['q_star']}, argmax of per_q_table is {best}")
    _expect(doc["p_s_at_star"] == weighted[best], "p_s_at_star is not the table value at q_star")


def _check_guidelines(doc: dict, flags: dict) -> None:
    targets = [float(v) for v in flags["--p-th"]]
    rows = doc["rows"]
    expected = [(p_th, q) for p_th in targets for q in range(1, Q_MAX + 1)]
    _expect([(r["p_th"], r["q"]) for r in rows] == expected, "rows are not (p_th, q=1..q_max) in order")
    for r in rows:
        q, p_th, k_a = r["q"], r["p_th"], k_access(r["q"])
        e_q, m = r["lambda_q_max"] * T_FRAME, r["lambda_p_max"] * T_FRAME
        where = f"p_th={p_th} q={q}"
        _close(f"{where} query success at lambda_q_max", 1.0 - erlang_b(q, e_q), p_th)
        _close(f"{where} push success at lambda_p_max", push_success(k_a, m), p_th)
        _close(f"{where} n_served_mean", r["n_served_mean"], e_q * (1.0 - erlang_b(q, e_q)))
        _close(f"{where} throughput_push", r["throughput_push"], m / T_FRAME * math.exp(-m / k_a))


def _check_crossover(q_low: int, q_high: int, ratio: float, value) -> None:
    where = f"crossover q={q_low}/{q_high} ratio={ratio}"
    ceiling = 3.0 * k_access(q_low) / T_FRAME
    if value is None:  # no sign change anywhere on the search grid
        grid = [ceiling * (i + 1) / CROSSOVER_GRID for i in range(CROSSOVER_GRID)]
        gaps = [_gap(q_low, q_high, ratio, x) for x in grid]
        for (x, a), b in zip(zip(grid, gaps), gaps[1:]):
            _expect(not (a * b < 0.0 and min(abs(a), abs(b)) > TOL),
                    f"{where}: reported none, but the gap changes sign near {x}")
        return
    _expect(0.0 < value <= ceiling, f"{where}: {value} outside (0, {ceiling}]")
    below = _gap(q_low, q_high, ratio, value * (1.0 - CROSSOVER_PROBE))
    above = _gap(q_low, q_high, ratio, value * (1.0 + CROSSOVER_PROBE))
    _expect(below * above < 0.0 or max(abs(below), abs(above)) <= TOL,
            f"{where}: no sign change at {value} (gap {below!r} below, {above!r} above)")


def _check_sweep(doc: dict, flags: dict) -> None:
    q_list = [int(v) for v in flags["--q-list"][0].split(",")]
    ratios = _floats(flags["--ratio-list"][0])
    lo, hi, steps = flags["--lambda-p-range"][0].split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    rows = doc["rows"]
    _expect(len(rows) == len(q_list) * len(ratios) * steps, f"{len(rows)} sweep rows")
    i = 0
    for q in q_list:
        for ratio in ratios:
            for step in range(steps):
                r = rows[i]
                i += 1
                lam_p = lo + (hi - lo) * step / (steps - 1) if steps > 1 else lo
                _expect(r["q"] == q and r["ratio"] == ratio, f"row {i}: q/ratio out of order")
                _close(f"row {i} lambda_p", r["lambda_p"], lam_p)
                want = closed_forms(q, ratio * r["lambda_p"], r["lambda_p"])["p_s_weighted"]
                _close(f"row {i} p_s_weighted", r["p_s_weighted"], want)
    qs = sorted(set(q_list))
    pairs = [(ratio, a, b) for ratio in ratios for j, a in enumerate(qs) for b in qs[j + 1:]]
    crossovers = doc["crossovers"]
    _expect([(c["ratio"], c["q_low"], c["q_high"]) for c in crossovers] == pairs,
            "crossovers do not list every (ratio, q pair)")
    for c in crossovers:
        _check_crossover(c["q_low"], c["q_high"], c["ratio"], c["lambda_p_cross"])


# ---------------------------------------------------------------- simulation ops

def _rule(name: str, dev: float, half_width: float, n: float, one_sided: bool = False) -> None:
    """validate's rule: |dev| <= 4 half-widths (one-sided: dev >= -4 half-widths).

    A half-width of 0 means every per-frame sample was equal (for example
    no push success at all under heavy load), where the normal interval
    says nothing; the rule then uses the rule-of-three bound 3/n instead.
    """
    scale = half_width if half_width > 0.0 else RULE_OF_THREE / n
    limit = RULE_HALF_WIDTHS * scale
    bad = dev < -limit if one_sided else abs(dev) > limit
    _expect(not bad, f"{name}: deviation {dev!r} beyond {RULE_HALF_WIDTHS:g} x {scale!r}")


def _check_simulate(doc: dict, flags: dict) -> None:
    q = int(flags["--q"][0])
    frames = int(flags["--frames"][0])
    want = closed_forms(q, float(flags["--lambda-q"][0]), float(flags["--lambda-p"][0]))
    total, served = doc["queries_total"], doc["queries_served"]
    packets, success = doc["packets_total"], doc["packets_success"]
    _expect(doc["frames_observed"] == frames, f"frames_observed={doc['frames_observed']}, ran {frames}")
    _expect(0 <= served <= total, f"queries_served={served} > queries_total={total}")
    _expect(doc["queries_discarded"] == total - served, "queries_discarded != total - served")
    _expect(0 <= success <= packets, f"packets_success={success} > packets_total={packets}")
    _expect(doc["zero_query_sample"] == (total == 0), "zero_query_sample disagrees with queries_total")
    _close("p_s_query_hat", doc["p_s_query_hat"], served / total if total else 1.0)
    _close("n_served_mean_hat", doc["n_served_mean_hat"], served / frames)
    _close("throughput_push_hat", doc["throughput_push_hat"], success / (frames * T_FRAME))
    hw = doc["half_width_95"]
    _rule("p_s_push", doc["p_s_push_hat"] - want["p_s_push"], hw["p_s_push"], frames)
    _rule("throughput_push", doc["throughput_push_hat"] - want["throughput_push"],
          hw["throughput_push"], frames * T_FRAME)
    _rule("p_s_query", doc["p_s_query_hat"] - want["p_s_query"], hw["p_s_query"],
          max(total, 1), one_sided=True)


def _check_validate(doc: dict, flags: dict) -> None:
    q = int(flags["--q-list"][0])
    lam_q, lam_p = float(flags["--lambda-q-list"][0]), float(flags["--lambda-p-list"][0])
    frames = VALIDATE_FRAMES
    (row,) = doc["rows"]
    _expect(doc["summary"]["points"] == 1, "summary.points != 1")
    _expect(doc["summary"]["flags"] == len(row["flags"]), "summary.flags != flags raised")
    _expect((row["q"], row["lambda_q"], row["lambda_p"]) == (q, lam_q, lam_p), "row is not the requested point")
    want = closed_forms(q, lam_q, lam_p)
    for key, analytic, hat, hw, dev in (
        ("p_s_query", "p_s_query_analytic", "p_s_query_hat", "hw_query", "dev_query"),
        ("p_s_push", "p_s_push_analytic", "p_s_push_hat", "hw_push", "dev_push"),
        ("throughput_push", "throughput_analytic", "throughput_hat", "hw_throughput", "dev_throughput"),
    ):
        _close(analytic, row[analytic], want[key])
        _close(dev, row[dev], row[hat] - row[analytic])
        _expect(row[hw] >= 0.0, f"{hw} < 0")
    _expect(0.0 <= row["p_s_query_hat"] <= 1.0 and 0.0 <= row["p_s_push_hat"] <= 1.0,
            "a success probability outside [0, 1]")
    _rule("p_s_push", row["dev_push"], row["hw_push"], frames)
    _rule("throughput_push", row["dev_throughput"], row["hw_throughput"], frames * T_FRAME)
    _rule("p_s_query", row["dev_query"], row["hw_query"], frames, one_sided=True)
    _expect(row["flags"] == [], f"validate raised flags {row['flags']}")


_CHECKS = {
    "analyze": _check_analyze,
    "optimize": _check_optimize,
    "guidelines": _check_guidelines,
    "sweep": _check_sweep,
    "simulate": _check_simulate,
    "validate": _check_validate,
}


def check(op: Op, exit_code: int, stdout: str) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
        manifest = doc["manifest"]
        _expect(manifest["command"] == shlex.join(["pullpush", *op.argv]), "manifest.command differs from argv")
        _expect(manifest["config_echo"].items() >= CONFIG_ECHO.items(), "manifest echoes another frame")
        _CHECKS[op.kind](doc, _flags(op.argv))
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed document
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
