"""Command-line interface: point analysis, q optimization, design guidelines,
load sweeps, and Monte Carlo simulation/validation.

Outputs are machine-readable: a JSON document on stdout by default, CSV to
``--csv PATH`` (with a ``PATH.manifest.json`` sidecar) or to stdout with
``--format csv`` (manifest then goes to stderr). Every document carries a
manifest sufficient to reproduce it. Exit codes: 0 success, 2 usage or
config error, 3 infeasible design point, 4 validation flags under
``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import shlex
import sys
import os
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from .frame import FrameConfig, InfeasibleSplitError, split_for_q
from .metrics import TrafficLoad, Weights, evaluate_metrics, weighted_success_sweep
from .optimize import (
    InfeasibleTargetError,
    crossover_push_rate,
    design_guidelines,
    optimal_q,
)
from .simulate import STREAM_VERSION, SimConfig, simulate, validate_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

SEED_ENV_VAR = "PULLPUSH_SEED"
DEFAULT_SEED = 1

_CONFIG_DEFAULTS = {"tau_s": 0.25e-3, "F": 101, "k_w": 4, "k_t": 1, "k_c": 1}
_CONFIG_FIELD_TYPES = {"tau_s": (int, float), "F": int, "k_w": int, "k_t": int, "k_c": int}

MAX_SWEEP_ROWS = 10**6
MAX_CROSSOVER_SEARCHES = 10**4


# ---------------------------------------------------------------- helpers

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (0.0 <= value < float("inf")):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (0.0 < value < float("inf")):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text}")
    return value


def _probability_open(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"expected a value strictly inside (0, 1), got {text}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {text}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text}")
    if not values:
        raise argparse.ArgumentTypeError("list must be nonempty")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list, got {text}")
    if not values:
        raise argparse.ArgumentTypeError("list must be nonempty")
    return values


def _range_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:steps, got {text}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected min:max:steps with numeric parts, got {text}")
    if steps < 1 or hi < lo or lo < 0.0:
        raise argparse.ArgumentTypeError("range must satisfy 0 <= min <= max and steps >= 1")
    return lo, hi, steps


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_FIELD_TYPES:
            raise ValueError(f"config file {path}: unknown field '{key}'")
        expected = _CONFIG_FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            kind = "an integer" if expected is int else "a number"
            raise ValueError(f"config file {path}: field '{key}': expected {kind}, got {value!r}")
    return data


def resolve_frame_config(args: argparse.Namespace) -> FrameConfig:
    """Precedence: flag > config file > built-in defaults."""
    params = dict(_CONFIG_DEFAULTS)
    if args.config:
        params.update(_load_config_file(args.config))
    for attr, key in (
        ("tau_s", "tau_s"),
        ("frame_slots", "F"),
        ("k_w", "k_w"),
        ("k_t", "k_t"),
        ("k_c", "k_c"),
    ):
        value = getattr(args, attr)
        if value is not None:
            params[key] = value
    try:
        return FrameConfig(
            tau_s=float(params["tau_s"]),
            frame_slots=params["F"],
            k_w=params["k_w"],
            k_t=params["k_t"],
            k_c=params["k_c"],
        )
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from exc


def _config_echo(config: FrameConfig) -> dict:
    return {
        "tau_s": config.tau_s,
        "F": config.frame_slots,
        "k_w": config.k_w,
        "k_t": config.k_t,
        "k_c": config.k_c,
    }


def _manifest(argv: Sequence[str], params: dict, seed: int | None = None) -> dict:
    """Manifest of one document; simulation commands (those with a seed)
    also record the RNG stream version their draws follow."""
    manifest = {
        "tool_version": __version__,
        "command": shlex.join(["pullpush", *argv]),
        "config_echo": params,
        "seed": seed,
    }
    if seed is not None:
        manifest["stream_version"] = STREAM_VERSION
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _resolve_weights(args: argparse.Namespace, load: TrafficLoad) -> Weights:
    if getattr(args, "w_q", None) is None:
        return Weights.traffic_fair(load)
    return Weights(w_q=args.w_q, w_p=1.0 - args.w_q)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}")
    return DEFAULT_SEED


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _csv_value(value):
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return value


def _write_csv(rows: list[dict], columns: list[str], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_value(row[key]) for key in columns])


def _emit_rows(doc: dict, rows: list[dict], columns: list[str], args: argparse.Namespace) -> None:
    """JSON doc to stdout; CSV to --csv or, with --format csv, to stdout."""
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_csv(rows, columns, fh)
        with open(args.csv + ".manifest.json", "w") as fh:
            json.dump(doc["manifest"], fh, indent=2)
            fh.write("\n")
        _print_json(doc)
    elif getattr(args, "format", "json") == "csv":
        _write_csv(rows, columns, sys.stdout)
        print(json.dumps(doc["manifest"], indent=2), file=sys.stderr)
    else:
        _print_json(doc)


# ---------------------------------------------------------------- commands

def _cmd_analyze(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    weights = _resolve_weights(args, load)
    report = evaluate_metrics(config, load, args.q, weights)
    split = split_for_q(config, args.q)
    params = _config_echo(config) | {
        "lambda_q": load.lambda_q,
        "lambda_p": load.lambda_p,
        "q": args.q,
        "w_q": weights.w_q,
        "w_p": weights.w_p,
    }
    doc = {
        "manifest": _manifest(argv, params),
        "q": report.q,
        "k_a": report.k_a,
        "t_pull_s": split.t_pull_s,
        "t_push_s": split.t_push_s,
        "p_s_query": report.p_s_query,
        "n_served_mean": report.n_served_mean,
        "p_s_push": report.p_s_push,
        "throughput_push": report.throughput_push,
        "p_s_weighted": report.p_s_weighted,
    }
    _print_json(doc)
    return EXIT_OK


_OPTIMIZE_COLUMNS = ["q", "p_s_weighted", "p_s_query", "p_s_push", "k_a"]


def _cmd_optimize(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    weights = _resolve_weights(args, load)
    result = optimal_q(config, load, weights)
    rows = [row._asdict() for row in result.per_q_table]
    params = _config_echo(config) | {
        "lambda_q": load.lambda_q,
        "lambda_p": load.lambda_p,
        "w_q": weights.w_q,
        "w_p": weights.w_p,
    }
    doc = {
        "manifest": _manifest(argv, params),
        "q_star": result.q_star,
        "p_s_at_star": result.p_s_at_star,
        "per_q_table": rows,
    }
    _emit_rows(doc, rows, _OPTIMIZE_COLUMNS, args)
    return EXIT_OK


_GUIDELINE_COLUMNS = ["p_th", "q", "lambda_q_max", "lambda_p_max", "n_served_mean", "throughput_push"]


def _cmd_guidelines(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    rows = []
    for p_th in args.p_th:
        for row in design_guidelines(config, p_th):
            rows.append({"p_th": p_th} | asdict(row))
    params = _config_echo(config) | {"p_th": list(args.p_th)}
    doc = {"manifest": _manifest(argv, params), "rows": rows}
    _emit_rows(doc, rows, _GUIDELINE_COLUMNS, args)
    return EXIT_OK


_SWEEP_COLUMNS = ["q", "ratio", "lambda_p", "p_s_weighted"]


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    lo, hi, steps = args.lambda_p_range
    qs = sorted(set(args.q_list))
    searches = len(args.ratio_list) * len(qs) * (len(qs) - 1) // 2 if args.crossovers else 0
    if len(args.q_list) * len(args.ratio_list) * steps > MAX_SWEEP_ROWS or searches > MAX_CROSSOVER_SEARCHES:
        raise ValueError(f"sweep exceeds {MAX_SWEEP_ROWS} rows or {MAX_CROSSOVER_SEARCHES} crossover searches")
    grid = np.linspace(lo, hi, steps)
    rows = [
        {"q": q, "ratio": ratio, "lambda_p": x, "p_s_weighted": p}
        for q in args.q_list
        for ratio in args.ratio_list
        for x, p in zip(grid.tolist(), weighted_success_sweep(config, q, ratio, grid).tolist())
    ]
    params = _config_echo(config) | {
        "q_list": args.q_list,
        "ratio_list": args.ratio_list,
        "lambda_p_range": list(args.lambda_p_range),
        "crossovers": args.crossovers,
        "lambda_p_ceiling": args.lambda_p_ceiling,
    }
    doc = {"manifest": _manifest(argv, params), "rows": rows}
    crossovers = None
    if args.crossovers:
        crossovers = [
            {"ratio": ratio, "q_low": q_low, "q_high": q_high, "lambda_p_cross": crossover_push_rate(
                config, q_low, q_high, ratio, lambda_p_ceiling=args.lambda_p_ceiling)}
            for ratio in args.ratio_list
            for q_low, q_high in itertools.combinations(qs, 2)
        ]
        doc["crossovers"] = crossovers
    _emit_rows(doc, rows, _SWEEP_COLUMNS, args)
    if crossovers is not None and getattr(args, "format", "json") == "csv":
        print(json.dumps({"crossovers": crossovers}, indent=2))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    seed = _resolve_seed(args)
    sim = SimConfig(
        frames=args.frames,
        seed=seed,
        replications=args.replications,
        warmup_frames=args.warmup_frames,
    )
    result = simulate(config, load, args.q, sim)
    params = _config_echo(config) | {
        "lambda_q": load.lambda_q,
        "lambda_p": load.lambda_p,
        "q": args.q,
        "frames": sim.frames,
        "replications": sim.replications,
        "warmup_frames": sim.warmup_frames,
    }
    doc = {"manifest": _manifest(argv, params, seed=seed)} | asdict(result)
    _print_json(doc)
    return EXIT_OK


_VALIDATE_COLUMNS = [
    "q",
    "lambda_q",
    "lambda_p",
    "p_s_query_analytic",
    "p_s_query_hat",
    "hw_query",
    "dev_query",
    "p_s_push_analytic",
    "p_s_push_hat",
    "hw_push",
    "dev_push",
    "throughput_analytic",
    "throughput_hat",
    "hw_throughput",
    "dev_throughput",
    "flags",
]


def _cmd_validate(args: argparse.Namespace, argv: list[str]) -> int:
    config = resolve_frame_config(args)
    seed = _resolve_seed(args)
    sim = SimConfig(
        frames=args.frames,
        seed=seed,
        replications=args.replications,
        warmup_frames=args.warmup_frames,
    )
    rows, summary = validate_grid(config, args.q_list, args.lambda_q_list, args.lambda_p_list, sim)
    row_dicts = [
        {
            "q": r.q,
            "lambda_q": r.lambda_q,
            "lambda_p": r.lambda_p,
            "p_s_query_analytic": r.analytic.p_s_query,
            "p_s_query_hat": r.empirical.p_s_query_hat,
            "hw_query": r.empirical.half_width_95["p_s_query"],
            "dev_query": r.dev_query,
            "p_s_push_analytic": r.analytic.p_s_push,
            "p_s_push_hat": r.empirical.p_s_push_hat,
            "hw_push": r.empirical.half_width_95["p_s_push"],
            "dev_push": r.dev_push,
            "throughput_analytic": r.analytic.throughput_push,
            "throughput_hat": r.empirical.throughput_push_hat,
            "hw_throughput": r.empirical.half_width_95["throughput_push"],
            "dev_throughput": r.dev_throughput,
            "flags": r.flags,
        }
        for r in rows
    ]
    params = _config_echo(config) | {
        "q_list": args.q_list,
        "lambda_q_list": args.lambda_q_list,
        "lambda_p_list": args.lambda_p_list,
        "frames": sim.frames,
        "replications": sim.replications,
        "warmup_frames": sim.warmup_frames,
        "strict": args.strict,
    }
    manifest = _manifest(argv, params, seed=seed)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_csv(row_dicts, _VALIDATE_COLUMNS, fh)
        with open(args.csv + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        _print_json({"manifest": manifest, "summary": summary})
    elif args.format == "csv":
        _write_csv(row_dicts, _VALIDATE_COLUMNS, sys.stdout)
        _print_json({"manifest": manifest, "summary": summary})
    else:
        _print_json({"manifest": manifest, "summary": summary, "rows": row_dicts})
    if args.strict and summary["flags"] > 0:
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    frame = argparse.ArgumentParser(add_help=False)
    group = frame.add_argument_group("frame configuration")
    group.add_argument("--config", metavar="PATH", help="JSON frame config (fields tau_s, F, k_w, k_t, k_c)")
    group.add_argument("--tau-s", type=float, dest="tau_s", help="slot duration [s]")
    group.add_argument("--frame-slots", type=int, dest="frame_slots", help="slots per frame (F)")
    group.add_argument("--k-w", type=int, dest="k_w", help="slots per wake-up signal")
    group.add_argument("--k-t", type=int, dest="k_t", help="slots per woken-device transmission")
    group.add_argument("--k-c", type=int, dest="k_c", help="slots for the push control beacon")

    load = argparse.ArgumentParser(add_help=False)
    load.add_argument("--lambda-q", type=_nonneg_float, required=True, help="query arrival rate [1/s]")
    load.add_argument("--lambda-p", type=_nonneg_float, required=True, help="packet arrival rate [1/s]")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--csv", metavar="PATH", help="write rows as CSV to PATH (plus PATH.manifest.json)")
    output.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")

    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--frames", type=_positive_int, default=100_000, help="frames per replication")
    sim_flags.add_argument("--seed", type=_nonneg_int, default=None,
                           help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sim_flags.add_argument("--replications", type=_positive_int, default=1)
    sim_flags.add_argument("--warmup-frames", type=_nonneg_int, default=1)

    parser = argparse.ArgumentParser(
        prog="pullpush",
        description="Shared-frame analysis for coexisting wake-up-query and framed-ALOHA traffic.",
        epilog=f"The {SEED_ENV_VAR} environment variable overrides the default seed.",
    )
    parser.add_argument("--version", action="version", version=f"pullpush {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[frame, load], help="closed-form metrics for one (load, q) point")
    p.add_argument("--q", type=_nonneg_int, required=True, help="query services per frame")
    p.add_argument("--w-q", type=_unit_interval, default=None, help="query weight (default: traffic-fair)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("optimize", parents=[frame, load, output], help="scan q for the best weighted success")
    p.add_argument("--w-q", type=_unit_interval, default=None, help="query weight (default: traffic-fair)")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("guidelines", parents=[frame, output], help="rate ceilings per q at target success levels")
    p.add_argument("--p-th", type=_probability_open, action="append", required=True,
                   help="target success probability in (0, 1); repeatable")
    p.set_defaults(handler=_cmd_guidelines)

    p = sub.add_parser("sweep", parents=[frame, output], help="weighted success across a packet-rate sweep")
    p.add_argument("--q-list", type=_int_list, required=True, help="comma-separated q values")
    p.add_argument("--ratio-list", type=_float_list, required=True, help="comma-separated lambda_q/lambda_p ratios")
    p.add_argument("--lambda-p-range", type=_range_spec, required=True, metavar="MIN:MAX:STEPS")
    p.add_argument("--crossovers", action="store_true", help="report q-pair crossover rates per ratio")
    p.add_argument("--lambda-p-ceiling", type=_positive_float, default=None,
                   help="sweep bound for the crossover search (default: mean packets = 3*k_a(q_low))")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", parents=[frame, load, sim_flags], help="Monte Carlo run at one point")
    p.add_argument("--q", type=_nonneg_int, required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("validate", parents=[frame, sim_flags, output],
                       help="simulate a grid and compare against the closed forms")
    p.add_argument("--q-list", type=_int_list, required=True)
    p.add_argument("--lambda-q-list", type=_float_list, required=True)
    p.add_argument("--lambda-p-list", type=_float_list, required=True)
    p.add_argument("--strict", action="store_true", help="exit 4 when any point is flagged")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, argv)
    except (InfeasibleSplitError, InfeasibleTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
