"""Command-line interface: point analysis, q optimization, design guidelines,
load sweeps, and Monte Carlo simulation/validation.

:func:`build_parser` is the command table: each subcommand names its flags
and a ``_cmd_*`` handler, which takes the parsed arguments and the resolved
:class:`FrameConfig` and only computes. :func:`main` runs every command the
same way: it resolves the frame config (flag > ``--config`` file >
``FrameConfig`` defaults), calls the handler, builds the manifest and
writes the handler's ``_Output``.

Outputs are machine-readable: a JSON document on stdout by default, CSV to
``--csv PATH`` (with a ``PATH.manifest.json`` sidecar) or to stdout with
``--format csv`` (manifest then goes to stderr). Every document carries a
manifest sufficient to reproduce it. Exit codes: 0 success, 2 usage or
config error or an unwritable output path, 3 infeasible design point,
4 validation flags under ``--strict``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import shlex
import sys
import os
from dataclasses import asdict, fields
from datetime import datetime, timezone
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .frame import FrameConfig, InfeasibleSplitError, q_max, split_for_q
from .metrics import TrafficLoad, Weights, evaluate_metrics, weighted_success_sweep
from .optimize import InfeasibleTargetError, crossover_push_rate, design_guidelines, optimal_q
from .simulate import STREAM_VERSION, SimConfig, simulate, validate_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

SEED_ENV_VAR = "PULLPUSH_SEED"

MAX_ROWS = 10**6
MAX_CROSSOVER_SEARCHES = 10**4
MAX_GUIDELINE_WORK = 4 * 10**6  # targets x q_max^2: the rate searches of one q cost O(q)
MAX_CROSSOVER_WORK = 10**6  # searches x largest q: one crossover search costs O(q)
MAX_VALIDATE_STEPS = 10**7  # Erlang-B steps, the sum of q over the grid points: ~1.5 s
# Erlang-B steps x (lambda_p steps + 1000): the + 1000 models a step's fixed cost, but
# an array step costs ~3 us + 1.5-2 ns per element (2-CPU Xeon, numpy 2.4), i.e.
# ~1500-2000 elements' time, so a sweep at the edge runs ~3 s. TestBoundedInputs pins
# the formula and its edge; both stay until the work bounds are re-derived together.
MAX_SWEEP_WORK = 10**9

# FrameConfig's fields by their name in config files and manifests (F for frame_slots).
_CONFIG_FIELDS = {"F" if f.name == "frame_slots" else f.name: f for f in fields(FrameConfig)}


# ---------------------------------------------------------------- argument types

def _checked(convert, accept, expected: str):
    """Argparse type: ``convert(text)``, rejected unless ``accept`` holds.
    argparse names the type by ``convert`` (``int`` or ``float``) when it fails."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonneg_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_nonneg_float = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_probability_open = _checked(float, lambda v: 0.0 < v < 1.0, "a value strictly inside (0, 1)")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")


def _list_of(convert, kind: str):
    """Argparse type: a nonempty comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated {kind} list, got {text}")
        if not values:
            raise argparse.ArgumentTypeError("list must be nonempty")
        return values
    return parse


_int_list = _list_of(int, "integer")
_float_list = _list_of(float, "number")


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
    if not math.isfinite(lo) or not math.isfinite(hi):  # nan passes every comparison above
        raise argparse.ArgumentTypeError(f"range min and max must be finite, got {text}")
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
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config file {path}: unknown field '{key}'")
        integer = isinstance(_CONFIG_FIELDS[key].default, int)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            raise ValueError(f"config file {path}: field '{key}': expected {kind}, got {value!r}")
    return data


def resolve_frame_config(args: argparse.Namespace) -> FrameConfig:
    """Precedence: flag > config file > built-in defaults."""
    from_file = _load_config_file(args.config) if args.config else {}
    params = {}
    for key, field in _CONFIG_FIELDS.items():
        value = getattr(args, field.name)
        if value is None:
            value = from_file.get(key, field.default)
        with contextlib.suppress(OverflowError):  # FrameConfig names an int beyond float range
            value = type(field.default)(value)  # an integer tau_s becomes a float
        params[field.name] = value
    try:
        return FrameConfig(**params)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from exc


def _sim_config(args: argparse.Namespace) -> tuple[SimConfig, dict]:
    """SimConfig of the simulation flags given and its manifest params; the
    seed is --seed, else $PULLPUSH_SEED, else SimConfig's default."""
    given = {field.name: getattr(args, field.name) for field in fields(SimConfig)}
    env = os.environ.get(SEED_ENV_VAR)
    if given["seed"] is None and env is not None:
        try:
            given["seed"] = int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}")
    sim = SimConfig(**{name: value for name, value in given.items() if value is not None})
    return sim, {name: value for name, value in asdict(sim).items() if name != "seed"}


# ---------------------------------------------------------------- commands

class _Output(NamedTuple):
    """A command's result: manifest ``params`` after the frame config, the
    document ``body`` after the manifest, and ``rows`` for CSV. With rows in
    CSV, ``brief`` replaces the document or the stderr manifest, and
    ``trailer`` follows the rows under ``--format csv``. Simulations have a seed."""

    params: dict
    body: dict
    rows: list[dict] | None = None
    brief: dict | None = None
    trailer: dict | None = None
    seed: int | None = None


def _cmd_analyze(args: argparse.Namespace, config: FrameConfig) -> _Output:
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    weights = Weights.traffic_fair(load) if args.w_q is None else Weights(w_q=args.w_q, w_p=1.0 - args.w_q)
    split = split_for_q(config, args.q)  # a q the frame cannot hold exits 3, however large
    if args.q > MAX_ROWS - 1:  # the largest q that optimize scans
        raise ValueError(f"analyze exceeds {MAX_ROWS - 1} Erlang-B steps: q {args.q}")
    report = evaluate_metrics(config, load, args.q, weights)
    params = {"lambda_q": load.lambda_q, "lambda_p": load.lambda_p, "q": args.q,
              "w_q": weights.w_q, "w_p": weights.w_p}
    return _Output(params, asdict(split) | asdict(report))


def _cmd_optimize(args: argparse.Namespace, config: FrameConfig) -> _Output:
    if q_max(config) + 1 > MAX_ROWS:
        raise ValueError(f"optimize exceeds {MAX_ROWS} rows: the frame allows q = 0..{q_max(config)}")
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    weights = Weights.traffic_fair(load) if args.w_q is None else Weights(w_q=args.w_q, w_p=1.0 - args.w_q)
    result = optimal_q(config, load, weights)
    rows = [row._asdict() for row in result.per_q_table]
    params = {"lambda_q": load.lambda_q, "lambda_p": load.lambda_p, "w_q": weights.w_q, "w_p": weights.w_p}
    body = {"q_star": result.q_star, "p_s_at_star": result.p_s_at_star, "per_q_table": rows}
    return _Output(params, body, rows)


def _cmd_guidelines(args: argparse.Namespace, config: FrameConfig) -> _Output:
    if len(args.p_th) * q_max(config) ** 2 > MAX_GUIDELINE_WORK:
        raise ValueError(f"guidelines exceeds {MAX_GUIDELINE_WORK} targets x q_max^2: "
                         f"{len(args.p_th)} targets, q = 1..{q_max(config)}")
    rows = [{"p_th": p_th} | asdict(row) for p_th in args.p_th for row in design_guidelines(config, p_th)]
    return _Output({"p_th": args.p_th}, {"rows": rows}, rows)


def _cmd_sweep(args: argparse.Namespace, config: FrameConfig) -> _Output:
    lo, hi, steps = args.lambda_p_range
    qs = sorted(set(args.q_list))
    searches = len(args.ratio_list) * len(qs) * (len(qs) - 1) // 2 if args.crossovers else 0
    if len(args.q_list) * len(args.ratio_list) * steps > MAX_ROWS or searches > MAX_CROSSOVER_SEARCHES:
        raise ValueError(f"sweep exceeds {MAX_ROWS} rows or {MAX_CROSSOVER_SEARCHES} crossover searches")
    if searches * qs[-1] > MAX_CROSSOVER_WORK:
        raise ValueError(f"sweep exceeds {MAX_CROSSOVER_WORK} crossover searches x largest q: "
                         f"{searches} searches, largest q {qs[-1]}")
    q_steps = sum(max(q, 0) for q in args.q_list) * len(args.ratio_list)
    if q_steps * (steps + 1000) > MAX_SWEEP_WORK:
        raise ValueError(f"sweep exceeds {MAX_SWEEP_WORK} Erlang-B steps x (lambda_p steps + 1000): "
                         f"{q_steps} x {steps + 1000}")
    grid = np.linspace(lo, hi, steps)
    rows = [
        {"q": q, "ratio": ratio, "lambda_p": x, "p_s_weighted": p}
        for q in args.q_list
        for ratio in args.ratio_list
        for x, p in zip(grid.tolist(), weighted_success_sweep(config, q, ratio, grid).tolist())
    ]
    params = {"q_list": args.q_list, "ratio_list": args.ratio_list, "lambda_p_range": list(args.lambda_p_range),
              "crossovers": args.crossovers, "lambda_p_ceiling": args.lambda_p_ceiling}
    if not args.crossovers:
        return _Output(params, {"rows": rows}, rows)
    crossovers = [
        {"ratio": ratio, "q_low": q_low, "q_high": q_high, "lambda_p_cross": crossover_push_rate(
            config, q_low, q_high, ratio, lambda_p_ceiling=args.lambda_p_ceiling)}
        for ratio in args.ratio_list
        for q_low, q_high in itertools.combinations(qs, 2)
    ]
    return _Output(params, {"rows": rows, "crossovers": crossovers}, rows, trailer={"crossovers": crossovers})


def _cmd_simulate(args: argparse.Namespace, config: FrameConfig) -> _Output:
    load = TrafficLoad(lambda_q=args.lambda_q, lambda_p=args.lambda_p)
    sim, sim_params = _sim_config(args)
    result = simulate(config, load, args.q, sim)
    params = {"lambda_q": load.lambda_q, "lambda_p": load.lambda_p, "q": args.q} | sim_params
    return _Output(params, asdict(result), seed=sim.seed)


def _cmd_validate(args: argparse.Namespace, config: FrameConfig) -> _Output:
    sizes = (len(args.q_list), len(args.lambda_q_list), len(args.lambda_p_list))
    if math.prod(sizes) > MAX_ROWS:
        raise ValueError(f"validate exceeds {MAX_ROWS} grid points: {sizes[0]} q x {sizes[1]} lambda_q "
                         f"x {sizes[2]} lambda_p")
    q_steps = sum(max(q, 0) for q in args.q_list) * sizes[1] * sizes[2]
    if q_steps > MAX_VALIDATE_STEPS:
        raise ValueError(f"validate exceeds {MAX_VALIDATE_STEPS} Erlang-B steps: sum of q over the grid {q_steps}")
    sim, sim_params = _sim_config(args)
    rows, summary = validate_grid(config, args.q_list, args.lambda_q_list, args.lambda_p_list, sim)
    row_dicts = [  # per checked metric: analytic value, estimate, 95% half-width, deviation
        {
            "q": r.q, "lambda_q": r.lambda_q, "lambda_p": r.lambda_p,
            "p_s_query_analytic": r.analytic.p_s_query, "p_s_query_hat": r.empirical.p_s_query_hat,
            "hw_query": r.empirical.half_width_95["p_s_query"], "dev_query": r.dev_query,
            "p_s_push_analytic": r.analytic.p_s_push, "p_s_push_hat": r.empirical.p_s_push_hat,
            "hw_push": r.empirical.half_width_95["p_s_push"], "dev_push": r.dev_push,
            "throughput_analytic": r.analytic.throughput_push, "throughput_hat": r.empirical.throughput_push_hat,
            "hw_throughput": r.empirical.half_width_95["throughput_push"], "dev_throughput": r.dev_throughput,
            "flags": r.flags,
        }
        for r in rows
    ]
    params = {"q_list": args.q_list, "lambda_q_list": args.lambda_q_list, "lambda_p_list": args.lambda_p_list,
              **sim_params, "strict": args.strict}
    return _Output(params, {"summary": summary, "rows": row_dicts}, row_dicts,
                   brief={"summary": summary}, seed=sim.seed)


def _csv_value(value):
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return value


def _write_csv(rows: list[dict], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_csv_value(value) for value in row.values()])


def _emit(args: argparse.Namespace, manifest: dict, out: _Output) -> None:
    """JSON doc to stdout; rows as CSV to --csv or, with --format csv, to stdout."""
    doc = {"manifest": manifest} | out.body
    if out.rows is None or not (args.csv or args.format == "csv"):
        print(json.dumps(doc, indent=2))
        return
    brief = None if out.brief is None else {"manifest": manifest} | out.brief
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_csv(out.rows, fh)
        with open(args.csv + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        print(json.dumps(brief or doc, indent=2))
    else:
        _write_csv(out.rows, sys.stdout)
        print(json.dumps(brief or manifest, indent=2), file=sys.stderr if brief is None else sys.stdout)
        if out.trailer is not None:
            print(json.dumps(out.trailer, indent=2))


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
    sim_flags.add_argument("--frames", type=_positive_int, help="frames to simulate")
    sim_flags.add_argument("--seed", type=_nonneg_int, help=f"RNG seed (default: ${SEED_ENV_VAR} or {SimConfig.seed})")

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
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "csv", None) and args.format == "csv":
            raise ValueError("--csv and --format csv cannot be combined: rows go to one of them")
        config = resolve_frame_config(args)
        out = args.handler(args, config)
        manifest = {
            "tool_version": __version__,
            "command": shlex.join(["pullpush", *argv]),
            "config_echo": {key: getattr(config, field.name) for key, field in _CONFIG_FIELDS.items()} | out.params,
            "seed": out.seed,
        }
        if out.seed is not None:
            manifest["stream_version"] = STREAM_VERSION
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
        _emit(args, manifest, out)
    except (InfeasibleSplitError, InfeasibleTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "strict", False) and out.body["summary"]["flags"] > 0:
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
