"""One benchmark child process: import the CLI, generate ops, run them, report.

Started by ``run.py``, never by hand. The child is the single closed-loop
caller: each op is one ``pullpush.cli.main(argv)`` call with stdout and
stderr captured, timed from entry to return. Ops run in whole rounds
(see ``workloads.py``) until ``--seconds`` have passed, or for exactly
``--rounds`` rounds. Output checks and op generation happen between ops
and are not part of any op's time. The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import shlex
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest of PERCENTILES
    that leaves at least TAIL_BEYOND samples beyond it (nearest rank);
    the maximum when even p75 leaves fewer (runs of under 40 ops).

    A fixed ladder keeps the percentile the same across runs of similar
    length; the 11th-largest sample alone would follow single hiccups.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    best = (ordered[-1], 100.0, 0)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank < TAIL_BEYOND:
            break
        best = (ordered[rank - 1], p, n - rank)
    return best


def _frames(op) -> int:
    if op.kind == "simulate":
        return int(op.argv[op.argv.index("--frames") + 1])
    if op.kind == "validate":
        return workloads.VALIDATE_FRAMES
    return 0


def run_ops(main, workload: str, seed: int, stream, seconds: float, rounds: int) -> dict:
    """Run whole rounds from ``stream``; time each op, then check its output."""
    latencies: list[float] = []
    failed = frames = 0
    clock = time.perf_counter
    started = clock()
    for index, ops in enumerate(stream):
        for i, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the op raised: it counts as failed and the run goes on
                code = None
                err.write(traceback.format_exc())
            latencies.append(clock() - t0)
            frames += _frames(op)
            reason = "raised an exception" if code is None else checks.check(op, code, out.getvalue())
            if reason is not None:
                failed += 1
                print(f"check failed: workload={workload} seed={seed} round={index} op={i} "
                      f"op_seed={op.seed} argv={shlex.join(op.argv)!r}: {reason}\n{err.getvalue()}",
                      file=sys.stderr)
        if (rounds and index + 1 >= rounds) or (not rounds and clock() - started >= seconds):
            break
    op_time = sum(latencies)
    value, percentile, beyond = tail_latency(latencies)
    return {
        "rounds": index + 1,
        "ops": len(latencies),
        "failed": failed,
        "frames": frames,
        "op_time_s": op_time,
        "phase_wall_s": clock() - started,
        "ops_per_s": len(latencies) / op_time,
        "sim_frames_per_s": frames / op_time,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * value,
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--seconds", type=float, default=0.0, help="run whole rounds until this much time passed")
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="traced run: write the spans here")
    parser.add_argument("--setup-only", action="store_true", help="stop once the first op could start")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    from pullpush import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported pullpush from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    stream = workloads.rounds(args.workload, args.seed)
    first_round = next(stream)
    setup_s = time.monotonic() - args.spawned_at  # CLOCK_MONOTONIC is system-wide
    result = {"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        stream = itertools.chain([first_round], stream)
        result |= run_ops(cli.main, args.workload, args.seed, stream, args.seconds, args.rounds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans is not None:
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
