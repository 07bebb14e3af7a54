"""Benchmark of the pullpush CLI, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (``workloads.py``): ``design_tables`` (analyze, optimize,
guidelines, sweep --crossovers: the closed-form path), ``sim_reference``
(single-point validate on the 27-point acceptance grid) and
``heavy_push`` (simulate at lambda_p up to 1e5, where the push sampler's
memory grows with load).

Each op is one CLI command run in-process through ``pullpush.cli.main`` by
a fresh child process, the single closed-loop caller (``child.py``), with
numpy's BLAS held to one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (child spawn to
first op ready: interpreter, numpy and ``pullpush.cli`` import, op
generation; median of SETUP_SAMPLES children), ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms`` (the highest percentile with 10 samples
beyond it) and ``peak_rss_mb`` (child ``ru_maxrss``). ``--trace 1`` runs a
fixed number of rounds twice, untraced and then traced (``tracer.py``),
and prints the per-layer metrics and ``trace.overhead_frac``.

Human-readable lines come first; the line before last is ``detail`` JSON
with every figure and the host facts; the last line is the result JSON.
Exit code 2, with no result, when the checkout has no ``src/pullpush``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Children whose setup time is measured: the main child and setup-only ones,
# half started before it and half after, so the median spans the whole run.
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
# The caller is one thread. Without this, numpy's BLAS starts a worker per
# core for each np.dot in the simulator, and the worker spins on the other
# core between calls (measured: ~100% of a core during sim_reference).
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Wall seconds one round takes, output checks included, when this benchmark
# was added (2-core Xeon, Python 3.11). A traced run does round(seconds / 2 /
# NOMINAL_ROUND_S) rounds, untraced and then traced, so it lasts about
# --seconds and its counts repeat exactly for a given seed.
NOMINAL_ROUND_S = {"design_tables": 0.12, "sim_reference": 1.5, "heavy_push": 4.5}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported beside the end-to-end metrics, but not bounded: frames/s is
# ops_per_s times a fixed frames-per-op, and failed_frac is 0 when correct.
REPORTED = {"sim_frames_per_s": "frames/s", "failed_frac": "ratio"}

PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "optimize.optimal_q.calls": "count",
    "optimize.optimal_q.busy_s": "s",
    "optimize.design_guidelines.calls": "count",
    "optimize.design_guidelines.busy_s": "s",
    "optimize.crossover_push_rate.calls": "count",
    "optimize.crossover_push_rate.busy_s": "s",
    "optimize.closed_form_evals": "count",
    "metrics.evaluate_metrics.calls": "count",
    "metrics.evaluate_metrics.busy_s": "s",
    "core.erlang_b.calls": "count",
    "core.erlang_b.busy_s": "s",
    "core.erlang_b.recursion_steps": "count",
    "core.sample_poisson_array.calls": "count",
    "core.sample_poisson_array.busy_s": "s",
    "core.sample_poisson_array.variates": "count",
    "core.sample_poisson_array.uniforms": "count",
    "simulate.slot_successes.calls": "count",
    "simulate.slot_successes.busy_s": "s",
    "simulate.slot_successes.packets": "count",
    "simulate.slot_successes.temp_bytes": "bytes",
    "simulate.validate_grid.busy_s": "s",
    "simulate.simulate.busy_s": "s",
    "simulate._simulate_one.self_s": "s",
    "frame.split_for_q.calls": "count",
    "trace.overhead_frac": "ratio",
}
# Layers whose share of the traced op time is printed, widest first.
SHARES = ("cli.main.self_s", "optimize.crossover_push_rate.busy_s", "optimize.design_guidelines.busy_s",
          "optimize.optimal_q.busy_s", "metrics.evaluate_metrics.busy_s", "core.erlang_b.busy_s",
          "simulate.simulate.busy_s", "simulate.slot_successes.busy_s", "core.sample_poisson_array.busy_s",
          "simulate._simulate_one.self_s")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` if the checkout is a git repository, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_facts(root: Path) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False, env=os.environ | ONE_THREAD)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    def setup_only() -> list[float]:
        return [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]

    before = setup_only()
    child = spawn(workload, seed, "--seconds", repr(seconds))
    setups = before + [child["setup_s"]] + setup_only()
    child["setup_samples"] = setups
    metrics = {name: child[name] for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    metrics["sim_frames_per_s"] = child["sim_frames_per_s"]
    metrics["failed_frac"] = child["failed"] / child["ops"]
    return metrics, child


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    rounds = str(max(1, round(seconds / 2 / NOMINAL_ROUND_S[workload])))
    plain = spawn(workload, seed, "--rounds", rounds)
    spans = HERE / "out" / f"spans-{workload}-{seed}.npz"
    child = spawn(workload, seed, "--rounds", rounds, "--trace", "1", "--spans", str(spans))
    child["layers"]["trace.overhead_frac"] = 1.0 - child["ops_per_s"] / plain["ops_per_s"]
    metrics = {name: child["layers"][name] for name in PER_LAYER}
    child["untraced_ops_per_s"] = plain["ops_per_s"]
    child["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, child


def report(workload: str, seed: int, trace: bool, metrics: dict, child: dict, facts: dict) -> None:
    print(f"workload {workload}, seed {seed}: {child['ops']} ops in {child['rounds']} rounds, "
          f"{child['failed']} failed, {child['op_time_s']:.2f} s of op time"
          + (" (traced)" if trace else ""))
    units = PER_LAYER if trace else END_TO_END | REPORTED
    for name, unit in units.items():
        line = f"  {name:40s} {metrics[name]:14.6g} {unit}"
        if name == "op_tail_ms":
            line += (f"  (p{child['op_tail_percentile']:.2f}, {child['op_tail_beyond']} samples beyond,"
                     f" {child['ops']} samples)")
        print(line)
    if trace:
        print(f"  share of traced op time ({child['op_time_s']:.3f} s):")
        for name in SHARES:
            print(f"    {name:38s} {child['layers'][name] / child['op_time_s']:7.1%}")
    print("  host: " + ", ".join(f"{k}={v}" for k, v in facts.items()) + f", numpy={child['numpy']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pullpush" / "cli.py").is_file():
        print(f"error: no pullpush sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = host_facts(ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, child = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, bool(args.trace), metrics, child, facts)
    units = PER_LAYER if args.trace else END_TO_END
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "host": facts | {"numpy": child["numpy"]},
              "metrics": {k: {"value": v, "unit": (units | REPORTED).get(k, "")} for k, v in metrics.items()},
              "child": {k: v for k, v in child.items() if k != "layers"}}
    print("detail " + json.dumps(detail))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["ops"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
