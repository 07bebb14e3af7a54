"""Steadiness mode: repeat each workload on successive seeds and summarise.

    python3 perfbench/steady.py [--workload W ...] [--runs N] [--seed0 K]
                                [--seconds S] [--trace]

Runs ``run.py`` N times per workload, with seeds K, K+1, ..., and prints
each metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread, the quartile distance as a share of the median, beside the bound
that ``BENCHMARK.json`` sets for it. ``--runs 1`` prints every metric of
every workload once, with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    detail["result"] = json.loads(lines[-1])
    return detail


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="summarise traced runs (per-layer metrics)")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, args.seed0 + i, seconds, args.trace) for i in range(args.runs)]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        facts = runs[0]["host"]
        print(f"{workload}: {args.runs} run(s), seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{seconds:g} s each; {failed} of {attempted} ops failed")
        print("  host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  unit")
        for name, info in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = " wide" if bound and stats["spread"] > bound / 3 and name != "setup_s" else ""
            print(f"  {name:40s} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.3f} {bound if bound else '-':>6}  {info['unit']}{flag}")
        tails = sorted({round(r["child"]["op_tail_percentile"], 2) for r in runs if "op_tail_percentile" in r["child"]})
        if tails:
            print(f"  op_tail_ms percentiles seen: {', '.join(f'p{p:g}' for p in tails)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
