"""Golden stdout of the analytic CLI commands, and the script that regenerates it.

Each case is one ``pullpush`` argv, run in-process in an empty temporary
directory (so ``--csv`` paths and the manifests that echo them are the same
on every run). The recorded result is the exit code and stdout with its
``timestamp`` lines removed; ``tests/test_golden.py`` compares against it.

    PYTHONPATH=src python tests/make_golden.py           # report cases that differ
    PYTHONPATH=src python tests/make_golden.py --write   # rewrite tests/golden/expected.json

Regenerate only from a commit whose outputs are known good: the file is the
reference that later changes must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from pullpush import cli

EXPECTED = Path(__file__).parent / "golden" / "expected.json"

_LOAD = ["--lambda-q", "250", "--lambda-p", "500"]
_GUIDELINES = ["guidelines", "--p-th", "0.7", "--p-th", "0.8", "--p-th", "0.9"]
_SWEEP = ["sweep", "--q-list", "1,10", "--ratio-list", "0.5,1,1.5",
          "--lambda-p-range", "50:3000:60", "--crossovers"]

CASES: dict[str, list[str]] = {
    # The analytic commands of the README, as written and in each output form.
    "analyze": ["analyze", *_LOAD, "--q", "10"],
    "optimize": ["optimize", *_LOAD],
    "optimize_csv_file": ["optimize", *_LOAD, "--csv", "per_q.csv"],
    "optimize_format_csv": ["optimize", *_LOAD, "--format", "csv"],
    "guidelines": _GUIDELINES,
    "guidelines_csv_file": [*_GUIDELINES, "--csv", "guidelines.csv"],
    "guidelines_format_csv": [*_GUIDELINES, "--format", "csv"],
    "sweep": _SWEEP,
    "sweep_csv_file": [*_SWEEP, "--csv", "sweep.csv"],
    "sweep_format_csv": [*_SWEEP, "--format", "csv"],
    # Edge cases of the closed forms and of the sweep grid.
    "analyze_weighted": ["analyze", *_LOAD, "--q", "3", "--w-q", "0.3"],
    "optimize_weighted": ["optimize", *_LOAD, "--w-q", "0.9"],
    "optimize_zero_load": ["optimize", "--lambda-q", "0", "--lambda-p", "0"],
    "optimize_heavy_load": ["optimize", "--lambda-q", "1e6", "--lambda-p", "1e6"],
    "sweep_ratio_zero": ["sweep", "--q-list", "0,1,10", "--ratio-list", "0",
                         "--lambda-p-range", "50:3000:60", "--crossovers"],
    "sweep_from_zero": ["sweep", "--q-list", "1,10", "--ratio-list", "0.5,1,1.5",
                        "--lambda-p-range", "0:3000:50", "--crossovers"],
    "sweep_one_step": ["sweep", "--q-list", "19,2", "--ratio-list", "2",
                       "--lambda-p-range", "700:700:1"],
    "sweep_ceiling": ["sweep", "--q-list", "2,5,19", "--ratio-list", "0.25,3",
                      "--lambda-p-range", "10:5000:7", "--crossovers",
                      "--lambda-p-ceiling", "6000"],
    "sweep_negative_ratio_at_zero": ["sweep", "--q-list", "1", "--ratio-list", "-1",
                                     "--lambda-p-range", "0:0:3"],
    # frame_slots = 12 leaves k_a = 1 at q_max = 2.
    "analyze_single_slot": ["analyze", "--frame-slots", "12", *_LOAD, "--q", "2"],
    "optimize_single_slot": ["optimize", "--frame-slots", "12", *_LOAD],
    "sweep_single_slot": ["sweep", "--frame-slots", "12", "--q-list", "0,1,2",
                          "--ratio-list", "0.5,2", "--lambda-p-range", "0:400:9",
                          "--crossovers"],
    "guidelines_single_slot": ["guidelines", "--frame-slots", "12",
                               "--p-th", "0.5", "--p-th", "0.999"],
    # Rejected inputs: exit 2 (usage) and exit 3 (infeasible design point).
    "sweep_ratio_inf": ["sweep", "--q-list", "1,10", "--ratio-list", "inf",
                        "--lambda-p-range", "50:3000:60"],
    "sweep_ratio_nan": ["sweep", "--q-list", "1,10", "--ratio-list", "0.5,nan",
                        "--lambda-p-range", "50:3000:60"],
    "sweep_negative_ratio": ["sweep", "--q-list", "1", "--ratio-list", "-1",
                             "--lambda-p-range", "0:10:3"],
    "sweep_huge_range": ["sweep", "--q-list", "1,10", "--ratio-list", "0.5,1,1.5",
                         "--lambda-p-range", "0:1e308:3"],
    "sweep_crossover_overflow": ["sweep", "--q-list", "1,10", "--ratio-list", "2",
                                 "--lambda-p-range", "1:10:3", "--crossovers",
                                 "--lambda-p-ceiling", "1e308"],
    "optimize_overflow": ["optimize", "--lambda-q", "1e308", "--lambda-p", "1e308"],
    "analyze_infeasible_q": ["analyze", *_LOAD, "--q", "25"],
    "sweep_infeasible_q": ["sweep", "--q-list", "1,25", "--ratio-list", "1",
                           "--lambda-p-range", "50:3000:60"],
    "guidelines_infeasible_target": ["guidelines", "--tau-s", "1e-300", "--p-th", "1e-300"],
}


def strip_timestamp(text: str) -> str:
    """``text`` without its manifest ``timestamp`` lines."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith('"timestamp": '))


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``pullpush argv`` in an empty directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejections
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def record(argv: list[str]) -> dict:
    code, out, _ = run_case(argv)
    return {"exit": code, "stdout": strip_timestamp(out)}


def main(args: list[str]) -> int:
    actual = {name: record(argv) for name, argv in CASES.items()}
    if args == ["--write"]:
        EXPECTED.parent.mkdir(exist_ok=True)
        EXPECTED.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} cases to {EXPECTED}")
        return 0
    if args:
        print("usage: make_golden.py [--write]", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    differ = sorted(name for name in CASES if expected.get(name) != actual[name])
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match {EXPECTED}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
