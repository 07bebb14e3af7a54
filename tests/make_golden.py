"""Golden outputs of the CLI commands, and the script that regenerates them.

Each case is one ``pullpush`` argv, run in-process in a temporary directory
that holds only the input files of ``_INPUTS`` (so ``--csv`` paths and the
manifests that echo them are the same on every run). ``PULLPUSH_SEED`` is
unset except where ``_ENV`` sets it, and ``COLUMNS`` is pinned so argparse
wraps its messages the same way on every terminal. The recorded result is
the exit code, stdout, stderr and every file the command wrote, each with
its ``timestamp`` lines removed; ``tests/test_golden.py`` compares against it.

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
_SIM = [*_LOAD, "--q", "10", "--frames", "2000"]
_VALIDATE = ["validate", "--q-list", "5,10", "--lambda-q-list", "250",
             "--lambda-p-list", "100,500", "--frames", "2000", "--seed", "3"]
# Deterministic exit 4: every frame carries ~50 packets per access slot, so no
# push packet ever succeeds, the half-width is 0 and any deviation is flagged.
_STRICT = ["validate", "--q-list", "10", "--lambda-q-list", "100", "--lambda-p-list", "100000",
           "--frames", "1000", "--seed", "1", "--strict"]
_K = ["--k-w", "3", "--k-t", "2", "--k-c", "2"]

# Input files present in every case's directory; outputs are the other files.
_INPUTS = {
    "frame.json": '{"F": 61, "k_w": 3, "tau_s": 0.0005}',
    "bad_type.json": '{"F": 61.0}',
    "bad_field.json": '{"slots": 61}',
    "bad_value.json": '{"F": 5}',
    "not_object.json": "[61]",
    "not_json.json": "{F: 61}",
}
# PULLPUSH_SEED per case; every other case runs with it unset.
_ENV = {"simulate_env_seed": "777", "simulate_env_seed_negative": "-1",
        "simulate_env_seed_not_int": "abc"}

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
    # --csv and --format csv together exit 2 before any work and write nothing.
    "optimize_csv_file_and_format": ["optimize", *_LOAD, "--csv", "both.csv", "--format", "csv"],
    "sweep_csv_file_and_format": [*_SWEEP, "--csv", "both.csv", "--format", "csv"],
    "sweep_format_csv_no_crossovers": ["sweep", "--q-list", "19,2", "--ratio-list", "2",
                                       "--lambda-p-range", "700:900:3", "--format", "csv"],
    # Non-default service and beacon lengths.
    "analyze_k_slots": ["analyze", *_K, *_LOAD, "--q", "7"],
    "optimize_k_slots": ["optimize", *_K, *_LOAD, "--format", "csv"],
    "guidelines_k_slots": ["guidelines", *_K, "--p-th", "0.9"],
    "sweep_k_slots": ["sweep", *_K, "--q-list", "1,5", "--ratio-list", "1",
                      "--lambda-p-range", "100:900:5", "--crossovers"],
    # Frame config files: applied, overridden by a flag, and rejected.
    "analyze_config": ["analyze", "--config", "frame.json", *_LOAD, "--q", "5"],
    "analyze_config_override": ["analyze", "--config", "frame.json", "--frame-slots", "101",
                                "--k-c", "2", *_LOAD, "--q", "5"],
    "optimize_config_csv_file": ["optimize", "--config", "frame.json", *_LOAD, "--csv", "c.csv"],
    "config_bad_type": ["analyze", "--config", "bad_type.json", *_LOAD, "--q", "5"],
    "config_bad_field": ["analyze", "--config", "bad_field.json", *_LOAD, "--q", "5"],
    "config_bad_value": ["optimize", "--config", "bad_value.json", *_LOAD],
    "config_not_object": ["analyze", "--config", "not_object.json", *_LOAD, "--q", "5"],
    "config_not_json": ["analyze", "--config", "not_json.json", *_LOAD, "--q", "5"],
    "config_missing": ["analyze", "--config", "missing.json", *_LOAD, "--q", "5"],
    # Simulation commands: seed from the flag, the environment and the default.
    "simulate": ["simulate", *_SIM, "--seed", "5"],
    "simulate_env_seed": ["simulate", *_SIM],
    "simulate_default_seed": ["simulate", *_SIM, "--config", "frame.json", "--q", "3"],
    "simulate_infeasible_q": ["simulate", *_SIM, "--q", "25", "--seed", "5"],
    "validate": _VALIDATE,
    "validate_csv_file": [*_VALIDATE, "--csv", "grid.csv"],
    "validate_format_csv": [*_VALIDATE, "--format", "csv"],
    "validate_csv_file_and_format": [*_VALIDATE, "--csv", "both.csv", "--format", "csv"],
    "validate_strict_flags": _STRICT,
    "validate_strict_flags_format_csv": [*_STRICT, "--format", "csv"],
    "validate_strict_flags_csv_file": [*_STRICT, "--csv", "strict.csv"],
    "validate_bad_last_point": ["validate", "--q-list", "5", "--lambda-q-list", "100,-1",
                                "--lambda-p-list", "100", "--frames", "1000", "--seed", "1"],
    # Rejected by argparse: each checked-number and list type, and a bad range.
    "reject_q_not_int": ["analyze", *_LOAD, "--q", "x"],
    "reject_q_negative": ["analyze", *_LOAD, "--q", "-1"],
    "reject_lambda_negative": ["analyze", "--lambda-q", "-1", "--lambda-p", "500", "--q", "1"],
    "reject_w_q": ["optimize", *_LOAD, "--w-q", "1.5"],
    "reject_p_th": ["guidelines", "--p-th", "1.5"],
    "reject_frames_zero": ["simulate", *_LOAD, "--q", "1", "--frames", "0"],
    "reject_frames_not_int": ["simulate", *_LOAD, "--q", "1", "--frames", "x"],
    "reject_seed_negative": ["simulate", *_LOAD, "--q", "1", "--seed", "-1"],
    "reject_replications": ["simulate", *_SIM, "--seed", "5", "--replications", "3",
                            "--warmup-frames", "0"],
    "reject_lambda_not_number": ["analyze", "--lambda-q", "x", "--lambda-p", "500", "--q", "1"],
    "reject_w_q_not_number": ["analyze", *_LOAD, "--q", "1", "--w-q", "x"],
    "reject_p_th_not_number": ["guidelines", "--p-th", "x"],
    "reject_ceiling_not_number": ["sweep", "--q-list", "1,10", "--ratio-list", "1",
                                  "--lambda-p-range", "1:10:3", "--lambda-p-ceiling", "x"],
    "reject_ceiling": ["sweep", "--q-list", "1,10", "--ratio-list", "1",
                       "--lambda-p-range", "1:10:3", "--lambda-p-ceiling", "0"],
    "reject_q_list": ["sweep", "--q-list", "a", "--ratio-list", "1", "--lambda-p-range", "1:10:3"],
    "reject_q_list_empty": ["sweep", "--q-list", ",", "--ratio-list", "1",
                            "--lambda-p-range", "1:10:3"],
    "reject_ratio_list": ["sweep", "--q-list", "1", "--ratio-list", "1,x",
                          "--lambda-p-range", "1:10:3"],
    "reject_range_parts": ["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "0:1"],
    "reject_range_order": ["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "5:1:3"],
    "reject_range_not_number": ["sweep", "--q-list", "1", "--ratio-list", "1",
                                "--lambda-p-range", "a:b:3"],
    "reject_format": ["optimize", *_LOAD, "--format", "xml"],
    "reject_missing_flag": ["analyze", "--lambda-q", "250", "--q", "1"],
    "reject_frame_slots": ["analyze", "--frame-slots", "x", *_LOAD, "--q", "1"],
    "reject_command": ["plot"],
    # Accepted by argparse, rejected by the library's own checks.
    "reject_tau_zero": ["analyze", "--tau-s", "0", *_LOAD, "--q", "5"],
    "reject_tau_inf": ["analyze", "--tau-s", "inf", *_LOAD, "--q", "5"],
    "reject_tau_nan": ["analyze", "--tau-s", "nan", *_LOAD, "--q", "5"],
    "reject_k_w_zero": ["analyze", "--k-w", "0", *_LOAD, "--q", "5"],
    "reject_seed_overflow": ["simulate", *_SIM, "--seed", "18446744073709551616"],
    "validate_last_seed_overflow": ["validate", "--q-list", "5", "--lambda-q-list", "100",
                                    "--lambda-p-list", "100,200", "--frames", "1000",
                                    "--seed", "18446744073709551615"],
    "simulate_env_seed_negative": ["simulate", *_SIM],
    "simulate_env_seed_not_int": ["simulate", *_SIM],
    # The parser itself: version and help of every command.
    "version": ["--version"],
    "help": ["--help"],
    **{f"help_{cmd}": [cmd, "--help"]
       for cmd in ("analyze", "optimize", "guidelines", "sweep", "simulate", "validate")},
}


def strip_timestamp(text: str) -> str:
    """``text`` without its manifest ``timestamp`` lines."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith('"timestamp": '))


def run_case(argv: list[str], seed_env: str | None = None) -> tuple[int, str, str, dict[str, str]]:
    """(exit code, stdout, stderr, written files) of ``pullpush argv``, run in
    a directory holding only ``_INPUTS``, with ``PULLPUSH_SEED`` set to
    ``seed_env`` or unset."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    saved = {key: os.environ.get(key) for key in (cli.SEED_ENV_VAR, "COLUMNS")}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _INPUTS.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        os.environ.pop(cli.SEED_ENV_VAR, None)
        if seed_env is not None:
            os.environ[cli.SEED_ENV_VAR] = seed_env
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejections, --help and --version
                    code = exc.code
        finally:
            os.chdir(cwd)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        files = {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())
                 if path.name not in _INPUTS}
    return code, out.getvalue(), err.getvalue(), files


def record(name: str) -> dict:
    """The golden record of case ``name``: every output without timestamps."""
    code, out, err, files = run_case(CASES[name], _ENV.get(name))
    return {
        "exit": code,
        "stdout": strip_timestamp(out),
        "stderr": strip_timestamp(err),
        "files": {path: strip_timestamp(text) for path, text in files.items()},
    }


def main(args: list[str]) -> int:
    actual = {name: record(name) for name in CASES}
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
