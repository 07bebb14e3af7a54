"""Tests of the benchmark itself: seeded op streams, output checks, tracing."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from pullpush import cli  # noqa: E402


def _run(argv: tuple[str, ...]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


def _op(kind: str, *argv: str, seed: int | None = None) -> workloads.Op:
    return workloads.Op(kind, (kind, *argv), seed)


def _rejected(op: workloads.Op, doc: dict) -> str | None:
    return checks.check(op, 0, json.dumps(doc))


# ---------------------------------------------------------------- op streams

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_are_deterministic_per_seed(workload):
    stream = workloads.rounds(workload, 7)
    first = [next(stream) for _ in range(3)]
    assert first == [workloads.round_ops(workload, 7, r) for r in range(3)]
    assert first == [workloads.round_ops(workload, 7, r) for r in range(3)]
    assert first[0] != workloads.round_ops(workload, 8, 0)
    assert first[0] != first[1]


def test_round_mixes_are_fixed():
    kinds = [op.kind for op in workloads.round_ops("design_tables", 3, 0)]
    assert {k: kinds.count(k) for k in set(kinds)} == {"analyze": 3, "optimize": 9, "guidelines": 5, "sweep": 3}

    points = {(op.argv[2], op.argv[4], op.argv[6]) for op in workloads.round_ops("sim_reference", 3, 0)}
    assert len(points) == 27

    heavy = workloads.round_ops("heavy_push", 3, 0)
    rates = sorted(float(op.argv[op.argv.index("--lambda-p") + 1]) for op in heavy)
    assert len(heavy) == 12 and rates[-1] == 1e5 and 1e3 <= rates[0]
    assert all(op.argv[op.argv.index("--q") + 1] in ("0", "10", "19") for op in heavy)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.round_ops("nope", 1, 0)


# ---------------------------------------------------------------- output checks

def test_generated_ops_pass_their_checks():
    ops = workloads.round_ops("design_tables", 11, 0) + workloads.round_ops("heavy_push", 11, 0)[:1]
    for op in ops:
        if op.kind == "simulate" and float(op.argv[op.argv.index("--lambda-p") + 1]) > 2e4:
            continue  # keeps the test fast; heavy points run in the benchmark
        code, doc = _run(op.argv)
        assert checks.check(op, code, json.dumps(doc)) is None, op.argv


def test_oracle_matches_direct_sums():
    # Erlang-B against the textbook ratio at small q; push success against
    # the Poisson-weighted sum of (1 - 1/k)^(n - 1).
    import math

    e = 2.5
    terms = [e**k / math.factorial(k) for k in range(4)]
    assert checks.erlang_b(3, e) == pytest.approx(terms[3] / sum(terms), rel=1e-12)
    m, k = 3.0, 7
    series = math.exp(-m) + sum(math.exp(-m) * m**n / math.factorial(n) * (1 - 1 / k) ** (n - 1)
                                for n in range(1, 80))
    assert checks.push_success(k, m) == pytest.approx(series, rel=1e-12)


def test_analyze_check_rejects_a_wrong_metric():
    op = _op("analyze", "--lambda-q", "250.0", "--lambda-p", "500.0", "--q", "10")
    code, doc = _run(op.argv)
    assert checks.check(op, code, json.dumps(doc)) is None
    doc["p_s_query"] += 1e-6
    assert "p_s_query" in _rejected(op, doc)


def test_optimize_check_rejects_a_wrong_q_star():
    op = _op("optimize", "--lambda-q", "250.0", "--lambda-p", "500.0")
    _, doc = _run(op.argv)
    bad = copy.deepcopy(doc)
    bad["q_star"] = (doc["q_star"] + 1) % (checks.Q_MAX + 1)
    assert "q_star" in _rejected(op, bad)
    bad = copy.deepcopy(doc)
    bad["per_q_table"][3]["p_s_push"] *= 1.001
    assert "p_s_push" in _rejected(op, bad)


def test_guidelines_check_rejects_a_row_off_target():
    op = _op("guidelines", "--p-th", "0.8", "--p-th", "0.9")
    _, doc = _run(op.argv)
    assert _rejected(op, doc) is None
    bad = copy.deepcopy(doc)
    bad["rows"][5]["lambda_q_max"] *= 1.001
    assert "query success at lambda_q_max" in _rejected(op, bad)
    bad = copy.deepcopy(doc)
    bad["rows"][25]["lambda_p_max"] *= 0.999
    assert "push success at lambda_p_max" in _rejected(op, bad)


def test_sweep_check_rejects_a_moved_crossover():
    op = _op("sweep", "--q-list", "1,10", "--ratio-list", "0.5,1.0", "--lambda-p-range", "50.0:3000.0:60",
             "--crossovers")
    _, doc = _run(op.argv)
    assert _rejected(op, doc) is None
    found = [c for c in doc["crossovers"] if c["lambda_p_cross"] is not None]
    assert found, "fixture needs a crossover"
    found[0]["lambda_p_cross"] *= 1.1
    assert "no sign change" in _rejected(op, doc)


def test_sweep_check_rejects_a_missed_crossover():
    op = _op("sweep", "--q-list", "1,10", "--ratio-list", "0.5", "--lambda-p-range", "50.0:3000.0:60",
             "--crossovers")
    _, doc = _run(op.argv)
    doc["crossovers"][0]["lambda_p_cross"] = None
    assert "changes sign" in _rejected(op, doc)


def test_simulate_check_rejects_a_push_estimate_ten_half_widths_away():
    op = _op("simulate", "--q", "10", "--lambda-q", "250.0", "--lambda-p", "1000.0", "--frames", "20000",
             "--seed", "5", seed=5)
    code, doc = _run(op.argv)
    assert checks.check(op, code, json.dumps(doc)) is None
    bad = copy.deepcopy(doc)
    bad["p_s_push_hat"] += 10 * doc["half_width_95"]["p_s_push"]
    assert "p_s_push" in _rejected(op, bad)
    bad = copy.deepcopy(doc)
    bad["queries_discarded"] += 1
    assert "queries_discarded" in _rejected(op, bad)
    bad = copy.deepcopy(doc)
    bad["frames_observed"] -= 1
    assert "frames_observed" in _rejected(op, bad)


def test_simulate_check_handles_a_zero_width_interval():
    # No push packet succeeds at this load, so the half-width is 0; the
    # rule-of-three bound keeps the true (tiny) value acceptable and still
    # rejects an estimate far from it.
    op = _op("simulate", "--q", "19", "--lambda-q", "100.0", "--lambda-p", "20000.0", "--frames", "2000",
             "--seed", "1", seed=1)
    code, doc = _run(op.argv)
    assert doc["half_width_95"]["p_s_push"] == 0.0
    assert checks.check(op, code, json.dumps(doc)) is None
    doc["p_s_push_hat"] = 0.01
    assert "p_s_push" in _rejected(op, doc)


def test_validate_check_rejects_a_push_estimate_ten_half_widths_away():
    op = _op("validate", "--q-list", "10", "--lambda-q-list", "100.0", "--lambda-p-list", "100.0",
             "--seed", "3", seed=3)
    _, doc = _run(op.argv)
    assert _rejected(op, doc) is None
    row = doc["rows"][0]
    row["p_s_push_hat"] += 10 * row["hw_push"]
    row["dev_push"] = row["p_s_push_hat"] - row["p_s_push_analytic"]
    assert "p_s_push" in _rejected(op, doc)


def test_failed_exit_and_malformed_output_are_rejected():
    op = _op("analyze", "--lambda-q", "1.0", "--lambda-p", "1.0", "--q", "3")
    assert checks.check(op, 3, "") == "exit code 3"
    assert checks.check(op, 0, "not json").startswith("malformed output")


# ---------------------------------------------------------------- run mechanics

def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert child.tail_latency(values) == (90.0, 90.0, 10)
    assert child.tail_latency(values[:99]) == (75.0, 75.0, 24)
    assert child.tail_latency(values * 40) == (100.0, 99.5, 20)
    assert child.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_traced_child_reports_layers_from_outside():
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", "design_tables", "--seed", "2",
           "--rounds", "1", "--trace", "1", "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert result["ops"] == 20 and result["failed"] == 0
    assert layers["cli.main.calls"] == 20
    assert layers["optimize.optimal_q.calls"] == 9
    assert layers["core.erlang_b.calls"] > layers["metrics.evaluate_metrics.calls"] > 0
    assert layers["optimize.closed_form_evals"] > 0
    assert layers["simulate.simulate.busy_s"] == 0.0
    assert 0.0 < layers["cli.main.self_s"] < layers["cli.main.busy_s"]


def test_run_fails_without_the_program(tmp_path):
    # A directory holding only the benchmark: exit non-zero, print no result.
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design_tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
