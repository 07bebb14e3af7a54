"""End-to-end tests of the command-line interface (in-process)."""

import csv
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import pullpush.cli as cli
from pullpush import FrameConfig, SimConfig
from pullpush.cli import main

# The package re-exports the function simulate under the submodule's name.
simulate_module = importlib.import_module("pullpush.simulate")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamps(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


class TestAnalyze:
    def test_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--lambda-q", "250", "--lambda-p", "500", "--q", "10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p_s_weighted"] == pytest.approx(0.84406, abs=1e-4)
        assert doc["q"] == 10
        assert doc["k_a"] == 50
        assert doc["t_pull_s"] == pytest.approx(12.5e-3, rel=1e-12)
        assert doc["manifest"]["tool_version"]

    def test_zero_load(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda-q", "0", "--lambda-p", "0", "--q", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_s_query"] == 1.0
        assert doc["p_s_push"] == 1.0
        assert doc["p_s_weighted"] == 1.0
        assert doc["throughput_push"] == 0.0

    def test_infeasible_q_exits_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--lambda-q", "1", "--lambda-p", "1", "--q", "20")
        assert code == 3
        assert "k_a" in err

    def test_explicit_weight(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--lambda-q", "250", "--lambda-p", "500", "--q", "10", "--w-q", "1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p_s_weighted"] == pytest.approx(doc["p_s_query"], abs=1e-15)


class TestConfigHandling:
    def test_config_file_applies(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"F": 51}))
        code, _, err = run(
            capsys,
            "analyze", "--config", str(path),
            "--lambda-q", "1", "--lambda-p", "1", "--q", "10",
        )
        assert code == 3  # q_max is 9 with 51 slots
        assert "k_a" in err

    def test_flag_overrides_config(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"F": 51}))
        code, out, _ = run(
            capsys,
            "analyze", "--config", str(path), "--frame-slots", "101",
            "--lambda-q", "1", "--lambda-p", "1", "--q", "10",
        )
        assert code == 0
        assert json.loads(out)["k_a"] == 50

    def test_unknown_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"tau": 1}))
        code, _, err = run(
            capsys, "analyze", "--config", str(path), "--lambda-q", "1", "--lambda-p", "1", "--q", "1"
        )
        assert code == 2
        assert "tau" in err

    def test_wrong_type_names_field(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"F": "many"}))
        code, _, err = run(
            capsys, "analyze", "--config", str(path), "--lambda-q", "1", "--lambda-p", "1", "--q", "1"
        )
        assert code == 2
        assert "'F'" in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("{not json")
        code, _, err = run(
            capsys, "analyze", "--config", str(path), "--lambda-q", "1", "--lambda-p", "1", "--q", "1"
        )
        assert code == 2


class TestOptimize:
    @pytest.mark.parametrize("lambda_q,expected", [("250", 10), ("500", 14), ("750", 15)])
    def test_reference_optima(self, capsys, lambda_q, expected):
        code, out, _ = run(capsys, "optimize", "--lambda-q", lambda_q, "--lambda-p", "500")
        assert code == 0
        assert json.loads(out)["q_star"] == expected

    def test_pure_push(self, capsys):
        code, out, _ = run(capsys, "optimize", "--lambda-q", "0", "--lambda-p", "500")
        assert code == 0
        assert json.loads(out)["q_star"] == 0

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "optimize", "--lambda-q", "250", "--lambda-p", "500", "--csv", str(path)
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["q", "p_s_weighted", "p_s_query", "p_s_push", "k_a"]
        assert len(rows) == 21  # header + q in 0..19
        best = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert best[10] == pytest.approx(0.844061, abs=1e-4)
        assert max(best, key=best.get) == 10
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert "optimize" in manifest["command"]

    def test_csv_stdout_format(self, capsys):
        code, out, err = run(
            capsys, "optimize", "--lambda-q", "250", "--lambda-p", "500", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "q,p_s_weighted,p_s_query,p_s_push,k_a"
        assert len(lines) == 21
        assert '"timestamp"' in err  # manifest goes to stderr in csv mode

    def test_too_many_rows_exits_2_before_allocating(self, capsys):
        # q_max = 1000001 for this frame, so the table would have 1000002 rows.
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "optimize", "--frame-slots", "5000007",
                                 "--lambda-q", "250", "--lambda-p", "500")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(cli.MAX_ROWS) in err
        assert peak < 5 * 2**20


class TestGuidelines:
    def test_reference_rows(self, capsys):
        code, out, _ = run(capsys, "guidelines", "--p-th", "0.8")
        assert code == 0
        rows = {row["q"]: row for row in json.loads(out)["rows"]}
        assert rows[2]["lambda_q_max"] == pytest.approx(39.6, abs=0.5)
        assert rows[2]["lambda_p_max"] == pytest.approx(835.0, abs=2.0)
        assert rows[2]["throughput_push"] == pytest.approx(660.0, abs=2.0)
        assert rows[3]["lambda_p_max"] == pytest.approx(791.0, abs=2.0)
        assert rows[3]["throughput_push"] == pytest.approx(625.0, abs=2.0)

    def test_repeated_thresholds_nested(self, capsys):
        code, out, _ = run(
            capsys, "guidelines", "--p-th", "0.7", "--p-th", "0.8", "--p-th", "0.9"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        by_threshold = {}
        for row in rows:
            by_threshold.setdefault(row["p_th"], {})[row["q"]] = row
        for q in by_threshold[0.7]:
            assert (
                by_threshold[0.7][q]["lambda_p_max"]
                >= by_threshold[0.8][q]["lambda_p_max"]
                >= by_threshold[0.9][q]["lambda_p_max"]
            )

    def test_out_of_range_threshold_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["guidelines", "--p-th", "1.5"])
        assert excinfo.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "guidelines", "--p-th", "0.8", "--format", "csv")
        assert code == 0
        header = out.strip().splitlines()[0].strip()
        assert header == "p_th,q,lambda_q_max,lambda_p_max,n_served_mean,throughput_push"

    @pytest.mark.parametrize("argv", [
        ("--frame-slots", "100001", "--p-th", "0.9"),  # q_max = 19999: ~12 min of rate searches
        ("--frame-slots", "10001", "--p-th", "0.9", "--p-th", "0.8"),  # q_max = 1999, two targets
    ])
    def test_too_much_work_exits_2_before_any_table(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli, "design_guidelines", lambda *a: calls.append(a))
        code, out, err = run(capsys, "guidelines", *argv)
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: ") and str(cli.MAX_GUIDELINE_WORK) in err
        assert err.count("\n") == 1


class TestSweep:
    def test_monotone_in_packet_rate(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q-list", "1,10", "--ratio-list", "0.5",
            "--lambda-p-range", "50:3000:30",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        for q in (1, 10):
            series = [r["p_s_weighted"] for r in rows if r["q"] == q]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_single_point_range(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q-list", "1,10", "--ratio-list", "0.5,1.0",
            "--lambda-p-range", "500:500:1",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 4  # one row per (q, ratio)

    def test_crossover_report(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q-list", "1,10", "--ratio-list", "0.5",
            "--lambda-p-range", "50:3000:10", "--crossovers",
        )
        assert code == 0
        doc = json.loads(out)
        entry = doc["crossovers"][0]
        assert entry["q_low"] == 1 and entry["q_high"] == 10
        assert entry["lambda_p_cross"] > 0.0

    def test_a_tie_is_not_a_crossover(self, capsys):
        # Far above the frame's capacity both choices' weighted success
        # underflows to 0.0; that tie is not reported as a crossover.
        code, out, _ = run(
            capsys,
            "sweep", "--q-list", "1,10", "--ratio-list", "1",
            "--lambda-p-range", "1:10:3", "--crossovers", "--lambda-p-ceiling", "1e300",
        )
        assert code == 0
        assert json.loads(out)["crossovers"][0]["lambda_p_cross"] is None

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "10:5:3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("spec", ["0:inf:2", "0:nan:2", "nan:nan:2"])
    def test_non_finite_range_exits_2_naming_the_flag(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --lambda-p-range: range min and max must be finite, got {spec}\n")

    def test_too_many_rows_exits_2_before_allocating(self, capsys):
        argv = ["sweep", "--q-list", "1,3", "--ratio-list", "1", "--lambda-p-range", "1:10:100000000"]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(cli.MAX_ROWS) in err
        assert peak < 5 * 2**20

    def test_too_many_crossover_searches_exits_2(self, capsys):
        # 20 distinct q give 190 pairs; 53 ratios make 10070 searches.
        ratios = ",".join(str(0.1 * i) for i in range(1, 54))
        argv = ["sweep", "--q-list", ",".join(map(str, range(20))), "--ratio-list", ratios,
                "--lambda-p-range", "1:10:1"]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--crossovers")
        assert code == 2
        assert str(cli.MAX_CROSSOVER_SEARCHES) in err

    def test_too_much_crossover_work_exits_2_before_any_row(self, capsys, monkeypatch):
        # At q = 19999 one search takes 0.1-0.17 s: 105 searches x 19999 exceed the work bound.
        calls = []
        monkeypatch.setattr(cli, "crossover_push_rate", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "weighted_success_sweep", lambda *a: calls.append(a))
        argv = ["sweep", "--frame-slots", "100001", "--q-list", ",".join(map(str, range(19985, 20000))),
                "--ratio-list", "1", "--lambda-p-range", "1:10:1", "--crossovers"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: ") and str(cli.MAX_CROSSOVER_WORK) in err
        assert err.count("\n") == 1

    def test_one_search_at_a_large_frame_runs(self, capsys):
        code, out, _ = run(capsys, "sweep", "--frame-slots", "100001", "--q-list", "1,19999",
                           "--ratio-list", "1", "--lambda-p-range", "1:10:1", "--crossovers")
        assert code == 0
        assert len(json.loads(out)["crossovers"]) == 1

    @pytest.mark.parametrize("ceiling", ["inf", "nan", "0", "-5"])
    @pytest.mark.parametrize("crossovers", [[], ["--crossovers"]])
    def test_ceiling_must_be_finite_and_positive(self, capsys, ceiling, crossovers):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--q-list", "1,10", "--ratio-list", "1", "--lambda-p-range", "1:10:3",
                  *crossovers, "--lambda-p-ceiling", ceiling])
        assert excinfo.value.code == 2
        assert "--lambda-p-ceiling" in capsys.readouterr().err


class TestSimulate:
    def test_zero_load_single_frame(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--q", "1", "--lambda-q", "0", "--lambda-p", "0",
            "--frames", "1", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["queries_total"] == 0
        assert doc["packets_total"] == 0
        assert doc["zero_query_sample"] is True

    def test_reference_point_close_to_closed_form(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--q", "10", "--lambda-q", "250", "--lambda-p", "500",
            "--frames", "20000", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        hw = doc["half_width_95"]["p_s_push"]
        assert abs(doc["p_s_push_hat"] - 0.7927103541470568) < 3.0 * hw
        assert doc["manifest"]["seed"] == 1

    def test_deterministic_output(self, capsys):
        argv = [
            "simulate", "--q", "5", "--lambda-q", "100", "--lambda-p", "300",
            "--frames", "2000", "--seed", "99",
        ]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert strip_timestamps(out_a) == strip_timestamps(out_b)

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        code, out, _ = run(
            capsys,
            "simulate", "--q", "1", "--lambda-q", "1", "--lambda-p", "1", "--frames", "10",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 777

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        code, out, _ = run(
            capsys,
            "simulate", "--q", "1", "--lambda-q", "1", "--lambda-p", "1",
            "--frames", "10", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 5


class TestValidate:
    def test_small_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "validate", "--q-list", "2,10", "--lambda-q-list", "100",
            "--lambda-p-list", "500", "--frames", "5000", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["points"] == 2
        assert set(doc["summary"]) == {
            "points",
            "flags",
            "max_abs_deviation_push",
            "max_lower_bound_violation_query",
        }
        assert len(doc["rows"]) == 2

    def test_csv_format_prints_rows_then_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "validate", "--q-list", "2", "--lambda-q-list", "100",
            "--lambda-p-list", "500", "--frames", "2000", "--seed", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("q,lambda_q,lambda_p,")
        tail = "\n".join(lines[2:])
        assert json.loads(tail)["summary"]["points"] == 1

    def test_csv_file_output(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys,
            "validate", "--q-list", "2", "--lambda-q-list", "0",
            "--lambda-p-list", "0", "--frames", "200", "--seed", "1",
            "--csv", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "q" and len(rows) == 2
        assert json.loads(out)["summary"]["points"] == 1
        assert (tmp_path / "grid.csv.manifest.json").exists()

    def test_strict_zero_flags_passes(self, capsys):
        code, _, _ = run(
            capsys,
            "validate", "--q-list", "2", "--lambda-q-list", "0",
            "--lambda-p-list", "0", "--frames", "100", "--seed", "1", "--strict",
        )
        assert code == 0

    @pytest.mark.parametrize("grid,exit_code", [
        (["--q-list", "5", "--lambda-q-list", "100,-1"], 2),
        (["--q-list", "5,25", "--lambda-q-list", "100"], 3),
        (["--q-list", "5", "--lambda-q-list", "100,200", "--seed", str(2**64 - 1)], 2),
    ])
    def test_bad_last_point_exits_before_simulating(self, capsys, monkeypatch, grid, exit_code):
        # The last point's load, q or seed (sim.seed + 1 > 2**64 - 1) is rejected.
        calls = []
        real = simulate_module._simulate_one
        monkeypatch.setattr(simulate_module, "_simulate_one", lambda *a: calls.append(a) or real(*a))
        code, out, err = run(capsys, "validate", "--seed", "1", "--lambda-p-list", "100",
                             "--frames", "1000", *grid)
        assert code == exit_code and out == "" and err.startswith("error: ")
        assert calls == []

    def test_strict_with_flags_exits_4(self, capsys, monkeypatch):
        def fake_grid(*args, **kwargs):
            return [], {
                "points": 1,
                "flags": 2,
                "max_abs_deviation_push": 0.1,
                "max_lower_bound_violation_query": 0.0,
            }

        monkeypatch.setattr(cli, "validate_grid", fake_grid)
        code, _, _ = run(
            capsys,
            "validate", "--q-list", "2", "--lambda-q-list", "1",
            "--lambda-p-list", "1", "--frames", "10", "--seed", "1", "--strict",
        )
        assert code == 4

    def test_query_lower_bound_violation_is_flagged(self, capsys, monkeypatch):
        # Lowering every query estimate by 0.5 puts it ~200 half-widths below the closed form.
        real = simulate_module.simulate

        def lowered(*args):
            result = real(*args)
            return dataclasses.replace(result, p_s_query_hat=result.p_s_query_hat - 0.5)

        monkeypatch.setattr(simulate_module, "simulate", lowered)
        rows, summary = simulate_module.validate_grid(
            FrameConfig(), [10], [250.0], [500.0], SimConfig(frames=2000, seed=3)
        )
        assert rows[0].flags == ("query_lower_bound_violation",)
        assert summary["flags"] == 1
        assert summary["max_lower_bound_violation_query"] == pytest.approx(0.46, abs=0.01)
        code, _, _ = run(capsys, "validate", "--q-list", "10", "--lambda-q-list", "250",
                         "--lambda-p-list", "500", "--frames", "2000", "--seed", "3", "--strict")
        assert code == 4


_ROW_COMMANDS = [
    ["optimize", "--lambda-q", "250", "--lambda-p", "500"],
    ["guidelines", "--p-th", "0.9"],
    ["sweep", "--q-list", "1,10", "--ratio-list", "1", "--lambda-p-range", "1:10:3"],
    ["validate", "--q-list", "2", "--lambda-q-list", "1", "--lambda-p-list", "1", "--frames", "10", "--seed", "1"],
]


class TestOutputPaths:
    @pytest.mark.parametrize("argv", _ROW_COMMANDS)
    @pytest.mark.parametrize("target", ["missing/rows.csv", "."])
    def test_unwritable_csv_path_exits_2(self, capsys, tmp_path, argv, target):
        # A path in a missing directory, and a path that is a directory.
        code, out, err = run(capsys, *argv, "--csv", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", _ROW_COMMANDS)
    def test_csv_file_and_format_csv_exit_2_writing_nothing(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--csv", str(tmp_path / "rows.csv"), "--format", "csv")
        message = "error: --csv and --format csv cannot be combined: rows go to one of them\n"
        assert (code, out, err) == (2, "", message)
        assert list(tmp_path.iterdir()) == []


TAU_S_REJECTED = ("config: tau_s must keep tau_s * frame_slots and 3 * frame_slots / (tau_s * frame_slots) "
                  "finite at frame_slots=101, got ")


class TestLibraryMessages:
    """Rejections by the library's input checks that the golden record does
    not replay: an overflowing or vanishing frame time, a per-frame mean that
    overflows, a negative q, a negative ratio on an all-zero sweep."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--tau-s", "1e307", "--lambda-q", "250", "--lambda-p", "500", "--q", "5"],
             TAU_S_REJECTED + "1e+307"),
            (["optimize", "--tau-s", "1e307", "--lambda-q", "0", "--lambda-p", "500"],
             TAU_S_REJECTED + "1e+307"),
            (["simulate", "--tau-s", "1e307", "--lambda-q", "250", "--lambda-p", "500", "--q", "5",
              "--frames", "50"], TAU_S_REJECTED + "1e+307"),
            (["sweep", "--q-list", "-1", "--ratio-list", "1", "--lambda-p-range", "0:100:3"],
             "q must be a nonnegative integer, got -1"),
            (["sweep", "--q-list", "1,5", "--ratio-list", "-1", "--lambda-p-range", "0:0:3", "--crossovers"],
             "load_ratio must be finite and >= 0, got -1.0"),
            (["sweep", "--tau-s", "5e-324", "--q-list", "1,5", "--ratio-list", "0",
              "--lambda-p-range", "0:0:3", "--crossovers"], TAU_S_REJECTED + "5e-324"),
            (["optimize", "--lambda-q", "1e307", "--lambda-p", "1", "--tau-s", "1"],
             "mean must be finite and >= 0, got inf"),
            (["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "0:1e307:3", "--tau-s", "1"],
             "mean must be finite and >= 0, got inf"),
            (["sweep", "--q-list", "1,2", "--ratio-list", "1", "--lambda-p-range", "0:10:3", "--crossovers",
              "--lambda-p-ceiling", "1e307", "--tau-s", "1"], "mean must be finite and >= 0, got inf"),
            (["analyze", "--tau-s", "1e307", "--lambda-q", "0", "--lambda-p", "0", "--q", "1"],
             TAU_S_REJECTED + "1e+307"),
            (["guidelines", "--p-th", "0.5", "--tau-s", "5e-324"], TAU_S_REJECTED + "5e-324"),
            (["guidelines", "--p-th", "0.5", "--tau-s", "1e-310"], TAU_S_REJECTED + "1e-310"),
            (["sweep", "--q-list", "1,2", "--ratio-list", "1", "--lambda-p-range", "0:1e300:3", "--crossovers",
              "--tau-s", "5e-324"], TAU_S_REJECTED + "5e-324"),
        ],
    )
    def test_message_is_stable(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


_BIG_INT = "1" + "0" * 400  # 401 digits: beyond float range


class TestBoundedInputs:
    """Inputs the argument types accept but the program cannot run: a
    per-frame Poisson mean above 1e9, or an integer beyond float range.
    Each exits 2 with one error line naming the field, before any drawing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--lambda-q", "1e308", "--lambda-p", "1", "--q", "2", "--frames", "10"],
             "mean must be at most 1e+09 per frame, got 2.5250000000000003e+306"),
            (["simulate", "--tau-s", "1e300", "--lambda-q", "1", "--lambda-p", "1", "--q", "2", "--frames", "10"],
             "mean must be at most 1e+09 per frame, got 1.01e+302"),
            (["simulate", "--lambda-q", "4e13", "--lambda-p", "1", "--q", "2", "--frames", "10"],
             "mean must be at most 1e+09 per frame, got 1010000000000.0001"),
            (["analyze", "--frame-slots", _BIG_INT, "--lambda-q", "1", "--lambda-p", "1", "--q", "2"],
             f"config: frame_slots must fit a float, got {_BIG_INT}"),
            (["guidelines", "--frame-slots", _BIG_INT, "--p-th", "0.9"],
             f"config: frame_slots must fit a float, got {_BIG_INT}"),
            (["simulate", "--frame-slots", _BIG_INT, "--lambda-q", "1", "--lambda-p", "1", "--q", "2",
              "--frames", "10"], f"config: frame_slots must fit a float, got {_BIG_INT}"),
        ],
        ids=["lambda_q_1e308", "tau_s_1e300", "lambda_q_4e13", "analyze_F", "guidelines_F", "simulate_F"],
    )
    def test_exits_2_naming_the_field(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_validate_checks_every_mean_before_simulating(self, capsys, monkeypatch):
        calls = []
        original = simulate_module._simulate_one
        monkeypatch.setattr(simulate_module, "_simulate_one", lambda *a: calls.append(a) or original(*a))
        code, out, err = run(capsys, "validate", "--q-list", "2", "--lambda-q-list", "1",
                             "--lambda-p-list", "1,1e308", "--frames", "10")
        message = "mean must be at most 1e+09 per frame, got 2.5250000000000003e+306"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert calls == []

    def test_validate_grid_over_max_rows_exits_2_before_simulating(self, capsys, monkeypatch):
        calls = []
        original = simulate_module._simulate_one
        monkeypatch.setattr(simulate_module, "_simulate_one", lambda *a: calls.append(a) or original(*a))
        values = ",".join(map(str, range(1, 101)))
        code, out, err = run(capsys, "validate", "--q-list", values, "--lambda-q-list", values,
                             "--lambda-p-list", values + ",101", "--frames", "10")
        message = "validate exceeds 1000000 grid points: 100 q x 100 lambda_q x 101 lambda_p"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert calls == []

    def test_validate_grid_of_max_rows_is_accepted(self, capsys, monkeypatch):
        grids = []
        monkeypatch.setattr(cli, "validate_grid", lambda *a: grids.append(a) or ([], {"flags": 0}))
        # 10 q x 100 lambda_q x 1000 lambda_p; the sum of q over the grid stays within MAX_VALIDATE_STEPS.
        code, _, _ = run(capsys, "validate", "--q-list", ",".join(map(str, range(10))),
                         "--lambda-q-list", ",".join(map(str, range(100))),
                         "--lambda-p-list", ",".join(map(str, range(1000))), "--frames", "10")
        assert code == 0 and len(grids) == 1

    LAW_OVER_BUDGET = ("lambda_p=400000.0 at k_a=1000 needs a singleton law of 49939 rows, 502286462 bytes "
                       "and 49272833500 build steps; the budget is 268435456 bytes and 1000000000 steps")

    def test_singleton_law_over_budget_exits_2_at_once(self, capsys):
        # Building this law would take minutes and ~0.5 GB.
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--frame-slots", "1001", "--q", "0", "--lambda-q", "0",
                             "--lambda-p", "4e5", "--frames", "10")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {self.LAW_OVER_BUDGET}\n")

    def test_validate_checks_every_law_before_simulating(self, capsys, monkeypatch):
        calls = []
        original = simulate_module._simulate_one
        monkeypatch.setattr(simulate_module, "_simulate_one", lambda *a: calls.append(a) or original(*a))
        code, out, err = run(capsys, "validate", "--frame-slots", "1001", "--q-list", "0", "--lambda-q-list", "0",
                             "--lambda-p-list", "1,4e5", "--frames", "10")
        assert (code, out, err) == (2, "", f"error: {self.LAW_OVER_BUDGET}\n")
        assert calls == []

    # Each entry point runs the Erlang-B recursion over q steps; --frame-slots 1e11 holds every q here.
    # With the entry point deleted, a command that reaches it raises NameError.
    @pytest.mark.parametrize("entry, argv, last_accepted, first_rejected", [
        ("evaluate_metrics", ["analyze", "--lambda-q", "1", "--lambda-p", "1", "--q"], "999999", "1000000"),
        ("weighted_success_sweep", ["sweep", "--ratio-list", "1", "--lambda-p-range", "1:2:1000", "--q-list"],
         "499999,1", "500000,1"),
        ("validate_grid", ["validate", "--lambda-q-list", "1", "--lambda-p-list", "1,2", "--q-list"],
         "4999999,1", "5000000,1"),
    ])
    def test_erlang_b_work_is_bounded_before_any_work(self, capsys, monkeypatch, entry, argv, last_accepted,
                                                      first_rejected):
        monkeypatch.delattr(cli, entry)
        with pytest.raises(NameError, match=entry):
            main([*argv, last_accepted, "--frame-slots", "100000000000"])
        for q in (first_rejected, "10000000000"):
            code, out, err = run(capsys, *argv, q, "--frame-slots", "100000000000")
            assert (code, out) == (2, "") and err.startswith(f"error: {argv[0]} exceeds ") and err.count("\n") == 1
            assert "Erlang-B steps" in err

    # The table-size and search-work bounds at their edges: the last accepted argv
    # reaches the deleted entry point, and the first rejected one exits 2 before it.
    _RATIOS = ",".join(map(str, range(1, 1001)))
    _BIG_FRAME = ["--frame-slots", "100000000000"]

    @pytest.mark.parametrize("entry, accepted, rejected, message", [
        ("optimal_q", ["optimize", "--lambda-q", "1", "--lambda-p", "1", "--frame-slots", "5000001"],
         ["optimize", "--lambda-q", "1", "--lambda-p", "1", "--frame-slots", "5000002"],
         "optimize exceeds 1000000 rows: the frame allows q = 0..1000000"),
        ("design_guidelines", ["guidelines", "--p-th", "0.9", "--frame-slots", "10002"],
         ["guidelines", "--p-th", "0.9", "--frame-slots", "10007"],
         "guidelines exceeds 4000000 targets x q_max^2: 1 targets, q = 1..2001"),
        ("weighted_success_sweep",
         ["sweep", "--ratio-list", "1,2", "--lambda-p-range", "1:2:1000", "--q-list", "249999,1", *_BIG_FRAME],
         ["sweep", "--ratio-list", "1,2", "--lambda-p-range", "1:2:1000", "--q-list", "250000,1", *_BIG_FRAME],
         "sweep exceeds 1000000000 Erlang-B steps x (lambda_p steps + 1000): 500002 x 2000"),
        ("weighted_success_sweep",
         ["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "1:2:1000000"],
         ["sweep", "--q-list", "1", "--ratio-list", "1", "--lambda-p-range", "1:2:1000001"],
         "sweep exceeds 1000000 rows or 10000 crossover searches"),
        ("crossover_push_rate",
         ["sweep", "--crossovers", "--q-list", "0,1,2,3,4", "--lambda-p-range", "1:2:1", "--ratio-list", _RATIOS],
         ["sweep", "--crossovers", "--q-list", "0,1,2,3,4", "--lambda-p-range", "1:2:1",
          "--ratio-list", _RATIOS + ",1001"],
         "sweep exceeds 1000000 rows or 10000 crossover searches"),
        ("crossover_push_rate",
         ["sweep", "--crossovers", "--ratio-list", "1", "--lambda-p-range", "1:2:1", "--q-list", "1,2,3,4,100000",
          *_BIG_FRAME],
         ["sweep", "--crossovers", "--ratio-list", "1", "--lambda-p-range", "1:2:1", "--q-list", "1,2,3,4,100001",
          *_BIG_FRAME],
         "sweep exceeds 1000000 crossover searches x largest q: 10 searches, largest q 100001"),
    ], ids=["optimize_rows", "guideline_work", "sweep_work", "sweep_rows", "crossover_searches",
            "crossover_work"])
    def test_work_is_bounded_at_its_edge(self, capsys, monkeypatch, entry, accepted, rejected, message):
        monkeypatch.delattr(cli, entry)
        with pytest.raises(NameError, match=entry):
            main(accepted)
        assert run(capsys, *rejected) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_config_tau_beyond_float_range(self, capsys, tmp_path, sign):
        path = tmp_path / "frame.json"
        path.write_text(f'{{"tau_s": {sign}{_BIG_INT}}}')
        code, out, err = run(capsys, "analyze", "--config", str(path), "--lambda-q", "1", "--lambda-p", "1",
                             "--q", "2")
        message = f"config: tau_s must be a finite positive number, got {sign}{_BIG_INT}"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestReproducibility:
    def test_rerun_is_byte_identical_modulo_timestamp(self, capsys):
        argv = ["optimize", "--lambda-q", "250", "--lambda-p", "500"]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert strip_timestamps(out_a) == strip_timestamps(out_b)

    def test_command_recorded_in_manifest(self, capsys):
        code, out, _ = run(capsys, "optimize", "--lambda-q", "250", "--lambda-p", "500")
        doc = json.loads(out)
        assert doc["manifest"]["command"].startswith("pullpush optimize")

    def test_stream_version_only_in_simulation_manifests(self, capsys):
        sim = ["--lambda-q", "1", "--lambda-p", "1", "--frames", "10", "--seed", "1"]
        _, out, _ = run(capsys, "simulate", "--q", "1", *sim)
        assert json.loads(out)["manifest"]["stream_version"] == 2
        _, out, _ = run(capsys, "validate", "--q-list", "1", "--lambda-q-list", "1",
                        "--lambda-p-list", "1", "--frames", "10", "--seed", "1")
        assert json.loads(out)["manifest"]["stream_version"] == 2
        _, out, _ = run(capsys, "analyze", "--lambda-q", "1", "--lambda-p", "1", "--q", "1")
        assert "stream_version" not in json.loads(out)["manifest"]

    def test_csv_floats_have_nine_significant_digits(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        run(capsys, "optimize", "--lambda-q", "250", "--lambda-p", "500", "--csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        value = rows[11][1]  # q=10 weighted success
        assert float(value) == pytest.approx(0.844061324, abs=1e-8)
        digits = value.replace(".", "").lstrip("0")
        assert len(digits) == 9


class TestModuleEntryPoint:
    """``python -m pullpush.cli`` in a fresh interpreter, importing the same
    package as these tests."""

    def run_module(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "pullpush.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_version(self):
        done = self.run_module("--version")
        assert (done.returncode, done.stdout, done.stderr) == (0, "pullpush 0.3.0\n", "")

    def test_usage_error_exits_2(self):
        done = self.run_module("analyze", "--q", "1")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: pullpush analyze")
