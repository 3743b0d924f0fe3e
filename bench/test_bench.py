"""Tests of the benchmark itself: run with `python3 -m pytest bench -q` from the repository root.

The negative controls feed each workload one deliberately corrupted result
(for relations-n6, a corrupted polynomial through the suites' `llt_fn`) and
require the checks to count it as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_negative_control_counts_a_corrupted_result_as_failed(workload):
    _, result = run.launch({"workload": workload, "seed": 1, "pass": 0, "corrupt": True})
    assert result["failed"] > 0
    assert result["failures"]


def test_corrupted_run_reports_incorrect_and_exits_nonzero(monkeypatch, capsys):
    launch = run.launch
    monkeypatch.setattr(run, "launch", lambda spec: launch(spec and {**spec, "corrupt": True}))
    assert run.main(["--workload", "recursion-n7", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] > 0


def test_clean_run_meets_the_output_contract(capsys):
    assert run.main(["--workload", "recursion-n7", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END


def test_traced_run_reports_every_layer_metric_and_repeats_counts(capsys):
    assert run.main(["--workload", "recursion-n7", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
    assert last["metrics"]["relations.recursion_evaluate.calls"]["value"] == 4279


def test_coverage_guard_fails_a_layer_with_no_calls(monkeypatch, capsys):
    required = {**run.REQUIRED_LAYERS, "recursion-n7": ("llt.llt",)}
    monkeypatch.setattr(run, "REQUIRED_LAYERS", required)
    assert run.main(["--workload", "recursion-n7", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 1
    assert "llt.llt recorded no calls" in capsys.readouterr().out


def test_tracer_rebinds_reimports_aliases_and_tables():
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import importlib
from tracer import Tracer
t = Tracer()
t.install()
m = {n: importlib.import_module("lltpaths." + n) for n in ("relations", "cli", "harmonics", "coeffring")}
reached = [m["relations"].llt, m["relations"].chromatic, m["cli"].llt, m["harmonics"].llt,
           m["cli"].recursion_evaluate, m["coeffring"].CoeffQT.__radd__, m["coeffring"].CoeffQT.__rmul__,
           *m["cli"].SUITES.values()]
assert all(hasattr(f, "__wrapped__") for f in reached), reached
assert t.unwrapped_references() == [], t.unwrapped_references()
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(run.SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
