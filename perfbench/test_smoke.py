"""Smoke test of the repository benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

A tiny run of each workload must print every metric ``BENCHMARK.json``
names, with its unit, plus the workload's own figures; a deliberately
wrong reference must fail the output checks and the exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]

NAMED = {
    "sql_analytics": {"sql_floor_ms": "ms", "sql_scan_mb_s": "MB/s",
                      "sql_groupby_few_ms": "ms", "sql_groupby_many_ms": "ms",
                      "sql_join_ms": "ms"},
    "predictive_pipeline": {"vft_rows_s": "rows/s", "train_s": "s",
                            "predict_rows_s": "rows/s", "pipeline_s": "s"},
    "serving_mix": {"serve_qps": "1/s", "serve_read_p50_ms": "ms",
                    "serve_read_p99_ms": "ms", "serve_write_p50_ms": "ms",
                    "serve_cached_reads_compared": "count",
                    "serve_cached_reads_reordered": "count"},
}


def _run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload):
    result, stdout = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = {}
    for line in stdout.splitlines():
        if line.startswith(f"{workload} "):
            _, name, _, value, unit = line.split()
            assert float(value) > 0 or (unit == "count" and float(value) == 0)
            named[name] = unit
    assert named == NAMED[workload]

    traced, _ = _run(workload, 1)
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


@pytest.fixture()
def run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    run._import_engine()
    return run


def _corrupt(workload: str):
    def hook(inputs, ref) -> None:
        if workload == "sql_analytics":
            for expected in ref["floor"]:
                expected["n"] = expected["n"] + 1
        elif workload == "predictive_pipeline":
            ref["beta"] = ref["beta"] + 1.0
        else:
            ref["a"][0] += 1.0
    return hook


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_the_run(run_module, monkeypatch, workload):
    real = run_module.run_workload
    monkeypatch.setattr(run_module, "run_workload", lambda *a, **kw: real(
        *a, inputs_hook=_corrupt(workload), **kw))
    code = run_module.main(["--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "0"])
    assert code == 1
