"""Smoke test of the benchmark: every workload once, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "growth", "trace", "batch")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _smoke(trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "all",
         "--smoke", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(trace: int) -> tuple[list[str], dict]:
    proc = _smoke(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_end_to_end_metrics_are_printed_and_nothing_fails():
    lines, result = _result(0)
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for line in lines:
        if line.split()[:1] == ["failed_ratio"]:
            assert line.split()[1:] == ["0", "ratio"]
    assert sum(line.split()[:1] == ["failed_ratio"] for line in lines) == len(WORKLOADS)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_per_layer_metrics_are_printed_and_nothing_fails():
    _, result = _result(1)
    names = [m["name"] for m in BENCH["per_layer"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    assert result["metrics"]["scan.machine.run.calls"]["value"] == 0
    assert result["metrics"]["batch.machine.run.calls"]["value"] > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["per_layer"]
    assert list(layer_map) == [m["name"] for m in BENCH["per_layer"]]
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert workloads == set(WORKLOADS)
    for entry in layer_map.values():
        assert set(entry["on"]) | set(entry["flat_on"]) <= workloads


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _smoke(0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
