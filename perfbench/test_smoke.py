"""Smoke test of the benchmark harness: one small op of each kind per
workload, traced and checked, plus one short end-to-end run of run.py.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, PER_LAYER, layer_metrics, run_op  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from worker import WARMUP  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    shares = {name for name, _ in PER_LAYER if name.endswith("_share")}
    assert {f"{span}_share" for _, span, _ in TARGETS if span} <= shares


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_op_per_kind(name):
    w = Cli(in_process=True) if name == "cli" else WORKLOADS[name]()
    tracer = Tracer()
    totals = {"op_s": 0.0, "overhead_s": 0.0}
    for k in range(len(w.cycle)):
        parts, failures = run_op(w, w.inputs(3, WARMUP + k, small=True), tracer, totals)
        assert failures == []
        assert parts and all(t > 0 for t in parts.values())
    layers = layer_metrics(tracer, totals, 1)
    assert set(layers) == {n for n, _ in PER_LAYER} - {"cli.import_s", "cli.import_scipy_share"}
    assert layers["trace.op_s"] > 0


def test_cli_query_in_fresh_process(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    w = Cli()
    parts, failures = run_op(w, w.inputs(3, 0), None, {})
    assert failures == [] and parts["main"] > 0


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_run_refuses_a_tree_without_sources(tmp_path):
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
