"""Self-tests of the benchmark's failure accounting and its metric list."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import metrics
from run import BENCH, ROOT, WORKLOADS, build_catalog


def run_worker(catalog: Path, kind: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "run", kind, str(catalog), "0", "-"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tiny_catalog(tmp_path: Path, name: str) -> Path:
    w = replace(WORKLOADS[name], products=4, smallest=10, largest=30)
    build_catalog(w, 1, tmp_path)
    return tmp_path


def test_wrong_expectation_fails_the_op_not_the_run(tmp_path):
    catalog = tiny_catalog(tmp_path, "summarize-catalog")
    products = json.loads((catalog / "catalog.json").read_text())["products"]
    # the smallest product: the untimed warm-up runs the largest
    k = min(range(len(products)), key=lambda j: products[j]["sentences"])
    expect_file = catalog / (products[k]["name"] + ".json")
    expect = json.loads(expect_file.read_text())
    expect["positive_total"] += 1
    expect_file.write_text(json.dumps(expect))
    result = run_worker(catalog, "summarize")
    ops = result["attempted"] - 1  # after the warm-up
    assert ops >= 100
    assert result["failed"] == sum(1 for i in range(ops) if i % len(products) == k)
    assert "positive_total" in result["failures"][0]


def test_op_that_raises_is_counted_as_failed(tmp_path):
    catalog = tiny_catalog(tmp_path, "evaluate-gold")
    (catalog / "p0002.txt").unlink()
    result = run_worker(catalog, "evaluate")
    assert 0 < result["failed"] < result["attempted"]
    assert "FileNotFoundError" in result["failures"][0]


def test_correct_catalog_has_no_failed_ops(tmp_path):
    result = run_worker(tiny_catalog(tmp_path, "cli-batch"), "cli")
    assert result["failed"] == 0 and result["attempted"] >= 101


def test_benchmark_json_matches_the_metric_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
