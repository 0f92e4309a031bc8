"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench -q``.  The
smoke test runs every workload at minimal size and takes about 20 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_reports_every_metric_correctly():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = _benchmark_json()
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 2 * len(spec["workloads"])
    for i, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        expected = spec["per_layer"] if i % 2 else spec["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in expected]
        for m in expected:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if not i % 2:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_prints_deltas_per_workload_and_metric(tmp_path):
    def result(value):
        return {"runs": {"oracle-check/trace0": {
            "seed": 1, "failed": 0,
            "metrics": {"pass_s": {"value": value, "unit": "s",
                                   "better": "lower", "n": 3}}}}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(result(2.0)))
    new.write_text(json.dumps(result(2.5)))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--compare", str(old),
         str(new)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "oracle-check/trace0" in proc.stdout
    assert "+25.0%" in proc.stdout and "WORSE beyond bound" in proc.stdout


def test_compare_checks_recorded_keys_within_tolerance():
    recorded = {"k": 3, "x": 1.0, "mode": "mzi", "v": [1.0, 2.0]}
    assert workloads.compare({**recorded, "new": 0}, recorded, 1e-12) == []
    assert workloads.compare({**recorded, "x": 1.0 + 1e-9}, recorded, 1e-12)
    assert workloads.compare({**recorded, "mode": "swi"}, recorded, 0.5)
    assert workloads.compare({"k": 3}, recorded, 0.0)


def test_tracer_nests_calls_and_partitions_time():
    from cslbec import inference
    from cslbec.scenarios import SCENARIOS

    original = inference.lambda_bound
    sc = SCENARIOS["rb-swi"]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert inference.lambda_bound is not original
        inference.lambda_bound(sc.spec, sc.rc, sc.mode)
    finally:
        tr.uninstall()
    assert inference.lambda_bound is original
    names = ("inference.lambda_bound", "inference.variance_split",
             "geometry.f_closed")
    assert [tr.stats[n][0] for n in names] == [1, 1, 1]
    outer_total = tr.stats["inference.lambda_bound"][1]
    assert abs(sum(tr.stats[n][2] for n in names) - outer_total) < 1e-9
