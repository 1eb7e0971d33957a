"""Smoke test of the benchmark itself at tiny sizes; it takes seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import bench  # noqa: E402
import checks  # noqa: E402

TINY = bench.Workload("tiny", n_list=(16, 32, 64), trials=2, workers=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _assert_result_line(result: bench.Result, kind: str) -> None:
    doc = json.loads(result.line())
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _declared(kind)
    assert all(math.isfinite(v["value"]) for v in doc["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_end_to_end_run(tmp_path):
    result = bench.measure_e2e(TINY, seed=5, seconds=0.0, workdir=tmp_path)
    assert result.checker.failures == []
    _assert_result_line(result, "end_to_end")
    assert all(v > 0 for v in result.metrics.values())


def test_traced_run_accounts_for_cell_time(tmp_path):
    result = bench.measure_traced(TINY, seed=5, seconds=0.0, workdir=tmp_path)
    assert result.checker.failures == []
    _assert_result_line(result, "per_layer")
    m = result.metrics
    # One pass: the stages plus run_cell's own time make up the cell time.
    stages = (m["synth.make_dataset_ms"] + m["estimators.empirical_covariances_ms"]
              + sum(m[f"estimators.fit_ms.{e}"] for e in checks.ESTIMATOR_NAMES)
              + m["core.bg_norm_ms"] + m["harness.run_cell_self_ms"])
    assert math.isclose(stages, m["harness.run_cell_ms"], rel_tol=1e-9)
    assert m["synth.sample_inputs_ms"] + m["synth.sample_noise_ms"] < m["synth.make_dataset_ms"]
    assert m["synth.bytes_drawn"] == 2 * 8 * (16 + 32 + 64) * (256 + 512)
    spans = list(tmp_path.glob("tiny-seed5-*/spans.json"))
    assert len(spans) == 1 and json.loads(spans[0].read_text())["unpatched"] == []


def test_checks_count_bad_outputs():
    chk = checks.Checker()
    out = checks.SweepOutput(
        summary_bytes=b"",
        summary={("single", 16): 1.0},
        runs={("single", 16, 0): float("nan")},
        report={"fits": {"multilevel": {"slope": -0.1}}},
        bytes_written=0,
    )
    checks.check_sweep(chk, out, (16,), 1, template_n_list=(16,))
    # The cell (nan, three estimators missing), the summary rows, the slope.
    assert chk.cells == 1 and len(chk.failures) == 3
    checks.check_reproduced(chk, {("single", 16, 0): 1.0}, 16, 0, {"single": 1.0 + 1e-9})
    assert len(chk.failures) == 4


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "template-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
