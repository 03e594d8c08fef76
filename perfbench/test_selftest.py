"""Self-test of the benchmark: tiny runs of every workload, one pass each.

    python3 -m pytest perfbench/test_selftest.py -q

Checks that each workload prints every metric named in BENCHMARK.json with
its unit, that a deliberately corrupted output is counted as a failed pass,
and that the benchmark refuses to run without a loadsmith source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--cases", "20"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace),
                 "--max-passes", str(1 + trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    text = "\n".join(lines[:-1])
    assert "failed_ratio 0.0000 ratio" in text
    if trace:
        assert "tracing overhead" in text and "residual (untimed)" in text
        for layer in ("ingest.parse_ms", "analysis.envelope_ms", "compare.write_ms", "cli.startup_ms"):
            assert result["metrics"][layer]["value"] > 0, layer
    else:
        for metric in declared:
            assert f"\n{metric['name']} " in text and f" {metric['unit']}" in text


def _corrupt(out: Path) -> None:
    path = out / "envelope_extremes.json"
    path.write_text(path.read_text(encoding="utf-8").replace("1", "2", 1), encoding="utf-8")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    result = run.run(ROOT, workload, seed=3, seconds=0, traced=False, cases=20,
                     max_passes=1, after_pass=_corrupt)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_large_json_inputs_are_seeded():
    import synth

    assert synth.make_inputs(5, 30) == synth.make_inputs(5, 30)
    assert synth.make_inputs(5, 30) != synth.make_inputs(6, 30)
    files = synth.make_inputs(5, 30)
    expected = synth.oracle(files)
    delivery = json.loads(files["delivery.json"])
    assert len(delivery["load_cases"]) == 30
    assert all(len(c["point_loads"]) == 20 and "label" in c for c in delivery["load_cases"])
    flags = [f for pair in expected["flags"].values() for f in pair]
    assert any(flags) and not all(flags)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
