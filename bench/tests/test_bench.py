"""Self-test of the benchmark.

    python3 -m pytest bench/tests -q

Runs every workload once at minimal size in both modes and checks the result
line against BENCHMARK.json, then shows that the correctness gates fire and
that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def minimal(monkeypatch):
    """Shrink the scalable work sets and repetitions; one pass per run."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)
    monkeypatch.setattr(run, "SCAN_MAX_VERTICES", 4)
    monkeypatch.setattr(run, "RECOLOR_COLORINGS", 60)


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench(workload: str, trace: int) -> int:
    return run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric(minimal, capsys, workload, trace):
    assert bench(workload, trace) == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_corrupted_expected_value_fails(minimal, capsys, monkeypatch):
    monkeypatch.setattr(run, "chvatal", lambda tree_vertices, t: (t - 1) * (tree_vertices - 1) + 2)
    assert bench("decide-prove", 0) != 0
    result = result_line(capsys)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", ["scan", "recolor"])
def test_traced_counts_repeat_exactly(minimal, capsys, workload):
    counts = []
    for _ in range(2):
        assert bench(workload, 1) == 0
        metrics = result_line(capsys)["metrics"]
        counts.append(
            {
                name: m["value"]
                for name, m in metrics.items()
                if m["unit"] == "count" or name == "recolor.walk_ratio"
            }
        )
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
