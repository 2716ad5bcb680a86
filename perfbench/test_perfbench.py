"""Self-test of the benchmark: every workload at the tiny size, through
the same command the benchmark is run with.

    python3 -m pytest perfbench -q

(run from the root of a checkout; takes about a minute).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as _fp:
    SPEC = json.load(_fp)


def _bench(workload: str, trace: int, cwd: str = CHECKOUT):
    command = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    if workload == "netmix-drop-sqlite":
        # One known fault per round of three checks: drop survival.
        assert result["failed"] * 3 == result["attempted"]
        assert "known fault: drop survival on the fixed input" in proc.stdout
    else:
        assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(CHECKOUT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mix-postmortem", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
