"""The command itself: --quick stays green, the result line keeps its shape."""

import json
import subprocess
import sys
import time
from pathlib import Path

from bench.run import load_spec

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_quick_runs_every_workload_green():
    started = time.perf_counter()
    done = _bench("--quick")
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 20.0
    combined = json.loads(done.stdout.strip().splitlines()[-1])
    spec = load_spec()
    assert list(combined) == [w["name"] for w in spec["workloads"]]
    for result in combined.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        for metric in spec["end_to_end"]:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_traced_quick_run_reports_every_layer_metric():
    done = _bench("--workload", "steady.tcp", "--quick", "--trace", "1", "--seed", "2")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 1e-6
    assert result["metrics"]["runtime.frames_per_delivery"]["value"] > 0
    assert result["metrics"]["core.fastlane_hit_ratio"]["value"] > 0.9
