"""The example scripts run end to end on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["p2_walkthrough.py", "--steps", "10000"],
    ["battery_sweep.py", "--per-p", "3", "--max-p", "3"],
    ["battery_sweep.py", "--per-p", "2", "--max-p", "20"],
])
def test_script_runs(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_pairs_runs():
    # the checkout as its own parent: one alternated pair of the fastest workload
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(ROOT),
                           "--workload", "fit_battery", "--pairs", "1", "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 1 (parent first; parent / change): setup_s ")
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
        assert any(line.startswith(name + " ") and line.endswith(" of 1") for line in lines), name


def test_bench_pairs_fails_on_a_broken_run(tmp_path):
    # a parent with the benchmark but without the sources: its runs fail
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(tmp_path),
                           "--workload", "fit_battery", "--pairs", "1", "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "pair 1 parent: " in proc.stderr
