"""The example scripts run end to end on small inputs."""

import json
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
    names = [line.split()[0] for line in lines if line.endswith(" of 1")]
    assert names == ["setup_s", "import_s", "round_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]


def test_bench_pairs_splits_setup():
    from bench_pairs import run_once, setup_parts

    stderr = ("perfbench: fit_battery seed=1 cycles=9 of 40 ops, 0/360 failed, set-up rounds "
              "0.061, 0.095, 0.058 s after 1.093 s of import, 0 draws left out\n")
    assert setup_parts(stderr) == {"import_s": {"value": 1.093, "unit": "s"},
                                   "round_s": {"value": 0.061, "unit": "s"}}
    assert setup_parts("perfbench: check failed: something\n") == {}
    # setup_s is the import plus the median round; the summary prints both to the millisecond
    metrics = run_once(ROOT, "fit_battery", 1, 0.3)["metrics"]
    parts = metrics["import_s"]["value"] + metrics["round_s"]["value"]
    assert metrics["setup_s"]["value"] == pytest.approx(parts, abs=1.5e-3)


def test_bench_pairs_fails_on_a_broken_run(tmp_path):
    # a parent with the benchmark but without the sources: its runs fail
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(tmp_path),
                           "--workload", "fit_battery", "--pairs", "1", "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "pair 1 parent: " in proc.stderr


def fake_runs(monkeypatch):
    """Replace ``bench_pairs.run_once`` by a recorder of its calls that returns
    the same metrics for every run; the list of calls is returned."""
    import bench_pairs

    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        metrics = {name: {"value": 1.0, "unit": "s"} for name in
                   ("setup_s", "import_s", "round_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
        return {"correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_bench_pairs_interleaves_every_workload(monkeypatch, capsys, tmp_path):
    from bench_pairs import main

    calls = fake_runs(monkeypatch)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").touch()
    assert main(["--parent", str(tmp_path), "--pairs", "2", "--seconds", "1"]) == 0
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    # each pair runs every workload, both sides back to back, parent first in pair 1
    sides = [tmp_path.resolve(), ROOT]
    want = [(sides[j if seed == 1 else 1 - j], w, seed) for seed in (1, 2) for w in names for j in (0, 1)]
    assert calls == want
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out if line.startswith("pair ")] == \
        [f"pair {seed} {w}" for seed in (1, 2) for w in names]
    assert [line for line in out if line.endswith(" pairs of 1 s")] == [f"{w}, 2 pairs of 1 s" for w in names]


def test_bench_pairs_repeated_workload(monkeypatch, capsys):
    from bench_pairs import main

    calls = fake_runs(monkeypatch)
    argv = ["--parent", str(ROOT), "--pairs", "1", "--seconds", "1"]
    assert main(argv + ["--workload", "verify_full", "--workload", "many_chains", "--workload", "verify_full"]) == 0
    assert [w for _, w, _ in calls] == ["verify_full", "verify_full", "many_chains", "many_chains"]
    assert len([line for line in capsys.readouterr().out.splitlines() if line.endswith(" of 1")]) == 2 * 7
