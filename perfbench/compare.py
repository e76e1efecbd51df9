"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 perfbench/compare.py

Run from the root of a source checkout.  The command, run length, workloads,
metrics and bounds come from BENCHMARK.json.  For every workload, set A uses
seeds 1..10 and set B seeds 1001..1010; their runs alternate.  For each
end-to-end metric it prints the median and quartiles of each set and the
spread (distance between the quartiles as a share of the median), and checks
that

* every spread, that of ``setup_s`` too, is within the metric's bound,
* the medians of the two sets differ by no more than the bound, either way,
* every run reported correct outputs and no failed operation,
* every run printed each metric with the unit BENCHMARK.json gives it.

It then makes two traced runs (seed 1) per workload, each right after an
untraced run of the same seed, checks that every per-layer metric that is not
a time (counts, bytes, ratios of counts) is identical in the two traced runs,
and reports the tracing overhead as the traced median operation time minus
that of the untraced runs beside them.  The machine's speed can change
between the sets and the traced runs, so the overhead is taken from runs
made next to each other.  The whole report is written as JSON to
``perfbench/out/compare.json``; the exit code is 0 only if every check held.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SET_SEEDS = (1, 1001)  # first seed of set A and of set B
TRACED_RUNS = 2


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result["units_ok"] = ({k: v["unit"] for k, v in result["metrics"].items()}
                          == {m["name"]: m["unit"] for m in declared})
    result["wall_s"] = wall
    result["seed"] = seed
    print(f"  {workload} seed={seed} trace={trace} {wall:.1f} s  "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}  " +
          "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    if not trace or k == "trace.op_p50_ms"), flush=True)
    if not result["correct"]:
        print(proc.stderr, end="", flush=True)
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare_sets(spec, set_a, set_b):
    rows, ok = [], True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in (set_a, set_b)]
        a, b = sets[0]["median"], sets[1]["median"]
        row = {"metric": name, "unit": metric["unit"], "bound": bound, "sets": sets,
               "spread_ok": all(s["spread"] <= bound for s in sets),
               "drift": (b - a) / a, "drift_ok": abs(b - a) / a <= bound}
        ok &= row["spread_ok"] and row["drift_ok"]
        rows.append(row)
    runs = set_a + set_b
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    units_ok = all(r["units_ok"] for r in runs)
    ok &= correct and failed == 0 and units_ok
    return {"metrics": rows, "failed": failed, "attempted": sum(r["attempted"] for r in runs),
            "all_correct": correct, "units_ok": units_ok, "ok": ok}


def compare_traced(spec, pairs):
    untraced, traced = zip(*pairs)
    counts = {}
    for metric in spec["per_layer"]:
        if metric["unit"] != "ms":
            values = [r["metrics"][metric["name"]]["value"] for r in traced]
            counts[metric["name"]] = {"values": values, "identical": len(set(values)) == 1}
    traced_p50 = statistics.median(r["metrics"]["trace.op_p50_ms"]["value"] for r in traced)
    untraced_p50 = statistics.median(r["metrics"]["op_p50_ms"]["value"] for r in untraced)
    return {
        "counts_identical": all(c["identical"] for c in counts.values()),
        "runs_ok": all(r["correct"] and r["failed"] == 0 and r["units_ok"] for pair in pairs for r in pair),
        "counts": counts,
        "traced_op_p50_ms": traced_p50,
        "untraced_op_p50_ms": untraced_p50,
        "overhead_ms": traced_p50 - untraced_p50,
        "overhead_share": (traced_p50 - untraced_p50) / untraced_p50,
        "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
    }


def print_report(workload, result):
    print(f"\n{workload}: {'AGREE' if result['ok'] else 'DISAGREE'}  "
          f"failed {result['failed']}/{result['attempted']}  all correct {result['all_correct']}  "
          f"units as declared {result['units_ok']}")
    for row in result["metrics"]:
        cells = "  ".join(f"[{s['q1']:.4g} {s['median']:.4g} {s['q3']:.4g}] spread {s['spread']:.3f}"
                          for s in row["sets"])
        print(f"  {row['metric']:>12} ({row['unit']}, bound {row['bound']}): {cells}  "
              f"B-A {row['drift']:+.3f}")
    t = result["traced"]
    print(f"  traced: counts identical {t['counts_identical']}, runs correct {t['runs_ok']}, "
          f"op_p50 {t['traced_op_p50_ms']:.4g} ms vs {t['untraced_op_p50_ms']:.4g} ms untraced, "
          f"overhead {100 * t['overhead_share']:+.1f}%")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        set_a, set_b = [], []
        for i in range(RUNS):
            set_a.append(run_once(spec, workload, SET_SEEDS[0] + i, 0))
            set_b.append(run_once(spec, workload, SET_SEEDS[1] + i, 0))
        result = compare_sets(spec, set_a, set_b)
        pairs = [(run_once(spec, workload, 1, 0), run_once(spec, workload, 1, 1))
                 for _ in range(TRACED_RUNS)]
        result["traced"] = compare_traced(spec, pairs)
        result["ok"] &= result["traced"]["counts_identical"] and result["traced"]["runs_ok"]
        result["runs"] = [set_a, set_b]
        report[workload] = result
        ok &= result["ok"]
        print_report(workload, result)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=1))
    print(f"\n{'ALL AGREE' if ok else 'SOME DISAGREE'}; report in {out / 'compare.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
