#!/usr/bin/env python3
"""Alternated parent/change runs of benchmark workloads.

    python3 scripts/bench_pairs.py --parent DIR [--workload NAME ...] [--pairs N] [--seconds S]

Runs ``perfbench/run.py`` in the parent checkout DIR and in this checkout,
one after the other, N times for each workload.  ``--workload`` may be
given more than once; without it every workload of ``BENCHMARK.json`` runs.
The workloads are interleaved within each pair, so that a slow phase of the
machine falls on all of them.  The side that runs first alternates from
pair to pair, and both runs of pair i take the seed i.  Every pair's
end-to-end metrics are printed (tagged with the workload when there are
several), then, per workload and for each metric, both medians, their ratio
(change / parent), both sides' quartiles and how many pairs the change won;
ties count for neither side.  Below ``setup_s`` come its two parts, read
from each run's stderr summary: ``import_s``, the seconds spent importing,
and ``round_s``, the median set-up round, so that a change in ``setup_s``
can be put down to one of them.  The metrics, their units and which
direction is better come from this checkout's ``BENCHMARK.json``, and
``--seconds`` defaults to its run length.  Exits with 1 if any run fails or
reports an incorrect output.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# the parts of setup_s, read from the stderr summary and shown below it
SETUP_PARTS = [{"name": "import_s", "unit": "s", "better": "lower"},
               {"name": "round_s", "unit": "s", "better": "lower"}]
SETUP_SUMMARY = re.compile(r"set-up rounds ([0-9., ]+) s after ([0-9.]+) s of import")


def setup_parts(stderr: str) -> dict:
    """``import_s`` and ``round_s`` (the median set-up round) from a run's
    stderr summary, as metrics; empty if the summary is missing."""
    found = SETUP_SUMMARY.search(stderr)
    if not found:
        return {}
    rounds = [float(x) for x in found.group(1).split(",")]
    return {"import_s": {"value": float(found.group(2)), "unit": "s"},
            "round_s": {"value": statistics.median(rounds), "unit": "s"}}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its JSON summary
    line, with the parts of ``setup_s`` added to its metrics."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    result["metrics"].update(setup_parts(proc.stderr))
    return result


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q[0], q[2]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent commit's checkout")
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run; repeat for several (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {args.parent}")
    workloads = list(dict.fromkeys(args.workload or names))
    metrics = bench["end_to_end"]

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    bad = []
    for i in range(args.pairs):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            tag = f" {workload}" if len(workloads) > 1 else ""
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds)
                runs[workload][side].append(result)
                if not result.get("correct"):
                    bad.append(f"pair {seed} {side}{tag}: {result.get('error', 'incorrect output')}")
            cells = []
            for m in metrics:
                got = [runs[workload][side][-1].get("metrics", {}).get(m["name"], {}).get("value") for side in sides]
                cells.append(f"{m['name']} " + " / ".join("-" if v is None else f"{v:.4g}" for v in got))
            print(f"pair {seed}{tag} ({order[0]} first; parent / change): " + ", ".join(cells))

    for workload in workloads:
        summarize(workload, runs[workload], metrics, args.pairs, args.seconds)
    for line in bad:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if bad else 0


def summarize(workload: str, runs: dict, metrics: list, pairs: int, seconds: float) -> None:
    """Print one workload's table: per metric, both medians, their ratio, both
    sides' quartiles and the pairs the change won."""
    sides = ("parent", "change")
    print(f"\n{workload}, {pairs} pairs of {seconds:g} s")
    print(f"{'metric':<12} {'unit':<4} {'parent':>10} {'change':>10} {'ratio':>7} "
          f"{'parent q1-q3':>21} {'change q1-q3':>21} {'change won':>11}")
    rows = [row for m in metrics for row in [m] + (SETUP_PARTS if m["name"] == "setup_s" else [])]
    for m in rows:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]
                         if m["name"] in r.get("metrics", {})] for side in sides}
        if len(values["parent"]) != pairs or len(values["change"]) != pairs:
            print(f"{m['name']:<12} {m['unit']:<4} {'missing':>10}")
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        med = {side: statistics.median(v) for side, v in values.items()}
        ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
        spread = " ".join("{:>21}".format("{:.4g}-{:.4g}".format(*quartiles(values[side]))) for side in sides)
        print(f"{m['name']:<12} {m['unit']:<4} {med['parent']:>10.4g} {med['change']:>10.4g} {ratio:>7.3f} "
              f"{spread} {won:>6} of {pairs}")


if __name__ == "__main__":
    sys.exit(main())
