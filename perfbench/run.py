"""Run one renewal_arma benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fit_battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One caller runs operations in a closed loop: each starts
when the last has finished.  The timed phase repeats whole cycles of the
workload's inputs until ``--seconds`` have passed, then the outputs of the
last cycle are checked against the benchmark's own reference computations.
No input of any workload is expected to fail, so a failed operation (an
error, a failed gate or a non-zero exit) also makes the run incorrect.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Spans of a traced run are written to ``perfbench/out/``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one thread everywhere, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "RENEWAL_ARMA_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_ROUNDS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_battery", "simulate_cli", "many_chains", "verify_full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import renewal_arma from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "renewal_arma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no renewal_arma sources under {src}")
    sys.path.insert(0, str(src))
    import renewal_arma

    if Path(renewal_arma.__file__).resolve().parent != (src / "renewal_arma").resolve():
        sys.exit(f"perfbench: renewal_arma was imported from {renewal_arma.__file__}, not {src}")
    return renewal_arma


def main(argv=None) -> int:
    args = parse_args(argv)
    ra = import_program()
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tracing.Tracer(ra) if args.trace else None
    try:
        # set-up: input generation and one warm-up operation, repeated (each
        # round warms the next input of the cycle); the median round is reported
        rounds = []
        for i in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            wl.run(0, wl.cycle[i % len(wl.cycle)])
            rounds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(rounds)
        if tracer:
            tracer.reset()

        latencies, attempted, failed, cycles = [], 0, 0, 0
        failures = {}  # cycle slot -> why its operation failed
        begin = time.perf_counter()
        while True:
            last = []
            for slot, item in enumerate(wl.cycle):
                with tracer.op(attempted) if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        ok, result = wl.run(slot, item)
                        why = "gates failed or non-zero exit"
                    except ra.RenewalArmaError as e:
                        ok, result, why = False, None, f"{type(e).__name__}: {e}"
                    latencies.append(time.perf_counter() - t0)
                attempted += 1
                failed += not ok
                if ok:
                    last.append((item, result))
                else:
                    failures.setdefault(slot, why)
                if tracer and ok and isinstance(result, list):  # files a CLI operation wrote
                    tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in result)
            cycles += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            metrics = tracing.layer_metrics(tracer)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
            tracer.close()
        else:
            lat_ms = [1e3 * x for x in latencies]
            # p90 over the cycle's inputs of each input's median time: it
            # tracks the slow inputs, where a p90 over all operations would
            # follow the few seconds in which this machine runs slower
            n = len(wl.cycle)
            slot_ms = [statistics.median(lat_ms[i::n]) for i in range(n)]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": attempted / elapsed, "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
                "op_p90_ms": {"value": statistics.quantiles(slot_ms, n=10, method="inclusive")[8],
                              "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        # no workload input is expected to fail, so a failed operation is a
        # wrong output, not a figure to compare
        problems = [f"operation {slot} of the cycle {wl.cycle[slot]!r:.80} failed: {why}"
                    for slot, why in sorted(failures.items())]
        problems += wl.check(last)
    finally:
        if tracer:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} cycles={cycles} of {len(wl.cycle)} ops, "
          f"{failed}/{attempted} failed, set-up rounds {', '.join(f'{r:.3f}' for r in rounds)} s "
          f"after {import_s:.3f} s of import, {getattr(wl, 'left_out', 0)} draws left out",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
