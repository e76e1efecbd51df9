"""Command line interface: factorize, simulate, verify, markov.

Exit codes: 0 success, 2 argument error (bad flag or config value, unreadable
or unwritable path), 3 validation error (lattice/mass, malformed model file),
4 numerical-factorization error, 5 verification-gate failure.

Every command is deterministic given its full argument vector (including the
seed).  File outputs get a sidecar ``<out>.manifest.json`` carrying the
parameter echo, library version, timestamp, and sha256 checksums; stdout
outputs embed a manifest without volatile fields so that replays are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .arma import (
    arma_acvf,
    check_causal_invertible,
    factorize,
    model_from_dict,
    model_to_dict,
    scale_constant,
    theta_poly,
)
from .errors import FactorizationError, RenewalArmaError, ValidationError
from .lifetime import make_constant_hazard, make_rational_pgf, spec_to_dict
from .markov import conditional_probs_p2, joint_probs_p2, mgf_trivariate, window_law
from .polynomials import Poly
from .simulate import SimConfig, simulate_counts
from .verify import report_to_dict, verify_model, verify_spec

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_VALIDATION = 3
EXIT_FACTORIZATION = 4
EXIT_GATES = 5

REPEATABLE_FLAGS = ("mgf",)  # a --config list for one of these holds one value per repetition


def _csv_floats(text):
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewal-arma",
        description="Binomial count series from superposed renewal processes and the "
        "exact ARMA factorization of their autocovariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--head", type=_csv_floats, default=None,
                       help="comma-separated head probabilities f_1,..,f_p")
        p.add_argument("--r", type=float, default=None, help="geometric tail rate in [0,1)")
        p.add_argument("--allow-zero-f1", action="store_true", help="permit f_1 = 0")
        p.add_argument("--config", default=None, help="JSON file mirroring the flags")

    fac = sub.add_parser("factorize", help="factor the autocovariance generating function into ARMA form")
    add_spec_flags(fac)
    fac.add_argument("--pgf-num", type=_csv_floats, default=None,
                     help="numerator coefficients of a rational pgf (ascending)")
    fac.add_argument("--pgf-den", type=_csv_floats, default=None,
                     help="denominator coefficients of a rational pgf (ascending)")
    fac.add_argument("--M", type=int, default=None, help="number of superposed chains (default 1)")
    fac.add_argument("--hmax", type=int, default=None, help="autocovariance lags to report (default 10)")
    fac.set_defaults(func=cmd_factorize)

    sim = sub.add_parser("simulate", help="generate a seeded count series")
    add_spec_flags(sim)
    sim.add_argument("--M", type=int, default=None)
    sim.add_argument("--steps", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None, help="64-bit unsigned seed (default 0)")
    sim.add_argument("--out", default=None, help="output path")
    sim.add_argument("--format", choices=("csv", "json"), default=None, help="default csv")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification gate battery")
    add_spec_flags(ver)
    ver.add_argument("--M", type=int, default=None)
    ver.add_argument("--level", choices=("quick", "full"), default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--model", default=None, help="gate a serialized model JSON file")
    ver.add_argument("--json-out", default=None, help="write the report as JSON")
    ver.set_defaults(func=cmd_verify)

    mar = sub.add_parser("markov", help="exact joint/conditional tables for a two-term head")
    add_spec_flags(mar)
    mar.add_argument("--M", type=int, default=None)
    mar.add_argument("--mgf", action="append", default=None, metavar="S1,S2,S3",
                     help="evaluate the trivariate MGF at these exponents (repeatable)")
    mar.set_defaults(func=cmd_markov)
    return parser


def _config_flags(parser, args) -> list[str]:
    """The ``--config`` values of flags not on the command line, as flag arguments for the parser."""
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as e:
        parser.error(f"cannot read config {args.config}: {e}")
    if not isinstance(conf, dict):
        parser.error("config file must hold a JSON object")
    tokens = []
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("func", "command", "config"):
            parser.error(f"unknown config key {key!r}")
        current = getattr(args, attr)
        if (current is None or current is False) and value is not None and value is not False:
            flag = "--" + attr.replace("_", "-")
            values = value if attr in REPEATABLE_FLAGS and isinstance(value, list) else [value]
            for v in values:  # true stands for an on/off flag; one that takes a value rejects it
                text = ",".join(map(str, v)) if isinstance(v, list) else str(v)
                tokens.append(flag if v is True else f"{flag}={text}")
    return tokens


def _require(parser, args, names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _build_spec(args):
    return make_constant_hazard(args.head, args.r, allow_zero_f1=args.allow_zero_f1)


def _threads() -> int:
    return max(1, int(os.environ.get("RENEWAL_ARMA_THREADS", os.cpu_count() or 1)))


def _stdout_manifest(command: str, params: dict) -> dict:
    return {"command": command, "version": __version__, "params": params}


def _sidecar_manifest(command: str, params: dict, outputs: dict[str, bytes]) -> dict:
    """Manifest of files whose bytes, as written, are ``outputs[path]``."""
    return {
        "schema_version": 1,
        "command": command,
        "version": __version__,
        "params": params,
        "seed": params.get("seed"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": os.path.basename(path), "sha256": hashlib.sha256(blob).hexdigest(),
                     "bytes": len(blob)} for path, blob in outputs.items()],
    }


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_factorize(parser, args) -> int:
    M = args.M if args.M is not None else 1
    hmax = args.hmax if args.hmax is not None else 10
    if M < 1 or hmax < 0:
        parser.error("--M must be >= 1 and --hmax >= 0")
    if args.pgf_num is not None or args.pgf_den is not None:
        if args.pgf_num is None or args.pgf_den is None:
            parser.error("--pgf-num and --pgf-den must be given together")
        pgf = make_rational_pgf(Poly(tuple(args.pgf_num)), Poly(tuple(args.pgf_den)))
        params = {"pgf_num": args.pgf_num, "pgf_den": args.pgf_den, "M": M, "hmax": hmax}
    else:
        _require(parser, args, ["head", "r"])
        spec = _build_spec(args)
        pgf = spec.pgf()
        params = {**spec_to_dict(spec), "M": M, "hmax": hmax}

    model = factorize(pgf, M)
    report = check_causal_invertible(model)
    var_l = pgf.variance()
    _emit({
        "schema_version": 1,
        "model": model_to_dict(model),
        "k_routes": {"constant_term": model.k,
                     "variance_formula": scale_constant(var_l, pgf.den, theta_poly(model))},
        "mu": model.mu,
        "sigma_l2": var_l,
        "ar_root_moduli": list(report.ar_root_moduli),
        "ma_root_moduli": list(report.ma_root_moduli),
        "acvf": arma_acvf(model, hmax).tolist(),
        "manifest": _stdout_manifest("factorize", params),
    })
    return EXIT_OK


def cmd_simulate(parser, args) -> int:
    _require(parser, args, ["head", "r", "M", "steps", "out"])
    seed = args.seed if args.seed is not None else 0
    fmt = args.format or "csv"
    if args.M < 1 or args.steps < 1:
        parser.error("--M and --steps must be positive")
    if not 0 <= seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    spec = _build_spec(args)
    config = SimConfig(spec=spec, M=args.M, steps=args.steps, seed=seed)
    series = simulate_counts(config, threads=_threads())
    params = {"spec": spec_to_dict(spec), "M": args.M, "steps": args.steps,
              "seed": seed, "format": fmt, "out": os.path.basename(args.out)}
    meta = {"command": "simulate", "version": __version__, "config": {
        "spec": spec_to_dict(spec), "M": args.M, "steps": args.steps, "seed": seed}}
    blob = _series_bytes(series.values, meta, fmt)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(_sidecar_manifest("simulate", params, {args.out: blob}), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({args.steps} values, {fmt}); manifest {manifest_path}")
    return EXIT_OK


def _series_bytes(values, meta, fmt) -> bytes:
    """The ``simulate`` output file: CSV (``# meta:`` line, ``t,y`` header,
    one ``t,y`` row per step) or JSON (``series.schema.json``, compact, keys
    sorted), each ending in a newline."""
    if fmt == "csv":
        head = "# meta: " + json.dumps(meta, separators=(",", ":"), sort_keys=True) + "\nt,y\n"
        return head.encode() + _decimal_rows((np.arange(len(values)), values), b",\n")
    doc = json.dumps({"schema_version": 1, "meta": meta, "values": []}, separators=(",", ":"),
                     sort_keys=True)
    # "values" sorts last, so doc ends in "[]}"; the numbers go between the brackets
    return doc[:-2].encode() + _decimal_rows((values,), b",")[:-1] + b"]}\n"


def _decimal_rows(columns, seps: bytes) -> bytes:
    """ASCII text of nonnegative integer columns, row by row: each number in
    decimal without leading zeros, followed by its separator byte ``seps[i]``.

    The rows are laid out in one fixed-width uint8 matrix, each number's
    digits right-aligned to the width of its column's largest value; a mask
    of the leading zeros is dropped by one boolean gather.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    widths = [len(str(int(c.max()))) for c in columns]
    text = np.empty((len(columns[0]), sum(widths) + len(seps)), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    at = 0
    for col, width, sep in zip(columns, widths, seps):
        rest = col.copy()
        for j in range(at + width - 1, at - 1, -1):
            text[:, j] = rest % 10 + ord("0")
            rest //= 10
        keep[:, at : at + width - 1] = col[:, None] >= 10 ** np.arange(width - 1, 0, -1)
        text[:, at + width] = sep
        at += width + 1
    return text[keep].tobytes()


def cmd_verify(parser, args) -> int:
    level = args.level or "quick"
    M = args.M if args.M is not None else 5
    seed = args.seed if args.seed is not None else 20260812
    if M < 1:
        parser.error("--M must be positive")
    gates = []
    spec = None
    if args.head is not None or args.r is not None:
        _require(parser, args, ["head", "r"])
        spec = _build_spec(args)
    if args.model is not None:
        with open(args.model) as fh:
            try:
                obj = json.load(fh)
            except ValueError as e:  # also a file that is not UTF-8 text
                raise ValidationError(f"malformed model JSON: {e}") from None
        payload = obj.get("model", obj) if isinstance(obj, dict) else obj
        model = model_from_dict(payload)
        declared = payload.get("sigma2")
        gates += verify_model(model, spec=spec, declared_sigma2=declared)
    elif spec is not None:
        gates = verify_spec(spec, M=M, level=level, seed=seed, threads=_threads())
    else:
        parser.error("give --head/--r, --model, or both")
    for gate in gates:
        print(gate.line())
    passed = all(g.passed for g in gates)
    print(f"VERIFY: {sum(g.passed for g in gates)}/{len(gates)} gates passed")
    if args.json_out:
        report = report_to_dict(gates, level)
        report["manifest"] = _stdout_manifest("verify", {
            "spec": spec_to_dict(spec) if spec else None, "model": args.model,
            "M": M, "level": level, "seed": seed})
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if passed else EXIT_GATES


def cmd_markov(parser, args) -> int:
    _require(parser, args, ["head", "r"])
    M = args.M if args.M is not None else 1
    if M < 1:
        parser.error("--M must be positive")
    spec = _build_spec(args)
    if spec.p != 2:
        raise ValidationError("markov tables are available for two-term heads only")
    law = window_law(spec, 3)
    evals = []
    for text in args.mgf or []:
        s = _csv_floats(text)
        if len(s) != 3:
            parser.error(f"--mgf needs three exponents, got {text!r}")
        evals.append({"s": s, "M": M, "value": mgf_trivariate(law, M, *s)})
    _emit({
        "schema_version": 1,
        "joint": joint_probs_p2(spec),
        "conditional": conditional_probs_p2(spec),
        "mgf": evals,
        "manifest": _stdout_manifest("markov", {
            "spec": spec_to_dict(spec), "M": M,
            "mgf": [e["s"] for e in evals]}),
    })
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:  # parsed again so that config values are converted and checked as flags are
        args = parser.parse_args(argv + _config_flags(parser, args))
    try:
        return args.func(parser, args)
    except ValidationError as e:  # includes LatticeError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FactorizationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FACTORIZATION
    except RenewalArmaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # every path the commands open is one the user named
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
