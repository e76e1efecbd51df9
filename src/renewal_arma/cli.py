"""Command line interface: factorize, simulate, verify, markov.

Exit codes: 0 success, 1 any other library error, 2 argument error (bad flag
or config value, unreadable or unwritable path, a size too large to allocate),
3 validation error (lattice/mass, non-finite input, malformed model file, an
MGF that overflows), 4 numerical-factorization error, 5 verification-gate
failure.

Every command is deterministic given its full argument vector (including the
seed).  File outputs get a sidecar ``<out>.manifest.json`` carrying the
parameter echo, library version, timestamp, and sha256 checksums; stdout
outputs embed a manifest without volatile fields so that replays are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
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
from .simulate import MAX_CHAINS, SimConfig, simulate_counts
from .verify import MC_SEED, report_to_dict, verify_model, verify_spec

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


def _seed(parser, args, default: int) -> int:
    seed = args.seed if args.seed is not None else default
    if not 0 <= seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    return seed


def _build_spec(args):
    return make_constant_hazard(args.head, args.r, allow_zero_f1=args.allow_zero_f1)


def _stdout_manifest(command: str, params: dict) -> dict:
    return {"command": command, "version": __version__, "params": params}


def _sidecar_manifest(command: str, params: dict, outputs: dict[str, tuple[str, int]]) -> dict:
    """Manifest of files whose sha256 hex digest and byte count, as written, are ``outputs[path]``."""
    return {
        "schema_version": 1,
        "command": command,
        "version": __version__,
        "params": params,
        "seed": params.get("seed"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": os.path.basename(path), "sha256": sha256, "bytes": size}
                    for path, (sha256, size) in outputs.items()],
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
        if args.head is not None or args.r is not None or args.allow_zero_f1:
            parser.error("--pgf-num/--pgf-den give the lifetime: they take no --head, --r or --allow-zero-f1")
        if not all(math.isfinite(c) for c in args.pgf_num + args.pgf_den):
            raise ValidationError("pgf coefficients must be finite")
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
    seed = _seed(parser, args, 0)
    fmt = args.format or "csv"
    if args.M < 1 or args.steps < 1:
        parser.error("--M and --steps must be positive")
    if args.M > MAX_CHAINS:
        parser.error("--M must be at most 2**32, the chains a seed's streams can key")
    spec = _build_spec(args)
    config = SimConfig(spec=spec, M=args.M, steps=args.steps, seed=seed)
    series = simulate_counts(config)
    params = {"spec": spec_to_dict(spec), "M": args.M, "steps": args.steps,
              "seed": seed, "format": fmt, "out": os.path.basename(args.out)}
    meta = {"command": "simulate", "version": __version__, "config": {
        "spec": spec_to_dict(spec), "M": args.M, "steps": args.steps, "seed": seed}}
    digest, size = hashlib.sha256(), 0
    with open(args.out, "wb") as fh:
        for block in _series_blocks(series.values, meta, fmt):  # hashed as written, never read back
            digest.update(block)
            size += fh.write(block)
    manifest_path = args.out + ".manifest.json"
    outputs = {args.out: (digest.hexdigest(), size)}
    with open(manifest_path, "w") as fh:
        json.dump(_sidecar_manifest("simulate", params, outputs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({args.steps} values, {fmt}); manifest {manifest_path}")
    return EXIT_OK


BLOCK_DIGITS = 5  # an output block holds at most 10**BLOCK_DIGITS rows


def _series_blocks(values, meta, fmt):
    """The ``simulate`` output file, as consecutive bytes-like blocks: CSV
    (``# meta:`` line, ``t,y`` header, one ``t,y`` row per step) or JSON
    (``series.schema.json``, compact, keys sorted), each ending in a newline.

    The rows are encoded a block at a time, so the file never exists whole
    in memory.  CSV blocks never cross a decade of t, so every t in a block
    has the same d digits; the first d - k of them are constant and the last
    k count up from zero, a copy of a table of the numbers below 10**k.
    ``values`` is an array of nonnegative integers of any integer type: the
    counts are encoded in their own type.
    """
    if fmt == "csv":
        yield ("# meta: " + json.dumps(meta, separators=(",", ":"), sort_keys=True) + "\nt,y\n").encode()
        low = _low_digits()
        for lo, hi, d, k in _t_blocks(len(values)):
            counts = values[lo:hi]
            text = np.empty((hi - lo, d + _count_width(counts) + 2), dtype=np.uint8)
            text[:, : d - k] = np.frombuffer(str(lo)[: d - k].encode(), dtype=np.uint8)
            for j in range(k):  # column by column: a row-major (rows, k) copy is about 3x slower
                text[:, d - k + j] = low[BLOCK_DIGITS - k + j, : hi - lo]
            text[:, d] = ord(",")
            yield _count_field(text, d + 1, counts, ord("\n"))
        return
    doc = json.dumps({"schema_version": 1, "meta": meta, "values": []}, separators=(",", ":"),
                     sort_keys=True)
    yield doc[:-2].encode()  # "values" sorts last, so doc ends in "[]}"; the numbers go between
    for lo in range(0, len(values), 10 ** BLOCK_DIGITS):
        counts = values[lo : lo + 10 ** BLOCK_DIGITS]
        block = _count_field(np.empty((len(counts), _count_width(counts) + 1), dtype=np.uint8),
                             0, counts, ord(","))
        yield block if lo + len(counts) < len(values) else block[:-1]
    yield b"]}\n"


def _t_blocks(n):
    """(lo, hi, d, k) for consecutive blocks [lo, hi) of 0..n-1: every t in a
    block has d digits, lo is a multiple of 10**k and hi - lo <= 10**k."""
    lo = 0
    while lo < n:
        d = len(str(lo))
        k = max(1, min(d - 1, BLOCK_DIGITS))
        hi = min(lo + 10 ** k, n)
        yield lo, hi, d, k
        lo = hi


@functools.cache
def _low_digits() -> np.ndarray:
    """ASCII digits of 0, 1, 2, .., 10**BLOCK_DIGITS - 1, zero-padded: row j
    holds the digit of place 10**(BLOCK_DIGITS - 1 - j) of each number."""
    size = 10 ** BLOCK_DIGITS
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.stack([np.tile(np.repeat(digits, 10 ** j), size // 10 ** (j + 1))
                      for j in range(BLOCK_DIGITS - 1, -1, -1)])
    table.flags.writeable = False  # one cached table serves every call
    return table


def _count_width(counts) -> int:
    return len(str(int(counts.max())))


def _count_field(text, at, counts, sep: int) -> np.ndarray:
    """Fill columns ``at`` to the end of the uint8 row matrix ``text``: each
    count in decimal, right-aligned to the widest, then the separator byte.
    Returns the rows as one flat array; only a block whose counts differ in
    width needs a gather to drop the leading zeros.

    The arithmetic stays in the counts' own type.  In a narrow unsigned type
    ``rest + ord("0")`` and ``10 * quot`` may wrap, but the digit is their
    difference, and wrapping cancels in it: a digit byte is the exact result
    modulo the type's range, which is a multiple of 256.  The powers of ten
    are made in that type too, since numpy before 2.0 compares uint64 with
    int64 in float64."""
    width = text.shape[1] - at - 1
    text[:, -1] = sep
    rest = counts
    for j in range(at + width - 1, at, -1):  # one pass per place, the leading digit needs none
        quot = rest // 10
        np.subtract(rest + ord("0"), 10 * quot, out=text[:, j], casting="unsafe")
        rest = quot
    np.add(rest, ord("0"), out=text[:, at], casting="unsafe")
    if width == 1 or int(counts.min()) >= 10 ** (width - 1):
        return text.reshape(-1)
    keep = np.ones(text.shape, dtype=bool)
    keep[:, at : at + width - 1] = counts[:, None] >= 10 ** np.arange(width - 1, 0, -1, dtype=counts.dtype)
    return text[keep]


def cmd_verify(parser, args) -> int:
    level = args.level or "quick"
    M = args.M if args.M is not None else 5
    if M < 1:
        parser.error("--M must be positive")
    if level == "full" and M > MAX_CHAINS:
        parser.error("--level full simulates --M chains: at most 2**32, the chains a seed's streams can key")
    if args.model is not None and (args.level == "full" or args.M is not None):
        parser.error("--model runs the model gates only: it takes neither --level full nor --M, "
                     "the model file gives M")
    if args.model is not None and args.seed is not None:
        parser.error("--model runs the model gates only, which draw nothing: it takes no --seed")
    seed = None if args.model is not None else _seed(parser, args, MC_SEED)
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
        model = model_from_dict(obj.get("model", obj) if isinstance(obj, dict) else obj)
        M = model.M
        gates = verify_model(model, pgf=spec.pgf() if spec else None)
    elif spec is not None:
        gates = verify_spec(spec, M=M, level=level, seed=seed)
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
        if len(s) != 3 or not all(math.isfinite(x) for x in s):
            parser.error(f"--mgf needs three finite exponents, got {text!r}")
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
    except MemoryError as e:  # every size the commands allocate comes from the user's flags
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
