"""The four benchmark workloads.

A workload is built from the benchmark seed (input generation), holds one
cycle of operations, runs one of them at a time (``run``), and afterwards
checks the ``(item, output)`` pairs of the last cycle's successful
operations against :mod:`oracle` (``check``).
Every call into the program goes through a module attribute looked up at
call time (``ra.factorize``, ``cli.main``), so a traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import renewal_arma as ra
from renewal_arma import cli, verify

import oracle

P2_HEAD, P2_R = (0.2, 0.3), 0.6  # the paper's running example, mu = 3.05


class FitBattery:
    """make_constant_hazard -> factorize -> verify_spec(quick) over a seeded battery."""

    PS = (1, 2, 3, 5, 10, 20, 30)
    PER_P = 32
    M = 5
    # arma.validate_model rejects AR/MA root pairs closer than 1e-8 (absolute);
    # draws whose reference gap is below 100 times that are left out
    MIN_ROOT_GAP = 1e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.cycle = []
        self.left_out = 0
        for p in self.PS:
            kept = 0
            while kept < self.PER_P:
                head, r = self._draw(rng, p)
                if oracle.ar_ma_root_gap(head, r) < self.MIN_ROOT_GAP:
                    self.left_out += 1
                    continue
                self.cycle.append((head, r))
                kept += 1

    @staticmethod
    def _draw(rng, p):
        # Dirichlet weights reach the small head terms that high orders need;
        # a rejection loop on f_1 (as in the test suite's generator) does not
        # terminate at p = 20
        w = rng.dirichlet(np.ones(p + 1))
        head = tuple(float(x) for x in w[:p] * rng.uniform(0.5, 0.95))
        return head, float(rng.uniform(0.2, 0.9))

    def run(self, slot, item):
        head, r = item
        spec = ra.make_constant_hazard(head, r)
        model = ra.factorize(spec.pgf(), self.M)
        gates = verify.verify_spec(spec, M=self.M, level="quick")
        return all(g.passed for g in gates), model

    def check(self, pairs) -> list[str]:
        bad = []
        for (head, r), model in pairs:
            p = len(head)
            tag = f"p={p} r={r:.3f}"
            gamma = oracle.renewal_acvf(head, r, self.M, 50)
            err = float(np.max(np.abs(ra.arma_acvf(model, 50) - gamma)))
            if not err <= 1e-8:
                bad.append(f"{tag}: arma_acvf off the renewal recursion by {err:.2e}")
            for label, poly in (("phi", [1.0] + [-c for c in model.phi]),
                                ("theta", [1.0] + list(model.theta))):
                if len(poly) > 1 and not np.all(np.abs(np.roots(poly[::-1])) > 1.0):
                    bad.append(f"{tag}: a {label} root is not outside the unit circle")
            f_next = (1.0 - r) * (1.0 - math.fsum(head))
            if abs(f_next - head[-1] * r) > 1e-6 and (len(model.phi), len(model.theta)) != (p, p - 1):
                bad.append(f"{tag}: orders {len(model.phi)},{len(model.theta)}, expected {p},{p - 1}")
            if p == 2 and not np.allclose(model.phi, oracle.phi_p2(head[0], head[1], r), rtol=0, atol=1e-10):
                bad.append(f"{tag}: phi {model.phi} differs from the closed form")
        return bad


class SimulateCli:
    """``renewal-arma simulate`` in process at p = 2, M = 5 and 10**6 steps.

    A cycle writes CSV, JSON, CSV: the two formats alternate, and CSV, the
    command's default, has the larger share, so that the median operation
    falls inside one format's cluster of times rather than in the gap
    between the two.
    """

    M = 5
    STEPS = 10 ** 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.cycle = [(fmt, int(rng.integers(2 ** 63))) for fmt in ("csv", "json", "csv")]

    def _argv(self, fmt, seed, out):
        return ["simulate", "--head", ",".join(map(str, P2_HEAD)), "--r", str(P2_R),
                "--M", str(self.M), "--steps", str(self.STEPS), "--seed", str(seed),
                "--format", fmt, "--out", str(out)]

    def run(self, slot, item):
        fmt, seed = item
        out = self.workdir / f"series{slot}.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(fmt, seed, out))
        return code == 0, [out, Path(f"{out}.manifest.json")]

    def check(self, pairs) -> list[str]:
        bad, replayed = [], set()
        mu = oracle.mean(P2_HEAD, P2_R)
        for (fmt, seed), (out, manifest_path) in pairs:
            blob = out.read_bytes()
            manifest = json.loads(manifest_path.read_text())
            if manifest["outputs"][0]["sha256"] != hashlib.sha256(blob).hexdigest():
                bad.append(f"{fmt}: manifest sha256 does not match the file")
            if fmt == "csv":
                meta, header = blob.split(b"\n", 2)[:2]
                t, y = np.loadtxt(io.BytesIO(blob), delimiter=",", skiprows=2, dtype=np.int64, ndmin=2).T
                if not meta.startswith(b"# meta: ") or header != b"t,y" or \
                        not np.array_equal(t, np.arange(len(t))):
                    bad.append("csv: malformed header or time column")
                    continue
            else:
                y = np.array(json.loads(blob)["values"], dtype=np.int64)
            if len(y) != self.STEPS or y.min() < 0 or y.max() > self.M:
                bad.append(f"{fmt}: {len(y)} values in [{y.min()}, {y.max()}], "
                           f"expected {self.STEPS} in [0, {self.M}]")
            z = abs(y.mean() - self.M / mu) / oracle.batch_se(y.astype(float))
            if not z < 5.0:
                bad.append(f"{fmt}: sample mean {z:.1f} batch SE from M/mu")
            if fmt not in replayed:
                replayed.add(fmt)
                again = self.workdir / f"again.{fmt}"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(self._argv(fmt, seed, again))
                if again.read_bytes() != blob:
                    bad.append(f"{fmt}: the same seed gave different bytes")
        return bad


class ManyChains:
    """simulate_counts through the library at M = 2000 chains and 10**4 steps."""

    M = 2000
    STEPS = 10 ** 4
    SEEDS_PER_CYCLE = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.spec = ra.make_constant_hazard(P2_HEAD, P2_R)
        self.cycle = [int(s) for s in rng.integers(2 ** 63, size=self.SEEDS_PER_CYCLE)]

    def run(self, slot, seed):
        series = ra.simulate_counts(ra.SimConfig(spec=self.spec, M=self.M, steps=self.STEPS, seed=seed),
                                    threads=1)
        return True, series.values

    def check(self, pairs) -> list[str]:
        bad = []
        results = [y for _, y in pairs]
        mu = oracle.mean(P2_HEAD, P2_R)
        q = 1.0 / mu
        gamma = oracle.renewal_acvf(P2_HEAD, P2_R, self.M, 3)
        targets = {"mean": self.M * q, "variance": self.M * q * (1.0 - q)}
        targets.update({f"lag{h}": gamma[h] for h in (1, 2, 3)})
        # batches of 400 steps from every series of the cycle, each centred on
        # its own series mean
        c = np.concatenate([(y - y.mean()).reshape(-1, 400) for y in results])
        means = np.concatenate([y.reshape(-1, 400).mean(axis=1) for y in results])
        stats = {"mean": means, "variance": (c * c).mean(axis=1)}
        stats.update({f"lag{h}": (c[:, h:] * c[:, :-h]).mean(axis=1) for h in (1, 2, 3)})
        for name, per_batch in stats.items():
            se = per_batch.std(ddof=1) / math.sqrt(len(per_batch))
            z = abs(per_batch.mean() - targets[name]) / se
            if not z < 5.0:
                bad.append(f"{name} {z:.1f} SE from its target")
        seed, first = pairs[0]
        _, again = self.run(0, seed)
        if not np.array_equal(again, first):
            bad.append("a repeated seed gave a different series")
        return bad


class VerifyFull:
    """``renewal-arma verify --level full`` in process at M = 5 over fixed p = 1, 2, 3 heads."""

    HEADS = (((0.4,), 0.6), ((0.7,), 0.3),
             ((0.2, 0.3), 0.6), ((0.5, 0.2), 0.4),
             ((0.2, 0.3, 0.1), 0.6), ((0.3, 0.1, 0.2), 0.5))

    def __init__(self, seed: int, workdir: Path):
        # The Monte-Carlo gates are tests at fixed levels, so a seed-dependent
        # simulation seed would fail some operations on some benchmark seeds.
        # Every operation uses the command's default simulation seed; the
        # benchmark seed only rotates the order of the cycle.
        k = int(np.random.default_rng([seed, 4]).integers(len(self.HEADS)))
        self.cycle = list(self.HEADS[k:] + self.HEADS[:k])
        self.workdir = workdir
        self.schema = json.loads((Path(ra.__file__).parent / "schemas" / "verify.schema.json").read_text())

    def run(self, slot, item):
        head, r = item
        out = self.workdir / f"verify{slot}.json"
        argv = ["verify", "--head", ",".join(map(str, head)), "--r", str(r), "--M", "5",
                "--level", "full", "--json-out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code == 0, [out]

    def check(self, pairs) -> list[str]:
        import jsonschema

        bad = []
        for (head, r), (out,) in pairs:
            report = json.loads(out.read_text())
            try:
                jsonschema.validate(report, self.schema)
            except jsonschema.ValidationError as e:
                bad.append(f"head {head}: report does not match the schema: {e.message}")
            failing = [g["name"] for g in report["gates"] if not g["passed"]]
            if failing or not report["passed"] or report["level"] != "full":
                bad.append(f"head {head}: gates failed: {failing}")
        return bad


WORKLOADS = {
    "fit_battery": FitBattery,
    "simulate_cli": SimulateCli,
    "many_chains": ManyChains,
    "verify_full": VerifyFull,
}
