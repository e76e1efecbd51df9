"""Span tracing of renewal_arma from outside the package.

Each traced function is replaced, at every module attribute (and class
attribute) of the package that holds it, by a wrapper that records a span
``(name, start_ns, end_ns, parent, op)`` in memory.  Callers look these
attributes up at call time, so ``roots`` is traced whether it is reached
through ``polynomials``, ``arma`` or ``verify``.  Nothing under ``src/`` is
changed; the wrappers are removed by :meth:`Tracer.close`.

A span's self time is its duration minus the durations of its direct
children.  Work runs on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path) of the function to wrap
SPANS = {
    "lifetime.make_constant_hazard": ("lifetime", "make_constant_hazard"),
    "lifetime.pgf": ("lifetime", "LifetimeSpec.pgf"),
    "polynomials.roots": ("polynomials", "roots"),
    "polynomials.factor_outside": ("polynomials", "factor_outside"),
    "arma.factorize": ("arma", "factorize"),
    "arma.arma_acvf": ("arma", "arma_acvf"),
    "renewal.renewal_probs": ("renewal", "renewal_probs"),
    "verify.analytic_gates": ("verify", "analytic_gates"),
    "verify.monte_carlo_gates": ("verify", "monte_carlo_gates"),
    "simulate.simulate_counts": ("simulate", "simulate_counts"),
    "simulate.chain_rng": ("simulate", "chain_rng"),
    "simulate.simulate_chain": ("simulate", "simulate_chain"),
    "simulate.sample_acvf": ("simulate", "sample_acvf"),
    "simulate.context_frequencies": ("simulate", "context_frequencies"),
    "markov.joint_probs_p2": ("markov", "joint_probs_p2"),
    "markov.conditional_probs_p2": ("markov", "conditional_probs_p2"),
    "markov.step_pair_law": ("markov", "step_pair_law"),
    "markov.mgf_trivariate": ("markov", "mgf_trivariate"),
    "cli.main": ("cli", "main"),
}


def _arg(name, pos):
    """The amount is the argument ``name``, passed by keyword or at position ``pos``."""
    return lambda args, kwargs, result: kwargs[name] if name in kwargs else args[pos]


def _epochs_kept(args, kwargs, result):
    # every set bit is a kept epoch; the first comes from the equilibrium
    # delay, the rest from drawn lifetimes
    ones = int(result.sum(dtype="int64"))
    return ones - (ones > 0)


# counter name -> (module, attribute path, amount(args, kwargs, result))
COUNTERS = {
    "lifetime.series_terms": ("lifetime", "RationalPGF.series", _arg("terms", 1)),
    "renewal.renewal_terms": ("renewal", "renewal_probs", _arg("N", 1)),
    "simulate.lifetimes_drawn": ("simulate", "sample_lifetimes", _arg("n", 1)),
    "simulate.epochs_kept": ("simulate", "simulate_chain", _epochs_kept),
}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, package):
        self._package = package
        self._undo = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        wrappers = {}
        for name, (mod, path) in SPANS.items():
            wrappers[(mod, path)] = self._wrap(self._lookup(mod, path), name, [])
        for name, (mod, path, amount) in COUNTERS.items():
            key = (mod, path)
            if key in wrappers:
                wrappers[key].counters.append((name, amount))
            else:
                wrappers[key] = self._wrap(self._lookup(mod, path), None, [(name, amount)])
        for (mod, path), wrapper in wrappers.items():
            self._install(mod, path, wrapper)

    def _lookup(self, mod, path):
        obj = sys.modules[f"{self._package.__name__}.{mod}"]
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _install(self, mod, path, wrapper):
        orig = wrapper.__wrapped__
        if "." in path:  # a method: patch the class attribute once
            cls_name, attr = path.split(".")
            owners = [(getattr(sys.modules[f"{self._package.__name__}.{mod}"], cls_name), attr)]
        else:
            prefix = self._package.__name__
            owners = [(m, a) for key, m in list(sys.modules.items())
                      if m is not None and (key == prefix or key.startswith(prefix + "."))
                      for a, v in list(vars(m).items()) if v is orig]
        for owner, attr in owners:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, orig))

    def _wrap(self, func, name, counters):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self._op])
                stack.append(idx)
                try:
                    result = func(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = time.perf_counter_ns()
            for cname, amount in wrapper.counters:
                counts[cname] += amount(args, kwargs, result)
            return result

        wrapper.counters = list(counters)
        return wrapper

    @contextlib.contextmanager
    def op(self, index: int):
        """Record one benchmark operation as a root span; spans inside it carry its index."""
        self._op = index
        idx = len(self.spans)
        self.spans.append([OP_SPAN, time.perf_counter_ns(), 0, -1, index])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def close(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def op_durations_ms(self) -> list[float]:
        return [(e - s) / 1e6 for name, s, e, _, _ in self.spans if name == OP_SPAN]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            fh.writelines(f"{n},{s},{e},{p},{o}\n" for n, s, e, p, o in self.spans)


def _self_ms(*names):
    return lambda run: sum(run["self_ns"].get(n, 0) for n in names) / 1e6 / run["ops"]


def _calls(name):
    return lambda run: run["calls"][name] / run["ops"]


def _count(name):
    return lambda run: run["counts"][name] / run["ops"]


def _epoch_yield(run):
    drawn = run["counts"]["simulate.lifetimes_drawn"]
    return run["counts"]["simulate.epochs_kept"] / drawn if drawn else 0.0


# per-layer metric -> (unit, value from the summary of a traced run); `_ms`
# metrics are self time per operation, the others counts per operation
LAYER_METRICS = {
    "lifetime.make_ms": ("ms", _self_ms("lifetime.make_constant_hazard", "lifetime.pgf")),
    "lifetime.series_terms": ("count", _count("lifetime.series_terms")),
    "polynomials.roots_calls": ("count", _calls("polynomials.roots")),
    "polynomials.roots_ms": ("ms", _self_ms("polynomials.roots")),
    "polynomials.factor_outside_ms": ("ms", _self_ms("polynomials.factor_outside")),
    "arma.factorize_ms": ("ms", _self_ms("arma.factorize")),
    "arma.arma_acvf_ms": ("ms", _self_ms("arma.arma_acvf")),
    "renewal.renewal_probs_ms": ("ms", _self_ms("renewal.renewal_probs")),
    "renewal.renewal_terms": ("count", _count("renewal.renewal_terms")),
    "verify.analytic_gates_ms": ("ms", _self_ms("verify.analytic_gates")),
    "verify.monte_carlo_gates_ms": ("ms", _self_ms("verify.monte_carlo_gates")),
    "simulate.simulate_counts_ms": ("ms", _self_ms("simulate.simulate_counts")),
    "simulate.chain_rng_ms": ("ms", _self_ms("simulate.chain_rng")),
    "simulate.simulate_chain_ms": ("ms", _self_ms("simulate.simulate_chain")),
    "simulate.chain_calls": ("count", _calls("simulate.simulate_chain")),
    "simulate.lifetimes_drawn": ("count", _count("simulate.lifetimes_drawn")),
    "simulate.epoch_yield": ("ratio", _epoch_yield),
    "simulate.sample_acvf_ms": ("ms", _self_ms("simulate.sample_acvf")),
    "simulate.sample_acvf_calls": ("count", _calls("simulate.sample_acvf")),
    "simulate.context_frequencies_ms": ("ms", _self_ms("simulate.context_frequencies")),
    "markov.tables_ms": ("ms", _self_ms("markov.joint_probs_p2", "markov.conditional_probs_p2",
                                        "markov.step_pair_law", "markov.mgf_trivariate")),
    "cli.self_ms": ("ms", _self_ms("cli.main")),
    "cli.bytes_written": ("bytes", _count("cli.bytes_written")),
    "trace.op_p50_ms": ("ms", lambda run: statistics.median(run["op_ms"])),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of the spans and counts recorded since the last reset."""
    op_ms = tracer.op_durations_ms()
    run = {"self_ns": tracer.self_ns(), "calls": tracer.calls(), "counts": tracer.counts,
           "op_ms": op_ms, "ops": len(op_ms)}
    return {name: {"value": value(run), "unit": unit} for name, (unit, value) in LAYER_METRICS.items()}
