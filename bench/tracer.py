"""Span tracing for the benchmark's traced run.

The benchmark wraps public functions of each ``pseudoquant`` module from the
outside; nothing under ``src/`` changes.  A span records name, start, end and
parent.  Per-name call counts, total time and self time (duration minus the
direct children's durations) are accumulated as spans close, and the raw
spans are kept in memory (up to a cap) and written out at the end.

Count hooks bump a counter without opening a span; they serve for calls too
frequent or too small to time (``Scalar.__init__``, property reads).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

MODULES = (
    "pseudoquant",
    "pseudoquant.symcore",
    "pseudoquant.prequant",
    "pseudoquant.polarisation",
    "pseudoquant.exprparse",
    "pseudoquant.dynamics",
    "pseudoquant.bks",
    "pseudoquant.bohrsommerfeld",
    "pseudoquant.verify",
    "pseudoquant.cli",
)

# (span name, module, attribute path).  Class attributes that alias the same
# function (``__radd__ = __add__``) are wrapped together.
SPANS = (
    ("symcore.mul", "symcore", "Poly.__mul__"),
    ("symcore.add", "symcore", "Poly.__add__"),
    ("symcore.partial", "symcore", "Poly.partial"),
    ("symcore.pow", "symcore", "Poly.__pow__"),
    ("symcore.substitute", "symcore", "Poly.substitute"),
    ("prequant.quantise", "prequant", "quantise"),
    ("prequant.compose", "prequant", "FormalOperator.compose"),
    ("prequant.commutator", "prequant", "commutator"),
    ("prequant.commutator_rhs", "prequant", "commutator_rhs"),
    ("prequant.pullback_quantise", "prequant", "pullback_quantise"),
    ("prequant.theorem_commutator", "prequant", "theorem_commutator"),
    ("polarisation.preserves", "polarisation", "preserves"),
    ("polarisation.cohomologous_residual", "polarisation", "cohomologous_residual_operator"),
    ("exprparse.parse_poly", "exprparse", "parse_poly"),
    ("exprparse.load_problem", "exprparse", "load_problem"),
    ("dynamics.step", "dynamics", "Propagator.step"),
    ("dynamics.propagator_init", "dynamics", "Propagator.__init__"),
    ("dynamics.evolve", "dynamics", "evolve"),
    ("dynamics.diagnostics", "dynamics", "l2_norm"),
    ("dynamics.diagnostics", "dynamics", "weighted_norm"),
    ("dynamics.diagnostics", "dynamics", "expectation_q"),
    ("dynamics.diagnostics", "dynamics", "variance_q"),
    ("bks.quadrature", "bks", "oscillatory_moment_quadrature"),
    ("bks.classify_pairing", "bks", "classify_pairing"),
    ("bks.position_pairing", "bks", "position_pairing"),
    ("bohrsommerfeld.analyse", "bohrsommerfeld", "analyse"),
    ("verify.commutator_oracle", "verify", "check_structural_vs_closed_form"),
    ("verify.deformed_evolution", "verify", "check_dynamics"),
    ("verify.lattice_counts", "verify", "check_lattice_counts"),
)

# (counter name, module, attribute path, only while a span of this name is open)
COUNTS = (
    ("symcore.scalar_new", "symcore", "Scalar.__init__", None),
    ("symcore.chart_coords", "symcore", "ChartSpec.coords", None),
    ("dynamics.grid_q", "dynamics", "Grid1D.q", "dynamics.diagnostics"),
    ("bohrsommerfeld.points", "bohrsommerfeld", "FoldedPoint.__init__", "bohrsommerfeld.analyse"),
)

# scipy entry points that factorise a matrix; hooked before pseudoquant is
# imported so that a ``from scipy... import`` binding still sees the hook.
FACTORISERS = (
    ("scipy.linalg", "solve_banded"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg.lapack", "zgttrf"),
    ("scipy.linalg.lapack", "zgbtrf"),
)

# Spans whose results feed the expression-size counters.
SIZE_OBSERVED = ("symcore.pow", "symcore.substitute") + tuple(
    name for name, mod, _ in SPANS if mod == "prequant"
)


class Tracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self, keep_spans: int = 100_000):
        self.stack: list[list] = []  # [name, start_ns, children_ns, span_id]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent name, child name)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.dropped = 0
        self._next_id = 0
        self.peak_terms = 0
        self.max_degree = 0
        self.max_coeff_bits = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self.open[name] += 1
        self.stack.append([name, perf_counter_ns(), 0, self._next_id])

    def end(self) -> None:
        end = perf_counter_ns()
        name, start, children, span_id = self.stack.pop()
        dur = end - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - children
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[3]
            self.child_calls[(top[0], name)] += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def span(self, name: str):
        return _Span(self, name)

    def observe(self, obj) -> None:
        """Update the expression-size counters from a Poly or FormalOperator."""
        terms = getattr(obj, "terms", None)
        if not terms:
            return
        first = next(iter(terms.values()))
        polys = terms.values() if hasattr(first, "terms") else (obj,)
        for p in polys:
            self.peak_terms = max(self.peak_terms, len(p.terms))
            for exp, c in p.terms.items():
                self.max_degree = max(self.max_degree, sum(exp))
                for f in (c.re, c.im):
                    bits = max(abs(f.numerator).bit_length(), f.denominator.bit_length())
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end()
        return False


def span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end()
        if after is not None:
            after(result)
        return result

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn, within: str | None = None):
    counts, open_spans = tracer.counts, tracer.open

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if within is None or open_spans[within]:
            counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrap_attr(attr, make):
    """Wrap a function, property or cached_property with ``make(fn)``."""
    if isinstance(attr, property):
        return property(make(attr.fget), attr.fset, attr.fdel, attr.__doc__)
    if isinstance(attr, functools.cached_property):
        new = functools.cached_property(make(attr.func))
        new.attrname = attr.attrname
        return new
    return make(attr)


class Instrumentation:
    """Installs and removes the hooks at every site that binds a target.

    Create it before importing ``pseudoquant`` (it hooks the scipy
    factorisers then), call ``attach()`` after the import, and toggle with
    ``install()``/``uninstall()``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches: list[tuple[object, object]] = []  # (original, wrapper)
        self.sites: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self.pow_needed = 0
        for mod_name, attr in FACTORISERS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = count_wrapper(tracer, "dynamics.factorisations", fn)
            self.patches.append((fn, wrapper))
            self.sites.append((mod, attr, fn, wrapper))
            setattr(mod, attr, wrapper)

    def _pow_before(self, args) -> None:
        k = args[1]
        if isinstance(k, int) and k >= 1:
            self.pow_needed += k.bit_length() + bin(k).count("1") - 2

    def attach(self) -> None:
        tracer = self.tracer
        for mod_name in MODULES:
            importlib.import_module(mod_name)
        for name, mod, path in SPANS:
            before = self._pow_before if name == "symcore.pow" else None
            after = tracer.observe if name in SIZE_OBSERVED else None
            self._hook(mod, path, lambda fn, n=name, b=before, a=after:
                       span_wrapper(tracer, n, fn, b, a))
        verify = sys.modules["pseudoquant.verify"]
        named = {path for _, mod, path in SPANS if mod == "verify"}
        for check in getattr(verify, "ALL_CHECKS", ()):
            if check.__name__ not in named:
                self._hook("verify", check.__name__,
                           lambda fn: span_wrapper(tracer, "verify.other", fn))
        for name, mod, path, within in COUNTS:
            self._hook(mod, path, lambda fn, n=name, w=within: count_wrapper(tracer, n, fn, w))
        self._find_sites()
        self.install()

    def _hook(self, mod: str, path: str, make) -> None:
        owner = sys.modules[f"pseudoquant.{mod}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{mod}.{path}")
            return
        wrapper = _wrap_attr(original, make)
        self.patches.append((original, wrapper))
        if isinstance(owner, type):
            for key, val in list(vars(owner).items()):
                if val is original:
                    self.sites.append((owner, key, original, wrapper))

    def _find_sites(self) -> None:
        """Every module global or module-level list entry bound to a target."""
        lookup = {id(o): (o, w) for o, w in self.patches}
        lookup.update({id(w): (o, w) for o, w in self.patches})
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for key, val in list(vars(mod).items()):
                if id(val) in lookup:
                    o, w = lookup[id(val)]
                    self.sites.append((mod, key, o, w))
                elif isinstance(val, list):
                    for i, item in enumerate(val):
                        if id(item) in lookup:
                            o, w = lookup[id(item)]
                            self.sites.append((val, i, o, w))

    @staticmethod
    def _set(owner, key, value) -> None:
        if isinstance(owner, list):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        for owner, key, _, wrapper in self.sites:
            self._set(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self.sites:
            self._set(owner, key, original)

    def pow_mul_calls(self) -> int:
        return self.tracer.child_calls[("symcore.pow", "symcore.mul")]


def _ratio(num: float, den: float) -> float:
    """num/den, and 0.0 when the layer did no such work on the workload."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, inst: Instrumentation) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, without the trace.* and cli.* ones."""
    calls, counts = tracer.calls, tracer.counts

    def self_s(name: str) -> float:
        return tracer.self_ns[name] / 1e9

    records = calls["dynamics.diagnostics"] / 4
    return {
        "symcore.mul.calls": calls["symcore.mul"],
        "symcore.mul.self_s": self_s("symcore.mul"),
        "symcore.add.calls": calls["symcore.add"],
        "symcore.add.self_s": self_s("symcore.add"),
        "symcore.partial.calls": calls["symcore.partial"],
        "symcore.partial.self_s": self_s("symcore.partial"),
        "symcore.scalar_new.calls": counts["symcore.scalar_new"],
        "symcore.chart_coords.calls": counts["symcore.chart_coords"],
        "symcore.substitute.self_s": self_s("symcore.substitute"),
        "symcore.pow.self_s": self_s("symcore.pow"),
        "symcore.pow.useful_mul_ratio": _ratio(inst.pow_needed, inst.pow_mul_calls()),
        "symcore.peak_terms": tracer.peak_terms,
        "symcore.max_degree": tracer.max_degree,
        "symcore.max_coeff_bits": tracer.max_coeff_bits,
        "prequant.quantise.self_s": self_s("prequant.quantise"),
        "prequant.compose.calls": calls["prequant.compose"],
        "prequant.compose.self_s": self_s("prequant.compose"),
        "prequant.commutator_rhs.self_s": self_s("prequant.commutator_rhs"),
        "prequant.pullback_quantise.self_s": self_s("prequant.pullback_quantise"),
        "polarisation.preserves.calls": calls["polarisation.preserves"],
        "polarisation.preserves.self_s": self_s("polarisation.preserves"),
        "exprparse.parse_poly.calls": calls["exprparse.parse_poly"],
        "exprparse.parse_poly.self_s": self_s("exprparse.parse_poly"),
        "dynamics.step.calls": calls["dynamics.step"],
        "dynamics.step.self_s": self_s("dynamics.step"),
        "dynamics.factorisations_per_step": _ratio(
            counts["dynamics.factorisations"], calls["dynamics.step"]),
        "dynamics.diagnostics.self_s": self_s("dynamics.diagnostics"),
        "dynamics.grid_q_builds_per_record": _ratio(counts["dynamics.grid_q"], records),
        "dynamics.propagator_init.self_s": self_s("dynamics.propagator_init"),
        "bks.quadrature.calls": calls["bks.quadrature"],
        "bks.quadrature.self_s": self_s("bks.quadrature"),
        "bks.classify_pairing.self_s": self_s("bks.classify_pairing"),
        "bks.position_pairing.self_s": self_s("bks.position_pairing"),
        "bohrsommerfeld.analyse.self_s": self_s("bohrsommerfeld.analyse"),
        "bohrsommerfeld.points_per_count": _ratio(
            counts["bohrsommerfeld.points"], calls["bohrsommerfeld.analyse"]),
        "verify.commutator_oracle.self_s": self_s("verify.commutator_oracle"),
        "verify.deformed_evolution.self_s": self_s("verify.deformed_evolution"),
        "verify.lattice_counts.self_s": self_s("verify.lattice_counts"),
        "verify.other.self_s": self_s("verify.other"),
    }


def program_self_s(tracer: Tracer) -> float:
    """Self time of every span opened inside the program (not the benchmark's)."""
    return sum(ns for name, ns in tracer.self_ns.items() if not name.startswith("bench.")) / 1e9
