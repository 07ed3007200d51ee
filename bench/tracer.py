"""Per-layer tracing by rebinding ``hyperoct`` functions from outside.

Each target function is replaced, in its defining module and in every
``hyperoct`` module that imported it by name (or, for methods, under every
name in its class), by a wrapper.  Span targets record a span (name,
start, end, parent) and their call count; count targets only count.  For
``lru_cache`` functions the wrapper reads ``cache_info()`` before and
after each call to count hits and misses.  Spans stay in memory until
``write_spans``.  Wrappers do nothing but call through while ``enabled``
is false, so the benchmark's own checks are not traced.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

SPAN_TARGETS = (
    "moments.monomial_residual",
    "moments._orbit_monomial_sum",
    "moments.sphere_monomial_average",
    "moments.first_failure",
    "moments.verify_strength",
    "moments.max_strength_oracle",
    "orbit.orbit_tuples",
    "orbit.DesignConfig.from_json_dict",
    "strength.classify",
    "strength.property_g",
    "solver.solve_t5",
    "solver.solve_t7",
    "solver.tau_table",
    "tight.tightness_certificate",
    "poly.Polynomial.__mul__",
    "poly.Polynomial.__add__",
    "poly.building_block_g",
    "harmonic.full_basis",
    "harmonic.criterion_basis",
    "cli.main",
)
# hot leaves whose only figure is a count; their time stays in the caller's self time
COUNT_TARGETS = (
    "strength.layer_sum_f42",
    "strength.layer_sum_f63",
    "strength.layer_sum_f82",
    "strength.layer_sum_f84",
    "solver.seven_design_possible",
    "numeric.binomial",
    "numeric.double_factorial",
    "tight.fisher_bound",
    "poly.gegenbauer",
)
ORACLE_JOB_TAGS = ("n5_J1-3", "n8_J1-4", "n8_J2-8", "n10_J2-7", "n11_J1-5")
OVERHEAD_METRICS = (("ops_per_s", "1/s", "higher"), ("latency_p50_ms", "ms", "lower"), ("latency_p90_ms", "ms", "lower"), ("latency_p99_ms", "ms", "lower"))

# (name, unit, better) of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("moments.monomial_residual.calls", "count", "lower"),
    ("moments.monomial_residual.all_even_share", "ratio", "higher"),
    ("moments._orbit_monomial_sum.calls", "count", "lower"),
    ("moments._orbit_monomial_sum.hit_ratio", "ratio", "higher"),
    ("moments._orbit_monomial_sum.self_s", "s", "lower"),
    ("moments.orbit_points_visited", "count", "lower"),
    ("moments.sphere_monomial_average.calls", "count", "lower"),
    ("moments.sphere_monomial_average.self_s", "s", "lower"),
    ("moments.first_failure.calls", "count", "lower"),
    ("moments.first_failure.self_s", "s", "lower"),
    *((f"moments.verify_strength.{tag}.s", "s", "lower") for tag in ORACLE_JOB_TAGS),
    ("orbit.orbit_tuples.calls", "count", "lower"),
    ("orbit.orbit_tuples.hit_ratio", "ratio", "higher"),
    ("orbit.orbit_tuples.self_s", "s", "lower"),
    ("orbit.points_materialized", "count", "lower"),
    ("orbit.DesignConfig.from_json_dict.self_s", "s", "lower"),
    ("strength.classify.calls", "count", "lower"),
    ("strength.classify.self_s", "s", "lower"),
    ("strength.layer_sum.calls", "count", "lower"),
    ("strength.property_g.self_s", "s", "lower"),
    ("solver.solve_t5.self_s", "s", "lower"),
    ("solver.solve_t7.self_s", "s", "lower"),
    ("solver.tau_table.self_s", "s", "lower"),
    ("solver.seven_design_possible.calls", "count", "lower"),
    ("numeric.binomial.calls", "count", "lower"),
    ("numeric.double_factorial.calls", "count", "lower"),
    ("tight.tightness_certificate.calls", "count", "lower"),
    ("tight.tightness_certificate.self_s", "s", "lower"),
    ("tight.oracle_calls", "count", "lower"),
    ("tight.fisher_bound.calls", "count", "lower"),
    ("poly.Polynomial.__mul__.calls", "count", "lower"),
    ("poly.Polynomial.__mul__.self_s", "s", "lower"),
    ("poly.Polynomial.__add__.calls", "count", "lower"),
    ("poly.Polynomial.__add__.self_s", "s", "lower"),
    ("poly.terms_out", "count", "lower"),
    ("poly.building_block_g.calls", "count", "lower"),
    ("poly.building_block_g.self_s", "s", "lower"),
    ("poly.gegenbauer.hit_ratio", "ratio", "higher"),
    ("harmonic.full_basis.self_s", "s", "lower"),
    ("harmonic.criterion_basis.self_s", "s", "lower"),
    ("harmonic.full_basis.n6_s8.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    *((f"trace.overhead.{name}", unit, better) for name, unit, better in OVERHEAD_METRICS),
)


def _orbit_size(n: int, k: int) -> int:
    return 2**k * comb(n, k)


def _count_all_even(counters, args, result, missed):
    counters["moments.monomial_residual.all_even"] += all(e % 2 == 0 for e in args[1])


def _count_points_visited(counters, args, result, missed):
    if missed:
        counters["moments.orbit_points_visited"] += _orbit_size(args[0], args[1])


def _count_points_materialized(counters, args, result, missed):
    if missed:
        counters["orbit.points_materialized"] += _orbit_size(args[0], args[1])


def _count_terms_out(counters, args, result, missed):
    counters["poly.terms_out"] += len(getattr(result, "terms", ()))


HOOKS = {
    "moments.monomial_residual": _count_all_even,
    "moments._orbit_monomial_sum": _count_points_visited,
    "orbit.orbit_tuples": _count_points_materialized,
    "poly.Polynomial.__mul__": _count_terms_out,
    "poly.Polynomial.__add__": _count_terms_out,
}
TAGS = {
    "moments.verify_strength": lambda args: f"n{args[0].n}_J" + "-".join(str(layer.k) for layer in args[0].layers),
    "harmonic.full_basis": lambda args: f"n{args[0]}_s{args[1]}",
}


def hyperoct_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "hyperoct" or name.startswith("hyperoct.")]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.span_name: list[str] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.counters: Counter = Counter()
        self.tagged: defaultdict = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring ----------------------------------------

    def install(self) -> None:
        modules = hyperoct_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for target in SPAN_TARGETS + COUNT_TARGETS:
                module_name, _, qualname = target.partition(".")
                module = by_name[f"hyperoct.{module_name}"]
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    raw = vars(owner)[attr]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapper = self._wrap(target, fn)
                    new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                    namespaces = [owner]
                else:
                    raw = getattr(module, qualname)
                    new = self._wrap(target, raw)
                    namespaces = modules
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is raw:
                            self._saved.append((namespace, attr, value))
                            setattr(namespace, attr, new)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, value = self._saved.pop()
            setattr(namespace, attr, value)

    def _wrap(self, target: str, fn):
        cached = hasattr(fn, "cache_info")
        hook = HOOKS.get(target)
        tag = TAGS.get(target)
        calls = self.calls

        if target in COUNT_TARGETS:
            def counted(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                calls[target] += 1
                if not cached:
                    return fn(*args, **kwargs)
                before = fn.cache_info()
                result = fn(*args, **kwargs)
                self._cache_delta(target, fn, before)
                return result

            return counted

        names, parents, starts, ends, stack = self.span_name, self.span_parent, self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[target] += 1
            before = fn.cache_info() if cached else None
            span = len(names)
            names.append(target)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[span], ends[span] = t0, t1
            missed = self._cache_delta(target, fn, before) if cached else False
            if hook:
                hook(self.counters, args, result, missed)
            if tag:
                self.tagged[f"{target}.{tag(args)}"].append(t1 - t0)
            return result

        return traced

    def _cache_delta(self, target: str, fn, before) -> bool:
        after = fn.cache_info()
        self.hits[target] += after.hits - before.hits
        missed = after.misses - before.misses
        self.misses[target] += missed
        return missed > 0

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer can give, keyed by metric name."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        covered = [0.0] * len(durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[span]
        self_time: Counter = Counter()
        for span, name in enumerate(self.span_name):
            self_time[name] += durations[span] - covered[span]

        metrics: dict[str, float] = {}
        for target in SPAN_TARGETS + COUNT_TARGETS:
            metrics[f"{target}.calls"] = self.calls[target]
            metrics[f"{target}.self_s"] = self_time[target]
            lookups = self.hits[target] + self.misses[target]
            metrics[f"{target}.hit_ratio"] = self.hits[target] / lookups if lookups else 0.0
        for key, values in self.tagged.items():
            metrics[f"{key}.s"] = statistics.median(values)
        metrics.update(self.counters)
        residual_calls = self.calls["moments.monomial_residual"]
        metrics["moments.monomial_residual.all_even_share"] = (
            self.counters["moments.monomial_residual.all_even"] / residual_calls if residual_calls else 0.0
        )
        metrics["strength.layer_sum.calls"] = sum(self.calls[f"strength.layer_sum_f{f}"] for f in ("42", "63", "82", "84"))
        metrics["tight.oracle_calls"] = sum(
            1
            for name, parent in zip(self.span_name, self.span_parent)
            if name == "moments.max_strength_oracle" and parent >= 0 and self.span_name[parent].startswith("tight.")
        )
        return metrics

    def write_spans(self, path) -> None:
        """Every span as gzipped tab-separated text: span, name, start_s, end_s, parent."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\n")
            for span, (name, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                handle.write(f"{span}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
