"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public module-level function of the layer
modules, wherever a torusapprox module binds it, and the public methods of
`TorusIntervalSet`, with wrappers that record one span per call: the name,
the enclosing span, the start and end times and one count.  Cross-layer
calls are therefore attributed to the layer that owns the function, whichever
module made the call.  Spans live in flat arrays in memory until
`span_summary` reduces them per name after a pass (a verify-reduced pass
records about 700,000); `uninstall` puts the original functions back.

The scan's process pool is wrapped too, so the time the parent waits for
its workers and the CPU the workers burn become one span of their own.
Worker processes are not traced: under the `fork` start method each worker
removes the wrappers it inherited before it runs anything.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import resource
import statistics
import time
from array import array

LAYERS = (
    "arith",
    "torus",
    "approx",
    "overlap",
    "counterexample",
    "experiments",
    "verification",
    "cli",
)

# Same-layer helpers called per sample in a hot loop.  Wrapping them would
# multiply the tracing cost of the Monte Carlo check without moving time
# between layers, so their time stays in their caller's self time.
UNTRACED = frozenset({"experiments.unit_sample"})

SCAN = "experiments.pairwise_overlap_sum"
POOL = "experiments.pool"
SIEVES = ("arith.spf_table", "arith.totient_range")
PHIGCD = (
    "experiments.phigcd_sum",
    "experiments.phigcd_batch_check",
    "experiments.phigcd_ratio_scan",
)

# Per-layer metrics: name -> unit.  The order is the report order.
METRICS = {
    "experiments.scan_self_s": "s",
    "experiments.scan_pairs": "count",
    "experiments.scan_den_digits": "digits",
    "experiments.scan_wait_s": "s",
    "experiments.scan_child_cpu_s": "s",
    "experiments.msum_self_s": "s",
    "experiments.mc_self_s": "s",
    "experiments.phigcd_self_s": "s",
    "torus.calls": "count",
    "torus.self_s": "s",
    "torus.pieces_in": "count",
    "approx.build_calls": "count",
    "approx.build_pieces": "count",
    "approx.self_s": "s",
    "overlap.calls": "count",
    "overlap.self_s": "s",
    "arith.calls": "count",
    "arith.self_s": "s",
    "arith.sieve_s": "s",
    "counterexample.self_s": "s",
    "verification.measure-law_s": "s",
    "verification.overlap-bound_s": "s",
    "verification.coprime-count_s": "s",
    "verification.phigcd_s": "s",
    "verification.sift_s": "s",
    "verification.counterexample_s": "s",
    "verification.mc_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "count",
    "trace_overhead_s": "s",
}


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Wraps the layer functions of one imported torusapprox and records
    their calls as spans."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.scan_den_digits: list[int] = []
        self.suites: dict[str, str] = {}

    # -- span recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0.0)
        stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func, counter=None):
        name_id = self._name_id(name)
        opener = self._open
        closer = self._close
        counts = self.count

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = opener(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                closer(index)
            if counter is not None:
                counts[index] = counter(args, kwargs, result)
            return result

        return traced

    # -- installing and removing wrappers ----------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS]
        self.suites = {f"verification.{fn.__name__}": f"verification.{suite}_s"
                       for suite, fn in pkg.verification.SUITES.items()}
        module_layer = {f"{pkg.__name__}.{layer}": layer for layer in LAYERS}
        interval_set = pkg.torus.TorusIntervalSet

        def pieces_of(args, kwargs, result):
            return sum(len(a.pieces) for a in args if isinstance(a, interval_set))

        def pieces_out(args, kwargs, result):
            return len(result.pieces)

        def scan_pairs(args, kwargs, result):
            # The pair sum's denominator size is the cost of its Fraction
            # accumulation; enclosure sums have dyadic denominators.
            pair_sum = result.pair_sum
            den = pair_sum[1].denominator if isinstance(pair_sum, tuple) else pair_sum.denominator
            self.scan_den_digits.append(len(str(den)))
            cfg = args[0] if args else kwargs["cfg"]
            return cfg.Q * (cfg.Q - 1) // 2

        counters = {
            "approx.build_approx_set": pieces_out,
            "torus.measure_intersection": pieces_of,
            SCAN: scan_pairs,
        }
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = module_layer.get(value.__module__)
                name = f"{layer}.{value.__name__}"
                if layer is None or name in UNTRACED:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(name, value, counters.get(name))
                self._replace(module, attr, wrapped[id(value)])

        for attr, value in list(vars(interval_set).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"torus.TorusIntervalSet.{attr}"
            if isinstance(value, classmethod):
                self._replace(interval_set, attr, classmethod(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                counter = None if attr == "__init__" else pieces_of
                self._replace(interval_set, attr, self._wrap(name, value, counter))

        self._replace(pkg.experiments, "ProcessPoolExecutor",
                      self._traced_pool(pkg.experiments.ProcessPoolExecutor))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    def _traced_pool(self, base):
        tracer = self
        pool_id = self._name_id(POOL)

        class TracedPool(base):
            """Pool whose lifetime in the parent is one span; workers run
            untraced."""

            def __init__(self, *args, **kwargs):
                if multiprocessing.get_start_method() == "fork":
                    kwargs.setdefault("initializer", tracer.uninstall)
                super().__init__(*args, **kwargs)

            def __enter__(self):
                self._span = tracer._open(pool_id)
                self._cpu0 = _child_cpu()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span)
                    tracer.count[self._span] = _child_cpu() - self._cpu0

        return TracedPool

    # -- reduction ----------------------------------------------------------------

    def reset(self) -> None:
        for column in (self.name, self.parent, self.start, self.end, self.count):
            del column[:]
        self.scan_den_digits.clear()

    def span_summary(self) -> dict:
        """Per span name since the last reset: calls, total seconds, self
        seconds (total minus the time its child spans cover) and the summed
        count."""
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        summary: dict[str, dict] = {}
        for i in range(n):
            row = summary.setdefault(self.names[self.name[i]],
                                     {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - covered[i]
            row["count"] += self.count[i]
        return dict(sorted(summary.items()))

    def layer_metrics(self, summary: dict, report_bytes: int, speed_factor: float) -> dict:
        """METRICS (all but trace_overhead_s) from a `span_summary`, times
        rescaled by `speed_factor`."""
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}

        def total(names, field):
            return sum(summary.get(name, empty)[field] for name in names)

        def layer(prefix):
            return [name for name in summary if name.startswith(prefix)]

        build = summary.get("approx.build_approx_set", empty)
        metrics = {
            "experiments.scan_self_s": total([SCAN], "self_s"),
            "experiments.scan_pairs": int(total([SCAN], "count")),
            "experiments.scan_den_digits": max(self.scan_den_digits, default=0),
            "experiments.scan_wait_s": total([POOL], "total_s"),
            "experiments.scan_child_cpu_s": total([POOL], "count"),
            "experiments.msum_self_s": total(["experiments.main_term_sum_check"], "self_s"),
            "experiments.mc_self_s": total(["experiments.mc_coverage"], "self_s"),
            "experiments.phigcd_self_s": total(PHIGCD, "self_s"),
            "torus.pieces_in": int(total(layer("torus."), "count")),
            "approx.build_calls": build["calls"],
            "approx.build_pieces": int(build["count"]),
            "arith.sieve_s": total(SIEVES, "total_s"),
            "cli.report_bytes": report_bytes,
        }
        for name in ("torus", "approx", "overlap", "arith", "counterexample", "cli"):
            metrics[f"{name}.calls"] = total(layer(f"{name}."), "calls")
            metrics[f"{name}.self_s"] = total(layer(f"{name}."), "self_s")
        for function, key in self.suites.items():
            metrics[key] = total([function], "total_s")
        return {key: metrics[key] * speed_factor if unit == "s" else metrics[key]
                for key, unit in METRICS.items() if key in metrics}


def median_metrics(samples: list[dict]) -> dict:
    """Median of each metric over passes; counts stay whole numbers."""
    medians = {}
    for key in samples[0]:
        values = [sample[key] for sample in samples]
        medians[key] = statistics.median(values) if METRICS[key] == "s" \
            else statistics.median_low(values)
    return medians
