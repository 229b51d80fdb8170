"""Outside-in tracer for the qseries layers.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each entry
point listed in ``ENTRY_POINTS`` by a wrapper, at every attribute of every
loaded ``qseries`` module that is bound to it (``claims.eval_expr``,
``cli.verify``, ``partitions.eta`` ...), and on the class for the
``TruncatedSeries`` methods.  Install it after importing ``qseries`` and
``qseries.cli`` and before the first ``registry()`` call: the registry's
dissection claims close over ``products`` functions when it is built.

A wrapper records one span (name, start, end, parent) in memory; the spans
are reduced to per-entry-point calls, self time and total time only when
``summary`` is called at the end of the sample.  Self time is a span's
duration minus the durations of its direct child spans.  Total time counts
only the outermost span of each name, so the recursion of ``eval_expr`` is
not counted twice.  Hit ratios are computed from outside: a request is a hit
when its order is at most the largest order requested earlier in the process
for the same mock id (or eta index).

The span stack is per process, not per thread: the benchmark never passes
``--parallel``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, owner, attribute).  The owner is a module, or
# "module:Class" for a method.
ENTRY_POINTS = (
    ("series.mul", "qseries.series:TruncatedSeries", "__mul__"),
    ("series.div", "qseries.series:TruncatedSeries", "__truediv__"),
    ("series.invert", "qseries.series:TruncatedSeries", "invert"),
    ("series.add", "qseries.series:TruncatedSeries", "__add__"),
    ("series.init", "qseries.series:TruncatedSeries", "__init__"),
    ("products.pochhammer", "qseries.products", "pochhammer"),
    ("products.eta", "qseries.products", "eta"),
    ("products.eta_quotient", "qseries.products", "eta_quotient"),
    ("products.theta_f", "qseries.products", "theta_f"),
    ("mock.mock_series", "qseries.mock", "mock_series"),
    ("partitions.count_dp", "qseries.partitions", "count_dp"),
    ("partitions.theta_stream", "qseries.partitions", "theta_stream"),
    ("partitions.count_signed", "qseries.partitions", "count_signed"),
    ("expr.eval_expr", "qseries.expr", "eval_expr"),
    ("expr.parse_expr", "qseries.expr", "parse_expr"),
    ("claims.verify", "qseries.claims", "verify"),
    ("claims.registry", "qseries.claims", "registry"),
    ("cli.main", "qseries.cli", "main"),
)
LAYERS = ("series", "products", "mock", "partitions", "expr", "claims", "cli")
CLAIM_KINDS = ("identity", "congruence", "congruence-family", "recurrence", "interpretation")
LEAF_NODES = ("Lit", "Mono", "Eta", "Phi", "Psi", "Theta", "Poch", "Mock", "Stream", "RulesetRef")

# name -> (unit, better) for every metric a traced run reports
PER_LAYER: dict[str, tuple[str, str]] = {}
for _name, _, _ in ENTRY_POINTS:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_name}.total_s"] = ("s", "lower")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _kind in CLAIM_KINDS:
    PER_LAYER[f"claims.verify.{_kind}.total_s"] = ("s", "lower")
PER_LAYER["products.eta.hit_ratio"] = ("ratio", "higher")
PER_LAYER["mock.misses"] = ("count", "lower")
PER_LAYER["mock.hit_ratio"] = ("ratio", "higher")
PER_LAYER["mock.coeffs_expanded"] = ("count", "lower")
PER_LAYER["expr.leaf_order_sum"] = ("count", "lower")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")

# metrics that must repeat exactly between traced samples of one seed
EXACT = tuple(
    n for n, (unit, _) in PER_LAYER.items() if unit == "count"
) + ("products.eta.hit_ratio", "mock.hit_ratio")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, outermost of its name, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._counts: dict[str, int] = defaultdict(int)
        self._max_order: dict[tuple, int] = {}

    # -- counters taken at the boundary ------------------------------------

    def _request(self, counter: str, key, order: int) -> bool:
        """Record a cached-leaf request; returns True on a hit."""
        best = self._max_order.get(key)
        if best is not None and order <= best:
            self._counts[counter + ".hits"] += 1
            return True
        self._max_order[key] = order
        return False

    def _on_eta(self, args, kwargs):
        self._request("products.eta", ("eta", _arg(args, kwargs, 0, "k")), _arg(args, kwargs, 1, "order"))

    def _on_mock(self, args, kwargs):
        mock_id = _arg(args, kwargs, 0, "mock_id")
        key = ("mock", mock_id.lower() if isinstance(mock_id, str) else mock_id.value)
        order = _arg(args, kwargs, 1, "order")
        if not self._request("mock", key, order):
            self._counts["mock.misses"] += 1
            self._counts["mock.coeffs_expanded"] += order

    def _on_eval(self, args, kwargs):
        if type(_arg(args, kwargs, 0, "node")).__name__ in LEAF_NODES:
            self._counts["expr.leaf_order_sum"] += _arg(args, kwargs, 1, "order")

    @staticmethod
    def _claim_kind(args, kwargs):
        return _arg(args, kwargs, 0, "claim").kind.value

    # -- installation ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None, tagger=None):
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            tag = tagger(args, kwargs) if tagger is not None else None
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, opened[name] == 0, tag]
            spans.append(span)
            stack.append(index)
            opened[name] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                opened[name] -= 1
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every entry point; returns the names that could not be found."""
        hooks = {"products.eta": self._on_eta, "mock.mock_series": self._on_mock,
                 "expr.eval_expr": self._on_eval}
        taggers = {"claims.verify": self._claim_kind}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qseries" or n.startswith("qseries."))]
        missing = []
        for name, owner, attr in ENTRY_POINTS:
            module_name, _, class_name = owner.partition(":")
            holder = sys.modules.get(module_name)
            if holder is not None and class_name:
                holder = getattr(holder, class_name, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name), taggers.get(name))
            if class_name:
                setattr(holder, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-entry-point, per-layer and counter metrics of the spans so far."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, outermost, tag) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if outermost:
                total_ns[name] += end - start
                if tag is not None:
                    total_ns[f"{name}.{tag}"] += end - start
        out: dict[str, float] = {}
        for name, _, _ in ENTRY_POINTS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.total_s"] = total_ns[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_ns[n] for n, _, _ in ENTRY_POINTS if n.split(".")[0] == layer
            ) / 1e9
        for kind in CLAIM_KINDS:
            out[f"claims.verify.{kind}.total_s"] = total_ns[f"claims.verify.{kind}"] / 1e9
        counts = self._counts
        eta_calls = calls["products.eta"]
        mock_calls = calls["mock.mock_series"]
        out["products.eta.hit_ratio"] = counts["products.eta.hits"] / eta_calls if eta_calls else 0.0
        out["mock.misses"] = counts["mock.misses"]
        out["mock.hit_ratio"] = counts["mock.hits"] / mock_calls if mock_calls else 0.0
        out["mock.coeffs_expanded"] = counts["mock.coeffs_expanded"]
        out["expr.leaf_order_sum"] = counts["expr.leaf_order_sum"]
        return out
