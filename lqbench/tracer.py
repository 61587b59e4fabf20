"""In-memory spans around the calls from one lqcat layer into the next.

The tracer never edits lqcat's source.  It replaces module attributes:
every binding of a traced function in any ``lqcat.*`` module namespace
(for example ``lqcat.regions.symmetric_row`` and
``lqcat.report.closed_spectrum``) is pointed at a wrapper for the duration
of a traced round and restored afterwards.  Because lqcat's functions call
each other through these module globals, the wrappers see the calls that
cross layer boundaries.

A span is (name, start, end, parent, value); ``value`` carries one number
a layer metric needs, such as len(T) for ``symmetric_row`` or the returned
N for ``choose_truncation``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _quantity(args, kwargs):
    return args[0] if args else kwargs["quantity"]


def _row_length(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["T"])


# (module, attribute, span name, value from (args, kwargs, result),
#  span-name suffix from (args, kwargs)).  Only calls that cross a layer
# boundary are traced; the lru_cache counters are read from cache_info().
TARGETS = (
    ("lqcat.regions", "threshold", "regions.threshold", None, _quantity),
    ("lqcat.regions", "t_range", "regions.t_range", None, None),
    ("lqcat.regions", "sweep", "regions.sweep", None, None),
    ("lqcat.regions", "symmetric_sweep", "regions.symmetric_sweep", None, None),
    ("lqcat.regions", "implication_table", "regions.implication_table", None, None),
    ("lqcat.regions", "common_region", "regions.common_region", None, None),
    ("lqcat.regions", "symmetric_row", "regions.symmetric_row", _row_length, None),
    ("lqcat.oracle", "_table_for", "oracle.table_for", None, None),
    ("lqcat.oracle", "cf_fidelity_oracle", "oracle.cf_fidelity_oracle", None, None),
    ("lqcat.oracle", "catalyze_oracle", "oracle.catalyze_oracle", None, None),
    ("lqcat.formulas", "closed_spectrum", "formulas.closed_spectrum", None, None),
    ("lqcat.model", "choose_truncation", "model.choose_truncation",
     lambda a, k, result: result, None),
    ("lqcat.model", "entropy_of", "model.entropy_of", None, None),
    ("lqcat.model", "epr_of", "model.epr_of", None, None),
    ("lqcat.report", "report", "report.report", None, None),
)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []   # [name id, start, end, parent index, value]
        self._stack: list = []
        self._patches: list = []

    def begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([ident, perf_counter(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int, value: float = 0.0) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = value
        self._stack.pop()

    def _wrap(self, fn, name, value_of, suffix_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{suffix_of(args, kwargs)}" if suffix_of else name
            index = self.begin(label)
            value = 0.0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = float(value_of(args, kwargs, result))
                return result
            finally:
                self.end(index, value)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lqcat" or n.startswith("lqcat.")]
        for module_name, attr, name, value_of, suffix_of in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, value_of, suffix_of)
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) time, self time, value sum
        and the number of spans whose value is 1."""
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0,
                                   "value": 0.0, "value_one": 0})
        child_time = defaultdict(float)
        for ident, start, end, parent, value in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (ident, start, end, parent, value) in enumerate(self.spans):
            entry = out[self.names[ident]]
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["value"] += value
            entry["value_one"] += value == 1.0
        return dict(out)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "value"],
                       "names": self.names, "spans": self.spans}, fh)
