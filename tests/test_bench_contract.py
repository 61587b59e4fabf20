"""The names the benchmark in lqbench/ reaches into lqcat by.

lqbench/tracer.py wraps every function in its TARGETS by module attribute
and reads len(T) from symmetric_row's arguments; lqbench/run.py reads the
cache counters of two lru_caches.  A refactor that renames any of them
breaks `lqbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import lqcat  # noqa: F401  (the tracer patches every loaded lqcat module)
from lqcat import oracle, regions

TRACER_PATH = Path(__file__).resolve().parents[1] / "lqbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lqbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_target_resolves_to_a_callable():
    for module_name, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), attr


def test_caches_expose_cache_info():
    for cache in (oracle._overlap_table, oracle.bs_sector):
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_traced_symmetric_row_records_row_length():
    original = regions.symmetric_row
    t = tracer.Tracer()
    t.install()
    try:
        regions.symmetric_row(0.3, np.array([0.1, 0.2, 0.3]))
    finally:
        t.uninstall()
    assert regions.symmetric_row is original
    span = t.summary()["regions.symmetric_row"]
    assert span["calls"] == 1
    assert span["value"] == 3.0
