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
from lqcat import formulas, oracle, regions
from lqcat.model import choose_truncation, make_params

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


def test_traced_oracle_sweep_reaches_the_oracle():
    # sweep imports the oracle route only when engine="oracle" runs; the
    # tracer must still see the calls made through that lazy import.
    t = tracer.Tracer()
    t.install()
    try:
        regions.sweep("fidelity", [0.4], [0.3], [0.3], engine="oracle")
    finally:
        t.uninstall()
    spans = t.summary()
    assert spans["oracle.catalyze_oracle"]["calls"] == 1
    assert spans["oracle.cf_fidelity_oracle"]["calls"] == 1


def test_traced_routes_record_the_truncation_they_use():
    # model.choose_truncation.n_sum counts what every truncated sum builds,
    # so each route must take its N from that one function.
    params = make_params(1.5, 0.8, 0.9)
    N = choose_truncation(params)
    calls = {
        "report": lambda: importlib.import_module("lqcat.report").report(params),
        "closed_spectrum": lambda: formulas.closed_spectrum(params),
        "catalyze_oracle": lambda: oracle.catalyze_oracle(params),
    }
    for label, call in calls.items():
        t = tracer.Tracer()
        t.install()
        try:
            result = call()
        finally:
            t.uninstall()
        span = t.summary()["model.choose_truncation"]
        assert (span["calls"], span["value"]) == (1, N), label
        if label != "report":
            assert len(result[0].weights) == N + 1, label


def test_traced_oracle_sweep_computes_only_the_asked_measure():
    t = tracer.Tracer()
    t.install()
    try:
        regions.sweep("pcd", [0.4], [0.3], [0.3], engine="oracle")
    finally:
        t.uninstall()
    spans = t.summary()
    assert spans["oracle.catalyze_oracle"]["calls"] == 1
    assert "oracle.cf_fidelity_oracle" not in spans
