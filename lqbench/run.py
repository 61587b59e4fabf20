"""lqcat benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 lqbench/run.py --workload {search,maps,points,crosscheck} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run reports the end-to-end metrics: set-up time from
fresh interpreters, then operations per second, the median operation time
and peak memory from whole rounds timed in this process.  With --trace 1
it reports the per-layer metrics instead, from rounds that alternate
between untraced and traced, plus the tracing overhead between the two.
Every output is checked against the independent reference in
reference.py; the last line of stdout is the result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread, set before numpy loads here and inherited by
# every child, so runs do not depend on the pool size or on other load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBES = 3                 # fresh interpreters per set-up / import measurement
CHILD_TIMEOUT = 150        # seconds
MAX_MESSAGES = 5           # failure messages echoed to stderr

# (metric, span name, summary field, unit); values are per traced round.
SPAN_METRICS = [
    *((f"regions.threshold.{q}.busy_s", f"regions.threshold.{q}", "busy", "s")
      for q in ("entropy", "epr", "fidelity")),
    ("regions.symmetric_row.calls", "regions.symmetric_row", "calls", "count"),
    ("regions.symmetric_row.points", "regions.symmetric_row", "value", "count"),
    ("regions.symmetric_row.single_point_calls", "regions.symmetric_row",
     "value_one", "count"),
    ("regions.symmetric_row.busy_s", "regions.symmetric_row", "busy", "s"),
    ("regions.symmetric_row.self_s", "regions.symmetric_row", "self", "s"),
    ("regions.sweep.busy_s", "regions.sweep", "busy", "s"),
    ("regions.symmetric_sweep.busy_s", "regions.symmetric_sweep", "busy", "s"),
    ("regions.implication_table.busy_s", "regions.implication_table", "busy", "s"),
    ("regions.common_region.busy_s", "regions.common_region", "busy", "s"),
    ("oracle.cf_fidelity_oracle.calls", "oracle.cf_fidelity_oracle", "calls", "count"),
    ("oracle.cf_fidelity_oracle.busy_s", "oracle.cf_fidelity_oracle", "busy", "s"),
    ("oracle.catalyze_oracle.calls", "oracle.catalyze_oracle", "calls", "count"),
    ("oracle.catalyze_oracle.busy_s", "oracle.catalyze_oracle", "busy", "s"),
    ("oracle.catalyze_oracle.self_s", "oracle.catalyze_oracle", "self", "s"),
    ("formulas.closed_spectrum.calls", "formulas.closed_spectrum", "calls", "count"),
    ("formulas.closed_spectrum.busy_s", "formulas.closed_spectrum", "busy", "s"),
    ("formulas.closed_spectrum.self_s", "formulas.closed_spectrum", "self", "s"),
    ("model.choose_truncation.calls", "model.choose_truncation", "calls", "count"),
    ("model.choose_truncation.n_sum", "model.choose_truncation", "value", "count"),
    ("model.entropy_of.busy_s", "model.entropy_of", "busy", "s"),
    ("model.epr_of.busy_s", "model.epr_of", "busy", "s"),
    ("report.report.calls", "report.report", "calls", "count"),
    ("report.report.busy_s", "report.report", "busy", "s"),
    ("report.report.self_s", "report.report", "self", "s"),
]


def _child(argv) -> tuple:
    """Run a fresh interpreter in the checkout; returns its stdout+stderr."""
    proc = subprocess.run(argv, cwd=HERE.parent, env=os.environ.copy(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, proc.stderr


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import lqcat + the first op, cold."""
    totals = []
    for _ in range(PROBES):
        out, _ = _child([sys.executable, str(HERE / "cold.py"), workload, str(seed)])
        probe = json.loads(out.strip().splitlines()[-1])
        totals.append(probe["import_s"] + probe["op_s"])
    return statistics.median(totals)


def parse_importtime(text: str):
    """(lqcat cumulative, scipy share) in seconds from -X importtime output.

    A module is printed after the modules it imports, one indent level
    deeper per nesting, so a row's parent is the next row that is shallower.
    The scipy share sums the scipy modules whose parent is not scipy.
    """
    rows = []
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative = int(fields[1])
        except ValueError:          # the header row
            continue
        name = fields[2].rstrip()
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(),
                     cumulative))
    top = max(i for i, row in enumerate(rows) if row[1] == "lqcat")
    start = top
    while start > 0 and rows[start - 1][0] > rows[top][0]:
        start -= 1

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    scipy_us = 0
    for i in range(start, top):
        depth, name, cumulative = rows[i]
        parent = next(j for j in range(i + 1, top + 1) if rows[j][0] < depth)
        if is_scipy(name) and not is_scipy(rows[parent][1]):
            scipy_us += cumulative
    return rows[top][2] / 1e6, scipy_us / 1e6


def import_seconds():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lqcat"
    totals, scipy = [], []
    for _ in range(PROBES):
        _, err = _child([sys.executable, "-X", "importtime", "-c", code])
        total, share = parse_importtime(err)
        totals.append(total)
        scipy.append(share)
    return statistics.median(totals), statistics.median(scipy)


class Tally:
    """Operations attempted, failed and completed, and each round's median
    operation time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.round_p50: list = []
        self.messages: list = []

    def note(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def run_round(workload, k: int, tally: Tally, tracer=None) -> float:
    """Run and check round k; returns the summed time of its operations."""
    ops = workload.round(k)
    digests, times = [], []
    busy = 0.0
    for op in ops:
        span = tracer.begin(f"bench.{op.label}") if tracer else None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:   # a failing operation is counted, not fatal
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        elapsed = perf_counter() - t0
        if tracer:
            tracer.end(span)
        busy += elapsed
        if error is None:
            times.append(elapsed)
            digests.append(op.digest(result))
        else:
            digests.append(None)
            tally.note(f"round {k} {op.label} raised:\n{error}")
        del result
    tally.attempted += len(ops)
    tally.completed += len(times)
    if times:
        tally.round_p50.append(statistics.median(times))
    for op, message in zip(ops, workload.check(k, ops, digests)):
        if message is not None:
            tally.note(f"round {k} {op.label}: {message}")
    return busy


def _cache_counts(oracle):
    info = (oracle.bs_sector.cache_info(), oracle._overlap_table.cache_info())
    return [info[0].hits, info[0].misses, info[1].hits, info[1].misses]


def end_to_end(workload, tally, seconds, setup_s):
    busy = 0.0
    k = 0
    while True:
        spent = run_round(workload, k, tally)
        busy += spent
        k += 1
        # Stop at the round boundary nearest to `seconds`: a search round
        # alone takes ~19 s, the other workloads' rounds under 2 s.
        if busy + spent / 2 >= seconds:
            break
    print(f"{k} rounds, {tally.completed} ops in {busy:.3f} s", file=sys.stderr)
    # Each round's median operation time, averaged over the rounds.  A maps
    # round holds 10 maps of a few distinct costs, so the median of all
    # times pooled sits on the gap between two of them.  A shared host may
    # also run for seconds at a time about 1.5x faster or slower; a median
    # across rounds jumps between the two speeds when each holds about half
    # of a run; the mean follows their shares.  With every operation
    # raising there is no median; the run is then reported as incorrect,
    # with 0 in its place.
    p50 = statistics.fmean(tally.round_p50) if tally.round_p50 else 0.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.completed / busy, "op/s"),
        "op_p50_s": (p50, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, tally, seconds, imports, trace_path):
    from tracer import Tracer
    from workloads import oracle

    tracer = Tracer()
    plain, traced = [], []
    counts = [0, 0, 0, 0]
    k = 0
    while k == 0 or sum(plain) + sum(traced) + (plain[-1] + traced[-1]) / 2 < seconds:
        plain.append(run_round(workload, k, tally))
        before = _cache_counts(oracle)
        tracer.install()
        try:
            traced.append(run_round(workload, k + 1, tally, tracer))
        finally:
            tracer.uninstall()
        counts = [c + a - b for c, a, b in zip(counts, _cache_counts(oracle), before)]
        k += 2
    tracer.dump(trace_path)
    rounds = len(traced)
    print(f"{rounds} untraced + {rounds} traced rounds; spans in {trace_path}",
          file=sys.stderr)

    summary = tracer.summary()
    metrics = {
        "cli.import_s": (imports[0], "s"),
        "cli.import_scipy_s": (imports[1], "s"),
    }
    for metric, span, field, unit in SPAN_METRICS:
        metrics[metric] = (summary.get(span, {}).get(field, 0) / rounds, unit)
    bs_hits, bs_misses, table_hits, table_misses = counts
    metrics.update({
        "oracle.overlap_table.hits": (table_hits / rounds, "count"),
        "oracle.overlap_table.misses": (table_misses / rounds, "count"),
        "oracle.bs_sector.hits": (bs_hits / rounds, "count"),
        "oracle.bs_sector.misses": (bs_misses / rounds, "count"),
        "oracle.bs_sector.hit_ratio": (
            bs_hits / (bs_hits + bs_misses) if bs_hits + bs_misses else 0.0, "ratio"),
        "trace.overhead_pct": (100.0 * (sum(traced) / sum(plain) - 1.0), "%"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "maps", "points", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "lqcat" / "__init__.py").is_file():
        print(f"error: no lqcat sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    try:
        if args.trace:
            imports = import_seconds()
        else:
            setup_s = setup_seconds(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 3

    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    problems = reference.self_test()
    if problems:
        print("error: reference self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    tally = Tally()
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        metrics = per_layer(workload, tally, args.seconds, imports, trace_path)
    else:
        metrics = end_to_end(workload, tally, args.seconds, setup_s)
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
