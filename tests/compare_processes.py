"""Time two checkouts' audits and p_cd sweep, each in a fresh interpreter.

Usage:

    python3 tests/compare_processes.py PARENT CHANGE [ROUNDS]

PARENT and CHANGE are the roots of two checkouts of this repository.
Every round (default 10) starts one interpreter per operation and side,
which imports that checkout's src/lqcat, runs the operation once to warm
it, then times REPEATS more calls and counts their minor page faults
(resource.getrusage).  The side that runs first alternates from round to
round.  Unlike tests/compare_timings.py, where both checkouts share one
allocator, each side here has a process of its own, so its fault counts
are its own.

Per operation it prints, for each side, the median over the rounds of
each round's median time per call and the minimum of all calls; the
parent's interquartile range over the rounds; the median of the
per-round ratios change / parent and the rounds that the change won; and
both sides' median minor faults per call, parent / change.  It compares
no results; see tests/compare_timings.py for that.  Set
OPENBLAS_NUM_THREADS=1 first for steady timings.

Needs numpy; pytest does not collect it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 5
OPERATIONS = {
    "implication_table(200)": "regions.implication_table(200)",
    "common_region(200)": "regions.common_region(200)",
    "sweep.pcd 8 r x 100 x 100": (
        "regions.sweep('pcd', np.linspace(0.1, 0.8, 8), "
        "np.linspace(0.001, 0.999, 100), np.linspace(0.001, 0.999, 100))"),
}
CHILD = """
import json, resource, sys, time
sys.path.insert(0, {src!r})
import numpy as np
from lqcat import regions
op = lambda: {expression}
op()
times, faults = [], []
for _ in range({repeats}):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    op()
    times.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({{"seconds": times, "faults": sum(faults) / len(faults)}}))
"""


def measure(root: Path, expression: str) -> dict:
    """The times of REPEATS calls of expression after one warm call, and
    their mean minor faults per call, in a fresh interpreter on root's
    src/lqcat."""
    code = CHILD.format(src=str(root / "src"), expression=expression, repeats=REPEATS)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv: list) -> int:
    if len(argv) not in (3, 4):
        sys.stderr.write(__doc__)
        return 2
    roots = (Path(argv[1]).resolve(), Path(argv[2]).resolve())
    rounds = int(argv[3]) if len(argv) == 4 else 10
    samples = {name: ([], []) for name in OPERATIONS}
    for k in range(rounds):
        for name, expression in OPERATIONS.items():
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                samples[name][side].append(measure(roots[side], expression))
    print(f"{rounds} rounds, {REPEATS} timed calls per process; times in ms per call")
    print(f"{'operation':<28}{'parent med':>11}{'min':>8}{'IQR':>14}"
          f"{'change med':>12}{'min':>8}{'ratio':>8}{'won':>7}{'faults':>14}")
    for name, (parent, change) in samples.items():
        p_ms, c_ms = ([1e3 * statistics.median(s["seconds"]) for s in side]
                      for side in (parent, change))
        p_min, c_min = (1e3 * min(min(s["seconds"]) for s in side) for side in (parent, change))
        q1, _, q3 = statistics.quantiles(p_ms, n=4) if rounds > 1 else (p_ms[0],) * 3
        ratio = statistics.median(c / p for p, c in zip(p_ms, c_ms))
        won = sum(c < p for p, c in zip(p_ms, c_ms))
        faults = "/".join(f"{statistics.median(s['faults'] for s in side):.0f}"
                          for side in (parent, change))
        print(f"{name:<28}{statistics.median(p_ms):>11.2f}{p_min:>8.2f}"
              f"{f'{q1:.2f}-{q3:.2f}':>14}{statistics.median(c_ms):>12.2f}"
              f"{c_min:>8.2f}{ratio:>8.3f}{f'{won}/{rounds}':>7}{faults:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
