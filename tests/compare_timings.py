"""Compare two checkouts' outputs and timings in one process.

Usage:

    python3 tests/compare_timings.py PARENT CHANGE [ROUNDS]

PARENT and CHANGE are the roots of two checkouts of this repository.
Each checkout's src/lqcat is imported under its own package name
(lqcat_parent and lqcat_change), so both run side by side in this one
interpreter on the same inputs.

First every operation below runs once per checkout, and its results are
compared byte for byte: every RegionGrid field, raw and values among
them, the ThresholdResult fields (at tol 1e-4 too), the
t_range lists, the implication entries, the report fields and the
closed spectra with their p_cd and entropy.  Both sets
hold general sweeps on equal T1 and T2 axes and two on unequal axes,
and two p_cd sweeps on unequal axes: a tall one, 400 r by 2,500 T1
against one T2, and a wide one, one r and T1 against 200,000 T2.
The check set also holds the audits at resolution 100, 199 and 400 and
sweeps at r = 2 and on an r axis whose truncation classes mix.  Each
operation that differs is printed with the largest absolute difference
between its numbers, whether any other field differs, such as a shape,
a NaN or a flag, and how many enhancement flags flipped: RegionGrid's
enhanced and MeasureReport's *_enhanced, which are properties and so no
fields.  A last line gives the flipped flags of all operations.

Then the timed operations run ROUNDS times per checkout (default 16),
interleaved: every round runs each operation on both sides, the order of
the operations rotates from round to round, and the side that runs first
alternates.  A sample repeats its operation as often as fills about
SAMPLE_SECONDS on the parent.  Per operation it prints the repeats, both
sides' median time per call, the median of the per-round ratios
change / parent, the rounds that the change won, and both sides' median
minor page faults per call (resource.getrusage).  Both sides share one
allocator, so a ratio whose faults differ widely may be the allocator's;
time such an operation in a process of its own.  Set
OPENBLAS_NUM_THREADS=1 first for steady timings.  Exits 1 if any checked
operation differs, else 0.

Needs numpy; pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

QUANTITIES = ("entropy", "epr", "fidelity", "pcd")
MEASURES = ("entropy", "epr", "fidelity")
R_MAPS = np.linspace(0.1, 0.8, 8)
T_SQUARE = np.linspace(0.001, 0.999, 100)
T_OTHER = np.linspace(0.002, 0.998, 99)
T_DIAGONAL = np.linspace(0.001, 0.999, 200)
R_MIXED = np.linspace(0.5, 2.3, 7)
T_MIXED = np.linspace(0.0, 1.0, 25)
R_TALL = np.linspace(0.01, 0.8, 400)
T_TALL = np.linspace(0.001, 0.999, 2500)
T_WIDE = np.linspace(0.001, 0.999, 200_000)
T_SCAN = np.arange(0.001, 1.0, 0.001)
SAMPLE_SECONDS = 0.02
POINTS = np.column_stack([np.random.default_rng(17).uniform(0.0, 1.5, 200),
                          np.random.default_rng(18).uniform(0.01, 1.0, 200),
                          np.random.default_rng(19).uniform(0.01, 1.0, 200)])


def timed_operations() -> dict:
    """Name -> function of a loaded package, for the operations that are
    both checked and timed: the maps, the searches, report points and
    the spectrum route's points."""
    ops = {
        "implication_table(200)": lambda m: m.regions.implication_table(200),
        "common_region(200)": lambda m: m.regions.common_region(200),
    }
    for q in QUANTITIES:
        ops[f"sweep.{q} 8 r x 100 x 100"] = (
            lambda m, q=q: m.regions.sweep(q, R_MAPS, T_SQUARE, T_SQUARE))
    # Unequal axes: the whole grid, where equal ones take their triangle.
    for q in ("entropy", "fidelity"):
        ops[f"sweep.{q} 8 r x 100 x 99"] = (
            lambda m, q=q: m.regions.sweep(q, R_MAPS, T_SQUARE, T_OTHER))
    ops["sweep.pcd tall 400 r x 2500 x 1"] = (
        lambda m: m.regions.sweep("pcd", R_TALL, T_TALL, [0.5]))
    ops["sweep.pcd wide 1 x 1 x 200000"] = (
        lambda m: m.regions.sweep("pcd", [0.5], [0.999], T_WIDE))
    for q in QUANTITIES:
        ops[f"symmetric_sweep.{q} 8 r x 200"] = (
            lambda m, q=q: m.regions.symmetric_sweep(q, R_MAPS, T_DIAGONAL))
    ops["sweep.entropy r=2 100 x 100"] = (
        lambda m: m.regions.sweep("entropy", [2.0], T_SQUARE, T_SQUARE))
    for q in MEASURES:
        ops[f"threshold.{q}"] = lambda m, q=q: m.regions.threshold(q)
    for q in MEASURES:
        ops[f"threshold.{q} tol=1e-4"] = lambda m, q=q: m.regions.threshold(q, 1e-4)
    for q in MEASURES:
        ops[f"t_range.{q} r=0.2"] = lambda m, q=q: m.regions.t_range(q, 0.2)
    ops["t_range.entropy r=0.5"] = lambda m: m.regions.t_range("entropy", 0.5)
    # The top truncation classes: a search row at r = 2 takes N up to 960.
    ops["t_range.entropy r=2"] = lambda m: m.regions.t_range("entropy", 2.0)
    ops["symmetric_row(2, 999 T).entropy"] = (
        lambda m: m.regions.symmetric_row(2.0, T_SCAN).entropy)
    ops["report 200 points"] = lambda m: [
        m.report.report(m.model.make_params(*p)) for p in POINTS.tolist()]
    ops["closed_spectrum + entropy_of, 200 points"] = lambda m: [
        (spectrum, p_cd, m.model.entropy_of(spectrum))
        for spectrum, p_cd in (m.formulas.closed_spectrum(m.model.make_params(*p))
                               for p in POINTS.tolist())]
    return ops


def checked_operations() -> dict:
    """The timed operations and more inputs, whose results are compared
    but not timed."""
    ops = timed_operations()
    for resolution in (100, 199, 400):
        ops[f"implication_table({resolution})"] = (
            lambda m, n=resolution: m.regions.implication_table(n))
        ops[f"common_region({resolution})"] = (
            lambda m, n=resolution: m.regions.common_region(n))
    for q in QUANTITIES:
        ops[f"sweep.{q} r=2"] = (
            lambda m, q=q: m.regions.sweep(q, [2.0], T_SQUARE, T_SQUARE))
        ops[f"sweep.{q} mixed r"] = (
            lambda m, q=q: m.regions.sweep(q, R_MIXED, T_MIXED, T_MIXED))
        ops[f"symmetric_sweep.{q} mixed r"] = (
            lambda m, q=q: m.regions.symmetric_sweep(q, R_MIXED, T_MIXED))
    for q in MEASURES:
        for r in (0.05, 0.3, 0.5):
            ops[f"t_range.{q} r={r}"] = lambda m, q=q, r=r: m.regions.t_range(q, r)
    return ops


def load(root: Path, name: str):
    """The checkout's src/lqcat imported as the package name, with its
    modules as attributes."""
    package = root / "src" / "lqcat"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("formulas", "model", "regions", "report"):
        setattr(module, sub, importlib.import_module(f"{name}.{sub}"))
    return module


def canonical(x):
    """x with every float as its hex string and every array as its
    dtype, shape and bytes, so equal canonical forms are equal bytes;
    dataclasses become their class name and fields."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            canonical(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, float):
        return float.hex(x)
    return x


def difference(a, b) -> tuple:
    """The largest absolute difference between the finite numbers of two
    results, and whether any other field differs: a type, a shape, a
    length, a NaN or infinity, a flag or a string."""
    if dataclasses.is_dataclass(a) and type(a).__name__ == type(b).__name__:
        a, b = (tuple(getattr(x, f.name) for f in dataclasses.fields(x)) for x in (a, b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        parts = [difference(x, y) for x, y in zip(a, b)]
        return (max((d for d, _ in parts), default=0.0),
                len(a) != len(b) or any(o for _, o in parts))
    if isinstance(a, (float, np.ndarray)) and isinstance(b, (float, np.ndarray)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype:
            return 0.0, True
        if a.dtype.kind != "f":
            return 0.0, a.tobytes() != b.tobytes()
        finite = np.isfinite(a) & np.isfinite(b)
        return (float(np.abs(a[finite] - b[finite]).max(initial=0.0)),
                not np.array_equal(a[~finite], b[~finite], equal_nan=True)
                or not np.array_equal(np.isfinite(a), np.isfinite(b)))
    return 0.0, a != b


def flags(x) -> np.ndarray:
    """Every enhancement flag in a result, flattened in order."""
    if isinstance(x, (list, tuple)):
        return np.concatenate([flags(v) for v in x] + [np.zeros(0, dtype=bool)])
    if type(x).__name__ == "RegionGrid":
        return x.enhanced.ravel()
    if type(x).__name__ == "MeasureReport":
        return np.array([x.entropy_enhanced, x.epr_enhanced, x.fidelity_enhanced])
    return np.zeros(0, dtype=bool)


def check(sides) -> int:
    """The number of checked operations whose results differ."""
    differing = flipped = 0
    for name, op in checked_operations().items():
        parent, change = (op(m) for m in sides)
        a, b = flags(parent), flags(change)
        flips = int(np.sum(a != b)) if a.shape == b.shape else max(a.size, b.size)
        flipped += flips
        if canonical(parent) != canonical(change) or flips:
            differing += 1
            largest, other = difference(parent, change)
            print(f"DIFFERS: {name}: largest |difference| {largest:.3g}, {flips} flipped flags"
                  + (", and another field differs" if other else ", other fields equal"))
    print(f"{differing} of {len(checked_operations())} checked operations differ; "
          f"{flipped} enhancement flags flipped")
    return differing


def time_rounds(sides, rounds: int) -> None:
    """Each sample repeats its operation to last about SAMPLE_SECONDS on
    the parent, so short operations are not lost in the timer's noise."""
    ops = list(timed_operations().items())
    repeats = {}
    for name, op in ops:
        start = time.perf_counter()
        op(sides[0])
        repeats[name] = max(1, round(SAMPLE_SECONDS / (time.perf_counter() - start)))
    times = {name: ([], []) for name, _ in ops}
    faults = {name: ([], []) for name, _ in ops}
    for k in range(rounds):
        for name, op in ops[k % len(ops):] + ops[:k % len(ops)]:
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                for _ in range(repeats[name]):
                    op(sides[side])
                times[name][side].append((time.perf_counter() - start) / repeats[name])
                faults[name][side].append(
                    (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
                    / repeats[name])
    print(f"{'operation':40} {'repeats':>7} {'parent':>10} {'change':>10} {'ratio':>7}  "
          f"wins   faults/call parent change")
    for name, (parent, change) in times.items():
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{name:40} {repeats[name]:7} {statistics.median(parent) * 1e3:8.2f}ms "
              f"{statistics.median(change) * 1e3:8.2f}ms "
              f"{statistics.median(ratios):7.3f}  {f'{wins}/{rounds}':6} "
              f"{statistics.median(faults[name][0]):18.1f} "
              f"{statistics.median(faults[name][1]):6.1f}")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python3 tests/compare_timings.py PARENT CHANGE [ROUNDS]",
              file=sys.stderr)
        return 2
    roots = [Path(p).resolve() for p in argv[:2]]
    for root in roots:
        if not (root / "src" / "lqcat").is_dir():
            print(f"{root}: no src/lqcat here", file=sys.stderr)
            return 2
    sides = [load(root, name) for root, name in zip(roots, ("lqcat_parent", "lqcat_change"))]
    differing = check(sides)
    time_rounds(sides, int(argv[2]) if len(argv) == 3 else 16)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
