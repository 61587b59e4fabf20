"""The benchmark's four workloads over lqcat's public functions.

A workload hands out rounds.  Round k is a fixed list of operations whose
inputs come only from (seed, k), so a run attempts whole rounds of the same
operations and the same seed gives the same inputs.  The runner times
``Op.run`` alone; ``Op.digest`` then keeps what the checks need, outside
the timed part, and ``Workload.check`` compares a round's digests with the
independent reference in ``reference.py``.

lqcat is reached through module attributes looked up at call time
(``regions.threshold(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

formulas = importlib.import_module("lqcat.formulas")
model = importlib.import_module("lqcat.model")
oracle = importlib.import_module("lqcat.oracle")
regions = importlib.import_module("lqcat.regions")
report_module = importlib.import_module("lqcat.report")

MEASURES = ("entropy", "epr", "fidelity")
QUANTITIES = MEASURES + ("pcd",)
WARM_ROUND = 2**31          # round index reserved for the untimed warm-up
MEASURE_ATOL = 1e-9         # entropy, EPR, fidelity against the reference
PCD_RTOL = 1e-12            # p_cd against the reference (points, crosscheck)
ROUTE_ATOL = 1e-10          # closed form against the circuit oracle
BASELINE_ATOL = 1e-12       # baselines against the TMSVS closed forms (the guard)
PCD_MAX = 1.0 + 4 * np.finfo(float).eps
SYMMETRY_ATOL = 1e-12       # sweep(T1, T2) against sweep(T2, T1)
AUDIT_CHUNK = 4             # r rows per reference call in the implication check


def _keep(result):
    return result


def _untimed(call) -> None:
    """Warm-up call; a failure is counted when the timed rounds meet it."""
    try:
        call()
    except Exception:
        pass


@dataclass
class Op:
    """One timed operation, plus the inputs its check needs."""

    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any] = _keep
    inputs: Any = None


class Workload:
    name = ""
    WARM_ROUNDS = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def round(self, k: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Lazy set-up (overlap tables, sector caches) before timing."""
        for k in range(self.WARM_ROUNDS):
            for op in self.round(WARM_ROUND + k):
                _untimed(op.run)

    def check(self, k: int, ops: list, digests: list) -> list:
        """One message per op: None when its output is correct."""
        raise NotImplementedError


def _strata(g: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw in each of n equal bins of (0, 1], increasing.

    Stratified draws give every seed the same make-up of inputs, so seeds
    change the values but not the amount of work.
    """
    return (np.arange(n) + 1.0 - g.uniform(0.0, 1.0, n)) / n


def _live_points(ops, digests):
    """Indices of the ops that returned, and their (r, T1, T2) as arrays."""
    live = [i for i, d in enumerate(digests) if d is not None]
    r, T1, T2 = (np.array(c) for c in zip(*(ops[i].inputs for i in live)))
    return live, r, T1, T2


def _far(actual, expected, atol: float) -> bool:
    return not np.all(np.abs(np.asarray(actual) - np.asarray(expected)) <= atol)


def _rel_far(actual, expected, rtol: float) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return not np.all(np.abs(actual - expected) <= rtol * np.abs(expected))


# --------------------------------------------------------------- search


class Search(Workload):
    """threshold(q) at the default tolerance, then the t_range calls that
    ``lqcat threshold`` makes.  One operation is one quantity's report."""

    name = "search"

    def round(self, k):
        return [Op(q, lambda q=q: self._threshold_report(q), inputs=q)
                for q in MEASURES]

    @staticmethod
    def _threshold_report(quantity):
        result = regions.threshold(quantity)
        examples = {}
        for r in (0.2, round(0.5 * result.r_star, 3)):
            if 0.0 < r < result.r_star:
                examples[float(r)] = regions.t_range(quantity, r)
        return result.r_star, examples

    def warm_up(self):
        # A full round costs ~20 s; the lazy state it needs is the overlap
        # tables for every truncation the bisection visits on r in [0.01, 2].
        for r in np.linspace(0.01, 2.0, 40):
            _untimed(lambda r=float(r): regions.symmetric_row(r, np.array([0.999])))

    def check(self, k, ops, digests):
        out = []
        for index, (op, digest) in enumerate(zip(ops, digests)):
            out.append(None if digest is None else
                       self._check_one(op.inputs, digest, self.rng(1, k, index)))
        return out

    @staticmethod
    def _enhances(quantity, r, T) -> np.ndarray:
        T = np.asarray(T, float)
        return ref.deltas(r, T, T)[quantity] > ref.GUARD

    def _check_one(self, quantity, digest, rng):
        r_star, examples = digest
        if not ref.best_symmetric_delta(quantity, r_star - 0.005) > ref.GUARD:
            return f"{quantity}: no T enhances at r* - 0.005 = {r_star - 0.005}"
        if ref.best_symmetric_delta(quantity, r_star + 0.005) > ref.GUARD:
            return f"{quantity}: some T enhances at r* + 0.005 = {r_star + 0.005}"
        expected = [r for r in (0.2, round(0.5 * r_star, 3)) if 0.0 < r < r_star]
        if sorted(examples) != sorted(expected):
            return f"{quantity}: t_range taken at {sorted(examples)}, not {expected}"
        for r, intervals in examples.items():
            inside, outside = [], []
            for lo, hi in intervals:
                if not 0.0 <= lo < hi <= 1.0:
                    return f"{quantity}: bad interval ({lo}, {hi}) at r = {r}"
                inside.append(0.5 * (lo + hi))
                if hi - lo > 0.01:
                    inside.extend(rng.uniform(lo + 0.005, hi - 0.005, 2))
                outside += [t for t in (lo - 0.01, hi + 0.01) if 0.0 < t < 1.0]
            # Seeded probes at least 0.01 away from every interval.
            probes = rng.uniform(0.0, 1.0, 64)
            far = [t for t in probes
                   if all(t < lo - 0.01 or t > hi + 0.01 for lo, hi in intervals)]
            outside += far[:3]
            if inside and not np.all(self._enhances(quantity, r, inside)):
                return f"{quantity}: t_range interval does not enhance at r = {r}"
            if outside and np.any(self._enhances(quantity, r, outside)):
                return f"{quantity}: enhancement outside the t_range intervals at r = {r}"
        return None


# ----------------------------------------------------------------- maps


class Maps(Workload):
    """The implication table, the common region, and the symmetric and
    general sweeps of each quantity, all with r <= 0.8.  One operation is
    one map."""

    name = "maps"
    SAMPLES = 12

    def round(self, k):
        g = self.rng(0, k)
        resolution = 200 + int(g.integers(-1, 2))
        r_axis = 0.8 * _strata(g, 8)
        t_sym = 0.001 + 0.998 * _strata(g, 200)
        t_sq = 0.001 + 0.998 * _strata(g, 100)
        cells = self.rng(1, k)

        ops = [
            Op("implication_table",
               lambda: regions.implication_table(resolution),
               digest=self._table_digest),
            Op("common_region",
               lambda: regions.common_region(resolution),
               digest=lambda grid: self._grid_digest(grid, cells, "common")),
        ]
        for q in QUANTITIES:
            ops.append(Op(f"symmetric_sweep.{q}",
                          lambda q=q: regions.symmetric_sweep(q, r_axis, t_sym),
                          digest=lambda grid, q=q: self._grid_digest(grid, cells, q)))
        for q in QUANTITIES:
            ops.append(Op(f"sweep.{q}",
                          lambda q=q: regions.sweep(q, r_axis, t_sq, t_sq),
                          digest=lambda grid, q=q: self._grid_digest(grid, cells, q)))
        return ops

    @staticmethod
    def _table_digest(table):
        return table.resolution, [(e.antecedent, e.consequent, e.holds, e.witness)
                                  for e in table.entries]

    def _grid_digest(self, grid, rng, quantity):
        """Sample cells (r, T1, T2, raw, delta), square-axis symmetry error
        and the largest p_cd; the grid itself is dropped."""
        shape = grid.values.shape
        idx = [rng.integers(0, n, self.SAMPLES) for n in shape]
        r = grid.axis_r[idx[0]]
        T1 = grid.axis_T1[idx[1]]
        if grid.axis_T2 is None:
            T2, at = T1, (idx[0], idx[1])
            asym = 0.0
        else:
            T2, at = grid.axis_T2[idx[2]], (idx[0], idx[1], idx[2])
            asym = float(np.max(np.abs(grid.raw - grid.raw.transpose(0, 2, 1))))
        pcd_max = float(np.max(grid.raw)) if quantity == "pcd" else None
        return {"quantity": grid.quantity, "r": r, "T1": T1, "T2": T2,
                "raw": grid.raw[at], "delta": grid.values[at],
                "asym": asym, "pcd_max": pcd_max,
                "finite": bool(np.all(np.isfinite(grid.values)))}

    def check(self, k, ops, digests):
        return [None if d is None else
                self._check_table(d) if op.label == "implication_table" else
                self._check_grid(op.label, d)
                for op, d in zip(ops, digests)]

    @staticmethod
    def _audit_deltas(resolution):
        """Reference deltas on the audit grid of ``implication_table``:
        r = 0.8 (i+1)/res and symmetric T = (j+0.5)/res, one row per r."""
        r = 0.8 * (np.arange(resolution) + 1.0) / resolution
        T = (np.arange(resolution) + 0.5) / resolution
        rows = {q: [] for q in MEASURES}
        for chunk in np.array_split(r, max(1, resolution // AUDIT_CHUNK)):
            # A few rows at a time keeps the check's memory below the map's.
            d = ref.deltas(np.repeat(chunk, resolution), np.tile(T, len(chunk)),
                           np.tile(T, len(chunk)))
            for q in MEASURES:
                rows[q].append(d[q])
        return {q: np.concatenate(rows[q]) for q in MEASURES}

    @classmethod
    def _check_table(cls, digest):
        resolution, entries = digest
        d = cls._audit_deltas(resolution)
        for a, b, holds, witness in entries:
            if holds != (witness is None):
                return f"{a}=>{b}: holds={holds} but witness={witness}"
            # Cells where a enhances and b does not, by the reference.  A
            # margin of the measures' tolerance either side of the guard
            # keeps round-off at the region edges from counting.
            viol = (d[a] > ref.GUARD + MEASURE_ATOL) & (d[b] <= ref.GUARD - MEASURE_ATOL)
            if holds:
                if np.any(viol):
                    return (f"{a}=>{b} reported as holding, but the reference has "
                            f"{int(np.sum(viol))} violating cells at resolution {resolution}")
                continue
            w = ref.deltas(witness.r, witness.T, witness.T)
            da, db = float(w[a][0]), float(w[b][0])
            if not (da > ref.GUARD and db <= ref.GUARD):
                return (f"{a}=>{b} witness at (r, T) = ({witness.r}, {witness.T}) "
                        f"re-evaluates to d{a} = {da}, d{b} = {db}")
            if _far([witness.antecedent_delta, witness.consequent_delta],
                    [da, db], MEASURE_ATOL):
                return f"{a}=>{b} witness deltas differ from the reference"
            strongest = float(np.max(d[a], where=viol, initial=-np.inf))
            if da < strongest - MEASURE_ATOL:
                return (f"{a}=>{b} witness has d{a} = {da}, but the strongest "
                        f"counterexample on the grid has {strongest}")
        return None

    @staticmethod
    def _check_grid(label, d):
        if not d["finite"]:
            return f"{label}: non-finite values"
        deltas = ref.deltas(d["r"], d["T1"], d["T2"])
        quantity = d["quantity"]
        if quantity == "common":
            want_delta = np.minimum.reduce([deltas[q] for q in MEASURES])
            want_raw = want_delta
        else:
            want_delta = deltas[quantity]
            want_raw = ref.measures(d["r"], d["T1"], d["T2"])[quantity]
        if _far(d["delta"], want_delta, MEASURE_ATOL) or _far(d["raw"], want_raw, MEASURE_ATOL):
            return f"{label}: sample cells differ from the reference by more than {MEASURE_ATOL}"
        if d["asym"] > SYMMETRY_ATOL:
            return f"{label}: not symmetric under T1 <-> T2 (max diff {d['asym']})"
        if d["pcd_max"] is not None and d["pcd_max"] > PCD_MAX:
            return f"{label}: p_cd = {d['pcd_max']} > 1"
        return None


# --------------------------------------------------------------- points


class Points(Workload):
    """report(make_params(r, T1, T2)) at seeded random points, r <= 1.5.
    One operation is one point."""

    name = "points"
    SIZE = 100

    def round(self, k):
        g = self.rng(0, k)
        pts = np.column_stack([g.uniform(0.0, 1.5, self.SIZE),
                               g.uniform(0.0, 1.0, self.SIZE),
                               g.uniform(0.0, 1.0, self.SIZE)])
        return [Op("report",
                   lambda p=(float(r), float(a), float(b)):
                       report_module.report(model.make_params(*p)),
                   digest=self._digest, inputs=(r, a, b))
                for r, a, b in pts]

    def warm_up(self):
        super().warm_up()
        # The largest truncation the domain can ask for.
        _untimed(lambda: report_module.report(model.make_params(1.5, 1.0, 1.0)))

    @staticmethod
    def _digest(rep):
        return (rep.p_cd, rep.entropy, rep.epr, rep.fidelity,
                rep.baseline_entropy, rep.baseline_epr, rep.baseline_fidelity)

    def check(self, k, ops, digests):
        out = [None] * len(ops)
        if all(d is None for d in digests):
            return out
        live, r, T1, T2 = _live_points(ops, digests)
        got = np.array([digests[i] for i in live])
        m, b = ref.measures(r, T1, T2), ref.baselines(r)
        bad = ~(np.abs(got[:, 0] - m["pcd"]) <= PCD_RTOL * m["pcd"])
        for col, q in enumerate(MEASURES, start=1):
            bad |= ~(np.abs(got[:, col] - m[q]) <= MEASURE_ATOL)
            bad |= ~(np.abs(got[:, col + 3] - b[q]) <= BASELINE_ATOL)
        for j in np.flatnonzero(bad):
            i = live[j]
            out[i] = (f"report{ops[i].inputs} = {digests[i]} differs from the "
                      f"reference {tuple(float(m[q][j]) for q in QUANTITIES)}")
        return out


# ----------------------------------------------------------- crosscheck


class Crosscheck(Workload):
    """Both routes at seeded points: closed_spectrum and catalyze_oracle,
    with entropy, EPR and fidelity on each spectrum, as ``verify`` runs
    them.  One operation is one point.

    A round is what one ``lqcat verify --grid fine`` and one ``--grid
    coarse`` evaluate: every (r, T1, T2) on each grid, r outermost, with
    the grids' own r values (up to 1.5) and their T values each moved by a
    seeded offset of at most 0.005.  The offsets are fresh every round, so
    no T repeats from one round to the next and every round meets the
    circuit's ``bs_sector`` cache as a new ``verify`` process does: each T
    misses once per photon-number sector and is then shared across r and
    across the other T.  ``sweep --engine oracle`` shares its T axes
    across r in the same way.
    """

    name = "crosscheck"
    GRIDS = (  # the grids of lqcat's ``verify`` (cli.VERIFY_GRIDS)
        ((0.05, 0.2, 0.35, 0.5, 0.8, 1.1, 1.5),
         (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)),
        ((0.1, 0.5, 0.9), (0.1, 0.5, 0.9)),
    )
    JITTER = 0.005
    # bs_sector's LRU holds 4096 sector matrices, about five rounds' worth;
    # warm until it is full, so neither its hit rate nor the memory it
    # holds drifts while timed.
    WARM_ROUNDS = 8

    def round(self, k):
        g = self.rng(1, k)
        points = []
        for r_axis, t_axis in self.GRIDS:
            T = np.asarray(t_axis) + g.uniform(-self.JITTER, self.JITTER, len(t_axis))
            points += [(r, float(a), float(b)) for r in r_axis for a in T for b in T]
        return [Op("both_routes", lambda p=p: self._both_routes(*p),
                   digest=self._digest, inputs=p)
                for p in points]

    @staticmethod
    def _both_routes(r, T1, T2):
        params = model.make_params(r, T1, T2)
        routes = []
        for spectrum, p_cd in (formulas.closed_spectrum(params),
                               oracle.catalyze_oracle(params)):
            routes.append((spectrum, p_cd, model.entropy_of(spectrum),
                           model.epr_of(spectrum),
                           oracle.cf_fidelity_oracle(spectrum)))
        return routes

    @staticmethod
    def _digest(routes):
        (wc, *closed), (wo, *circuit) = routes
        n = min(len(wc.weights), len(wo.weights))
        dw = float(np.max(np.abs(wc.weights[:n] - wo.weights[:n])))
        return dw, closed, circuit

    def check(self, k, ops, digests):
        out = [None] * len(ops)
        if all(d is None for d in digests):
            return out
        live, r, T1, T2 = _live_points(ops, digests)
        m = ref.measures(r, T1, T2)
        for j, i in enumerate(live):
            dw, closed, circuit = digests[i]
            if dw > ROUTE_ATOL or _far(closed, circuit, ROUTE_ATOL):
                out[i] = f"routes differ at {ops[i].inputs}: {closed} vs {circuit}, max|dw| = {dw}"
                continue
            want = [m[q][j] for q in QUANTITIES[-1:] + MEASURES]
            for route, values in (("closed", closed), ("oracle", circuit)):
                if (_rel_far(values[0], want[0], PCD_RTOL)
                        or _far(values[1:], want[1:], MEASURE_ATOL)):
                    out[i] = f"{route} route at {ops[i].inputs} = {values}, reference {want}"
                    break
        return out


WORKLOADS = {w.name: w for w in (Search, Maps, Points, Crosscheck)}
