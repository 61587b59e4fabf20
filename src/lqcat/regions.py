"""Parameter-space analysis of catalysis enhancement.

Grid sweeps of the enhancement deltas, threshold bisection in the
squeezing parameter, enhancing-transmittance intervals, the pairwise
implication audit over the three measures, and their common region.

p_cd, the EPR variance and the fidelity come from the truncation-free
closed forms of formulas.closed_measures; the entropy is the chain-rule
sum of formulas._entropy over the same head and per-T log tables, which
the threshold search skips wherever formulas.closed_entropy_bound
settles a cell.  The standalone published moment polynomials are not
used: they disagree with the exact spectrum, and the spectrum is what
the brute-force circuit simulation certifies.  The circuit oracle and
the CF quadrature serve only sweep(engine="oracle"), which imports
lqcat.oracle when it runs.

"Enhanced" always means the delta against the un-catalyzed baseline at
the same squeezing exceeds a small guard band, so round-off at the
T = 1 identity line is never classified as enhancement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formulas import (
    CLOSED_CELL_DOUBLES,
    SWEEP_BLOCK,
    _broadcast_entropy,
    _each_r,
    _entropy,
    closed_entropy_bound,
    closed_epr,
    closed_fidelity,
    closed_head,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import (
    ENHANCEMENT_GUARD,
    ParameterError,
    choose_truncation,
    delta,
    make_params,
)

QUANTITIES = ("entropy", "epr", "fidelity", "pcd")
MEASURES = ("entropy", "epr", "fidelity")

GRID_CAP = 10**7
R_BRACKET = (0.01, 2.0)
T_SCAN_STEP = 1e-3
POLISH_POINTS = 129
DEFAULT_TOL = 1e-3
# Slack added to the closed-form entropy bound before it settles a
# threshold cell (_entropy_delta_bound).  The bound is exact for the
# untruncated spectrum, so the slack must cover how far the computed
# delta can sit above it:
# * truncation: the squared weight beyond N is below ENTROPY_EPS_TRUNC
#   = 1e-16, which moves the entropy by about 50 eps = 5e-15 bits;
# * the computed entropy's rounding: the chain rule's einsum sums
#   N - 1 <= 2047 terms u^2n G G log2(G G) of a few ulp each, and with
#   rho log2 norm and log2(u^2) (2 rho + excess) their absolute values
#   sum to at most 5.8 bits at r <= 2.4 (measured on dense rows, at
#   T = 0.999), so below 2049 x 5.8 x 2.2e-16 = 2.6e-12;
# * the bound's and tmsvs_entropy's rounding: a few dozen operations on
#   non-negative terms of at most 7 bits, below 1e-13.
# That is below 2.8e-12 in all; 1e-9 leaves 350-fold room.  Measured on
# dense rows for r <= 2.4: without slack the bound fell at most 2.5e-14
# below the computed delta, at T = 1 and r = 2.335, where the tail is
# geometric and the bound exact.
ENTROPY_BOUND_MARGIN = 1e-9


def _baseline(quantity: str, r):
    """The un-catalyzed reference of quantity at r, or at each r of an
    array, shaped like r.  Success probability has no un-catalyzed
    counterpart; the natural reference is the certain heralding of the
    identity line T = 1."""
    return _each_r({"entropy": tmsvs_entropy, "epr": tmsvs_epr,
                    "fidelity": tmsvs_fidelity, "pcd": lambda r: 1.0}[quantity], r)


@dataclass(frozen=True)
class RowMeasures:
    """Measures at the points (r, T1, T2) of a row or a grid block, all
    three broadcast against each other, each evaluated on first read and
    only then: p_cd, the EPR variance and the fidelity from the
    truncation-free closed forms, and the entropy by formulas._entropy,
    from the same head where pairs are given, else as
    formulas.closed_entropy; either equals report at each point bit for
    bit.  Where the heralding probability underflows, every measure but
    pcd is NaN.  With pairs = (i, j), the points are (r, T1[i], T2[j])
    for a column r, and the values have shape (len(r), len(i)).
    """

    r: float | np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    pairs: tuple | None = None

    @cached_property
    def _head(self) -> tuple:
        if self.pairs is None:
            return closed_head(self.r, self.T1, self.T2)
        i, j = self.pairs
        return closed_head(self.r, self.T1[i], self.T2[j])

    @property
    def pcd(self) -> np.ndarray:
        return self._head[0]

    @cached_property
    def epr(self) -> np.ndarray:
        return closed_epr(self._head)

    @cached_property
    def fidelity(self) -> np.ndarray:
        return closed_fidelity(self._head)

    @cached_property
    def entropy(self) -> np.ndarray:
        if self.pairs is None:
            return _broadcast_entropy(self.r, self.T1, self.T2)
        return _entropy(self._head, self.r, self.T1, self.T2, self.pairs)

    def values(self, quantity: str) -> np.ndarray:
        if quantity not in QUANTITIES:
            raise ParameterError(f"unknown quantity {quantity!r}")
        return getattr(self, quantity)

    def deltas(self, quantity: str) -> np.ndarray:
        return delta(quantity, self.values(quantity), _baseline(quantity, self.r))


def symmetric_row(r: float, T: np.ndarray) -> RowMeasures:
    """Measures at (r, T, T) for a 1-D array of T in [0, 1], each
    evaluated over the whole row only when read."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 1:
        raise ParameterError("T must be a 1-D array")
    if len(T) and (T.min() < 0.0 or T.max() > 1.0):
        raise ParameterError("T values must lie in [0, 1]")
    Tmax = float(T.max()) if len(T) else 0.0
    make_params(r, Tmax, Tmax)  # validates r
    return RowMeasures(r=r, T1=T, T2=T)


@dataclass(frozen=True)
class RegionGrid:
    """Enhancement deltas of one quantity over a rectangular grid.

    For the general grid the values have shape (r, T1, T2); in symmetric
    mode axis_T2 is None and the values have shape (r, T) along the
    T1 = T2 diagonal.  raw holds the quantity itself, baselines the
    un-catalyzed reference per r.
    """

    quantity: str
    axis_r: np.ndarray
    axis_T1: np.ndarray
    axis_T2: np.ndarray | None
    values: np.ndarray
    raw: np.ndarray
    baselines: np.ndarray

    @property
    def enhanced(self) -> np.ndarray:
        return self.values > ENHANCEMENT_GUARD


def _check_grid(*counts: int) -> None:
    """Reject an empty axis or a grid above GRID_CAP before any work."""
    if 0 in counts:
        raise ParameterError("grid axes must not be empty")
    total = math.prod(counts)
    if total > GRID_CAP:
        raise ParameterError(f"grid size {total} exceeds cap {GRID_CAP}")


def sweep(quantity: str, r_values, T1_values, T2_values,
          engine: str = "closed_form") -> RegionGrid:
    """Evaluate one quantity's enhancement delta over a full (r, T1, T2) grid.

    engine "closed_form" evaluates the closed forms; "oracle"
    re-simulates the heralded circuit per point and takes the fidelity
    by the CF quadrature, a much slower cross-check that agrees to
    round-off.  Output ordering is row-major over (r, T1, T2).  Points
    whose heralding probability underflows are NaN.  The closed form
    takes blocks of r rows against (T1, T2) pair columns; where the T1
    and T2 axes are equal bit for bit, it evaluates the pairs T1 <= T2
    and mirrors them, exactly (see _blocked_values).
    """
    if engine not in ("closed_form", "oracle"):
        raise ParameterError(f"unknown engine {engine!r}")
    return _sweep(quantity, r_values, T1_values, T2_values, engine)


def symmetric_sweep(quantity: str, r_values, T_values) -> RegionGrid:
    """Sweep along the T1 = T2 diagonal; values have shape (r, T)."""
    return _sweep(quantity, r_values, T_values, None, "closed_form")


def _sweep(quantity: str, r_values, T1_values, T2_values, engine: str):
    """The body of sweep, and of symmetric_sweep with T2_values None.

    Every input is checked before any baseline or row is computed: the
    quantity, the axis counts against GRID_CAP, each axis strictly
    increasing (so NaN fails), then both corners of the grid by
    make_params, which bounds every r and T in between, and, where a
    route truncates, the truncation cap at the top corner.
    """
    if quantity not in QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}")
    names = ("r", "T") if T2_values is None else ("r", "T1", "T2")
    axes = [np.asarray(values, dtype=float)
            for values in (r_values, T1_values, T2_values)[:len(names)]]
    _check_grid(*map(len, axes))
    for name, axis in zip(names, axes):
        if not np.all(np.diff(axis) > 0.0):
            raise ParameterError(f"the {name} axis must be strictly increasing")
    for end in (0, -1):
        corner = make_params(axes[0][end], axes[1][end], axes[-1][end])
    if quantity == "entropy" or engine == "oracle":
        choose_truncation(corner)  # the grid's largest q
    axis_r, axis_T1, axis_T2 = (axes + [None])[:3]
    baselines = _baseline(quantity, axis_r)
    if engine == "oracle":
        from .oracle import oracle_measure

        raw = np.array([[[oracle_measure(quantity, make_params(r, T1, T2))
                          for T2 in axis_T2] for T1 in axis_T1] for r in axis_r])
    else:
        raw, = _blocked_values((quantity,), axis_r, axis_T1, axis_T2)
    values = delta(quantity, raw, baselines.reshape((-1,) + (1,) * (raw.ndim - 1)))
    return RegionGrid(quantity=quantity, axis_r=axis_r, axis_T1=axis_T1,
                      axis_T2=axis_T2, values=values, raw=raw,
                      baselines=baselines)


def _block_cells() -> int:
    """The cells of one sweep block, search row or CLI CSV block:
    SWEEP_BLOCK doubles of working set, and at least one."""
    return max(1, SWEEP_BLOCK // CLOSED_CELL_DOUBLES)


def _blocked_values(quantities, r: np.ndarray, T1: np.ndarray,
                    T2: np.ndarray | None = None) -> list:
    """One array per quantity over the grid r x T1 x T2, or r x T along
    T1 = T2 when T2 is None.

    The grid is a table whose rows are the r:
    * symmetric: columns are the T, each cell (T, T);
    * general: columns are the pairs (T1[i], T2[j]) in row-major order,
      or, where the T1 and T2 axes are equal bit for bit (so 0.0 and
      -0.0 differ), only those with i <= j, each value written to both
      (i, j) and (j, i).  Every quantity is swap-symmetric bit for bit,
      so this triangle is exact.

    A block holds at most SWEEP_BLOCK doubles of working set: up to the
    square root of its cells in rows, against as many columns as fill
    it, so the entropy's tables and every column's T terms serve several
    r.  No array but the outputs is larger than an axis or a block.
    """
    n = len(T1)
    if T2 is None:
        shape = table = len(r), n

        def block(rows, cols):
            k = np.arange(cols.start, cols.stop)
            return RowMeasures(r=r[rows, None], T1=T1, T2=T1, pairs=(k, k)), (cols,)
    else:
        shape = table = len(r), n * len(T2)
        if np.array_equal(T1.view(np.int64), T2.view(np.int64)):
            table = len(r), n * (n + 1) // 2
            # Row i of the triangle starts with pair number i n - i (i - 1) / 2.
            i = np.arange(n)
            first = i * n - i * (i - 1) // 2

        def block(rows, cols):
            pairs = np.arange(cols.start, cols.stop)
            if table == shape:
                i, j = divmod(pairs, len(T2))
                places = (cols,)
            else:
                i = np.searchsorted(first, pairs, side="right") - 1
                j = pairs - first[i] + i
                places = (i * n + j, j * n + i)
            return RowMeasures(r=r[rows, None], T1=T1, T2=T2, pairs=(i, j)), places
    cells = _block_cells()
    rows = min(table[0], math.isqrt(cells))
    cols = max(1, cells // rows)
    outs = [np.empty(shape) for _ in quantities]
    for start in range(0, table[0], rows):
        row_slice = slice(start, min(start + rows, table[0]))
        for k in range(0, table[1], cols):
            block_values, places = block(row_slice, slice(k, min(k + cols, table[1])))
            for out, quantity in zip(outs, quantities):
                values = block_values.values(quantity)
                for place in places:
                    out[row_slice, place] = values
    return [out if T2 is None else out.reshape(len(r), n, -1) for out in outs]


@dataclass(frozen=True)
class ThresholdResult:
    """Largest squeezing at which symmetric catalysis still enhances."""

    quantity: str
    r_star: float
    tolerance: float


def _check_search(name: str, quantity: str, tol: float) -> None:
    if quantity not in MEASURES:
        raise ParameterError(f"{name} is defined for {MEASURES}, got {quantity!r}")
    # A t_range scan holds 1/tol points, so this floor keeps it under the cap.
    if not 1.0 / GRID_CAP <= tol < math.inf:
        raise ParameterError(f"tol must be finite and >= 1 / grid cap = "
                             f"{1.0 / GRID_CAP:g}, got {tol}")


def _entropy_delta_bound(r: float, T: np.ndarray) -> np.ndarray:
    """An upper bound on the entropy delta at (r, T, T) for each T:
    formulas.closed_entropy_bound, less the baseline, plus
    ENTROPY_BOUND_MARGIN; +inf where the bound is NaN, so such a cell
    is never settled by it."""
    bound = (closed_entropy_bound(closed_head(r, T, T)) - tmsvs_entropy(r)
             + ENTROPY_BOUND_MARGIN)
    return np.where(np.isnan(bound), np.inf, bound)


def _search_deltas(quantity: str, r: float, T: np.ndarray, rank: bool) -> np.ndarray:
    """quantity's deltas at (r, T, T), or as many as a threshold question
    needs: whether any T enhances and, when rank, which T is the first
    of the largest deltas.

    The entropy's exact delta, which does not depend on the other cells
    of its row, is computed in waves while none enhances: the cell of
    the largest _entropy_delta_bound (when rank, or when that bound
    exceeds ENHANCEMENT_GUARD), every cell whose bound exceeds the
    guard, then, when rank, every cell whose bound reaches the largest
    computed delta.  Every other cell is NaN: none can enhance, and each
    lies strictly below the largest computed delta, so the
    first-occurrence nanargmax of the result is the whole row's.
    """
    if quantity != "entropy":
        return symmetric_row(r, T).deltas(quantity)
    bound = _entropy_delta_bound(r, T)
    deltas = np.full(len(T), np.nan)
    done = np.zeros(len(T), dtype=bool)

    def settle(cells) -> bool:
        cells = cells & ~done
        if cells.any():
            done[cells] = True
            deltas[cells] = symmetric_row(r, T[cells]).deltas(quantity)
        return bool(np.any(deltas > ENHANCEMENT_GUARD))

    top = np.zeros(len(T), dtype=bool)
    top[np.argmax(bound)] = rank or bound.max() > ENHANCEMENT_GUARD
    if not (settle(top) or settle(bound > ENHANCEMENT_GUARD)) and rank:
        settle(bound >= np.nanmax(deltas, initial=-np.inf))
    return deltas


def _enhancement_exists(quantity: str, r: float) -> bool:
    """True if some symmetric T in (0, 1) gives a positive delta at this r.

    A step-1e-3 scan, then a refine of the two cells around its best
    point in case the maximum slips between scan points.  The answer is
    that of the exact deltas at every scan and refine cell.
    """
    T = np.arange(T_SCAN_STEP, 1.0, T_SCAN_STEP)
    deltas = _search_deltas(quantity, r, T, rank=True)
    best = int(np.nanargmax(deltas))
    if deltas[best] > ENHANCEMENT_GUARD:
        return True
    fine = np.linspace(T[max(best - 1, 0)], T[min(best + 1, len(T) - 1)], POLISH_POINTS)
    return bool(np.any(_search_deltas(quantity, r, fine, rank=False) > ENHANCEMENT_GUARD))


def threshold(quantity: str, tol: float = DEFAULT_TOL) -> ThresholdResult:
    """Bisect for the largest r with any enhancing symmetric T.

    Brackets on r in [0.01, 2.0]; raises RuntimeError if no enhancement
    is found even at the lower end, which would signal an implementation
    regression.  Each step asks _enhancement_exists, so r_star is the
    exhaustive search's bit for bit.  tol must be finite and at least
    1 / GRID_CAP.
    """
    _check_search("threshold", quantity, tol)
    lo, hi = R_BRACKET
    if not _enhancement_exists(quantity, lo):
        raise RuntimeError(
            f"no {quantity} enhancement anywhere on r in {R_BRACKET}; "
            "this signals an implementation regression"
        )
    if _enhancement_exists(quantity, hi):
        return ThresholdResult(quantity=quantity, r_star=hi, tolerance=tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _enhancement_exists(quantity, mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(quantity=quantity, r_star=0.5 * (lo + hi),
                           tolerance=tol)


def t_range(quantity: str, r: float, tol: float = DEFAULT_TOL):
    """Maximal symmetric-T enhancement intervals at fixed r.

    Returns a list of (lo, hi) tuples, possibly empty when r lies above
    the quantity's threshold.  A scan at step min(tol, 1e-3), closed by
    T = 0 and 1, brackets each edge; POLISH_POINTS evenly spaced T split
    every bracket, and the endpoint is the midpoint of the refine cell
    the edge falls in, so within step / 256 of an edge that crosses its
    bracket once.  tol must be finite and at least 1 / GRID_CAP.  Raises
    ParameterError for an invalid r, or where a scan cell's entropy
    needs a truncation above the cap.
    """
    _check_search("t_range", quantity, tol)
    step = min(tol, T_SCAN_STEP)
    T = np.concatenate(([0.0], np.arange(step, 1.0, step), [1.0]))
    # Rows of at most SWEEP_BLOCK doubles of working set; no delta reads its row-mates.
    parts = np.array_split(T[1:-1], 1 + (len(T) - 3) // _block_cells())
    deltas = np.concatenate([symmetric_row(r, part).deltas(quantity) for part in parts])
    inside = np.concatenate(([False], deltas > ENHANCEMENT_GUARD, [False]))
    # Bracket k runs from T[edges[k]] to T[edges[k] + 1]; rising and
    # falling edges alternate.
    edges = np.flatnonzero(np.diff(inside))
    T_fine = np.linspace(T[edges], T[edges + 1], POLISH_POINTS, axis=-1)
    fine = symmetric_row(r, T_fine.ravel()).deltas(quantity).reshape(T_fine.shape)
    fine_inside = fine > ENHANCEMENT_GUARD
    # The scan decided the bracket's ends; the refine only places the edge.
    fine_inside[:, 0] = inside[edges]
    fine_inside[:, -1] = inside[edges + 1]
    k = np.argmax(fine_inside != fine_inside[:, :1], axis=1)
    rows = np.arange(len(edges))
    ends = (0.5 * (T_fine[rows, k - 1] + T_fine[rows, k])).tolist()
    return list(zip(ends[::2], ends[1::2]))


@dataclass(frozen=True)
class Witness:
    """A sampled point where the antecedent holds but the consequent fails."""

    r: float
    T: float
    antecedent_delta: float
    consequent_delta: float


@dataclass(frozen=True)
class ImplicationEntry:
    antecedent: str
    consequent: str
    holds: bool
    witness: Witness | None


@dataclass(frozen=True)
class ImplicationTable:
    resolution: int
    entries: tuple = field(default_factory=tuple)


def _audit_deltas(resolution: int):
    """The audits' (r, T) axes, validated before they are built, and the
    three measures' delta grids over them, from one pass of blocks."""
    if resolution < 100:
        raise ParameterError(f"resolution must be >= 100, got {resolution}")
    _check_grid(resolution, resolution)
    r_axis = 0.8 * (np.arange(resolution) + 1.0) / resolution
    T_axis = (np.arange(resolution) + 0.5) / resolution
    values = _blocked_values(MEASURES, r_axis, T_axis)
    deltas = {q: delta(q, v, _baseline(q, r_axis)[:, None]) for q, v in zip(MEASURES, values)}
    return r_axis, T_axis, deltas


def implication_table(resolution: int = 400) -> ImplicationTable:
    """Audit all six pairwise enhancement implications on an (r, T) grid.

    Samples (r, T) in (0, 0.8] x (0, 1), symmetric catalysis.  For every
    ordered pair of measures, checks whether every sampled point that
    enhances the first also enhances the second; each failing pair keeps
    the strongest counterexample (largest antecedent delta; among equals
    the smallest r, then T).  Points whose antecedent delta sits inside
    the guard band are boundary cells and are not counted against an
    implication.
    """
    r_axis, T_axis, deltas = _audit_deltas(resolution)
    entries = []
    for a, b in itertools.permutations(MEASURES, 2):
        viol = (deltas[a] > ENHANCEMENT_GUARD) & ~(deltas[b] > ENHANCEMENT_GUARD)
        witness = None
        if np.any(viol):
            at = np.unravel_index(np.argmax(np.where(viol, deltas[a], -np.inf)), viol.shape)
            witness = Witness(r=float(r_axis[at[0]]), T=float(T_axis[at[1]]),
                              antecedent_delta=float(deltas[a][at]),
                              consequent_delta=float(deltas[b][at]))
        entries.append(ImplicationEntry(antecedent=a, consequent=b,
                                        holds=witness is None, witness=witness))
    return ImplicationTable(resolution=resolution, entries=tuple(entries))


def common_region(resolution: int = 200) -> RegionGrid:
    """Intersection of the three enhancement regions in symmetric (r, T).

    The grid value at each point is the smallest of the three deltas, so
    positive cells are exactly the common feasibility region.
    """
    r_axis, T_axis, deltas = _audit_deltas(resolution)
    values = np.min([deltas[q] for q in MEASURES], axis=0)
    return RegionGrid(quantity="common", axis_r=r_axis, axis_T1=T_axis,
                      axis_T2=None, values=values, raw=values.copy(),
                      baselines=np.zeros(len(r_axis)))
