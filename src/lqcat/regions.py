"""Parameter-space analysis of catalysis enhancement.

Grid sweeps of the enhancement deltas, threshold bisection in the
squeezing parameter, enhancing-transmittance intervals, the pairwise
implication audit over the three measures, and their common region.

All quantities here are evaluated from the closed-form Schmidt weights
(entropy and EPR variance directly on the spectrum, fidelity by the CF
quadrature).  The standalone published moment polynomials are not used:
they disagree with the exact spectrum, and the spectrum is what the
brute-force circuit simulation certifies.

"Enhanced" always means the delta against the un-catalyzed baseline at
the same squeezing exceeds a small guard band, so round-off at the
T = 1 identity line is never classified as enhancement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import minimize_scalar

from .formulas import closed_weights, tmsvs_entropy, tmsvs_epr, tmsvs_fidelity
from .model import (
    ENHANCEMENT_GUARD,
    NORM_FLOOR,
    ParameterError,
    choose_truncation,
    delta,
    entropy_bits,
    entropy_of,
    epr_of,
    epr_variance,
    make_params,
)
from .oracle import catalyze_oracle, cf_fidelity, cf_fidelity_oracle

QUANTITIES = ("entropy", "epr", "fidelity", "pcd")
MEASURES = ("entropy", "epr", "fidelity")

GRID_CAP = 10**7
SWEEP_BLOCK = 1 << 16
R_BRACKET = (0.01, 2.0)
T_SCAN_STEP = 1e-3
DEFAULT_TOL = 1e-3


def _baseline(quantity: str, r: float) -> float:
    if quantity == "entropy":
        return tmsvs_entropy(r)
    if quantity == "epr":
        return tmsvs_epr(r)
    if quantity == "fidelity":
        return tmsvs_fidelity(r)
    if quantity == "pcd":
        # Success probability has no un-catalyzed counterpart; the natural
        # reference is the certain heralding of the identity line T = 1.
        return 1.0
    raise ParameterError(f"unknown quantity {quantity!r}")


@dataclass(frozen=True)
class RowMeasures:
    """Measures along one r = const row of points, each evaluated on first read.

    raw holds each point's unnormalized closed-form weights on its last
    axis.  Where the heralding probability underflows, every measure but
    pcd is NaN.
    """

    r: float
    raw: np.ndarray

    @cached_property
    def pcd(self) -> np.ndarray:
        return (self.raw**2).sum(axis=-1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Normalized weights, zero where the heralding probability underflows."""
        safe = (self.pcd > NORM_FLOOR)[..., None]
        return np.divide(self.raw, np.sqrt(self.pcd)[..., None],
                         out=np.zeros_like(self.raw), where=safe)

    def _measure(self, kernel) -> np.ndarray:
        return np.where(self.pcd > NORM_FLOOR, kernel(self.weights), np.nan)

    @cached_property
    def entropy(self) -> np.ndarray:
        return self._measure(entropy_bits)

    @cached_property
    def epr(self) -> np.ndarray:
        return self._measure(epr_variance)

    @cached_property
    def fidelity(self) -> np.ndarray:
        return self._measure(cf_fidelity)

    def values(self, quantity: str) -> np.ndarray:
        return getattr(self, quantity)

    def deltas(self, quantity: str) -> np.ndarray:
        return delta(quantity, self.values(quantity), _baseline(quantity, self.r))


def symmetric_row(r: float, T: np.ndarray) -> RowMeasures:
    """Measures at (r, T, T) for a whole array of T at once.

    The closed-form weights are built for the whole row, and each measure
    is evaluated over it only when read, so an entropy or EPR search never
    builds a fidelity overlap table.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 1:
        raise ParameterError("T must be a 1-D array")
    if len(T) and (T.min() < 0.0 or T.max() > 1.0):
        raise ParameterError("T values must lie in [0, 1]")
    Tmax = float(T.max()) if len(T) else 0.0
    N = choose_truncation(make_params(r, Tmax, Tmax))
    return RowMeasures(r=r, raw=closed_weights(r, T, T, N))


def _point_delta(quantity: str, r: float, T: float) -> float:
    row = symmetric_row(r, np.array([T]))
    return float(row.deltas(quantity)[0])


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

    def __post_init__(self):
        if self.quantity not in QUANTITIES + ("common",):
            raise ParameterError(f"unknown quantity {self.quantity!r}")
        for name, axis, lo, hi in (
            ("axis_r", self.axis_r, 0.0, math.inf),
            ("axis_T1", self.axis_T1, 0.0, 1.0),
            ("axis_T2", self.axis_T2, 0.0, 1.0),
        ):
            if axis is None:
                continue
            if len(axis) == 0 or np.any(np.diff(axis) <= 0.0):
                raise ParameterError(f"{name} must be strictly increasing")
            if axis[0] < lo or axis[-1] > hi:
                raise ParameterError(f"{name} out of bounds")
        expected = (len(self.axis_r), len(self.axis_T1))
        if self.axis_T2 is not None:
            expected += (len(self.axis_T2),)
        if self.values.shape != expected or self.raw.shape != expected:
            raise ParameterError(
                f"values shape {self.values.shape} does not match axes {expected}"
            )

    @property
    def enhanced(self) -> np.ndarray:
        return self.values > ENHANCEMENT_GUARD


def _check_cap(*axes) -> None:
    total = 1
    for axis in axes:
        total *= len(axis)
    if total > GRID_CAP:
        raise ParameterError(f"grid size {total} exceeds cap {GRID_CAP}")


def sweep(quantity: str, r_values, T1_values, T2_values,
          engine: str = "closed_form") -> RegionGrid:
    """Evaluate one quantity's enhancement delta over a full (r, T1, T2) grid.

    engine selects the evaluation route: "closed_form" builds the
    spectrum from the closed-form weights, "oracle" re-simulates the
    heralded circuit per point.  The two agree to round-off; the oracle
    route exists as a cross-check and is much slower.  Output ordering
    is row-major over (r, T1, T2).  Points whose heralding probability
    underflows are reported as NaN.
    """
    if quantity not in QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}")
    if engine not in ("closed_form", "oracle"):
        raise ParameterError(f"unknown engine {engine!r}")
    axis_r = np.asarray(r_values, dtype=float)
    axis_T1 = np.asarray(T1_values, dtype=float)
    axis_T2 = np.asarray(T2_values, dtype=float)
    _check_cap(axis_r, axis_T1, axis_T2)

    raw = np.empty((len(axis_r), len(axis_T1), len(axis_T2)))
    baselines = np.array([_baseline(quantity, r) for r in axis_r])

    for i, r in enumerate(axis_r):
        if engine == "oracle":
            raw[i] = [[_oracle_point(quantity, r, T1, T2) for T2 in axis_T2]
                      for T1 in axis_T1]
            continue
        N = choose_truncation(
            make_params(r, float(axis_T1.max()), float(axis_T2.max()))
        )
        # Blocks of T1 share one evaluation of the T2 factors, and bound
        # every temporary at SWEEP_BLOCK doubles.
        step = max(1, SWEEP_BLOCK // (len(axis_T2) * (N + 1)))
        for j in range(0, len(axis_T1), step):
            T1 = axis_T1[j:j + step, None]
            rows = RowMeasures(r=r, raw=closed_weights(r, T1, axis_T2, N))
            raw[i, j:j + step] = rows.values(quantity)

    values = delta(quantity, raw, baselines[:, None, None])
    return RegionGrid(quantity=quantity, axis_r=axis_r, axis_T1=axis_T1,
                      axis_T2=axis_T2, values=values, raw=raw,
                      baselines=baselines)


def _oracle_point(quantity: str, r: float, T1: float, T2: float) -> float:
    params = make_params(r, T1, T2)
    spectrum, p_cd = catalyze_oracle(params)
    if quantity == "pcd":
        return p_cd
    if quantity == "entropy":
        return entropy_of(spectrum)
    if quantity == "epr":
        return epr_of(spectrum)
    return cf_fidelity_oracle(spectrum)


def symmetric_sweep(quantity: str, r_values, T_values) -> RegionGrid:
    """Sweep along the T1 = T2 diagonal; values have shape (r, T)."""
    if quantity not in QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}")
    axis_r = np.asarray(r_values, dtype=float)
    axis_T = np.asarray(T_values, dtype=float)
    _check_cap(axis_r, axis_T)
    raw = np.empty((len(axis_r), len(axis_T)))
    baselines = np.array([_baseline(quantity, r) for r in axis_r])
    for i, r in enumerate(axis_r):
        raw[i] = symmetric_row(r, axis_T).values(quantity)
    values = delta(quantity, raw, baselines[:, None])
    return RegionGrid(quantity=quantity, axis_r=axis_r, axis_T1=axis_T,
                      axis_T2=None, values=values, raw=raw,
                      baselines=baselines)


@dataclass(frozen=True)
class ThresholdResult:
    """Largest squeezing at which symmetric catalysis still enhances."""

    quantity: str
    r_star: float
    tolerance: float


def _enhancement_exists(quantity: str, r: float) -> bool:
    """True if some symmetric T in (0, 1) gives a positive delta at this r.

    Dense scan first (step 1e-3), then a bounded golden-section polish
    around the best cell in case the maximum slips between grid points.
    """
    T = np.arange(T_SCAN_STEP, 1.0, T_SCAN_STEP)
    deltas = symmetric_row(r, T).deltas(quantity)
    best = int(np.nanargmax(deltas))
    if deltas[best] > ENHANCEMENT_GUARD:
        return True
    lo = T[max(best - 1, 0)]
    hi = T[min(best + 1, len(T) - 1)]
    if hi <= lo:
        return False
    res = minimize_scalar(lambda t: -_point_delta(quantity, r, t),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-7})
    return -float(res.fun) > ENHANCEMENT_GUARD


def threshold(quantity: str, tol: float = DEFAULT_TOL) -> ThresholdResult:
    """Bisect for the largest r with any enhancing symmetric T.

    Brackets on r in [0.01, 2.0]; raises if no enhancement is found even
    at the lower end, which would signal an implementation regression.
    """
    if quantity not in MEASURES:
        raise ParameterError(
            f"threshold is defined for {MEASURES}, got {quantity!r}"
        )
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
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


def _bisect_edge(quantity: str, r: float, t_in: float, t_out: float,
                 tol: float) -> float:
    """Locate the enhancement boundary between an inside and outside T."""
    while abs(t_out - t_in) > tol:
        mid = 0.5 * (t_in + t_out)
        if _point_delta(quantity, r, mid) > ENHANCEMENT_GUARD:
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_in + t_out)


def t_range(quantity: str, r: float, tol: float = DEFAULT_TOL):
    """Maximal symmetric-T enhancement intervals at fixed r.

    Returns a list of (lo, hi) tuples, possibly empty when r lies above
    the quantity's threshold.  Endpoints are bisected to tol.
    """
    if quantity not in MEASURES:
        raise ParameterError(f"t_range is defined for {MEASURES}, got {quantity!r}")
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    step = min(tol, T_SCAN_STEP)
    T = np.arange(step, 1.0, step)
    mask = symmetric_row(r, T).deltas(quantity) > ENHANCEMENT_GUARD
    intervals = []
    idx = 0
    while idx < len(T):
        if not mask[idx]:
            idx += 1
            continue
        start = idx
        while idx + 1 < len(T) and mask[idx + 1]:
            idx += 1
        lo_in, hi_in = T[start], T[idx]
        lo_out = T[start - 1] if start > 0 else 0.0
        hi_out = T[idx + 1] if idx + 1 < len(T) else 1.0
        intervals.append((
            _bisect_edge(quantity, r, lo_in, lo_out, tol),
            _bisect_edge(quantity, r, hi_in, hi_out, tol),
        ))
        idx += 1
    return intervals


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

    def entry(self, antecedent: str, consequent: str) -> ImplicationEntry:
        for e in self.entries:
            if e.antecedent == antecedent and e.consequent == consequent:
                return e
        raise KeyError((antecedent, consequent))


def _audit_axes(resolution: int):
    r_axis = 0.8 * (np.arange(resolution) + 1.0) / resolution
    T_axis = (np.arange(resolution) + 0.5) / resolution
    return r_axis, T_axis


def implication_table(resolution: int = 400) -> ImplicationTable:
    """Audit all six pairwise enhancement implications on an (r, T) grid.

    Samples (r, T) in (0, 0.8] x (0, 1), symmetric catalysis.  For every
    ordered pair of measures, checks whether every sampled point that
    enhances the first also enhances the second; each failing pair keeps
    the strongest counterexample (largest antecedent delta).  Points
    whose antecedent delta sits inside the guard band are boundary cells
    and are not counted against an implication.
    """
    if resolution < 100:
        raise ParameterError(f"resolution must be >= 100, got {resolution}")
    r_axis, T_axis = _audit_axes(resolution)
    pairs = [(a, b) for a in MEASURES for b in MEASURES if a != b]
    holds = {pair: True for pair in pairs}
    witnesses: dict = {pair: None for pair in pairs}
    for r in r_axis:
        row = symmetric_row(r, T_axis)
        deltas = {q: row.deltas(q) for q in MEASURES}
        flags = {q: deltas[q] > ENHANCEMENT_GUARD for q in MEASURES}
        for a, b in pairs:
            viol = flags[a] & ~flags[b]
            if not np.any(viol):
                continue
            holds[(a, b)] = False
            j = int(np.argmax(np.where(viol, deltas[a], -np.inf)))
            best = witnesses[(a, b)]
            if best is None or deltas[a][j] > best.antecedent_delta:
                witnesses[(a, b)] = Witness(
                    r=float(r), T=float(T_axis[j]),
                    antecedent_delta=float(deltas[a][j]),
                    consequent_delta=float(deltas[b][j]),
                )
    entries = tuple(
        ImplicationEntry(antecedent=a, consequent=b, holds=holds[(a, b)],
                         witness=witnesses[(a, b)])
        for a, b in pairs
    )
    return ImplicationTable(resolution=resolution, entries=entries)


def common_region(resolution: int = 200) -> RegionGrid:
    """Intersection of the three enhancement regions in symmetric (r, T).

    The grid value at each point is the smallest of the three deltas, so
    positive cells are exactly the common feasibility region.
    """
    if resolution < 100:
        raise ParameterError(f"resolution must be >= 100, got {resolution}")
    r_axis, T_axis = _audit_axes(resolution)
    values = np.empty((len(r_axis), len(T_axis)))
    for i, r in enumerate(r_axis):
        row = symmetric_row(r, T_axis)
        values[i] = np.min([row.deltas(q) for q in MEASURES], axis=0)
    return RegionGrid(quantity="common", axis_r=r_axis, axis_T1=T_axis,
                      axis_T2=None, values=values, raw=values.copy(),
                      baselines=np.zeros(len(r_axis)))
