"""Domain types and Schmidt-spectrum measures.

The catalyzed two-mode state is diagonal in the twin-Fock basis |n,n>, so
every quantity of interest reduces to sums over a single list of real
(signed) Schmidt weights.  This module holds the parameter point, the
spectrum container, the truncation policy, the entropy kernel over
arrays of weights, the entropy and EPR variance of one spectrum, and the
sign rule of enhancement deltas.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

TRUNCATION_FLOOR = 30
# Largest retained photon number.  An overlap table for it is 2049^2
# doubles (34 MB); every point with r <= 2 needs at most N = 960.
MAX_TRUNCATION = 2048
# Tail target of the truncation: a dropped squared weight eps moves the
# entropy by about eps log2(1/eps), some 50 eps at this target.
ENTROPY_EPS_TRUNC = 1e-16
# Largest squeezing: from the next float on, sinh(r)^2 and cosh(r)^2
# overflow.
R_MAX = math.asinh(math.sqrt(sys.float_info.max))
NORMALIZATION_TOL = 1e-12
NORM_FLOOR = 1e-300
_SMALLEST_SUBNORMAL = 5e-324

# Strict-enhancement guard: deltas smaller than this are treated as round-off.
ENHANCEMENT_GUARD = 1e-12


class ParameterError(ValueError):
    """An input parameter is outside its allowed range."""


class DegeneratePostselectionError(RuntimeError):
    """Heralding probability too small to normalize the projected state."""


class QuadratureError(RuntimeError):
    """Quadrature failed its node-doubling convergence check."""


@dataclass(frozen=True)
class CatalysisParams:
    """One experiment point: squeezing r and beam-splitter transmittances.

    t1, t2 are the (non-negative) amplitude transmission coefficients,
    lam the effective squeezing with tanh(lam) = t1*t2*tanh(r).
    """

    r: float
    T1: float
    T2: float
    t1: float
    t2: float
    lam: float

    def swapped(self) -> "CatalysisParams":
        """Same point with the two beam splitters exchanged."""
        return CatalysisParams(self.r, self.T2, self.T1, self.t2, self.t1, self.lam)


def make_params(r: float, T1: float, T2: float) -> CatalysisParams:
    """Validate (r, T1, T2) and populate the derived fields."""
    if not 0.0 <= r <= R_MAX:
        raise ParameterError(f"r must be in [0, R_MAX = {R_MAX!r}], got {r}")
    if not math.isfinite(T1) or not 0.0 <= T1 <= 1.0:
        raise ParameterError(f"T1 must be in [0, 1], got {T1}")
    if not math.isfinite(T2) or not 0.0 <= T2 <= 1.0:
        raise ParameterError(f"T2 must be in [0, 1], got {T2}")
    t1 = math.sqrt(T1)
    t2 = math.sqrt(T2)
    q = t1 * t2 * math.tanh(r)
    if q >= 1.0:
        raise ParameterError(f"r = {r} is too large: t1 t2 tanh(r) rounds to 1")
    return CatalysisParams(r=r, T1=T1, T2=T2, t1=t1, t2=t2, lam=math.atanh(q))


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Normalized signed weights w_n over the twin-Fock basis |n,n>."""

    weights: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.weights**2))
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"spectrum not normalized: sum of squares = {total}")


def check_norm(norm2: float) -> float:
    """norm2, the squared norm of a heralded state, if it is finite and
    above NORM_FLOOR; otherwise, NaN and inf included, raises
    DegeneratePostselectionError."""
    if not NORM_FLOOR < norm2 < math.inf:
        reason = f"below {NORM_FLOOR}" if norm2 <= NORM_FLOOR else "is not finite"
        raise DegeneratePostselectionError(
            f"postselection norm {norm2} {reason}; state is not normalizable"
        )
    return norm2


def normalize_weights(unnormalized: np.ndarray):
    """Normalize raw weights; returns (SchmidtSpectrum, squared norm).

    Raises DegeneratePostselectionError where the squared norm is not
    finite and above NORM_FLOOR; a sum of squares that overflows is inf,
    and raises so, without a RuntimeWarning.
    """
    w = np.asarray(unnormalized, dtype=float)
    with np.errstate(over="ignore"):
        norm2 = float(np.sum(w**2))
    check_norm(norm2)
    return SchmidtSpectrum(w / math.sqrt(norm2)), norm2


def _tail_margin(N: int, q2: float) -> float:
    """The truncation rule's bound (N+2)^4 q^(2N+2) / (1 - q^2) on the
    squared weight beyond N."""
    return (N + 2) ** 4 * q2 ** (N + 1) / (1.0 - q2)


def _q_limit(N: int, eps: float) -> float:
    """Largest q at which N passes the truncation rule, by bisection."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _tail_margin(N, mid * mid) < eps:
            lo = mid
        else:
            hi = mid
    return lo


# Largest q in the domain: where the rule at a squared-norm tail of 1e-14
# would pass MAX_TRUNCATION (r = 2.4095 at T1 = T2 = 1).
Q_CAP = _q_limit(MAX_TRUNCATION, 1e-14)

# Truncation classes: N doubling from the floor, each paired with the
# largest q it serves, then the cap, which serves q up to Q_CAP.  The
# limits depend on N only.
ENTROPY_CLASSES = tuple((N, _q_limit(N, ENTROPY_EPS_TRUNC))
                        for N in (TRUNCATION_FLOOR << k for k in range(7))
                        ) + ((MAX_TRUNCATION, Q_CAP),)
CLASS_LIMITS = tuple(limit for _, limit in ENTROPY_CLASSES)


def choose_truncation(params: CatalysisParams) -> int:
    """Retained photon number N of every truncated sum: the N of the first
    of ENTROPY_CLASSES whose q-limit covers q = t1*t2*tanh(r).

    The squared weights decay like q^(2n) times a quadratic-in-n
    polynomial, and _tail_margin inflates the geometric tail by a quartic
    (n+2)^4 margin.  A doubling class N passes the rule at
    ENTROPY_EPS_TRUNC exactly when q is at most its limit, so N is the
    first class at or above the smallest passing N, and at most twice it.
    The last class, MAX_TRUNCATION, serves q up to Q_CAP; above it,
    raises ParameterError.
    """
    q = params.t1 * params.t2 * math.tanh(params.r)
    k = bisect_left(CLASS_LIMITS, q)
    if k == len(CLASS_LIMITS):
        raise ParameterError(
            f"(r, T1, T2) = ({params.r}, {params.T1}, {params.T2}) needs a "
            f"truncation above the cap N = {MAX_TRUNCATION}"
        )
    return ENTROPY_CLASSES[k][0]


def entropy_bits(p: np.ndarray) -> np.ndarray:
    """Von Neumann entanglement entropy in bits over the last axis of
    Schmidt probabilities p_n = w_n^2, with 0 log 0 := 0."""
    # Every p > 0 is at least the smallest subnormal, so only p = 0 is
    # raised, and it still contributes 0 * log2(tiny) = 0.
    return -(np.log2(np.maximum(p, _SMALLEST_SUBNORMAL)) * p).sum(axis=-1) + 0.0


def entropy_of(spectrum: SchmidtSpectrum) -> float:
    """Entanglement entropy in bits of one spectrum."""
    return float(entropy_bits(spectrum.weights**2))


def epr_of(spectrum: SchmidtSpectrum) -> float:
    """Total variance of the EPR pair (x_a - x_b, p_a + p_b) of one spectrum.

    For a twin-Fock-diagonal state the first moments vanish and
    <a+a> = <b+b> = sum n w_n^2, <ab> = sum (n+1) w_n w_{n+1}; values
    below 2 certify entanglement.  Signs of the weights are kept.
    """
    w = spectrum.weights
    n = np.arange(len(w))
    n_mean = w**2 @ n
    ab = ((n[:-1] + 1) * w[:-1] * w[1:]).sum()
    return float(2.0 * (1.0 + 2.0 * n_mean - 2.0 * ab))


def delta(quantity: str, value, baseline):
    """Enhancement delta, positive when catalysis beats the baseline.

    A smaller EPR variance is better, so its delta is baseline - value.
    """
    return baseline - value if quantity == "epr" else value - baseline


@dataclass(frozen=True)
class MeasureReport:
    """All measures at one parameter point, with un-catalyzed baselines."""

    params: CatalysisParams
    p_cd: float
    entropy: float
    epr: float
    fidelity: float
    baseline_entropy: float
    baseline_epr: float
    baseline_fidelity: float

    @property
    def entropy_delta(self) -> float:
        return delta("entropy", self.entropy, self.baseline_entropy)

    @property
    def epr_delta(self) -> float:
        return delta("epr", self.epr, self.baseline_epr)

    @property
    def fidelity_delta(self) -> float:
        return delta("fidelity", self.fidelity, self.baseline_fidelity)

    @property
    def entropy_enhanced(self) -> bool:
        return self.entropy_delta > ENHANCEMENT_GUARD

    @property
    def epr_enhanced(self) -> bool:
        return self.epr_delta > ENHANCEMENT_GUARD

    @property
    def fidelity_enhanced(self) -> bool:
        return self.fidelity_delta > ENHANCEMENT_GUARD
