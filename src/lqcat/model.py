"""Domain types and Schmidt-spectrum measures.

The catalyzed two-mode state is diagonal in the twin-Fock basis |n,n>, so
every quantity of interest reduces to sums over a single list of real
(signed) Schmidt weights.  This module holds the parameter point, the
spectrum container, the truncation policy, the entropy / EPR kernels
over arrays of weights, and the sign rule of enhancement deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRUNCATION_FLOOR = 30
# Largest retained photon number.  An overlap table for it is 2049^2
# doubles (34 MB); every point with r <= 2 needs at most N = 844.
MAX_TRUNCATION = 2048
DEFAULT_EPS_TRUNC = 1e-14
NORMALIZATION_TOL = 1e-12
NORM_FLOOR = 1e-300

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
    if not math.isfinite(r) or r < 0:
        raise ParameterError(f"r must be finite and >= 0, got {r}")
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
    truncation: int
    tail_bound: float

    def __post_init__(self):
        total = float(np.sum(self.weights**2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"spectrum not normalized: sum of squares = {total}")


def normalize_weights(unnormalized: np.ndarray):
    """Normalize raw weights; returns (SchmidtSpectrum, squared norm)."""
    w = np.asarray(unnormalized, dtype=float)
    norm2 = float(np.sum(w**2))
    if norm2 < NORM_FLOOR:
        raise DegeneratePostselectionError(
            f"postselection norm {norm2} below {NORM_FLOOR}; state is not normalizable"
        )
    spectrum = SchmidtSpectrum(
        weights=w / math.sqrt(norm2),
        truncation=len(w) - 1,
        tail_bound=0.0,
    )
    return spectrum, norm2


def choose_truncation(params: CatalysisParams, eps: float = DEFAULT_EPS_TRUNC) -> int:
    """Smallest retained photon number N with geometric tail below eps.

    The squared weights decay like q^(2n) with q = t1*t2*tanh(r), times a
    quadratic-in-n polynomial; the bound below inflates the geometric tail
    by the quartic (n+2)^4 margin.  Floor N = 30; raises ParameterError
    past MAX_TRUNCATION.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    q = params.t1 * params.t2 * math.tanh(params.r)
    N = TRUNCATION_FLOOR
    if q <= 0.0:
        return N
    q2 = q * q
    while (N + 2) ** 4 * q2 ** (N + 1) / (1.0 - q2) >= eps:
        N += 1
        if N > MAX_TRUNCATION:
            raise ParameterError(
                f"(r, T1, T2) = ({params.r}, {params.T1}, {params.T2}) needs a "
                f"truncation above the cap N = {MAX_TRUNCATION}"
            )
    return N


def tail_estimate(weights: np.ndarray, ratio: float) -> float:
    """Geometric continuation bound on the discarded squared weight.

    `weights` are the normalized retained weights, `ratio` the asymptotic
    weight ratio q = t1*t2*tanh(r); a quartic-in-n margin covers the
    polynomial prefactor.
    """
    N = len(weights) - 1
    rho = ratio * ratio * ((N + 2) / (N + 1)) ** 4
    if rho >= 1.0:
        return math.inf
    return float(weights[-1] ** 2) * rho / (1.0 - rho)


def entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Von Neumann entanglement entropy in bits over the last axis of
    normalized weights, with 0*log 0 := 0."""
    w2 = weights**2
    return -(w2 * np.log2(np.where(w2 > 0.0, w2, 1.0))).sum(axis=-1) + 0.0


def epr_variance(weights: np.ndarray) -> np.ndarray:
    """Total variance of the EPR pair (x_a - x_b, p_a + p_b) over the last
    axis of normalized weights.

    For a twin-Fock-diagonal state the first moments vanish and
    <a+a> = <b+b> = sum n w_n^2, <ab> = sum (n+1) w_n w_{n+1}; values
    below 2 certify entanglement.  Signs of the weights are kept.
    """
    n = np.arange(weights.shape[-1])
    n_mean = weights**2 @ n
    ab = ((n[:-1] + 1) * weights[..., :-1] * weights[..., 1:]).sum(axis=-1)
    return 2.0 * (1.0 + 2.0 * n_mean - 2.0 * ab)


def entropy_of(spectrum: SchmidtSpectrum) -> float:
    """Entanglement entropy in bits of one spectrum."""
    return float(entropy_bits(spectrum.weights))


def epr_of(spectrum: SchmidtSpectrum) -> float:
    """EPR total variance of one spectrum."""
    return float(epr_variance(spectrum.weights))


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
