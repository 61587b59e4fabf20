"""Published closed-form expressions for the catalyzed state.

Every coefficient table is transcribed verbatim as an explicit
integer-coefficient monomial list in (t1, t2), so a transcription error
stays localized and diffable.  Nothing here is re-derived; the
independent check lives in lqcat.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_EPS_TRUNC,
    MAX_TRUNCATION,
    CatalysisParams,
    ParameterError,
    SchmidtSpectrum,
    choose_truncation,
    normalize_weights,
    tail_estimate,
)

# Monomial lists: (coefficient, power of t1, power of t2).

# Success probability, p_cd = p0 * sum_i A[i] tanh(r)^(2i),
# p0 = cosh(lam)^10 / cosh(r)^2.
A_TABLE = {
    0: [(1, 2, 2)],
    1: [
        (1, 0, 0), (-4, 2, 0), (4, 4, 0), (-4, 0, 2), (4, 0, 4),
        (16, 2, 2), (-16, 4, 2), (-16, 2, 4), (11, 4, 4),
    ],
    2: [
        (11, 2, 2), (-28, 4, 2), (-28, 2, 4), (64, 4, 4), (16, 6, 2),
        (16, 2, 6), (-28, 4, 6), (-28, 6, 4), (11, 6, 6),
    ],
    3: [
        (11, 4, 4), (-16, 6, 4), (-16, 4, 6), (4, 8, 4), (4, 4, 8),
        (16, 6, 6), (-4, 8, 6), (-4, 6, 8), (1, 8, 8),
    ],
    4: [(1, 6, 6)],
}

# <a+a> = M * sum_i X[i] tanh(r)^i, M = cosh(lam)^12 tanh(r) / (p_cd cosh(r)^2).
X_TABLE = {
    0: [(-2, 2, 4), (2, 4, 4)],
    1: [
        (1, 0, 0), (-4, 2, 0), (4, 4, 0), (-4, 0, 2), (4, 0, 4),
        (16, 2, 2), (-16, 4, 2), (-14, 2, 4), (14, 4, 4), (1, 2, 6),
        (-2, 4, 6), (1, 6, 6),
    ],
    2: [
        (4, 2, 2), (-12, 4, 2), (8, 6, 2), (-16, 2, 4), (48, 4, 4),
        (-32, 6, 4), (14, 2, 6), (-34, 4, 6), (20, 6, 6),
    ],
    3: [
        (22, 2, 2), (-60, 4, 2), (40, 6, 2), (-56, 2, 4), (146, 4, 4),
        (-92, 6, 4), (2, 8, 4), (33, 2, 6), (-92, 4, 6), (61, 6, 6),
        (-8, 8, 6), (4, 4, 8), (-8, 6, 8), (4, 8, 8),
    ],
    4: [
        (24, 4, 4), (-52, 6, 4), (28, 8, 4), (-48, 4, 6), (88, 6, 6),
        (-40, 8, 6), (20, 4, 8), (-34, 6, 8), (14, 8, 8),
    ],
    5: [
        (40, 4, 4), (-76, 6, 4), (30, 8, 4), (-76, 4, 6), (140, 6, 6),
        (-56, 8, 6), (4, 10, 6), (36, 4, 8), (-58, 6, 8), (26, 8, 8),
        (-4, 10, 8), (1, 6, 10), (-2, 8, 10), (1, 10, 10),
    ],
    6: [
        (8, 6, 6), (-8, 8, 6), (-8, 6, 8), (8, 8, 8), (2, 6, 10),
        (-2, 8, 10),
    ],
    7: [
        (14, 6, 6), (-16, 8, 6), (4, 10, 6), (-20, 6, 8), (16, 8, 8),
        (-4, 10, 8), (5, 6, 10), (-4, 8, 10), (1, 10, 10),
    ],
    8: [],
    9: [(1, 8, 8)],
}

# <b+b> = M * sum_i Y[i] tanh(r)^i; the table is X with t1 <-> t2.
Y_TABLE = {
    0: [(-2, 4, 2), (2, 4, 4)],
    1: [
        (1, 0, 0), (-4, 2, 0), (4, 4, 0), (-4, 0, 2), (4, 0, 4),
        (16, 2, 2), (-16, 2, 4), (-14, 4, 2), (14, 4, 4), (1, 6, 2),
        (-2, 6, 4), (1, 6, 6),
    ],
    2: [
        (4, 2, 2), (-16, 4, 2), (14, 6, 2), (-12, 2, 4), (48, 4, 4),
        (-34, 6, 4), (8, 2, 6), (-32, 4, 6), (20, 6, 6),
    ],
    3: [
        (22, 2, 2), (-56, 4, 2), (33, 6, 2), (-60, 2, 4), (146, 4, 4),
        (-92, 6, 4), (4, 8, 4), (40, 2, 6), (-92, 4, 6), (61, 6, 6),
        (-8, 8, 6), (2, 4, 8), (-8, 6, 8), (4, 8, 8),
    ],
    4: [
        (24, 4, 4), (-48, 6, 4), (20, 8, 4), (-52, 4, 6), (88, 6, 6),
        (-34, 8, 6), (28, 4, 8), (-40, 6, 8), (14, 8, 8),
    ],
    5: [
        (40, 4, 4), (-76, 6, 4), (36, 8, 4), (-76, 4, 6), (140, 6, 6),
        (-58, 8, 6), (1, 10, 6), (30, 4, 8), (-56, 6, 8), (26, 8, 8),
        (-2, 10, 8), (4, 6, 10), (-4, 8, 10), (1, 10, 10),
    ],
    6: [
        (8, 6, 6), (-8, 8, 6), (-8, 6, 8), (8, 8, 8), (2, 10, 6),
        (-2, 10, 8),
    ],
    7: [
        (14, 6, 6), (-20, 8, 6), (5, 10, 6), (-16, 6, 8), (16, 8, 8),
        (-4, 10, 8), (4, 6, 10), (-4, 8, 10), (1, 10, 10),
    ],
    8: [],
    9: [(1, 8, 8)],
}

# <ab> = <a+b+> = N * sum_i Z[i] tanh(r)^i,
# N = cosh(lam)^12 tanh(lam) / (p_cd cosh(r)^2).
Z_TABLE = {
    0: [(1, 0, 0), (-2, 2, 0), (-2, 0, 2), (4, 2, 2)],
    1: [
        (-1, 2, 0), (2, 4, 0), (-1, 0, 2), (2, 0, 4), (6, 2, 2),
        (-8, 4, 2), (-8, 2, 4), (8, 4, 4),
    ],
    2: [
        (8, 0, 0), (-27, 2, 0), (22, 4, 0), (-27, 0, 2), (22, 0, 4),
        (87, 2, 2), (-67, 4, 2), (2, 6, 2), (-67, 2, 4), (49, 4, 4),
        (-6, 6, 4), (2, 2, 6), (-6, 4, 6), (4, 6, 6),
    ],
    3: [
        (14, 2, 2), (-37, 4, 2), (22, 6, 2), (-37, 2, 4), (92, 4, 4),
        (-50, 6, 4), (22, 2, 6), (-50, 4, 6), (24, 6, 6),
    ],
    4: [
        (45, 2, 2), (-98, 4, 2), (48, 6, 2), (-98, 2, 4), (197, 4, 4),
        (-90, 6, 4), (4, 8, 4), (48, 2, 6), (-90, 4, 6), (46, 6, 6),
        (-6, 8, 6), (4, 4, 8), (-6, 6, 8), (2, 8, 8),
    ],
    5: [
        (20, 4, 4), (-33, 6, 4), (12, 8, 4), (-33, 4, 6), (46, 6, 6),
        (-14, 8, 6), (12, 4, 8), (-14, 6, 8), (4, 8, 8),
    ],
    6: [
        (24, 4, 4), (-31, 6, 4), (8, 8, 4), (-31, 4, 6), (33, 6, 6),
        (-9, 8, 6), (8, 4, 8), (-9, 6, 8), (3, 8, 8),
    ],
    7: [(2, 6, 6), (-1, 8, 6), (-1, 6, 8)],
    8: [(1, 6, 6)],
}

# Teleportation fidelity, F = p0 / (4 p_cd) * sum_i M[i] tanh(r)^i,
# implemented exactly as published (see fidelity_closed for the caveat).
M_TABLE = {
    0: [(2, 2, 2)],
    1: [(2, 1, 1), (-4, 3, 1), (-4, 1, 3), (-2, 3, 3)],
    2: [
        (1, 0, 0), (-4, 2, 0), (4, 4, 0), (-4, 0, 2), (4, 0, 4),
        (10, 2, 2), (-2, 4, 2), (-2, 2, 4), (5, 4, 4),
    ],
    3: [
        (1, 1, 1), (-1, 3, 1), (-2, 5, 1), (-1, 1, 3), (-2, 1, 5),
        (-2, 3, 3), (1, 5, 3), (1, 3, 5), (-3, 5, 5),
    ],
    4: [
        (1, 2, 2), (-1, 4, 2), (1, 6, 2), (-1, 2, 4), (1, 2, 6),
        (2, 4, 4), (-1, 6, 4), (-1, 4, 6), (1, 6, 6),
    ],
}


def eval_monomials(table_entry, t1: float, t2: float) -> float:
    """Evaluate one monomial list at (t1, t2)."""
    return float(sum(c * t1**i * t2**j for c, i, j in table_entry))


def _poly_in_u(table, t1: float, t2: float, u: float) -> float:
    return float(sum(eval_monomials(mono, t1, t2) * u**i for i, mono in table.items()))


def success_probability(params: CatalysisParams) -> float:
    """Heralding probability p_cd of detecting one photon in each ancilla.

    Evaluated as the squared norm of the closed-form weights, a sum of
    non-negative terms with no cancellation.  Raises
    DegeneratePostselectionError where heralding is impossible.  The
    printed polynomial (published_success_probability) agrees
    mathematically but loses up to ~4e-12 relative accuracy at large r.
    """
    return closed_spectrum(params)[1]


def published_success_probability(params: CatalysisParams) -> float:
    """p_cd from the printed polynomial, kept as a cross-check.

    cosh(lam)^10 multiplies a sum that cancels, so the relative error
    grows with r (3.8e-12 at (r, T1, T2) = (1.5, 1.0, 0.9375)).
    """
    u = math.tanh(params.r)
    p0 = math.cosh(params.lam) ** 10 / math.cosh(params.r) ** 2
    acc = sum(
        eval_monomials(A_TABLE[i], params.t1, params.t2) * u ** (2 * i)
        for i in range(5)
    )
    return p0 * acc


def closed_weights(r: float, T1, T2, N: int) -> np.ndarray:
    """Unnormalized weights w~_0 .. w~_N, broadcast over T1 and T2.

    w~_n = tanh(r)^n / cosh(r) g_n(T1) g_n(T2), with the beam-splitter
    factor g_n(T) = ((n+1) T - n) t^(n-1).  Its n = 0 value simplifies
    algebraically to t, which also covers t = 0.  The result has shape
    broadcast(T1, T2) + (N + 1,); each factor is built on its own shape,
    so a grid pays for the powers once per axis, not once per cell.
    """
    n = np.arange(N + 1)
    power = np.maximum(n - 1, 0)
    T1 = np.asarray(T1, dtype=float)[..., None]
    T2 = np.asarray(T2, dtype=float)[..., None]
    t1, t2 = np.sqrt(T1), np.sqrt(T2)
    g1 = ((n + 1) * T1 - n) * t1**power
    g2 = ((n + 1) * T2 - n) * t2**power
    g1[..., 0] = t1[..., 0]
    g2[..., 0] = t2[..., 0]
    return math.tanh(r) ** n / math.cosh(r) * g1 * g2


def unnormalized_weights(params: CatalysisParams, N: int) -> np.ndarray:
    """Vector of unnormalized weights w~_0 .. w~_N at one point."""
    return closed_weights(params.r, params.T1, params.T2, N)


def closed_spectrum(params: CatalysisParams, eps: float = DEFAULT_EPS_TRUNC):
    """Schmidt spectrum from the closed form; returns (spectrum, p_cd).

    Truncation is adaptive: the initial N from choose_truncation is
    doubled until the normalized geometric tail estimate drops below eps,
    up to MAX_TRUNCATION.
    """
    N = choose_truncation(params, eps)
    q = params.t1 * params.t2 * math.tanh(params.r)
    while True:
        raw = unnormalized_weights(params, N)
        spectrum, norm2 = normalize_weights(raw)
        tail = tail_estimate(spectrum.weights, q)
        if tail < eps or q == 0.0:
            break
        N = 2 * N
        if N > MAX_TRUNCATION:
            raise ParameterError(
                f"tail bound {tail} at (r, T1, T2) = ({params.r}, {params.T1}, "
                f"{params.T2}) needs a truncation above the cap N = {MAX_TRUNCATION}"
            )
    return SchmidtSpectrum(spectrum.weights, N, tail), norm2


@dataclass(frozen=True)
class StateCoefficients:
    """Superposition weights of (c0 + c1 a+b+ + c2 a+^2 b+^2) S2(lam)|0,0>."""

    c0: float
    c1: float
    c2: float
    lam: float


def state_coefficients(params: CatalysisParams) -> StateCoefficients:
    """Normalized coefficients of the explicit three-term form."""
    p_cd = success_probability(params)
    u = math.tanh(params.r)
    R1 = 1.0 - params.T1  # squared reflection coefficients
    R2 = 1.0 - params.T2
    denom = math.sqrt(p_cd) * math.cosh(params.r)
    ch = math.cosh(params.lam)
    c0 = params.t1 * params.t2 * ch / denom
    c1 = (R1 * R2 - R1 * params.T2 - R2 * params.T1) * u * ch / denom
    c2 = R1 * R2 * u * math.sinh(params.lam) / denom
    return StateCoefficients(c0=c0, c1=c1, c2=c2, lam=params.lam)


def mean_photon_a(params: CatalysisParams, p_cd: float | None = None) -> float:
    """<a+a> from the published degree-9 polynomial."""
    if p_cd is None:
        p_cd = success_probability(params)
    u = math.tanh(params.r)
    M = math.cosh(params.lam) ** 12 * u / (p_cd * math.cosh(params.r) ** 2)
    return M * _poly_in_u(X_TABLE, params.t1, params.t2, u)


def mean_photon_b(params: CatalysisParams, p_cd: float | None = None) -> float:
    """<b+b> from the published degree-9 polynomial."""
    if p_cd is None:
        p_cd = success_probability(params)
    u = math.tanh(params.r)
    M = math.cosh(params.lam) ** 12 * u / (p_cd * math.cosh(params.r) ** 2)
    return M * _poly_in_u(Y_TABLE, params.t1, params.t2, u)


def pair_correlation(params: CatalysisParams, p_cd: float | None = None) -> float:
    """<ab> = <a+b+> from the published degree-8 polynomial."""
    if p_cd is None:
        p_cd = success_probability(params)
    u = math.tanh(params.r)
    N = (
        math.cosh(params.lam) ** 12
        * math.tanh(params.lam)
        / (p_cd * math.cosh(params.r) ** 2)
    )
    return N * _poly_in_u(Z_TABLE, params.t1, params.t2, u)


def epr_closed(params: CatalysisParams) -> float:
    """EPR total variance assembled from the published second moments.

    First moments vanish for this state, so
    EPR = 2 (1 + <a+a> + <b+b> - 2 <ab>).

    Kept verbatim as a cross-check.  The published moment polynomials do
    not agree with the exact spectrum away from the T = 1 line (for
    example <a+a> can come out negative), so model.epr_of on the
    spectrum is authoritative everywhere downstream; see the test suite
    for the measured discrepancy.
    """
    p_cd = success_probability(params)
    na = mean_photon_a(params, p_cd)
    nb = mean_photon_b(params, p_cd)
    nab = pair_correlation(params, p_cd)
    return 2.0 * (1.0 + na + nb - 2.0 * nab)


@dataclass(frozen=True)
class ClosedFidelity:
    """Printed-polynomial fidelity plus its cross-check against quadrature.

    The published polynomial does not reduce to the baseline
    (1 + tanh r)/2 at T1 = T2 = 1 (it collapses to e^(-4r) cosh(r)^4 / 2),
    so `oracle_mismatch` is expected to be True away from r = 0.  The
    quadrature value is authoritative; the printed form is kept verbatim.
    """

    value: float
    oracle_value: float | None
    oracle_mismatch: bool | None


def fidelity_closed(params: CatalysisParams, check: bool = True) -> ClosedFidelity:
    """Teleportation fidelity from the printed polynomial, as published."""
    p_cd = success_probability(params)
    u = math.tanh(params.r)
    p0 = math.cosh(params.lam) ** 10 / math.cosh(params.r) ** 2
    value = p0 / (4.0 * p_cd) * _poly_in_u(M_TABLE, params.t1, params.t2, u)
    if not check:
        return ClosedFidelity(value=value, oracle_value=None, oracle_mismatch=None)
    from .oracle import cf_fidelity_oracle

    spectrum, _ = closed_spectrum(params)
    oracle_value = cf_fidelity_oracle(spectrum)
    return ClosedFidelity(
        value=value,
        oracle_value=oracle_value,
        oracle_mismatch=abs(value - oracle_value) > 1e-6,
    )


def tmsvs_entropy(r: float) -> float:
    """Entanglement entropy (bits) of the un-catalyzed squeezed vacuum.

    With x = sinh(r)^2 this is (1+x) log2(1+x) - x log2(x), evaluated
    through log1p so that it keeps its relative accuracy as r -> 0.
    """
    if r == 0.0:
        return 0.0
    x = math.sinh(r) ** 2
    return ((1.0 + x) * math.log1p(x) - x * math.log(x)) / math.log(2.0)


def tmsvs_epr(r: float) -> float:
    """EPR variance 2 e^(-2r) of the un-catalyzed squeezed vacuum."""
    return 2.0 * math.exp(-2.0 * r)


def tmsvs_fidelity(r: float) -> float:
    """Coherent-state teleportation fidelity (1 + tanh r)/2 of the baseline."""
    return (1.0 + math.tanh(r)) / 2.0
