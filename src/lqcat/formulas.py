"""Closed-form expressions for the catalyzed state.

Two kinds live here.  The published coefficient tables are transcribed
verbatim as explicit integer-coefficient monomial lists in (t1, t2), so a
transcription error stays localized and diffable; they are cross-checks
only.  closed_weights and closed_measures are derived from the heralded
state itself, w~_n = Q(n) q^n / (t1 t2 cosh r): the first builds the
weights, the second sums p_cd, the EPR variance and the teleportation
fidelity over all n with no truncation.  The independent checks live in
lqcat.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    CLASS_LIMITS,
    ENTROPY_CLASSES,
    NORM_FLOOR,
    CatalysisParams,
    check_norm,
    choose_truncation,
    entropy_bits,
    make_params,
    normalize_weights,
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

    The squared norm of the closed-form weights, summed over all n by
    closed_measures: a sum of non-negative terms with no cancellation.
    Raises DegeneratePostselectionError, by model.check_norm, where p_cd
    is not above NORM_FLOOR.  The printed polynomial
    (published_success_probability) agrees mathematically but loses up
    to ~4e-12 relative accuracy at large r.
    """
    return check_norm(closed_measures(params.r, params.T1, params.T2)[0])


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


# Room for the 8 truncation classes and a few other N: each entry holds
# 3 x (N + 1) doubles, about 140 kB for all classes.
@lru_cache(maxsize=16)
def _index_arrays(N: int) -> tuple:
    """n, n + 1 and max(n - 1, 0) for n = 0..N as read-only floats
    (exact, so no call casts them)."""
    n = np.arange(N + 1.0)
    arrays = (n, n + 1.0, np.maximum(n - 1.0, 0.0))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def closed_weights(r: float, T1, T2, N: int) -> np.ndarray:
    """Unnormalized weights w~_0 .. w~_N, broadcast over T1 and T2.

    w~_n = tanh(r)^n / cosh(r) g_n(T1) g_n(T2), with the beam-splitter
    factor g_n(T) = ((n+1) T - n) t^(n-1).  Its n = 0 value simplifies
    algebraically to t, which also covers t = 0.  The result has shape
    broadcast(T1, T2) + (N + 1,); each factor is built on its own shape,
    so a grid pays for the powers once per axis, not once per cell, and
    a symmetric row (T2 is T1) builds its one factor once.

    The per-N constants n, n + 1 and max(n - 1, 0) are built once per N
    and cached.  A float T is a point: its factor takes
    t = math.sqrt(T), correctly rounded like np.sqrt, with no array
    conversion.  Every path does the same operations in the same order,
    so a point's weights are its broadcast cell's bit for bit.
    """
    n, n1, power = _index_arrays(N)

    def factor(T):
        if isinstance(T, float):
            t = math.sqrt(T)
        else:
            T = np.asarray(T, dtype=float)[..., None]
            t = np.sqrt(T)
        g = (n1 * T - n) * t**power
        g[..., :1] = t
        return g

    g1 = factor(T1)
    g2 = g1 if T2 is T1 else factor(T2)
    return math.tanh(r) ** n / math.cosh(r) * g1 * g2


def closed_spectrum(params: CatalysisParams):
    """Schmidt spectrum from the closed form; returns (spectrum, p_cd).

    The weights run to the N of choose_truncation, the same N as
    closed_entropy's at this point, and p_cd is their squared norm.
    """
    raw = closed_weights(params.r, params.T1, params.T2, choose_truncation(params))
    return normalize_weights(raw)


def closed_entropy(r: float, T1, T2):
    """Entanglement entropy in bits, broadcast over T1 and T2.

    The entropy is the one measure summed over a truncated spectrum.
    Rows and sweeps take it from here, and report from the per-N kernel
    _entropy at the N this function gives its point.  Each index along
    the first axis is truncated at the N that choose_truncation gives for
    its largest q = t1 t2 tanh r over the remaining axes: a grid row of T1
    against all of T2 is one unit, and a cell of a symmetric row is its
    own.  So a cell's N depends on its own row only, never on the block
    or the row it is evaluated with.  closed_weights runs once per class
    present, on the class's rows of T1 and T2, so a grid still builds its
    powers per axis and a row whose cells share one class costs one call.

    r is a scalar; floats give a numpy float64.  Where the weights' squared
    norm is not above NORM_FLOOR the entropy is NaN.  Raises
    ParameterError where choose_truncation does at the largest T1 and T2.
    """
    T1 = np.asarray(T1, dtype=float)
    T2 = np.asarray(T2, dtype=float)
    N_max = choose_truncation(make_params(
        r, float(T1.max(initial=0.0)), float(T2.max(initial=0.0))))
    shape = np.broadcast_shapes(T1.shape, T2.shape)
    if not shape or shape[0] < 2 or N_max == ENTROPY_CLASSES[0][0]:
        return _entropy(r, T1, T2, N_max)

    def leading(a):
        return a.ndim == len(shape) and a.shape[0] == shape[0]

    def row_max(a):
        if leading(a):
            return a.reshape(shape[0], -1).max(axis=1, initial=0.0)
        return a.max(initial=0.0)

    q = np.sqrt(row_max(T1)) * np.sqrt(row_max(T2)) * math.tanh(r)
    label = np.searchsorted(CLASS_LIMITS, q)
    out = np.empty(shape)
    for k in np.unique(label):
        rows = label == k
        T1k = T1[rows] if leading(T1) else T1
        T2k = T1k if T2 is T1 else T2[rows] if leading(T2) else T2
        out[rows] = _entropy(r, T1k, T2k, ENTROPY_CLASSES[k][0])
    return out


def _entropy(r: float, T1, T2, N: int):
    """closed_entropy with every cell truncated at N.

    closed_entropy calls it once per class present, and report once at
    N = choose_truncation(params), skipping the class machinery.  A
    point's probabilities are 1-D and are normalized in place in one
    pass; both branches divide by the same norm, so a point's entropy is
    its cell's in a row or grid of the same N bit for bit.
    """
    p = np.square(closed_weights(r, T1, T2, N))
    norm2 = p.sum(axis=-1)
    if p.ndim == 1:
        if not norm2 > NORM_FLOOR:
            return np.float64(np.nan)
        p /= norm2
        return entropy_bits(p)
    resolvable = norm2 > NORM_FLOOR
    p /= np.where(resolvable, norm2, 1.0)[..., None]
    return np.where(resolvable, entropy_bits(p), np.nan)


def _tail_basis(z, degree: int) -> list:
    """[sum_{m>=0} m^j z^m for j = 0..degree], degree <= 5.

    Each is A_j(z) / (1 - z)^(j+1) with A_j the Eulerian polynomial
    (1; z; z + z^2; z + 4z^2 + z^3; ...).  The coefficients of A_j are
    positive, so these do not cancel as z -> 1.
    """
    w = 1.0 / (1.0 - z)
    zw = z * w
    basis = [w, zw * w, (1.0 + z) * zw * w * w,
             (1.0 + z * (4.0 + z)) * zw * w * w * w,
             (1.0 + z * (11.0 + z * (11.0 + z))) * zw * w * w * w * w,
             (1.0 + z * (26.0 + z * (66.0 + z * (26.0 + z)))) * zw * w * w * w * w * w]
    return basis[:degree + 1]


def _series(f, basis):
    """sum_{m>=0} f(m) z^m for the polynomial f = (f_0, f_1, ...) in m."""
    total = f[0] * basis[0]
    for coeff, b in zip(f[1:], basis[1:]):
        total = total + coeff * b
    return total


def _square(c) -> tuple:
    """(c_0 + c_1 m + c_2 m^2)^2 as coefficients, lowest power first."""
    c0, c1, c2 = c
    return (c0 * c0, 2.0 * c0 * c1, c1 * c1 + 2.0 * c0 * c2, 2.0 * c1 * c2, c2 * c2)


def _shifted_Q(T1, R1, T2, R2, s: int) -> tuple:
    """Q(m + s) = (T1 - R1 (m+s)) (T2 - R2 (m+s)) as a quadratic in m."""
    a1, a2 = T1 - s * R1, T2 - s * R2
    return (a1 * a2, -(a1 * R2 + a2 * R1), R1 * R2)


def closed_measures(r: float, T1, T2):
    """p_cd, EPR variance and teleportation fidelity, with no truncation.

    Derived from the weights w~_n = Q(n) q^n / (t1 t2 cosh r), where
    Q(n) = (T1 - R1 n)(T2 - R2 n), R = 1 - T, q = t1 t2 tanh r and x = q^2:

    * p_cd = sum_n Q(n)^2 x^n / (T1 T2 cosh^2 r), the squared norm.
    * EPR = 2 sum_n (n+1) (w_n - w_{n+1})^2, which equals
      2 (1 + 2 <n> - 2 <ab>) but is a sum of non-negative terms.
    * F = sum_{m,n} w_m w_n C(m+n, m) / 2^(m+n+1)
        = (1/2) sum_k D(k) q^k / sum_n Q(n)^2 x^n,
      with D(k) = 2^-k sum_m C(k, m) Q(m) Q(k-m).  Per beam splitter
      (T - R m)(T - R (k-m)) = T (T - R k) + R^2 m (k-m), and over
      m ~ Binomial(k, 1/2), E[m (k-m)] = k(k-1)/4 and
      E[m^2 (k-m)^2] = k(k-1)(k^2-k+2)/16, so D is a quartic in k.

    Each sum of f(n) z^n, deg f <= 5, is its terms n < 3, taken from
    values of Q, plus z^3 sum_j e_j A_j(z) / (1-z)^(j+1), where e_j are
    the monomial coefficients of f(n+3).  Without the exact head the
    monomial form cancels at small T.  The factor 1/(T1 T2) is cancelled
    term by term (x^n / (T1 T2) = x^(n-1) tanh^2 r, and the n = 0 terms
    carry Q(0) = T1 T2), so T1 T2 = 0 needs no special case.

    r is a scalar; T1 and T2 broadcast, and floats give floats.  Where
    p_cd <= NORM_FLOOR the EPR variance and the fidelity are NaN.
    """
    u = math.tanh(r)
    u2 = u * u
    R1, R2 = 1.0 - T1, 1.0 - T2
    T12 = T1 * T2
    t12 = T12**0.5
    q = t12 * u
    x = T12 * u2
    Q1 = (T1 - R1) * (T2 - R2)
    Q2 = (T1 - 2.0 * R1) * (T2 - 2.0 * R2)
    Q3m = _shifted_Q(T1, R1, T2, R2, 3)
    Q4m = _shifted_Q(T1, R1, T2, R2, 4)
    x_basis = _tail_basis(x, 5)

    # sum_n Q(n)^2 x^n / (T1 T2).
    norm = T12 + u2 * (Q1 * Q1 + x * (Q2 * Q2 + x * _series(_square(Q3m), x_basis)))

    # sum_n (n+1) (Q(n) - q Q(n+1))^2 x^n / (T1 T2); the n >= 3 terms
    # are (m + 4) d(m)^2 with d(m) = Q(m+3) - q Q(m+4).
    d2 = _square([a - q * b for a, b in zip(Q3m, Q4m)])
    spread_tail = (4.0 * d2[0], 4.0 * d2[1] + d2[0], 4.0 * d2[2] + d2[1],
                   4.0 * d2[3] + d2[2], 4.0 * d2[4] + d2[3], d2[4])
    spread = (t12 - u * Q1) ** 2 + u2 * (
        2.0 * (Q1 - q * Q2) ** 2 + x * (
            3.0 * (Q2 - q * Q3m[0]) ** 2 + x * _series(spread_tail, x_basis)))

    # sum_k D(k) q^k / (T1 T2), with D(0) = Q(0)^2, D(1) = Q(0) Q(1) and
    # D(2) = (Q(0) Q(2) + Q(1)^2) / 2.  For k = m + 3, k(k-1)/4 is
    # (6 + 5m + m^2)/4 and k(k-1)(k^2-k+2) is (48, 70, 39, 10, 1) in m.
    a1, a2 = T1 * R2 * R2, T2 * R1 * R1
    l0 = a1 * (T1 - 3.0 * R1) + a2 * (T2 - 3.0 * R2)
    l1 = -(a1 * R1 + a2 * R2)
    corner = (R1 * R2) ** 2 / 16.0
    D3m = (T12 * Q3m[0] + 1.5 * l0 + 48.0 * corner,
           T12 * Q3m[1] + 1.25 * l0 + 1.5 * l1 + 70.0 * corner,
           T12 * Q3m[2] + 0.25 * l0 + 1.25 * l1 + 39.0 * corner,
           0.25 * l1 + 10.0 * corner,
           corner)
    overlap = T12 + q * Q1 + u2 * (
        0.5 * (T12 * Q2 + Q1 * Q1) + q * _series(D3m, _tail_basis(q, 4)))

    p_cd = norm / math.cosh(r) ** 2
    # Arithmetic on floats, numpy scalars or 0-d arrays gives a scalar.
    if not isinstance(p_cd, np.ndarray):
        if not p_cd > NORM_FLOOR:
            return p_cd, math.nan, math.nan
        return p_cd, 2.0 * spread / norm, overlap / (2.0 * norm)
    resolvable = p_cd > NORM_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p_cd,
                np.where(resolvable, 2.0 * spread / norm, np.nan),
                np.where(resolvable, overlap / (2.0 * norm), np.nan))


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


def mean_photon_a(params: CatalysisParams) -> float:
    """<a+a> from the published degree-9 polynomial."""
    p_cd = success_probability(params)
    u = math.tanh(params.r)
    M = math.cosh(params.lam) ** 12 * u / (p_cd * math.cosh(params.r) ** 2)
    return M * _poly_in_u(X_TABLE, params.t1, params.t2, u)


def mean_photon_b(params: CatalysisParams) -> float:
    """<b+b> from the published degree-9 polynomial."""
    # The paper's Y table is its X table with t1 <-> t2.
    return mean_photon_a(params.swapped())


def pair_correlation(params: CatalysisParams) -> float:
    """<ab> = <a+b+> from the published degree-8 polynomial."""
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
    na = mean_photon_a(params)
    nb = mean_photon_b(params)
    nab = pair_correlation(params)
    return 2.0 * (1.0 + na + nb - 2.0 * nab)


def fidelity_closed(params: CatalysisParams) -> float:
    """Teleportation fidelity from the printed polynomial, as published.

    Kept verbatim as a cross-check.  The polynomial does not reduce to
    the baseline (1 + tanh r)/2 at T1 = T2 = 1 (it collapses to
    e^(-4r) cosh(r)^4 / 2), so it disagrees with the CF quadrature of
    lqcat.oracle away from r = 0; `lqcat verify` reports the gap.
    """
    p_cd = success_probability(params)
    u = math.tanh(params.r)
    p0 = math.cosh(params.lam) ** 10 / math.cosh(params.r) ** 2
    return p0 / (4.0 * p_cd) * _poly_in_u(M_TABLE, params.t1, params.t2, u)


def tmsvs_entropy(r: float) -> float:
    """Entanglement entropy (bits) of the un-catalyzed squeezed vacuum.

    With x = sinh(r)^2 this is (1+x) log2(1+x) - x log2(x), evaluated as
    log1p(x) + x log1p(1/x), a sum of two positive terms: the difference
    cancels as x grows (relative error 1.5e-4 at r = 15, 0 returned from
    r = 19), and log1p keeps the relative accuracy as r -> 0.  Below
    r ~ 1e-154, x underflows to 0 and so does the entropy.
    """
    x = math.sinh(r) ** 2
    if x == 0.0:
        return 0.0
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / math.log(2.0)


def tmsvs_epr(r: float) -> float:
    """EPR variance 2 e^(-2r) of the un-catalyzed squeezed vacuum."""
    return 2.0 * math.exp(-2.0 * r)


def tmsvs_fidelity(r: float) -> float:
    """Coherent-state teleportation fidelity (1 + tanh r)/2 of the baseline."""
    return (1.0 + math.tanh(r)) / 2.0
