"""Closed-form expressions for the catalyzed state.

Two kinds live here.  The published coefficient tables are transcribed
verbatim as explicit integer-coefficient monomial lists in (t1, t2), so a
transcription error stays localized and diffable; they are cross-checks
only.  closed_weights, closed_measures and closed_entropy are derived
from the heralded state itself, w~_n = Q(n) q^n / (t1 t2 cosh r): the
first builds one point's weights, the second sums p_cd, the EPR variance
and the teleportation fidelity over all n with no truncation, and the
third sums the entropy by the chain rule from the second's head and
per-T tables of the weights' logarithms.  The independent checks live in
lqcat.oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import (
    CLASS_LIMITS,
    ENTROPY_CLASSES,
    NORM_FLOOR,
    _SMALLEST_SUBNORMAL,
    CatalysisParams,
    check_norm,
    choose_truncation,
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
    return check_norm(closed_head(params.r, params.T1, params.T2)[0])


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


# Working set of one sweep block, in doubles (4 MiB).  closed_measures
# holds about 50 doubles per cell at once (measured 50.0-51.1), so a block
# takes 10,485 cells of any quantity.  No value depends on the block size.
SWEEP_BLOCK = 1 << 19
CLOSED_CELL_DOUBLES = 50
# Below this many cells at one r, closed_entropy takes each cell as a
# point, the same bits: the array head's fixed cost is some six points'.
_FEW_CELLS = 8


# Room for the 8 truncation classes from n = 0 (closed_weights) and from
# n = 2 (the entropy's tables), and a few other N: each entry holds
# 3 x (N + 1) doubles, about 280 kB for all.
@lru_cache(maxsize=32)
def _index_arrays(N: int, first: int = 0) -> tuple:
    """n, n + 1 and max(n - 1, 0) for n = first..N as read-only floats
    (exact, so no call casts them)."""
    n = np.arange(float(first), N + 1.0)
    arrays = (n, n + 1.0, np.maximum(n - 1.0, 0.0))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _operands(*xs):
    """xs with every operand but a float taken as a float array."""
    return [x if isinstance(x, float) else np.asarray(x, dtype=float) for x in xs]


def _each_r(f, r):
    """f(r), or f at each element of an array r, shaped like r: libm's
    tanh and cosh at every r, where numpy's differ in the last place."""
    if not isinstance(r, np.ndarray):
        return f(r)
    return np.array([f(x) for x in r.ravel().tolist()]).reshape(r.shape)


def closed_weights(params: CatalysisParams, N: int) -> np.ndarray:
    """Unnormalized weights w~_0 .. w~_N at one point.

    w~_n = tanh(r)^n / cosh(r) g_n(T1) g_n(T2), with the beam-splitter
    factor g_n(T) = ((n+1) T - n) t^(n-1), whose n = 0 value is t (t = 0
    included).  g1 g2 is formed first, so the weights are swap-symmetric
    bit for bit.
    """
    n, n1, power = _index_arrays(N)
    g1, g2 = ((n1 * T - n) * t**power
              for T, t in ((params.T1, params.t1), (params.T2, params.t2)))
    g1[0], g2[0] = params.t1, params.t2
    return math.tanh(params.r) ** n / math.cosh(params.r) * (g1 * g2)


def closed_spectrum(params: CatalysisParams):
    """Schmidt spectrum from the closed form; returns (spectrum, p_cd).

    The weights run to the N of choose_truncation, the same N as
    closed_entropy's at this point, and p_cd is their squared norm.
    """
    return normalize_weights(closed_weights(params, choose_truncation(params)))


def _tail_basis(z) -> list:
    """[sum_{m>=0} m^j z^m for j = 0..4].

    Each is A_j(z) / (1 - z)^(j+1) with A_j the Eulerian polynomial
    (1; z; z + z^2; z + 4z^2 + z^3; ...).  The coefficients of A_j are
    positive, so these do not cancel as z -> 1.
    """
    w = 1.0 / (1.0 - z)
    zw = z * w
    return [w, zw * w, (1.0 + z) * zw * w * w,
            (1.0 + z * (4.0 + z)) * zw * w * w * w,
            (1.0 + z * (11.0 + z * (11.0 + z))) * zw * w * w * w * w]


def _series(f, basis):
    """sum_{m>=0} f(m) z^m for the polynomial f = (f_0, f_1, ...) in m."""
    total = f[0] * basis[0]
    for coeff, b in zip(f[1:], basis[1:]):
        total = total + coeff * b
    return total


def _series5(f, z, basis):
    """_series for a quintic f: basis, a _tail_basis(z), with the
    degree-5 term sum_{m>=0} m^5 z^m added."""
    w = basis[0]
    return _series(f, basis + [(1.0 + z * (26.0 + z * (66.0 + z * (26.0 + z))))
                               * (z * w) * w * w * w * w * w])


def _square(c) -> tuple:
    """(c_0 + c_1 m + c_2 m^2)^2 as coefficients, lowest power first."""
    c0, c1, c2 = c
    return (c0 * c0, 2.0 * c0 * c1, c1 * c1 + 2.0 * c0 * c2, 2.0 * c1 * c2, c2 * c2)


def _shifted_Q(T1, R1, T2, R2, s: int) -> tuple:
    """Q(m + s) = (T1 - R1 (m+s)) (T2 - R2 (m+s)) as a quadratic in m."""
    a1, a2 = T1 - s * R1, T2 - s * R2
    return (a1 * a2, -(a1 * R2 + a2 * R1), R1 * R2)


def closed_measures(r, T1, T2):
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

    r, T1 and T2 broadcast (r's tanh and cosh from libm), and floats give
    floats; any other operand is taken as a float array.  Where
    p_cd <= NORM_FLOOR the EPR variance and fidelity are NaN.  Raises
    ParameterError as _check_ranges does.  This is closed_head,
    closed_epr and closed_fidelity in a row.
    """
    r, T1, T2 = _operands(r, T1, T2)
    _check_ranges(r, T1, T2)
    head = closed_head(r, T1, T2)
    return head[0], closed_epr(head), closed_fidelity(head)


def closed_head(r, T1, T2) -> tuple:
    """The shared head of closed_measures: p_cd first, then the terms
    that closed_epr, closed_fidelity and closed_photons sum their tails
    from, last the norm's n >= 2 terms over u^2 x.  The norm, second,
    is NaN where p_cd is not above NORM_FLOOR, so every tail is.  Each
    value is closed_measures' bit for bit; see there for the sums and
    operands."""
    if not (isinstance(r, float) and isinstance(T1, float) and isinstance(T2, float)):
        r, T1, T2 = _operands(r, T1, T2)
    u, ch2 = _each_r(math.tanh, r), _each_r(lambda x: math.cosh(x) ** 2, r)
    u2 = u * u
    R1, R2 = 1.0 - T1, 1.0 - T2
    T12 = T1 * T2
    t12 = T12**0.5
    q = t12 * u
    x = T12 * u2
    Q1 = (T1 - R1) * (T2 - R2)
    Q2 = (T1 - 2.0 * R1) * (T2 - 2.0 * R2)
    Q3m = _shifted_Q(T1, R1, T2, R2, 3)
    x_basis = _tail_basis(x)

    # sum_n Q(n)^2 x^n / (T1 T2), and its terms n >= 2 over u^2 x.
    tail = Q2 * Q2 + x * _series(_square(Q3m), x_basis)
    norm = T12 + u2 * (Q1 * Q1 + x * tail)

    p_cd = norm / ch2
    if isinstance(p_cd, np.ndarray):
        norm = np.where(p_cd > NORM_FLOOR, norm, np.nan)
    elif not p_cd > NORM_FLOOR:
        norm = math.nan
    return p_cd, norm, T1, T2, R1, R2, T12, u, u2, t12, q, x, Q1, Q2, Q3m, x_basis, tail


def closed_epr(head: tuple):
    """The EPR variance from closed_head's head; NaN where p_cd is not
    above NORM_FLOOR."""
    p_cd, norm, T1, T2, R1, R2, T12, u, u2, t12, q, x, Q1, Q2, Q3m, x_basis, _ = head
    # sum_n (n+1) (Q(n) - q Q(n+1))^2 x^n / (T1 T2); the n >= 3 terms
    # are (m + 4) d(m)^2 with d(m) = Q(m+3) - q Q(m+4).
    Q4m = _shifted_Q(T1, R1, T2, R2, 4)
    d2 = _square([a - q * b for a, b in zip(Q3m, Q4m)])
    spread_tail = (4.0 * d2[0], 4.0 * d2[1] + d2[0], 4.0 * d2[2] + d2[1],
                   4.0 * d2[3] + d2[2], 4.0 * d2[4] + d2[3], d2[4])
    spread = (t12 - u * Q1) ** 2 + u2 * (
        2.0 * (Q1 - q * Q2) ** 2 + x * (
            3.0 * (Q2 - q * Q3m[0]) ** 2 + x * _series5(spread_tail, x, x_basis)))
    return 2.0 * spread / norm


def closed_fidelity(head: tuple):
    """The teleportation fidelity from closed_head's head; NaN where p_cd
    is not above NORM_FLOOR."""
    p_cd, norm, T1, T2, R1, R2, T12, u, u2, t12, q, x, Q1, Q2, Q3m, x_basis, _ = head
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
        0.5 * (T12 * Q2 + Q1 * Q1) + q * _series(D3m, _tail_basis(q)))
    return overlap / (2.0 * norm)


def closed_photons(head: tuple) -> tuple:
    """The photon-number distribution of closed_head's state split at
    n = 2: (p_0, p_1, rho, excess), with rho = sum_{n>=2} p_n the mass
    of the tail n >= 2 and excess = sum_{n>=2} (n - 2) p_n, so the mean
    photon number <n> = <a+a> = <b+b> is p_1 + 2 rho + excess.

    rho is the n >= 2 part of the head's norm, u^2 x tail / norm, with
    the head's tail, and excess the one further series
    u^2 x^2 sum_{m>=0} (m+1) Q(m+3)^2 x^m / norm, so every part is a sum
    of non-negative terms and nothing cancels.  NaN where p_cd is not
    above NORM_FLOOR.
    """
    p_cd, norm, T1, T2, R1, R2, T12, u, u2, t12, q, x, Q1, Q2, Q3m, x_basis, tail = head
    s = _square(Q3m)
    # (m + 1) Q(m+3)^2 as coefficients, lowest power first.
    beyond = _series5((s[0], s[0] + s[1], s[1] + s[2], s[2] + s[3], s[3] + s[4], s[4]), x, x_basis)
    return (T12 / norm, u2 * (Q1 * Q1) / norm, u2 * (x * tail) / norm,
            u2 * (x * (x * beyond)) / norm)


def _tables(T, N: int) -> tuple:
    """G_n(T) = g_n(T)^2 and log2 G_n(T), for n = 2..N along a new last
    axis of the 1-D array T; log2 0 is read as log2 of the smallest
    subnormal, so that G log2 G is 0 where G is."""
    n, n1, power = _index_arrays(N, 2)
    T = T[:, None]
    G = n1 * T
    G -= n
    G *= G
    G *= (L := T**power)
    return G, np.log2(np.maximum(G, _SMALLEST_SUBNORMAL, out=L), out=L)


def _pair_terms(T1, i, T2, j, part: slice, N: int) -> np.ndarray:
    """(G_n(T1[i]) G_n(T2[j])) (log2 G_n(T1[i]) + log2 G_n(T2[j])) for
    n = 2..N, one row per pair (i, j) of the slice part, from tables of
    the T that these read: their span where it is shorter than the
    index, else the distinct elements."""
    if T2 is T1 and j is i:
        G, L = _tables(T1[i[part]], N)
        return np.multiply(np.multiply(G, G, out=G), np.add(L, L, out=L), out=G)
    terms = []
    for T, index in ((T1, i[part]), (T2, j[part])):
        low, high = int(index.min()), int(index.max())
        at, index = ((slice(low, high + 1), index - low) if high - low < len(index)
                     else np.unique(index, return_inverse=True))
        terms += [np.take(table, index, axis=0) for table in _tables(T[at], N)]
    G, L, G2, L2 = terms
    return np.multiply(np.multiply(G, G2, out=G), np.add(L, L2, out=L), out=G)


def _tail_sums(u2, T1, i, T2, j, N: int) -> np.ndarray:
    """sum_{n=2..N} u2^n _pair_terms at the rows u2 (an (R, 1) array) by
    the pairs, one einsum per chunk of pairs.  A chunk's tables hold
    SWEEP_BLOCK / 32 doubles (128 KiB) each, so that they stay in a
    core's cache: there the gathers and the einsum ran 2.5 times as fast
    as on tables of a whole block (measured at N = 60)."""
    U = u2 ** _index_arrays(N, 2)[0]
    step = max(1, SWEEP_BLOCK // (32 * (N + 1)))
    return np.concatenate([np.einsum("rn,pn->rp", U, _pair_terms(
        T1, i, T2, j, slice(c, c + step), N), optimize=False)
        for c in range(0, len(i), step)], axis=1)


def _entropy(head, r, T1, T2, pairs=None, N=None):
    """The entanglement entropy in bits of closed_head's state, with no
    logarithm per cell.

    With p_n the photon-number distribution and h(p) = -p log2 p, the
    chain rule gives
    S = h(p_0) + h(p_1) + rho log2 norm - log2(u^2) (2 rho + excess) - X / norm,
    with p_0, p_1, rho and excess from closed_photons, norm = p_cd cosh^2 r
    and X = sum_{n=2..N} u^(2n) G_n(T1) G_n(T2) (log2 G_n(T1) + log2 G_n(T2)),
    G_n = g_n^2, whose logarithms are tabled per T.  The dominant one of
    p_0 and p_1 (p >= 1/2) takes its log2 as log1p(-rest) / ln 2, rest
    the other two masses, so S keeps its relative accuracy where it is
    tiny.  Each cell sums X to the N of its own truncation class, by the
    q = t1 t2 tanh r of choose_truncation, and the cells of one class
    take one einsum of u^(2n) rows against pair columns per chunk
    (_tail_sums).  The einsum sums each cell in one order whatever the
    operands' shapes, so a cell's value is the same bits at a point and
    in any row, block or chunk, and swapping T1 and T2 changes no bit.

    head is closed_head's at a point, with r, T1 and T2 floats and N its
    choose_truncation, or at r rows (a float or an (R, 1) array) by the
    pairs (T1[i], T2[j]) of pairs = (i, j), index arrays into the 1-D
    arrays T1 and T2.  NaN where p_cd is not above NORM_FLOOR.  Raises
    ParameterError, through choose_truncation, where a cell needs a
    truncation above the cap.
    """
    p0, p1, rho, excess = closed_photons(head)
    norm, u, u2 = head[1], head[7], head[8]
    if pairs is None:
        G, L = _tables(np.array([T1, T2]), N)
        X = np.einsum("rn,pn->rp", (u2 ** _index_arrays(N, 2)[0])[None],
                      (G[:1] * G[1:]) * (L[:1] + L[1:]), optimize=False)[0, 0]
    else:
        i, j = pairs
        t1 = np.sqrt(T1)[i]
        label = np.searchsorted(CLASS_LIMITS, (t1 * (t1 if T2 is T1 and j is i else np.sqrt(
            T2)[j])) * np.reshape(u, (-1, 1)))
        low, top = (int(label.min()), int(label.max())) if label.size else (1, 0)
        if top == len(CLASS_LIMITS):
            row, k = divmod(int(np.argmax(label == top)), label.shape[1])
            choose_truncation(make_params(float(np.ravel(r)[row]), float(T1[i[k]]),
                                          float(T2[j[k]])))
        rows, X = np.reshape(u2, (-1, 1)), np.zeros(label.shape)
        if low == top:
            X = _tail_sums(rows, T1, i, T2, j, ENTROPY_CLASSES[top][0])
        for k in np.unique(label).tolist() if low < top else ():
            at = label == k
            row_at, column_at = np.flatnonzero(at.any(axis=1)), np.flatnonzero(at.any(axis=0))
            I, cells = i[column_at], np.ix_(row_at, column_at)
            X[cells] += np.where(at[cells], _tail_sums(
                rows[row_at], T1, I, T2, I if j is i else j[column_at],
                ENTROPY_CLASSES[k][0]), 0.0)
        X = X.reshape(np.shape(p0))
    # log2 u^2 per row, by libm; 0 log2 0 := 0 where r = 0.
    log_u2 = _each_r(lambda x: math.log2(max(x, _SMALLEST_SUBNORMAL)), u2)
    S = -(p0 * _log2_mass(p0, p1 + rho) + p1 * _log2_mass(p1, p0 + rho)) + (
        rho * np.log2(norm) - log_u2 * (2.0 * rho + excess) - X / norm) + 0.0
    # One NaN where the norm is NaN: the operands' shapes set its sign bit.
    return np.where(np.isnan(norm), np.nan, S) if pairs else S if norm == norm else math.nan


def _log2_mass(p, rest):
    """log2 p of a mass p, taken as log1p(-rest) / ln 2, rest = 1 - p
    summed from the other masses, where p >= 1/2."""
    if isinstance(p, float):
        return (np.log1p(-min(rest, 0.5)) / math.log(2.0) if p >= 0.5
                else np.log2(max(p, _SMALLEST_SUBNORMAL)))
    log = np.log2(np.maximum(p, _SMALLEST_SUBNORMAL))
    np.copyto(log, np.log1p(-np.minimum(rest, 0.5)) / math.log(2.0), where=p >= 0.5)
    return log


def closed_entropy(r, T1, T2):
    """Entanglement entropy in bits, broadcast over r, T1 and T2.

    The chain-rule sum of _entropy, at each r in blocks of cells whose
    head holds at most SWEEP_BLOCK doubles, so the working set stays
    bounded; an r of fewer than _FEW_CELLS cells takes each as a point.
    Each cell is truncated at the class of its own q = t1 t2 tanh r, as
    choose_truncation does, so a cell's value is report's bit for bit,
    whatever row, grid or block holds it, and the entropy is
    swap-symmetric bit for bit.

    Floats give a numpy float64; other operands are taken as float
    arrays.  The entropy is NaN where the weights' squared norm is not
    above NORM_FLOOR.  Raises ParameterError as _check_ranges does, or
    where choose_truncation does at a cell.
    """
    r, T1, T2 = _operands(r, T1, T2)
    _check_ranges(r, T1, T2)
    return _broadcast_entropy(r, T1, T2)


def _check_ranges(r, T1, T2) -> None:
    """Raises ParameterError where make_params does at the smallest or
    the largest r, T1 and T2 (floats or float arrays), which bound every
    cell's q = t1 t2 tanh r."""
    for end in (np.min, np.max):
        make_params(*(float(end(a, initial=0.0)) for a in (r, T1, T2)))


def _broadcast_entropy(r, T1, T2):
    """closed_entropy with no check of the ranges of r, T1 and T2, taken
    as floats or float arrays."""
    shape = np.broadcast_shapes(np.shape(r), np.shape(T1), np.shape(T2))
    # Each cell's element of r, T1 and T2, as broadcast views: no copy.
    rows, i, j = (np.broadcast_to(np.arange(np.size(a)).reshape(np.shape(a)), shape)
                  for a in (r, T1, T2))
    j = i if T2 is T1 else j
    T1 = np.ravel(T1)
    T2 = T1 if j is i else np.ravel(T2)
    out = np.empty(rows.size)
    step = max(1, SWEEP_BLOCK // CLOSED_CELL_DOUBLES)
    for row, x in enumerate(np.ravel(r).tolist()):
        cells = np.flatnonzero(rows == row)
        if len(cells) < _FEW_CELLS:
            for c in cells.tolist():
                a, b = float(T1[i.flat[c]]), float(T2[j.flat[c]])
                out[c] = _entropy(closed_head(x, a, b), x, a, b,
                                  N=choose_truncation(make_params(x, a, b)))
            continue
        for start in range(0, len(cells), step):
            part = cells[start:start + step]
            a, b = (i.flat[part],) * 2 if j is i else (i.flat[part], j.flat[part])
            out[part] = _entropy(closed_head(x, T1[a], T2[b]), x, T1, T2, (a, b))
    return out.reshape(shape)[()]


def closed_entropy_bound(head: tuple):
    """An upper bound, in bits, on the entanglement entropy of closed_head's
    state, in closed form: no weights, no truncation.

    By the chain rule, S = H(p_0, p_1, rho) + rho S_tail, where S_tail is
    the entropy of n - 2 given n >= 2, a distribution on 0, 1, 2, ...
    with mean m = excess / rho (closed_photons).  Among all such
    distributions with mean m, the geometric one has the largest
    entropy (Jaynes' maximum-entropy principle, Phys. Rev. 106, 620
    (1957)): g(m) = (m + 1) log2(m + 1) - m log2 m, the squeezed
    vacuum's at sinh^2 r = m.  So S <= H(p_0, p_1, rho) + rho g(m), with
    equality where the tail is geometric, on T1 = T2 = 1.  With
    a = rho + excess, rho g(m) = a log2 a - excess log2 excess
    - rho log2 rho, so the bound is five terms v log2 v, with no
    division by rho, which may be 0.

    This bounds the untruncated entropy; regions.ENTROPY_BOUND_MARGIN
    covers the gap to closed_entropy's truncated, rounded sum.  NaN
    where p_cd is not above NORM_FLOOR.
    """
    p0, p1, rho, excess = closed_photons(head)
    v = np.stack((p0, p1, rho, rho + excess, excess))
    # 0 log2 0 := 0, as in model.entropy_of.
    v *= np.log2(np.maximum(v, _SMALLEST_SUBNORMAL))
    return v[3] - v[4] - (v[0] + v[1] + 2.0 * v[2])


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
