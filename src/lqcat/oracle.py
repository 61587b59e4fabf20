"""Brute-force ground truth for the catalysis circuit.

Two independent routes are provided:

* the heralded circuit is simulated exactly per total-photon-number
  sector (the beam-splitter generator conserves the sector, so the only
  truncation is in the input squeezed-vacuum sum), and

* the teleportation fidelity is computed by Gauss-Laguerre quadrature of
  the characteristic-function overlap, which for twin-Fock-diagonal
  resources reduces to radial displacement matrix elements.

Neither route shares code with the published closed forms in
lqcat.formulas, so agreement is a real cross-check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, roots_laguerre

from .model import (
    DEFAULT_EPS_TRUNC,
    CatalysisParams,
    QuadratureError,
    SchmidtSpectrum,
    choose_truncation,
    normalize_weights,
    tail_estimate,
)

DEFAULT_QUAD_POINTS = 120
QUADRATURE_RTOL = 1e-9


@lru_cache(maxsize=4096)
def bs_sector(theta: float, m: int) -> np.ndarray:
    """Exact exp[theta (a+c - a c+)] in the m-photon sector, read-only.

    Rows and columns are the ancilla occupation j of the basis
    {|m-j, j>} of (system, ancilla), j = 0..m.  The generator is the
    (m+1)-dimensional antisymmetric matrix with entries sqrt(j (m - j + 1))
    coupling ancilla occupations j-1 <-> j, so the exponential carries no
    truncation error.
    """
    if m < 0:
        raise ValueError(f"sector photon number must be >= 0, got {m}")
    gen = np.zeros((m + 1, m + 1))
    for j in range(1, m + 1):
        # a+ c couples |m-j, j> -> |m-j+1, j-1>
        amp = math.sqrt(j * (m - j + 1))
        gen[j - 1, j] = amp
        gen[j, j - 1] = -amp
    matrix = expm(theta * gen)
    matrix.setflags(write=False)
    return matrix


def _catalysis_factor(T: float, t: float, n: int) -> float:
    """Amplitude <n,1|B|n,1> that mode a keeps n photons while the ancilla
    photon passes through, from the exact (n+1)-photon sector unitary.

    Below T = 1/2 the rotation is split as B(theta) = B(pi/2) B(-phi) with
    phi = pi/2 - theta = asin(t).  B(pi/2) is the exact signed permutation
    |m-j, j> -> (-1)^j |j, m-j>, whose row 1 holds -1 in column m-1, and
    phi is never rounded against pi/2, so amplitudes of order t^(n-1) keep
    their relative accuracy as t -> 0 instead of drowning in the ~1e-16
    absolute error of cos(acos(t)).  From T = 1/2 up the direct angle is
    kept; it gives the Hong-Ou-Mandel zero <1,1|B|1,1> = 0 at T = 1/2
    exactly.
    """
    if T >= 0.5:
        return float(bs_sector(math.acos(t), n + 1)[1, 1])
    return -float(bs_sector(-math.asin(t), n + 1)[n, 1])


def catalyze_oracle(params: CatalysisParams, N: int | None = None,
                    eps: float = DEFAULT_EPS_TRUNC):
    """Simulate the heralded circuit; returns (SchmidtSpectrum, p_cd).

    Builds the unnormalized projected amplitudes
    w~_n = tanh(r)^n / cosh(r) * <n,1|B1|n,1> * <n,1|B2|n,1>
    per sector and reads p_cd off the squared norm.  A projection whose
    amplitudes all vanish raises DegeneratePostselectionError, as the
    closed-form route does.
    """
    if N is None:
        N = choose_truncation(params, eps)
    u = math.tanh(params.r)
    n = np.arange(N + 1)
    g1 = np.array([_catalysis_factor(params.T1, params.t1, k)
                   for k in range(N + 1)])
    g2 = np.array([_catalysis_factor(params.T2, params.t2, k)
                   for k in range(N + 1)])
    raw = u**n / math.cosh(params.r) * g1 * g2
    spectrum, p_cd = normalize_weights(raw)
    q = params.t1 * params.t2 * u
    tail = tail_estimate(spectrum.weights, q)
    return SchmidtSpectrum(spectrum.weights, N, tail), p_cd


@lru_cache(maxsize=16)
def _laguerre_rule(q: int):
    nodes, weights = roots_laguerre(q)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=32)
def _overlap_table(N: int, q: int) -> np.ndarray:
    """I[m, n] = integral_0^inf e^(-s) R_mn(s)^2 ds by q-node Gauss-Laguerre.

    R_mn(s) = sqrt(min!/max!) s^(|m-n|/2) e^(-s/2) L_min^(|m-n|)(s), with
    <m|D(z*)|n><m|D(z)|n> = R_mn(|z|^2)^2.  R is generated by a three-term
    recurrence on the normalized elements themselves (|R| <= 1), so the
    table is overflow-free for any N.
    """
    s, w = _laguerre_rule(q)
    d = np.arange(N + 1, dtype=float)[:, None]
    # R for pairs (0, d): sqrt(1/d!) s^(d/2) e^(-s/2)
    log0 = -0.5 * gammaln(d + 1) + 0.5 * d * np.log(s)[None, :] - 0.5 * s[None, :]
    r_curr = np.exp(log0)
    r_prev = np.zeros_like(r_curr)
    table = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        # row k: r_curr[di] is R for the pair (k, k + di)
        contrib = (r_curr**2) @ w
        di = np.arange(N + 1 - k)
        table[k, k + di] = contrib[di]
        table[k + di, k] = contrib[di]
        if k == N:
            break
        a = (2 * k + d + 1 - s[None, :]) / np.sqrt((k + 1) * (k + d + 1))
        b = np.sqrt(k * (k + d) / ((k + 1) * (k + d + 1)))
        r_prev, r_curr = r_curr, a * r_curr - b * r_prev
    table.setflags(write=False)
    return table


def _table_for(N: int, q: int) -> np.ndarray:
    # Round the table size up so nearby truncations share a cache entry.
    size = max(64, 1 << (N - 1).bit_length())
    return _overlap_table(size, q)


def cf_fidelity(weights: np.ndarray,
                quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Teleportation fidelity by quadrature of the CF overlap, over the last
    axis of normalized weights.

    F = sum_{m,n} w_m w_n integral_0^inf e^(-s) R_mn(s)^2 ds, evaluated at
    quad_points Gauss-Laguerre nodes and re-evaluated at twice as many as
    a convergence check over every row.
    """
    if quad_points < 2:
        raise ValueError(f"quad_points must be >= 2, got {quad_points}")
    N = weights.shape[-1] - 1
    f1 = (weights @ _table_for(N, quad_points)[: N + 1, : N + 1] * weights).sum(axis=-1)
    f2 = (weights @ _table_for(N, 2 * quad_points)[: N + 1, : N + 1] * weights).sum(axis=-1)
    err = abs(f2 - f1)
    # err > QUADRATURE_RTOL * max(1, |f2|), without a ufunc call per bound:
    # on a single spectrum that call would cost as much as the quadrature.
    if np.count_nonzero((err > QUADRATURE_RTOL) & (err > QUADRATURE_RTOL * abs(f2))):
        raise QuadratureError(
            f"fidelity quadrature not converged: max diff {np.max(err)} "
            f"at {quad_points}/{2 * quad_points} nodes"
        )
    return f2


def cf_fidelity_oracle(spectrum: SchmidtSpectrum,
                       quad_points: int = DEFAULT_QUAD_POINTS) -> float:
    """Teleportation fidelity of one spectrum by the CF quadrature."""
    return float(cf_fidelity(spectrum.weights, quad_points))
