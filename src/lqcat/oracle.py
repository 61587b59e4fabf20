"""Brute-force ground truth for the catalysis circuit.

Two independent routes are provided:

* the heralded circuit is simulated per total-photon-number sector: the
  beam splitter conserves the sector, and its output state for n system
  photons and the ancilla photon is propagated from the one for n - 1,
  so the only truncation is in the input squeezed-vacuum sum, and

* the teleportation fidelity is computed by Gauss-Laguerre quadrature of
  the characteristic-function overlap, which for twin-Fock-diagonal
  resources reduces to radial displacement matrix elements.

Neither route shares code with the published closed forms in
lqcat.formulas, so agreement is a real cross-check.  No other lqcat
module imports this one at module level, so `import lqcat` loads no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import eval_laguerre, gammaln

from .model import (
    CatalysisParams,
    MeasureReport,
    QuadratureError,
    SchmidtSpectrum,
    choose_truncation,
    entropy_of,
    epr_of,
    normalize_weights,
)
from .report import _with_baselines

# Gauss-Laguerre nodes of the CF-quadrature fidelity, checked against
# twice as many.  The two agree to 4.4e-15 at six points from N = 60 to
# 2048, far inside QUADRATURE_RTOL; the weights overflow from 364 nodes.
QUAD_POINTS = 120
QUADRATURE_RTOL = 1e-9


def _sector_states(c: float, s: float, size: int):
    """Yield the sector states psi_n = B|n,1>, n = 0..size-1, of the beam
    splitter B = exp[theta (a+c - a c+)] with (cos theta, sin theta) = (c, s).

    B conserves the photon number, so psi_n lies in the (n+1)-photon
    sector, held as ancilla occupations j of the basis {|n+1-j, j>} of
    (system, ancilla).  It is built one photon at a time from
    psi_0 = B c+|0> = s|1,0> + c|0,1> by psi_n = A psi_(n-1) / sqrt(n)
    with A = B a+ B+ = c a+ - s c+, so no sector matrix is formed and
    the only error is the round-off of the steps.
    """
    root = np.sqrt(np.arange(size + 1))
    cr, sr = c * root, s * root
    psi = np.array([s, c])
    yield psi
    for n in range(1, size):
        # (A psi)[j] = c sqrt(n+1-j) psi[j] - s sqrt(j) psi[j-1]
        step = np.zeros(n + 2)
        step[:-1] = cr[n + 1:0:-1] * psi
        step[1:] -= sr[1:n + 2] * psi
        psi = step / root[n]
        yield psi


# Amplitudes for a few dozen transmittances: each entry holds 2 x size
# doubles, at most 64 KB at size 4096.
@lru_cache(maxsize=64)
def bs_sector(c: float, s: float, size: int) -> np.ndarray:
    """Rows <n,1|psi_n> and <1,n|psi_n> over n = 0..size-1 of the sector
    states psi_n = B|n,1> of _sector_states, read-only."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    out = np.empty((2, size))
    for n, psi in enumerate(_sector_states(c, s, size)):
        out[:, n] = psi[1], psi[n]
    out.setflags(write=False)
    return out


def _catalysis_factors(T: float, t: float, N: int) -> np.ndarray:
    """Amplitudes <n,1|B|n,1>, n = 0..N, that mode a keeps n photons while
    the ancilla photon passes through, from the simulated sector states.

    Below T = 1/2 the rotation is split as B(theta) = B(pi/2) B(-phi) with
    phi = pi/2 - theta.  B(pi/2) is the exact signed permutation
    |m-j, j> -> (-1)^j |j, m-j>, which takes <n,1| to -<1,n|, and B(-phi)
    has (cos, sin) = (sqrt(1-T), -t), so amplitudes of order t^(n-1) keep
    their relative accuracy as t -> 0.  From T = 1/2 up B itself is
    simulated with (cos, sin) = (t, sqrt(1-T)); at T = 1/2 the two are the
    same float, so the Hong-Ou-Mandel zero <1,1|B|1,1> = c^2 - s^2 is
    exact.  The vectors are cached at a power-of-two size of at least 64,
    so truncations near each other share one.
    """
    size = max(64, 1 << N.bit_length())
    if T >= 0.5:
        return bs_sector(t, math.sqrt(1.0 - T), size)[0, :N + 1]
    return -bs_sector(math.sqrt(1.0 - T), -t, size)[1, :N + 1]


def catalyze_oracle(params: CatalysisParams):
    """Simulate the heralded circuit; returns (SchmidtSpectrum, p_cd).

    Builds the unnormalized projected amplitudes
    w~_n = tanh(r)^n / cosh(r) * <n,1|B1|n,1> * <n,1|B2|n,1>
    per sector, up to the N of choose_truncation, and reads p_cd off the
    squared norm.  A point past the truncation cap raises ParameterError
    before any state is simulated.  A projection whose amplitudes all
    vanish raises DegeneratePostselectionError, as the closed-form route
    does.
    """
    N = choose_truncation(params)
    u = math.tanh(params.r)
    n = np.arange(N + 1)
    g1 = _catalysis_factors(params.T1, params.t1, N)
    g2 = _catalysis_factors(params.T2, params.t2, N)
    return normalize_weights(u**n / math.cosh(params.r) * g1 * g2)


@lru_cache(maxsize=16)
def _laguerre_rule(q: int):
    """q-node Gauss-Laguerre nodes and weights, built as scipy's
    roots_laguerre builds them: the eigenvalues of the Jacobi matrix
    (diagonal 2k+1, off-diagonal k), one Newton step on L_q, and weights
    1 / (L_(q-1) L_q') scaled to sum to 1, with L_q' from before the
    step.  numpy's dense eigvalsh takes the place of scipy.linalg's banded
    solver, which roots_laguerre imports on its first call; the nodes
    agree bit for bit at every q from 2 to 240 and the weights to 1.1e-15.
    """
    k = np.arange(1.0, q)
    nodes = np.linalg.eigvalsh(np.diag(2.0 * np.arange(q) + 1.0)
                               + np.diag(k, 1) + np.diag(k, -1))
    value = eval_laguerre(q, nodes)
    slope = q * (value - eval_laguerre(q - 1, nodes)) / nodes
    nodes -= value / slope
    # L_(q-1) and L_q' span hundreds of decades at q = 240: centre each on
    # its log range before the product, as roots_laguerre does.
    factors = [eval_laguerre(q - 1, nodes), slope]
    for f in factors:
        logs = np.log(np.abs(f))
        f /= np.exp((logs.max() + logs.min()) / 2.0)
    weights = 1.0 / (factors[0] * factors[1])
    weights /= weights.sum()
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


def cf_fidelity_oracle(spectrum: SchmidtSpectrum) -> float:
    """Teleportation fidelity of one spectrum by quadrature of the CF overlap.

    F = sum_{m,n} w_m w_n integral_0^inf e^(-s) R_mn(s)^2 ds, evaluated at
    QUAD_POINTS Gauss-Laguerre nodes and re-evaluated at twice as many as
    a convergence check, which a NaN fails.
    """
    w = spectrum.weights
    N = len(w) - 1
    f1 = float((w @ _table_for(N, QUAD_POINTS)[: N + 1, : N + 1] * w).sum())
    f2 = float((w @ _table_for(N, 2 * QUAD_POINTS)[: N + 1, : N + 1] * w).sum())
    if not abs(f2 - f1) <= QUADRATURE_RTOL * max(1.0, abs(f2)):
        raise QuadratureError(
            f"fidelity quadrature not converged: diff {abs(f2 - f1)} "
            f"at {QUAD_POINTS}/{2 * QUAD_POINTS} nodes"
        )
    return f2


def oracle_report(params: CatalysisParams) -> MeasureReport:
    """All measures at params by the oracle route: the circuit simulation's
    spectrum and p_cd, entropy and EPR variance on that spectrum, and the
    fidelity by the CF quadrature."""
    spectrum, p_cd = catalyze_oracle(params)
    return _with_baselines(params, p_cd, entropy_of(spectrum), epr_of(spectrum),
                           cf_fidelity_oracle(spectrum))


def oracle_measure(quantity: str, params: CatalysisParams) -> float:
    """One quantity at params by the oracle route; only the fidelity runs
    the CF quadrature."""
    spectrum, p_cd = catalyze_oracle(params)
    if quantity == "pcd":
        return p_cd
    measure = {"entropy": entropy_of, "epr": epr_of, "fidelity": cf_fidelity_oracle}
    return measure[quantity](spectrum)
