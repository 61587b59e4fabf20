"""Independent reference for the benchmark's correctness checks.

Nothing here imports lqcat.  The heralded state is rebuilt from the
product formula for its twin-Fock weights,

    w_0 = t1 t2 / cosh r,
    w_n = ((n+1) T1 - n) ((n+1) T2 - n) (t1 t2)^(n-1) tanh(r)^n / cosh r,

and the teleportation fidelity from the exact characteristic-function
overlap kernel I_mn = C(m+n, m) / 2^(m+n+1), taken in log-gamma form, in
place of the program's Gauss-Laguerre quadrature.  Every function is
vectorised over arrays of points, so a whole round of outputs is checked
in one call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

GUARD = 1e-12           # strict-enhancement band, as documented by lqcat
TAIL_TARGET = 1e-24     # bound on (N+2)^4 q^(2N) when choosing the cut-off
TAIL_RTOL = 1e-16       # discarded squared weight, relative to the kept norm
LN2 = math.log(2.0)


@lru_cache(maxsize=2)
def _kernel_block(size: int) -> np.ndarray:
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * size - 1)])
    i = np.arange(size)
    s = i[:, None] + i[None, :]
    kernel = np.exp(lg[s] - lg[i][:, None] - lg[i][None, :] - (s + 1) * LN2)
    kernel.setflags(write=False)
    return kernel


def _kernel(N: int) -> np.ndarray:
    """I_mn = C(m+n, m) / 2^(m+n+1) for 0 <= m, n <= N."""
    return _kernel_block(128 * (N // 128 + 1))[: N + 1, : N + 1]


def _cutoff(q_max: float) -> int:
    """Smallest N (a multiple of 16) with (N+2)^4 q^(2N) below TAIL_TARGET."""
    N = 16
    while q_max > 0.0 and (N + 2) ** 4 * q_max ** (2 * N) >= TAIL_TARGET:
        N += 16
    return N


def weights(r, T1, T2) -> np.ndarray:
    """Unnormalised weights, one row per point: shape (P, N+1)."""
    r, T1, T2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, float))
                                      for a in (r, T1, T2)))
    u = np.tanh(r)
    q = np.sqrt(T1 * T2) * u
    N = _cutoff(float(q.max()))
    n = np.arange(N + 1, dtype=float)
    f1 = (n + 1) * T1[:, None] - n
    f2 = (n + 1) * T2[:, None] - n
    # (t1 t2)^(n-1) tanh^n = tanh * q^(n-1); numpy gives 0^0 = 1 at n = 1.
    w = f1 * f2 * u[:, None] * q[:, None] ** np.maximum(n - 1, 0)
    w[:, 0] = np.sqrt(T1 * T2)
    w /= np.cosh(r)[:, None]
    # Geometric bound on what the cut-off drops, relative to the kept norm.
    norm2 = np.sum(w * w, axis=1)
    rho = q * q * ((N + 3) / (N + 2)) ** 4
    tail = (N + 2) ** 4 * q ** (2 * N) * (u / np.cosh(r)) ** 2 / (1.0 - rho)
    if np.any(rho >= 1.0) or np.any(norm2 <= 0.0) or np.any(tail > TAIL_RTOL * norm2):
        raise ArithmeticError("reference cut-off cannot certify these points")
    return w


def measures(r, T1, T2) -> dict:
    """p_cd, entropy (bits), EPR variance and CF fidelity per point."""
    w = weights(r, T1, T2)
    p_cd = np.sum(w * w, axis=1)
    v = w / np.sqrt(p_cd)[:, None]
    p = v * v
    n = np.arange(w.shape[1], dtype=float)
    plogp = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    # <a+a> = <b+b> = sum n p_n and <ab> = sum (n+1) v_n v_(n+1); the EPR
    # variance of (x_a - x_b, p_a + p_b) is 2 (1 + 2<a+a> - 2<ab>).
    n_mean = p @ n
    ab = np.sum((n[:-1] + 1.0) * v[:, :-1] * v[:, 1:], axis=1)
    fidelity = np.sum((v @ _kernel(w.shape[1] - 1)) * v, axis=1)
    return {
        "pcd": p_cd,
        "entropy": -np.sum(plogp, axis=1),
        "epr": 2.0 * (1.0 + 2.0 * n_mean - 2.0 * ab),
        "fidelity": fidelity,
    }


def baselines(r) -> dict:
    """The un-catalysed two-mode squeezed vacuum at squeezing r."""
    r = np.atleast_1d(np.asarray(r, float))
    # (1+x) log2(1+x) - x log2(x) with x = sinh^2 r, in a form that does
    # not cancel at small r.
    x = np.sinh(r) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.where(r > 0.0, ((1.0 + x) * np.log1p(x) - x * np.log(x)) / LN2, 0.0)
    return {
        "entropy": entropy,
        "epr": 2.0 * np.exp(-2.0 * r),
        "fidelity": (1.0 + np.tanh(r)) / 2.0,
        "pcd": np.ones_like(r),
    }


def deltas(r, T1, T2) -> dict:
    """Enhancement over the baseline; positive is better for every quantity."""
    m = measures(r, T1, T2)
    b = baselines(np.broadcast_to(r, m["pcd"].shape))
    return {q: (b[q] - m[q]) if q == "epr" else (m[q] - b[q]) for q in m}


def best_symmetric_delta(quantity: str, r: float) -> float:
    """Supremum of the delta over symmetric T in (0, 1), to ~1e-8 in T.

    A 1e-3 scan, then three zooms of 201 points around the best cell.
    """
    T = np.arange(1, 1000) * 1e-3
    for _ in range(4):
        d = deltas(r, T, T)[quantity]
        j = int(np.argmax(d))
        best, width = float(d[j]), 2.0 * (T[1] - T[0])
        T = np.linspace(max(T[j] - width, 1e-12), min(T[j] + width, 1.0 - 1e-12), 201)
    return best


def self_test() -> list:
    """The reference's own limits: T = 1 is the plain squeezed vacuum, and
    T1 = 0 heralds the twin-Fock state |1,1> (entropy 0, EPR 6, F 1/4)."""
    problems = []
    r = np.array([0.05, 0.3, 0.8, 1.5])
    m, b = measures(r, 1.0, 1.0), baselines(r)
    for q in ("pcd", "entropy", "epr", "fidelity"):
        err = float(np.max(np.abs(m[q] - b[q])))
        if err > 1e-12:
            problems.append(f"reference T=1 limit of {q} off by {err:.3g}")
    m = measures(r, 0.0, 0.3)
    for q, want in (("entropy", 0.0), ("epr", 6.0), ("fidelity", 0.25)):
        err = float(np.max(np.abs(m[q] - want)))
        if err > 1e-12:
            problems.append(f"reference twin-Fock limit of {q} off by {err:.3g}")
    return problems
