"""Acceptance gate: the ten headline results at their stated tolerances.

Every test checks its headline result at its stated tolerance and prints
one CRITERION line with the measured value next to the published target.

Five published targets (criteria 2, 4, 5, 6 and 8) are not what the
exact heralded state gives.  Those tests assert the exact state's value
at the stated tolerance against an independent reference route, and
each carries a checked refutation of the published target at a pinned
point where it is wrong by far more than round-off:

* 2: the EPR threshold is r* = 0.549, not 0.585 +- 0.005; no T enhances
  the EPR correlation at r = 0.58, the bottom of the published band.
* 4: the entropy T bound exceeds the published 0.25 + 0.01 (the gain at
  (r, T) = (0.6, 0.265) is +0.019 bits), and the EPR bound stays below
  0.30 - 0.01 (at T = 0.29 the EPR delta is <= -0.015 for every r).  All
  three upper edges tend to T = 1/4 as r -> 0.
* 5: the entropy interval at r = 0.2 is (0.0345, 0.2542), not
  (0.03, 0.23) +- 0.01; the gain at T = 0.23 is +0.115 bits.
* 6: F => E fails at the grid point (0.186, 0.25375), where
  dF = +1.8e-3 and dE = -1.8e-4 bits; EPR => E and EPR => F hold.
* 8: the printed second-moment polynomials miss the exact EPR variance
  (1.503 against 2.007 at (0.5, 0.5, 0.5)); the variance that results
  use agrees with the circuit to 1e-13.

The reference route is the circuit oracle's spectrum (sector-exact
beam-splitter unitaries) with each measure taken from scratch: entropy
from the squared weights, the EPR variance from dense quadrature
operators, the fidelity from the exact overlap kernel
I_mn = C(m+n, m) / 2^(m+n+1), and every baseline as the same measure of
the T = 1 state.  None of it shares code with the closed-form weights,
the measure kernels or the closed-form sums that the results use.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lqcat.cli import main as cli_main
from lqcat.formulas import (
    closed_spectrum,
    epr_closed,
    fidelity_closed,
    success_probability,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from lqcat.model import ENHANCEMENT_GUARD, entropy_of, epr_of, make_params
from lqcat.oracle import catalyze_oracle, cf_fidelity_oracle
from lqcat.regions import implication_table, symmetric_row, t_range, threshold

MEASURES = ("entropy", "epr", "fidelity")


def _oracle_weights(r: float, T1: float, T2: float) -> np.ndarray:
    return catalyze_oracle(make_params(r, T1, T2))[0].weights


def _ref_entropy(w: np.ndarray) -> float:
    p = w**2
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _ref_epr(w: np.ndarray) -> float:
    """Var(x_a - x_b) + Var(p_a + p_b) from dense ladder operators."""
    D = len(w) + 1  # room for a+ acting on the top retained level
    a = np.diag(np.sqrt(np.arange(1.0, D)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    psi = np.zeros((D, D))  # psi[m, n] = <m, n|psi>
    psi[np.arange(len(w)), np.arange(len(w))] = w

    def variance(o_psi):  # o_psi = O|psi> for a Hermitian O
        return float(np.vdot(o_psi, o_psi).real - np.vdot(psi, o_psi).real ** 2)

    return variance(x @ psi - psi @ x.T) + variance(p @ psi + psi @ p.T)


@lru_cache(maxsize=None)
def _overlap_kernel(size: int) -> np.ndarray:
    return np.array([[math.comb(m + n, m) / 2 ** (m + n + 1)
                      for n in range(size)] for m in range(size)])


def _ref_fidelity(w: np.ndarray) -> float:
    return float(w @ _overlap_kernel(len(w)) @ w)


REF_MEASURES = {"entropy": _ref_entropy, "epr": _ref_epr,
                "fidelity": _ref_fidelity}


@lru_cache(maxsize=None)
def _ref_baseline(quantity: str, r: float) -> float:
    """The measure of the un-catalyzed state, the circuit at T = 1."""
    return REF_MEASURES[quantity](_oracle_weights(r, 1.0, 1.0))


def _ref_delta(quantity: str, r: float, T: float) -> float:
    """Symmetric-catalysis enhancement; positive means enhanced."""
    r, T = float(r), float(T)
    delta = (REF_MEASURES[quantity](_oracle_weights(r, T, T))
             - _ref_baseline(quantity, r))
    return -delta if quantity == "epr" else delta


def _ref_best_delta(quantity: str, r: float) -> float:
    """Largest enhancement over T in (0, 1): scan, then polish the best."""
    T = np.arange(0.005, 1.0, 0.005)
    deltas = [_ref_delta(quantity, r, t) for t in T]
    j = int(np.argmax(deltas))
    res = minimize_scalar(lambda t: -_ref_delta(quantity, r, t),
                          bounds=(T[max(j - 1, 0)], T[min(j + 1, len(T) - 1)]),
                          method="bounded", options={"xatol": 1e-6})
    return max(deltas[j], -float(res.fun))


def _ref_edge(quantity: str, r: float, t_in: float, t_out: float) -> float:
    """Bisect the enhancement edge between an enhancing and a plain T."""
    assert _ref_delta(quantity, r, t_in) > ENHANCEMENT_GUARD
    assert _ref_delta(quantity, r, t_out) <= ENHANCEMENT_GUARD
    while abs(t_out - t_in) > 1e-7:
        mid = 0.5 * (t_in + t_out)
        if _ref_delta(quantity, r, mid) > ENHANCEMENT_GUARD:
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_in + t_out)


@pytest.fixture(scope="module")
def thresholds():
    """r_star and wall time per quantity, shared across criteria."""
    out = {}
    for quantity in MEASURES:
        start = time.monotonic()
        result = threshold(quantity, tol=1e-3)
        out[quantity] = (result.r_star, time.monotonic() - start)
    return out


def test_criterion_01_entropy_threshold(thresholds, criterion):
    r_star, seconds = thresholds["entropy"]
    ok = abs(r_star - 0.785) <= 0.005 and seconds < 60.0
    criterion(1, ok, f"entropy threshold r_star = {r_star:.4f} "
                     f"(target 0.785 +- 0.005), {seconds:.1f} s")
    assert ok


def test_criterion_02_epr_threshold(thresholds, criterion):
    """r* to +-0.005: the independent route enhances at r* - 0.005 and
    nowhere at r* + 0.005.  The published 0.585 is refuted by the band's
    own bottom: no T enhances at r = 0.58.  The printed moment
    polynomials, run through the same scan, give 0.577, so the published
    figure tracks the printed formula rather than the state."""
    r_star, seconds = thresholds["epr"]
    below = _ref_best_delta("epr", r_star - 0.005)
    above = _ref_best_delta("epr", r_star + 0.005)
    at_published = _ref_best_delta("epr", 0.58)
    ok = below > ENHANCEMENT_GUARD >= above and seconds < 60.0
    refuted = at_published <= ENHANCEMENT_GUARD
    criterion(2, ok and refuted,
              f"EPR threshold r_star = {r_star:.4f} +- 0.005 (published "
              f"0.585 +- 0.005), {seconds:.1f} s; independent best EPR gain "
              f"{below:+.4f} at r_star - 0.005, {above:+.4f} at "
              f"r_star + 0.005, {at_published:+.4f} at r = 0.58")
    assert ok
    assert refuted


def _printed_fidelity_threshold() -> float:
    """Threshold the published fidelity polynomial would give."""
    T = np.arange(1e-3, 1.0, 1e-3)

    def exists(r: float) -> bool:
        base = tmsvs_fidelity(r)
        best = max(
            fidelity_closed(make_params(r, t, t)) - base
            for t in T
        )
        return best > ENHANCEMENT_GUARD

    lo, hi = 0.01, 2.0
    if not exists(lo):
        return math.nan
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if exists(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_03_fidelity_threshold(thresholds, criterion):
    r_star, seconds = thresholds["fidelity"]
    printed = _printed_fidelity_threshold()
    ok = abs(r_star - 0.60) <= 0.02
    criterion(3, ok, f"fidelity threshold r_star = {r_star:.4f} from the "
                     f"closed form (target 0.60 +- 0.02, governs), "
                     f"{r_star if math.isnan(printed) else printed:.4f} "
                     f"from the published polynomial; {seconds:.1f} s")
    assert ok


def _overall_t_bounds(quantity: str, r_star: float):
    """(inf lower, its r, sup upper, its r) of the enhancing T intervals."""
    lowers, uppers = [], []
    r_scan = np.concatenate(([0.005, 0.01],
                             np.arange(0.02, r_star - 1e-6, 0.02)))
    for r in r_scan:
        intervals = t_range(quantity, float(r), tol=1e-3)
        if not intervals:
            continue
        lowers.append((min(lo for lo, _ in intervals), float(r)))
        uppers.append((max(hi for _, hi in intervals), float(r)))
    hi_best, r_best = max(uppers)

    def neg_upper(r: float) -> float:
        intervals = t_range(quantity, float(r), tol=1e-3)
        return -max((hi for _, hi in intervals), default=0.0)

    res = minimize_scalar(
        neg_upper, bounds=(max(r_best - 0.02, 1e-3), min(r_best + 0.02, r_star)),
        method="bounded", options={"xatol": 1e-3},
    )
    if -float(res.fun) > hi_best:
        hi_best, r_best = -float(res.fun), float(res.x)
    return (*min(lowers), hi_best, r_best)


PUBLISHED_T_BOUNDS = {"entropy": 0.25, "epr": 0.30, "fidelity": 0.27}


def test_criterion_04_symmetric_t_bounds(thresholds, criterion):
    """Each sup-upper T bound over r < r* to +-0.01: the independent route
    enhances at (r, bound - 0.01) and at no r below r* at bound + 0.01.
    Each inf-lower bound is below 0.01, and as r -> 0 all three upper
    edges tend to T = 1/4, where w1/w0 = (2T-1)^2 tanh(r) / T stops
    beating the baseline tanh(r) to first order.

    The published 0.25 (entropy) matches that small-r edge, not the
    supremum; the published 0.30 (EPR) is near the printed polynomial's
    0.292.  Both are refuted: the entropy gain at (0.6, 0.265) is
    positive, and no r enhances the EPR correlation at T = 0.29.  The
    published fidelity bound 0.27 holds."""
    r_grid = np.concatenate(([0.005], np.arange(0.01, 0.7951, 0.01)))
    parts = []
    ok = True
    for quantity, published in PUBLISHED_T_BOUNDS.items():
        r_star = thresholds[quantity][0]
        low, r_low, high, r_high = _overall_t_bounds(quantity, r_star)
        ((_, edge_r0),) = t_range(quantity, 0.005, tol=1e-3)
        part_ok = (
            low <= 0.01
            and _ref_delta(quantity, r_low, 0.01) > ENHANCEMENT_GUARD
            and _ref_delta(quantity, r_high, high - 0.01) > ENHANCEMENT_GUARD
            and max(_ref_delta(quantity, r, high + 0.01)
                    for r in r_grid[r_grid < r_star]) <= ENHANCEMENT_GUARD
            and abs(edge_r0 - 0.25) <= 1e-3
            and _ref_delta(quantity, 0.005, 0.249) > ENHANCEMENT_GUARD
            and _ref_delta(quantity, 0.005, 0.251) <= ENHANCEMENT_GUARD
        )
        if quantity == "fidelity":  # the one published bound that holds
            part_ok = part_ok and abs(high - published) <= 0.01
        ok = ok and part_ok
        parts.append(f"{quantity} ({low:.4f}, {high:.4f} +- 0.01 at "
                     f"r = {r_high:.3f}; {edge_r0:.4f} at r = 0.005) vs "
                     f"published (0, {published}) "
                     f"{'ok' if part_ok else 'off'}")
    entropy_gain = _ref_delta("entropy", 0.6, 0.265)
    epr_at_029 = max(_ref_delta("epr", r, 0.29) for r in r_grid[r_grid < 0.595])
    refuted = (entropy_gain > ENHANCEMENT_GUARD
               and epr_at_029 <= ENHANCEMENT_GUARD)
    criterion(4, ok and refuted,
              "enhancing T bounds: " + "; ".join(parts)
              + f"; entropy gain {entropy_gain:+.4f} bits at (0.6, 0.265), "
              f"best EPR delta {epr_at_029:+.4f} at T = 0.29")
    assert ok
    assert refuted


def test_criterion_05_entropy_interval_at_r02(criterion):
    """Both edges to +-0.01 (and to t_range's own 1e-3) of an independent
    bisection; a 40-digit evaluation of the weights puts them at 0.034517
    and 0.254238.  The published upper edge 0.23 is refuted: T = 0.23 is
    deep inside the interval.  Entropy depends only on the squared
    weights, on which both spectrum routes agree, so no change to the
    program can move this edge."""
    intervals = t_range("entropy", 0.2, tol=1e-3)
    lo, hi = intervals[0]
    ref_lo = _ref_edge("entropy", 0.2, 0.1, 0.01)
    ref_hi = _ref_edge("entropy", 0.2, 0.1, 0.5)
    ok = (len(intervals) == 1
          and abs(lo - ref_lo) <= 0.01 and abs(hi - ref_hi) <= 0.01
          and abs(lo - ref_lo) <= 1e-3 and abs(hi - ref_hi) <= 1e-3)
    gain = _ref_delta("entropy", 0.2, 0.23)
    refuted = gain > ENHANCEMENT_GUARD and ref_hi - 0.23 > 0.01
    criterion(5, ok and refuted,
              f"t_range(entropy, r=0.2) = ({lo:.4f}, {hi:.4f}) +- 0.01 vs "
              f"independent ({ref_lo:.6f}, {ref_hi:.6f}), published "
              f"(0.03, 0.23); gain {gain:+.4f} bits at T = 0.23")
    assert ok
    assert refuted


EXACT_IMPLICATIONS = {
    ("entropy", "epr"): False,
    ("entropy", "fidelity"): False,
    ("epr", "entropy"): True,
    ("epr", "fidelity"): True,
    ("fidelity", "entropy"): False,
    ("fidelity", "epr"): False,
}
LABELS = {"entropy": "E", "epr": "EPR", "fidelity": "F"}


def test_criterion_06_implication_table(criterion):
    """The measured six-cell pattern at resolution 400.  Every witness of
    a failing cell is re-evaluated on the independent route; each cell
    that holds is checked at its hardest grid cell, the one with the
    smallest consequent delta among the antecedent-enhancing cells.

    The published table (F => E holds, EPR => E and EPR => F fail) is
    refuted at the grid point (0.186, 0.25375): the fidelity is enhanced
    and the entropy is not, because fidelity's upper T edge lies about
    0.001-0.002 above entropy's up to r ~ 0.33.  With the printed EPR
    polynomial in place of the exact EPR, both EPR cells would fail as
    published."""
    resolution = 400
    table = implication_table(resolution=resolution)
    holds = {(e.antecedent, e.consequent): e.holds for e in table.entries}
    guard = ENHANCEMENT_GUARD
    worst_witness = 0.0
    for e in table.entries:
        if e.holds:
            assert e.witness is None
            continue
        w = e.witness
        d_a = _ref_delta(e.antecedent, w.r, w.T)
        d_b = _ref_delta(e.consequent, w.r, w.T)
        assert d_a > guard >= d_b
        worst_witness = max(worst_witness, abs(d_a - w.antecedent_delta),
                            abs(d_b - w.consequent_delta))

    r_axis = 0.8 * (np.arange(resolution) + 1.0) / resolution
    T_axis = (np.arange(resolution) + 0.5) / resolution
    rows = [symmetric_row(float(r), T_axis) for r in r_axis]
    deltas = {q: np.array([row.deltas(q) for row in rows]) for q in MEASURES}
    margins = []
    for (a, b), holds_exactly in EXACT_IMPLICATIONS.items():
        if not holds_exactly:
            continue
        consequent = np.where(deltas[a] > guard, deltas[b], np.inf)
        i, j = np.unravel_index(np.argmin(consequent), consequent.shape)
        assert consequent[i, j] > guard
        assert _ref_delta(a, r_axis[i], T_axis[j]) > guard
        assert _ref_delta(b, r_axis[i], T_axis[j]) > guard
        margins.append(f"{LABELS[a]}=>{LABELS[b]} smallest d{LABELS[b]} "
                       f"{consequent[i, j]:.2e} at (r={r_axis[i]:.3f}, "
                       f"T={T_axis[j]:.5f})")

    ok = holds == EXACT_IMPLICATIONS and worst_witness <= 1e-9
    d_f = _ref_delta("fidelity", 0.186, 0.25375)
    d_e = _ref_delta("entropy", 0.186, 0.25375)
    refuted = d_f > guard and d_e < -guard
    measured = ", ".join(
        f"{LABELS[a]}=>{LABELS[b]} {'holds' if h else 'fails'}"
        for (a, b), h in holds.items())
    criterion(6, ok and refuted,
              f"measured table: {measured} (published: only F=>E holds); "
              + "; ".join(margins)
              + f"; witnesses agree with the independent route to "
              f"{worst_witness:.1e}; F=>E fails at (0.186, 0.25375) with "
              f"dF = {d_f:+.3e}, dE = {d_e:+.3e} bits")
    assert ok
    assert refuted


def test_criterion_07_limit_identities(criterion):
    worst = {"p_cd": 0.0, "entropy": 0.0, "epr": 0.0, "fidelity": 0.0}
    for r in np.arange(0.05, 1.5001, 0.05):
        params = make_params(float(r), 1.0, 1.0)
        spectrum, _ = closed_spectrum(params)
        worst["p_cd"] = max(worst["p_cd"],
                            abs(success_probability(params) - 1.0))
        worst["entropy"] = max(worst["entropy"],
                               abs(entropy_of(spectrum) - tmsvs_entropy(float(r))))
        worst["epr"] = max(worst["epr"],
                           abs(epr_closed(params) - 2.0 * math.exp(-2.0 * r)))
        worst["fidelity"] = max(
            worst["fidelity"],
            abs(cf_fidelity_oracle(spectrum) - tmsvs_fidelity(float(r))),
        )
    ok = (worst["p_cd"] < 1e-12 and worst["entropy"] < 1e-10
          and worst["epr"] < 1e-10 and worst["fidelity"] < 1e-8)
    criterion(7, ok, "identity-line worst errors: "
              + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    assert ok


def test_criterion_08_oracle_equivalence(criterion):
    """Closed-form spectrum and p_cd against the circuit oracle, and the
    EPR variance the results use (epr_of on the closed spectrum) against
    dense quadrature operators on the oracle state, all to 1e-9 or
    better.  The printed second-moment polynomials are refuted at
    (0.5, 0.5, 0.5): the weights depend on r only through tanh(r)^2, so
    tanh(r) * sum_i X_i tanh(r)^i for <a+a> would have to be even in
    tanh(r), yet X_0, X_2, X_4 and X_6 are nonzero."""
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    max_dw = max_dp = max_depr = max_printed = 0.0
    for r, T1, T2 in itertools.product(grid, repeat=3):
        params = make_params(r, T1, T2)
        spec_c, p_c = closed_spectrum(params)
        spec_o, p_o = catalyze_oracle(params)
        n = min(11, len(spec_c.weights), len(spec_o.weights))
        max_dw = max(max_dw, float(np.max(
            np.abs(spec_c.weights[:n] - spec_o.weights[:n]))))
        max_dp = max(max_dp, abs(p_c - p_o))
        ref = _ref_epr(spec_o.weights)
        max_depr = max(max_depr, abs(epr_of(spec_c) - ref))
        max_printed = max(max_printed, abs(epr_closed(params) - ref))
    ok_spectrum = max_dw < 1e-10 and max_dp < 1e-10
    ok_epr = max_depr < 1e-9
    ok = ok_spectrum and ok_epr
    pinned = make_params(0.5, 0.5, 0.5)
    printed = epr_closed(pinned)
    exact = _ref_epr(_oracle_weights(0.5, 0.5, 0.5))
    refuted = abs(printed - exact) > 0.1
    criterion(8, ok and refuted,
              f"closed form vs circuit oracle: max|dw| = {max_dw:.1e}, "
              f"max|dp_cd| = {max_dp:.1e} "
              f"({'ok' if ok_spectrum else 'off'}); spectrum EPR vs dense "
              f"operators max diff = {max_depr:.1e} vs 1e-9 "
              f"({'ok' if ok_epr else 'off'}); published EPR polynomial max "
              f"diff = {max_printed:.1e}, {printed:.4f} vs {exact:.4f} at "
              f"(0.5, 0.5, 0.5)")
    assert ok
    assert refuted


def test_criterion_09_degenerate_limits(criterion):
    worst = 0.0
    for r in (0.2, 0.5, 1.0):
        for T2 in (0.0, 0.3, 0.8):
            params = make_params(r, 0.0, T2)
            spectrum, p_cd = closed_spectrum(params)
            expect_p = ((1.0 - 2.0 * T2) ** 2 * math.tanh(r) ** 2
                        / math.cosh(r) ** 2)
            worst = max(
                worst,
                abs(abs(spectrum.weights[1]) - 1.0),
                abs(entropy_of(spectrum)),
                abs(epr_of(spectrum) - 6.0),
                abs(cf_fidelity_oracle(spectrum) - 0.25),
                abs(p_cd - expect_p),
            )
    ok = worst < 1e-12
    criterion(9, ok, f"T1 = 0 twin-Fock limits, worst error {worst:.1e} "
                     f"(tolerance 1e-12)")
    assert ok


def test_criterion_10_determinism(tmp_path, criterion):
    commands = {
        "measure": ["measure", "--r", "0.3", "--t1", "0.2", "--t2", "0.6",
                    "--json"],
        "sweep": ["sweep", "--quantity", "entropy", "--r", "0.1:0.7:4",
                  "--t1", "0.1:0.9:5", "--t2", "0.1:0.9:5"],
        "threshold": ["threshold", "--quantity", "fidelity", "--tol", "0.01"],
        "regions": ["regions", "--resolution", "100"],
        "table": ["table", "--resolution", "100"],
        "verify": ["verify", "--grid", "coarse"],
    }
    stable = []
    ok = True
    for name, argv in commands.items():
        outputs = []
        for run in (1, 2):
            path = tmp_path / f"{name}.{run}"
            code = cli_main(argv + ["-o", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        same = outputs[0] == outputs[1]
        ok = ok and same
        stable.append(f"{name} {'stable' if same else 'UNSTABLE'}")
    criterion(10, ok, "byte-identical reruns: " + ", ".join(stable))
    assert ok
