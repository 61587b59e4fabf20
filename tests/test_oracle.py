"""Tests of the brute-force routes: sector-exact circuit simulation and
the characteristic-function fidelity quadrature."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from lqcat.formulas import closed_measures, closed_spectrum, tmsvs_fidelity
from lqcat.model import ParameterError, make_params, normalize_weights
from lqcat.oracle import (
    QUAD_POINTS,
    _catalysis_factors,
    _sector_states,
    _table_for,
    bs_sector,
    catalyze_oracle,
    cf_fidelity_oracle,
)


def _sector_generator(m):
    """Antisymmetric generator of exp[theta (a+c - a c+)] in the m-photon
    sector, over ancilla occupations j of {|m-j, j>}."""
    gen = np.zeros((m + 1, m + 1))
    for j in range(1, m + 1):
        amp = math.sqrt(j * (m - j + 1))
        gen[j - 1, j] = amp
        gen[j, j - 1] = -amp
    return gen


def _expm_factor(T, n):
    """<n,1|B|n,1> by the per-sector expm of the whole sector matrix, the
    route the sector-state propagation replaced, with the same B(pi/2)
    split below T = 1/2."""
    t = math.sqrt(T)
    if T >= 0.5:
        return float(expm(math.acos(t) * _sector_generator(n + 1))[1, 1])
    return -float(expm(-math.asin(t) * _sector_generator(n + 1))[n, 1])


def _mp_factor(T, n):
    """<n,1|B|n,1> = t^(n-1) (T - n (1 - T)) at 60 digits: a+^n c+ goes to
    (t a+ - s c+)^n (s a+ + t c+), whose |n,1> coefficient over its norm
    sqrt(n!) is this."""
    with mpmath.workdps(60):
        T = mpmath.mpf(T)
        return mpmath.sqrt(T) ** (n - 1) * (T - n * (1 - T))


class TestSectorUnitary:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_unitary(self, m):
        # The propagated B|m,1> is column 1 of the (m+1)-photon sector
        # matrix: put it in place of that column of the expm matrix, and
        # the result must still be unitary.
        theta = 0.7
        U = expm(theta * _sector_generator(m + 1))
        *_, psi = _sector_states(math.cos(theta), math.sin(theta), m + 1)
        U[:, 1] = psi
        assert np.allclose(U @ U.T, np.eye(m + 2), atol=1e-13)


class TestSectorStates:
    @pytest.mark.parametrize("c,s", [
        (math.cos(0.6), math.sin(0.6)),
        # The split's B(-phi) at T = 0.3: (cos, sin) = (sqrt(1 - T), -t).
        (math.sqrt(0.7), -math.sqrt(0.3)),
    ], ids=["theta-0.6", "split-T-0.3"])
    def test_matches_dense_two_mode_beam_splitter(self, c, s):
        # Apply the full two-mode unitary exp[theta (a+c - a c+)] on a
        # truncated Fock lattice and compare each propagated state with
        # the column of |n,1>, element by element.
        D = 24
        a = np.kron(np.diag(np.sqrt(np.arange(1, D)), 1), np.eye(D))
        anc = np.kron(np.eye(D), np.diag(np.sqrt(np.arange(1, D)), 1))
        U = expm(math.atan2(s, c) * (a.T @ anc - a @ anc.T))
        rows = bs_sector(c, s, 7)
        for n, psi in enumerate(_sector_states(c, s, 7)):
            dense = [U[(n + 1 - j) * D + j, n * D + 1] for j in range(n + 2)]
            assert np.max(np.abs(psi - dense)) < 1e-12
            assert rows[0, n] == psi[1] and rows[1, n] == psi[n]

    def test_matches_per_sector_expm(self):
        rng = np.random.default_rng(20240)
        for T in [0.5, 1.0, 0.0, *rng.uniform(0.0, 1.0, 12)]:
            got = _catalysis_factors(T, math.sqrt(T), 60)
            want = [_expm_factor(T, n) for n in range(61)]
            assert np.max(np.abs(got - want)) < 1e-13, T

    @pytest.mark.parametrize("T,n,value", [
        (1e-12, 5, -5.0e-24),
        (0.6, 523, -2.61e-56),
        (1.401298464324817e-45, 3, -4.2e-45),
        (1.401298464324817e-45, 2, -7.49e-23),
        (0.3, 7, -0.1242),
        (0.97, 300, -8.45e-2),
    ])
    def test_relative_accuracy_against_mpmath(self, T, n, value):
        got = _catalysis_factors(T, math.sqrt(T), n)[n]
        want = _mp_factor(T, n)
        assert got == pytest.approx(value, rel=5e-3)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_hong_ou_mandel_zero_is_exact(self):
        assert _catalysis_factors(0.5, math.sqrt(0.5), 1)[1] == 0.0

    def test_unitarity_residual(self):
        # psi_n is homogeneous of degree n+1 in (c, s), so its squared norm
        # is (c^2 + s^2)^(n+1), which is 1 only to within the rounding of c
        # and s.  The power is taken from the exact rational c^2 + s^2 - 1,
        # so the ratio is 1 up to the steps' own round-off.
        n = np.arange(1, 4097)
        for T in (0.5, 0.6, 0.97):
            t, s = math.sqrt(T), math.sqrt(1.0 - T)
            for c_, s_ in ((t, s), (s, -t)):
                norms = np.array([psi @ psi for psi in _sector_states(c_, s_, 4096)])
                excess = float(Fraction(c_) ** 2 + Fraction(s_) ** 2 - 1)
                ratio = norms / np.exp(n * math.log1p(excess))
                assert np.max(np.abs(ratio - 1.0)) <= 1e-13

    def test_rows_are_read_only_and_size_is_checked(self):
        assert not bs_sector(0.6, 0.8, 64).flags.writeable
        with pytest.raises(ValueError):
            bs_sector(0.6, 0.8, 0)


class TestCatalyzeOracle:
    def test_twin_fock_limit(self):
        spec, p = catalyze_oracle(make_params(0.5, 0.0, 0.3))
        expect_p = (1 - 2 * 0.3) ** 2 * math.tanh(0.5) ** 2 / math.cosh(0.5) ** 2
        assert p == pytest.approx(expect_p, abs=1e-15)
        assert abs(spec.weights[1]) == pytest.approx(1.0, abs=1e-15)

    def test_identity_line(self):
        r = 0.8
        spec, p = catalyze_oracle(make_params(r, 1.0, 1.0))
        assert p == pytest.approx(1.0, abs=1e-12)
        n = np.arange(len(spec.weights))
        expect = math.tanh(r) ** n / math.cosh(r)
        assert np.max(np.abs(np.abs(spec.weights) - expect)) < 1e-12

    # Zero heralding probability: both routes must raise.
    @example(1.0, 0.5, 0.0)
    # Tiny transmittance: amplitudes of order t^(n-1) need relative accuracy.
    @example(0.5, 0.5, 1.401298464324817e-45)
    # Large truncations at r = 2: N = 566, and N = 911, the domain's largest.
    @example(2.0, 0.97, 0.99)
    @example(2.0, 1.0, 1.0)
    @given(
        st.floats(0.01, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_spectrum(self, r, T1, T2):
        params = make_params(r, T1, T2)
        try:
            spec_c, p_c = closed_spectrum(params)
            spec_o, p_o = catalyze_oracle(params)
        except Exception:
            # Degenerate heralding (zero-norm projection) must raise the
            # same way on both routes.
            with pytest.raises(Exception):
                closed_spectrum(params)
            with pytest.raises(Exception):
                catalyze_oracle(params)
            return
        assert p_c == pytest.approx(p_o, abs=1e-12)
        n = min(len(spec_c.weights), len(spec_o.weights))
        assert np.max(np.abs(spec_c.weights[:n] - spec_o.weights[:n])) < 1e-12

    def test_cold_point_at_r_2_is_bounded(self):
        # N = 566 from a cold cache: no sector matrix is formed or kept.
        bs_sector.cache_clear()
        tracemalloc.start()
        try:
            catalyze_oracle(make_params(2.0, 0.97, 0.99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    def test_past_the_cap_raises_before_simulating(self):
        misses = bs_sector.cache_info().misses
        with pytest.raises(ParameterError):
            catalyze_oracle(make_params(2.45, 1.0, 1.0))
        assert bs_sector.cache_info().misses == misses


def _cartesian_fidelity(weights, nodes=48):
    """Independent 2-D Gauss-Hermite CF overlap with dense operators.

    D(z) = exp(z a+ - z* a) = R(phi) exp(-i |z| H) R(phi)+, with the
    Hermitian H = i (a+ - a), z = |z| e^(i phi) and R(phi) = e^(i phi a+a)
    diagonal, so one eigendecomposition of H gives every displacement on
    the grid.
    """
    D = len(weights) + 25
    a = np.diag(np.sqrt(np.arange(1, D)), 1)
    lam, V = np.linalg.eigh(1j * (a.T - a))
    n = np.arange(D)
    w = np.zeros(D)
    w[: len(weights)] = weights
    xg, wg = hermgauss(nodes)
    total = 0.0
    for xi, wxi in zip(xg, wg):
        for yi, wyi in zip(xg, wg):
            z = xi + 1j * yi
            core = (V * np.exp(-1j * abs(z) * lam)) @ V.conj().T
            R = np.exp(1j * np.angle(z) * n)
            Dz = R[:, None] * core * R.conj()[None, :]
            Dzs = R.conj()[:, None] * core * R[None, :]
            chi = np.einsum("m,n,mn,mn->", w, w, Dzs, Dz)
            total += wxi * wyi * chi.real
    return total / math.pi


class TestFidelityQuadrature:
    def test_vacuum(self):
        spec, _ = normalize_weights(np.array([1.0]))
        assert cf_fidelity_oracle(spec) == pytest.approx(0.5, abs=1e-12)

    def test_twin_fock(self):
        spec, _ = normalize_weights(np.array([0.0, 1.0]))
        assert cf_fidelity_oracle(spec) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_squeezed_vacuum_identity(self, r):
        spec, _ = closed_spectrum(make_params(r, 1.0, 1.0))
        assert cf_fidelity_oracle(spec) == pytest.approx(
            tmsvs_fidelity(r), abs=1e-8
        )

    @pytest.mark.parametrize("point", [
        (0.3, 0.2, 0.2),
        (0.5, 0.5, 0.8),
        (0.092, 0.2525, 0.2525),
    ])
    def test_matches_cartesian_quadrature(self, point):
        spec, _ = closed_spectrum(make_params(*point))
        radial = cf_fidelity_oracle(spec)
        cartesian = _cartesian_fidelity(spec.weights)
        assert radial == pytest.approx(cartesian, abs=1e-6)

    def test_fixed_rule_at_a_large_class(self):
        # N = 480: the rule's two node counts agree far inside the check's
        # 1e-9, and the quadrature meets the truncation-free closed form.
        params = make_params(2.0, 0.9, 0.95)
        spec, _ = closed_spectrum(params)
        w = spec.weights
        N = len(w) - 1
        assert N == 480
        f1, f2 = (w @ _table_for(N, q)[: N + 1, : N + 1] @ w
                  for q in (QUAD_POINTS, 2 * QUAD_POINTS))
        assert abs(f2 - f1) < 1e-13
        assert abs(cf_fidelity_oracle(spec) - closed_measures(2.0, 0.9, 0.95)[2]) < 1e-12
