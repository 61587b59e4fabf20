"""Tests of the brute-force routes: sector-exact circuit simulation and
the characteristic-function fidelity quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from lqcat.formulas import closed_spectrum, tmsvs_fidelity
from lqcat.model import make_params, normalize_weights
from lqcat.oracle import bs_sector, catalyze_oracle, cf_fidelity_oracle


class TestSectorUnitary:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_unitary(self, m):
        U = bs_sector(0.7, m)
        assert np.allclose(U @ U.T, np.eye(m + 1), atol=1e-13)

    def test_negative_sector_rejected(self):
        with pytest.raises(ValueError):
            bs_sector(0.3, -1)

    def test_matches_dense_two_mode_beam_splitter(self):
        # Apply the full two-mode unitary exp[theta (a+c - a c+)] on a
        # truncated Fock lattice and compare sector blocks element-wise.
        theta = 0.6
        D = 24
        a = np.kron(np.diag(np.sqrt(np.arange(1, D)), 1), np.eye(D))
        c = np.kron(np.eye(D), np.diag(np.sqrt(np.arange(1, D)), 1))
        U = expm(theta * (a.T @ c - a @ c.T))

        def idx(na, nc):
            return na * D + nc

        for m in (0, 1, 3, 6):
            sector = bs_sector(theta, m)
            for j_out in range(m + 1):
                for j_in in range(m + 1):
                    dense = U[idx(m - j_out, j_out), idx(m - j_in, j_in)]
                    assert sector[j_out, j_in] == pytest.approx(dense, abs=1e-12)


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
    @given(
        st.floats(0.01, 1.5),
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


def _cartesian_fidelity(weights, nodes=48):
    """Independent 2-D Gauss-Hermite CF overlap with dense operators."""
    D = len(weights) + 25
    a = np.diag(np.sqrt(np.arange(1, D)), 1)
    w = np.zeros(D)
    w[: len(weights)] = weights
    xg, wg = hermgauss(nodes)
    total = 0.0
    for xi, wxi in zip(xg, wg):
        for yi, wyi in zip(xg, wg):
            z = xi + 1j * yi
            Dz = expm(z * a.T.conj() - np.conj(z) * a)
            Dzs = expm(np.conj(z) * a.T.conj() - z * a)
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

    def test_node_count_validation(self):
        spec, _ = normalize_weights(np.array([1.0]))
        with pytest.raises(ValueError):
            cf_fidelity_oracle(spec, quad_points=1)
