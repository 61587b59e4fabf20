"""Tests of the closed-form expressions against limits, symmetries and
the direct weight sums."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqcat.formulas
from lqcat.formulas import (
    closed_spectrum,
    closed_weights,
    epr_closed,
    fidelity_closed,
    mean_photon_a,
    mean_photon_b,
    pair_correlation,
    state_coefficients,
    success_probability,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
    unnormalized_weights,
)
from lqcat.model import ParameterError, entropy_of, epr_of, make_params

params_strategy = st.builds(
    make_params,
    st.floats(0.01, 1.5),
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
)


class TestSuccessProbability:
    def test_known_point(self):
        assert success_probability(make_params(0.5, 0.5, 0.5)) == pytest.approx(
            0.19780543928223357, abs=1e-15
        )

    def test_identity_line(self):
        for r in (0.1, 0.5, 1.2):
            assert success_probability(make_params(r, 1.0, 1.0)) == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_zero_squeezing(self):
        # Without squeezing each ancilla photon just has to pass through.
        assert success_probability(make_params(0.0, 0.3, 0.4)) == (
            pytest.approx(0.12, abs=1e-15)
        )

    # The printed polynomial is 3.8e-12 relatively wrong here.
    @example(make_params(1.5, 1.0, 0.9375))
    @given(params_strategy)
    @settings(max_examples=100, deadline=None)
    def test_equals_squared_norm_of_weights(self, params):
        N = 250
        raw = unnormalized_weights(params, N)
        assert success_probability(params) == pytest.approx(
            float(np.sum(raw**2)), rel=1e-12, abs=1e-15
        )

    @example(make_params(1.5, 1.0, 0.9375))
    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_under_beam_splitter_swap(self, params):
        assert success_probability(params) == pytest.approx(
            success_probability(params.swapped()), rel=1e-12, abs=1e-15
        )


class TestSchmidtWeights:
    def test_vector_matches_scalar(self):
        # Broadcasting over (T1, T2) gives every point its own weights.
        T1 = np.array([0.0, 0.3, 0.5, 1.0])[:, None]
        T2 = np.array([0.2, 0.7, 1.0])
        batch = closed_weights(0.4, T1, T2, 12)
        assert batch.shape == (4, 3, 13)
        for i, a in enumerate(T1[:, 0]):
            for j, b in enumerate(T2):
                scalar = unnormalized_weights(make_params(0.4, a, b), 12)
                assert np.array_equal(batch[i, j], scalar)

    def test_normalized_when_given_pcd(self):
        params = make_params(0.4, 0.3, 0.7)
        spec, p = closed_spectrum(params)
        raw = unnormalized_weights(params, spec.truncation)
        assert np.allclose(spec.weights, raw / math.sqrt(p), rtol=1e-14, atol=0.0)

    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_three_term_state_form(self, params):
        # The projected state is (c0 + c1 a+b+ + c2 a+^2 b+^2) applied to a
        # squeezed vacuum of parameter lam, which pins every weight to
        # w_n = [c0 q^n + c1 n q^(n-1) + c2 n(n-1) q^(n-2)] / cosh(lam).
        coeff = state_coefficients(params)
        q = math.tanh(params.lam)
        p = success_probability(params)
        weights = unnormalized_weights(params, 7) / math.sqrt(p)
        for n in range(8):
            expect = coeff.c0 * q**n
            if n >= 1:
                expect += coeff.c1 * n * q ** (n - 1)
            if n >= 2:
                expect += coeff.c2 * n * (n - 1) * q ** (n - 2)
            expect /= math.cosh(params.lam)
            assert weights[n] == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_closed_spectrum_normalized_and_tailed(self):
        spec, p = closed_spectrum(make_params(0.9, 0.8, 0.6))
        assert float(np.sum(spec.weights**2)) == pytest.approx(1.0, abs=1e-12)
        assert spec.tail_bound < 1e-14

    def test_truncation_doubling_is_capped(self, monkeypatch):
        # A tail bound that never converges doubles N up to the cap, then stops.
        monkeypatch.setattr(lqcat.formulas, "tail_estimate", lambda w, q: math.inf)
        with pytest.raises(ParameterError, match="cap"):
            closed_spectrum(make_params(0.5, 0.5, 0.5))


class TestMomentPolynomials:
    def test_duality_under_swap(self):
        params = make_params(0.6, 0.3, 0.8)
        assert mean_photon_a(params) == pytest.approx(
            mean_photon_b(params.swapped()), rel=1e-12
        )
        assert pair_correlation(params) == pytest.approx(
            pair_correlation(params.swapped()), rel=1e-12
        )

    def test_identity_line_recovers_squeezed_vacuum(self):
        for r in (0.1, 0.5, 1.0):
            params = make_params(r, 1.0, 1.0)
            sh2 = math.sinh(r) ** 2
            assert mean_photon_a(params) == pytest.approx(sh2, abs=1e-10)
            assert mean_photon_b(params) == pytest.approx(sh2, abs=1e-10)
            assert pair_correlation(params) == pytest.approx(
                math.sinh(r) * math.cosh(r), abs=1e-10
            )
            assert epr_closed(params) == pytest.approx(
                2.0 * math.exp(-2.0 * r), abs=1e-10
            )

    def test_published_moments_disagree_with_spectrum_off_identity_line(self):
        # Documented defect of the published second-moment polynomials:
        # away from T = 1 they do not reproduce the exact spectrum (the
        # printed <a+a> is even negative here), so the spectrum-based EPR
        # variance is the authoritative one everywhere downstream.
        params = make_params(0.5, 0.5, 0.5)
        spec, _ = closed_spectrum(params)
        assert mean_photon_a(params) < 0.0
        assert abs(epr_closed(params) - epr_of(spec)) > 0.1

    def test_epr_closed_known_value(self):
        assert epr_closed(make_params(0.5, 0.5, 0.5)) == pytest.approx(
            1.5034469180313983, abs=1e-12
        )


class TestFidelityPolynomial:
    def test_identity_line_collapse(self):
        # The published polynomial reduces to exp(-4r) cosh(r)^4 / 2 at
        # T1 = T2 = 1 instead of the baseline (1 + tanh r)/2; both the
        # collapse and the mismatch flag are locked in here.
        r = 0.5
        fc = fidelity_closed(make_params(r, 1.0, 1.0))
        assert fc.value == pytest.approx(
            math.exp(-4 * r) * math.cosh(r) ** 4 / 2.0, abs=1e-12
        )
        assert fc.oracle_value == pytest.approx(tmsvs_fidelity(r), abs=1e-8)
        assert fc.oracle_mismatch is True

    def test_zero_squeezing_agrees(self):
        fc = fidelity_closed(make_params(0.0, 0.7, 0.4))
        assert fc.value == pytest.approx(0.5, abs=1e-12)
        assert fc.oracle_mismatch is False

    def test_check_skip(self):
        fc = fidelity_closed(make_params(0.3, 0.5, 0.5), check=False)
        assert fc.oracle_value is None
        assert fc.oracle_mismatch is None


class TestBaselines:
    def test_entropy_at_zero(self):
        assert tmsvs_entropy(0.0) == 0.0

    @pytest.mark.parametrize("r", [1e-5, 1e-3, 0.1, 2.0])
    def test_entropy_against_decimal_reference(self, r):
        # (1+x) log2(1+x) - x log2(x), x = sinh(r)^2, at 40 digits.  The
        # cosh^2/sinh^2 form cancelled: 3.4e-9 relative error at r = 1e-5.
        with localcontext() as ctx:
            ctx.prec = 40
            e = Decimal(r).exp()
            x = ((e - 1 / e) / 2) ** 2
            expect = ((1 + x) * (1 + x).ln() - x * x.ln()) / Decimal(2).ln()
        assert tmsvs_entropy(r) == pytest.approx(float(expect), rel=1e-14, abs=0.0)

    def test_entropy_matches_direct_sum(self):
        r = 0.5
        spec, _ = closed_spectrum(make_params(r, 1.0, 1.0))
        assert tmsvs_entropy(r) == pytest.approx(entropy_of(spec), abs=1e-12)

    def test_epr_and_fidelity_values(self):
        assert tmsvs_epr(0.5) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
        assert tmsvs_fidelity(0.0) == 0.5
        assert tmsvs_fidelity(2.0) == pytest.approx(
            (1 + math.tanh(2.0)) / 2, abs=1e-15
        )
