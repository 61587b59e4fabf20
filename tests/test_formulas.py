"""Tests of the closed-form expressions against limits, symmetries and
the direct weight sums."""

import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lqcat import formulas
from lqcat.formulas import (
    closed_entropy,
    closed_head,
    closed_measures,
    closed_photons,
    closed_spectrum,
    closed_weights,
    epr_closed,
    fidelity_closed,
    mean_photon_a,
    mean_photon_b,
    pair_correlation,
    success_probability,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from lqcat.model import (
    NORM_FLOOR,
    DegeneratePostselectionError,
    choose_truncation,
    entropy_of,
    epr_of,
    make_params,
)
from lqcat.oracle import catalyze_oracle, cf_fidelity_oracle
from lqcat.report import report

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
        raw = closed_weights(params.r, params.T1, params.T2, N)
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

    def test_degenerate_point_raises(self):
        # T1 = 0 with a balanced second splitter kills every weight.
        with pytest.raises(DegeneratePostselectionError):
            success_probability(make_params(1.0, 0.0, 0.5))
        with pytest.raises(DegeneratePostselectionError):
            report(make_params(1.0, 0.0, 0.5))


def _reference_measures(r, T1, T2):
    """p_cd, EPR variance and fidelity at 40 digits from the weights.

    p_cd, <n> and <ab> are the literal sums over the weights
    tanh(r)^n / cosh(r) g_n(T1) g_n(T2), g_n(T) = ((n+1) T - n) t^(n-1),
    continued until a weight drops below 1e-48.  The fidelity is
    sum_{m,n} w_m w_n C(m+n, m) / 2^(m+n+1) grouped by k = m + n, where
    D(k) = 2^-k sum_m C(k, m) Q(m) Q(k-m) is a polynomial of degree <= 4
    in k (binomial moments of a quartic in m): it is summed literally for
    k <= 4, extended by Newton's forward differences, and the extension
    is checked against the literal sum at larger k.
    """
    with mpmath.workdps(40):
        r, T1, T2 = mpmath.mpf(r), mpmath.mpf(T1), mpmath.mpf(T2)
        u, ch = mpmath.tanh(r), mpmath.cosh(r)
        t12 = mpmath.sqrt(T1) * mpmath.sqrt(T2)
        floor = mpmath.mpf(10) ** -48

        def Q(n):
            return ((n + 1) * T1 - n) * ((n + 1) * T2 - n)

        w = [t12 / ch]
        while len(w) < 12 or abs(w[-1]) > floor or abs(w[-2]) > floor:
            n = len(w)
            w.append(u**n / ch * Q(n) * t12 ** (n - 1))
        p_cd = mpmath.fsum(v * v for v in w)
        if p_cd == 0:
            return 0.0, math.nan, math.nan
        n_mean = mpmath.fsum(n * v * v for n, v in enumerate(w)) / p_cd
        ab = mpmath.fsum((n + 1) * w[n] * w[n + 1] for n in range(len(w) - 1)) / p_cd
        epr = 2 * (1 + 2 * n_mean - 2 * ab)

        def D_literal(k):
            return mpmath.fsum(mpmath.binomial(k, m) * Q(m) * Q(k - m)
                               for m in range(k + 1)) / mpmath.mpf(2) ** k

        diffs, row = [], [D_literal(k) for k in range(5)]
        while row:
            diffs.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]

        def D(k):  # sum_j diffs[j] C(k, j), nested
            acc = diffs[4]
            for j in (3, 2, 1, 0):
                acc = diffs[j] + acc * (k - j) / (j + 1)
            return acc

        for k in (5, 8, 13):
            assert abs(D(k) - D_literal(k)) <= mpmath.mpf(10) ** -30 * (1 + abs(D(k)))
        # sum_k D(k) q^k / (T1 T2), with q^k / (T1 T2) = t12^(k-2) u^k.
        # D(0) = (T1 T2)^2 and D(1) = T1 T2 Q(1) carry the 1/(T1 T2).
        overlap = T1 * T2 + Q(1) * t12 * u + mpmath.fsum(
            D(k) * t12 ** (k - 2) * u**k for k in range(2, len(w) + 40))
        fidelity = overlap / (2 * p_cd * ch**2)
        return float(p_cd), float(epr), float(fidelity)


unit = st.floats(0.0, 1.0)


class TestClosedMeasures:
    @example(1.0, 1e-12, 0.3)
    @example(0.5, 1e-16, 0.7)
    @example(2.0, 0.999, 0.999)  # q -> 1: 1 - q^2 = 0.0725
    @example(1.0, 0.5, 1e-4)  # Hong-Ou-Mandel zero Q(1) = 0 at T1 = 1/2
    @example(2.0, 0.5, 0.5)  # truncated sums miss F by 1.3e-11 here
    @example(1.5, 0.0, 0.3)
    @example(1.5, 1e-16, 1e-16)
    @example(1.5, 1e-12, 1e-12)
    @example(1.5, 0.5, 0.5)
    @example(2.0, 1.0, 1.0)
    @example(0.7, 1.0, 0.0)
    @example(0.0, 0.3, 0.4)
    @given(st.floats(0.0, 2.0), unit, unit)
    @settings(max_examples=40, deadline=None)
    @seed(20261018)
    def test_against_40_digit_sums(self, r, T1, T2):
        p_cd, epr, fidelity = closed_measures(r, T1, T2)
        p_ref, epr_ref, fid_ref = _reference_measures(r, T1, T2)
        if p_ref <= NORM_FLOOR:
            assert p_cd <= NORM_FLOOR
            assert math.isnan(epr) and math.isnan(fidelity)
            return
        assert p_cd == pytest.approx(p_ref, rel=1e-13, abs=0.0)
        assert epr == pytest.approx(epr_ref, rel=0.0, abs=1e-13)
        assert fidelity == pytest.approx(fid_ref, rel=0.0, abs=1e-13)

    @example(0.3, 0.0, 0.0)
    @example(0.3, 1.0, 1.0)
    @example(2.3, 1.0, 1.0)
    @example(2.3, 0.0, 1.0)
    @example(0.78, 0.226, 0.226)
    @example(2.0, 2 / 3, 2 / 3)  # Q(2) = 0
    @example(1e-9, 0.5, 0.5)
    @example(0.0, 0.3, 0.4)
    @given(st.floats(0.0, 2.3), unit, unit)
    @settings(max_examples=60, deadline=None)
    @seed(20261020)
    def test_photons_give_the_spectrum_mean(self, r, T1, T2):
        # <n> = p_1 + 2 rho + excess, each part a closed-form sum, against
        # sum_n n w_n^2 of the truncated spectrum.
        p0, p1, rho, excess = closed_photons(closed_head(r, T1, T2))
        try:
            spectrum, _ = closed_spectrum(make_params(r, T1, T2))
        except DegeneratePostselectionError:
            assert np.isnan([p0, p1, rho, excess]).all()
            return
        p = spectrum.weights**2
        assert p1 + 2.0 * rho + excess == pytest.approx(p @ np.arange(len(p)),
                                                        rel=1e-13, abs=0.0)
        assert p0 + p1 + rho == pytest.approx(1.0, abs=1e-15)

    def test_broadcast_matches_scalar(self):
        T1 = np.array([0.0, 1e-16, 0.3, 0.5, 1.0])[:, None]
        T2 = np.array([0.0, 0.2, 0.5, 1.0])
        batch = closed_measures(0.9, T1, T2)
        for i, a in enumerate(T1[:, 0]):
            for j, b in enumerate(T2):
                scalar = closed_measures(0.9, float(a), float(b))
                for got, want in zip(batch, scalar):
                    assert got.shape == (5, 4)
                    assert got[i, j] == pytest.approx(want, rel=1e-14, abs=0.0,
                                                      nan_ok=True)
        # Lists are taken as arrays; they used to raise a bare TypeError.
        T = [0.2, 0.5]
        for lists, arrays in ((((0.9, T1.tolist(), T2.tolist())), (0.9, T1, T2)),
                              ((0.3, T, T), (0.3, np.array(T), np.array(T))),
                              (([0.1, 0.2], 0.5, 0.5), (np.array([0.1, 0.2]), 0.5, 0.5))):
            for got, want in zip(closed_measures(*lists), closed_measures(*arrays)):
                assert got.tobytes() == want.tobytes(), lists

    def test_r_axis_matches_scalar_r(self):
        # numpy's tanh differs from libm's in the last place at the first
        # six r, and np.cosh(r)**2 from math.cosh(r)**2 at the last three,
        # so an r axis built on either would move its cells off the rows.
        # Along r the entropy's truncation classes mix, at T = 1 from
        # N = 30 to 1920.
        r = np.array([0.05, 0.15, 0.6, 0.8, 1.5, 2.1, 0.4, 0.65, 0.9])
        assert np.all(np.tanh(r[:6]) != [math.tanh(x) for x in r[:6]])
        assert np.all(np.cosh(r[6:]) ** 2 != [math.cosh(x) ** 2 for x in r[6:]])
        T = np.array([0.0, 0.1, 0.5, 2 / 3, 0.9, 1.0])
        grid = closed_measures(r[:, None], T, T) + (closed_entropy(r[:, None], T, T),)
        for i, x in enumerate(r.tolist()):
            row = closed_measures(x, T, T) + (closed_entropy(x, T, T),)
            for got, want in zip(grid, row):
                assert got[i].tobytes() == want.tobytes(), x
        # Lists are taken as arrays; they used to raise a bare TypeError.
        lists = (r[:, None].tolist(), T.tolist(), T.tolist())
        for got, want in zip(closed_measures(*lists) + (closed_entropy(*lists),), grid):
            assert got.tobytes() == want.tobytes()
        for args in ((r.tolist(), 0.5, 0.5), (r[:2, None].tolist(), T.tolist(), 0.5)):
            arrays = [np.array(a) if isinstance(a, list) else a for a in args]
            assert closed_entropy(*args).tobytes() == closed_entropy(*arrays).tobytes()
            assert (closed_weights(*args, 30).tobytes()
                    == closed_weights(*arrays, 30).tobytes())

    def test_identity_line(self):
        for r in (0.0, 0.3, 1.0, 2.0):
            p_cd, epr, fidelity = closed_measures(r, 1.0, 1.0)
            assert p_cd == pytest.approx(1.0, rel=1e-14)
            assert epr == pytest.approx(tmsvs_epr(r), rel=1e-13)
            assert fidelity == pytest.approx(tmsvs_fidelity(r), rel=1e-14)


class TestSchmidtWeights:
    def test_vector_matches_scalar(self):
        # Broadcasting over (T1, T2) gives every point its own weights.
        T1 = np.array([0.0, 0.3, 0.5, 1.0])[:, None]
        T2 = np.array([0.2, 0.7, 1.0])
        batch = closed_weights(0.4, T1, T2, 12)
        assert batch.shape == (4, 3, 13)
        for i, a in enumerate(T1[:, 0]):
            for j, b in enumerate(T2):
                scalar = closed_weights(0.4, a, b, 12)
                assert np.array_equal(batch[i, j], scalar)

    @pytest.mark.parametrize("N", [7, 12, 500])
    def test_terms_match_the_formula(self, N):
        # w~_n = tanh(r)^n / cosh(r) g_n(T1) g_n(T2), g_0(T) = t and
        # g_n(T) = ((n+1) T - n) t^(n-1), in Python floats term by term.
        # N = 7, 12 and 500 are no truncation class, so they take the
        # per-call constants; scalar and array T take their own paths.
        def g(n, T):
            t = math.sqrt(T)
            return t if n == 0 else ((n + 1) * T - n) * t ** (n - 1)

        for r, T1, T2 in ((0.7, 0.3, 0.8), (1.9, 2 / 3, 1.0), (2.3, 0.999, 0.9),
                          (0.4, 0.5, 0.5), (1.0, 0.0, 0.3), (0.0, 0.6, 0.6)):
            u, ch = math.tanh(r), math.cosh(r)
            expected = np.array([u**n / ch * g(n, T1) * g(n, T2)
                                 for n in range(N + 1)])
            for got in (closed_weights(r, T1, T2, N),
                        closed_weights(r, np.array([T1]), np.array(T2), N)[0]):
                assert got.shape == (N + 1,)
                # numpy's pow may differ from libm's in the last bit;
                # exact zeros (T = 1/2, 2/3 or 0) stay exact.
                np.testing.assert_allclose(got, expected, rtol=2e-15, atol=1e-300)
                assert np.array_equal(got == 0.0, expected == 0.0)

    def test_returned_weights_are_the_callers(self):
        # The per-N constants are shared and read-only; a returned array
        # is fresh, so writing into it changes no later result.
        for N in (30, 60, 2048, 7):
            for T1, T2 in ((0.3, 0.8), (0.4, 0.4), (np.array([0.2, 0.9]), 0.5)):
                first = closed_weights(1.2, T1, T2, N)
                expected = first.copy()
                first[...] = 99.0
                assert np.array_equal(closed_weights(1.2, T1, T2, N), expected)

    def test_point_factor_is_the_array_factor(self):
        # A float T builds its factor from math.sqrt, an array T from
        # np.sqrt; both give the broadcast call's cell bit for bit.
        T = np.array([-0.0, 0.0, 1e-300, 0.25, 0.5, 2 / 3, 0.999, 1.0])
        for N in (30, 480):
            grid = closed_weights(1.7, T[:, None], T, N)
            for i, a in enumerate(T.tolist()):
                for j, b in enumerate(T.tolist()):
                    point = closed_weights(1.7, a, b, N)
                    assert point.tobytes() == grid[i, j].tobytes(), (a, b)

    def test_pair_terms_are_the_whole_tables_rows(self):
        # _pair_terms, the entropy kernel's pair tables, builds each
        # axis' G_n and log2 G_n over the T that its pairs read: a slice
        # of their span where the pairs are dense, the distinct T where
        # they are sparse.  Either way each pair's row is the one from
        # tables of the whole axes, bit for bit.  A symmetric row's pairs,
        # (T, T) from one axis and one index, take one table, and give
        # the same bits as the general route.
        T1 = np.array([0.0, 0.4, 2 / 3, 1.0])
        T2 = np.array([0.2, 0.5, 0.7, 0.9, 1.0])
        for A, B in ((T1, T2), (T2, T2.copy()), (T1, T1)):
            i, j = (k.ravel() for k in np.indices((len(A), len(B))))
            (GA, LA), (GB, LB) = formulas._tables(A, 30), formulas._tables(B, 30)
            whole = (GA[i] * GB[j]) * (LA[i] + LB[j])
            for at in (np.arange(len(i)), np.arange(7, 19), np.array([0, 13, 19]),
                       np.array([4, 5, 6, 15, 16, 17, 19])):
                at = np.unique(at % len(i))
                got = formulas._pair_terms(A, i[at], B, j[at], slice(None), 30)
                assert got.tobytes() == whole[at].tobytes()
        k = np.arange(len(T2))
        symmetric = formulas._pair_terms(T2, k, T2, k, slice(None), 30)
        general = formulas._pair_terms(T2, k, T2.copy(), k.copy(), slice(None), 30)
        assert symmetric.tobytes() == general.tobytes()

    def test_normalized_when_given_pcd(self):
        params = make_params(0.4, 0.3, 0.7)
        spec, p = closed_spectrum(params)
        raw = closed_weights(params.r, params.T1, params.T2, len(spec.weights) - 1)
        assert np.allclose(spec.weights, raw / math.sqrt(p), rtol=1e-14, atol=0.0)

    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_three_term_state_form(self, params):
        # The projected state is (c0 + c1 a+b+ + c2 a+^2 b+^2) applied to a
        # squeezed vacuum of parameter lam, which pins every weight to
        # w_n = [c0 q^n + c1 n q^(n-1) + c2 n(n-1) q^(n-2)] / cosh(lam).
        # The coefficients, normalized by the heralding probability:
        R1, R2 = 1.0 - params.T1, 1.0 - params.T2  # squared reflectances
        u = math.tanh(params.r)
        p = success_probability(params)
        denom = math.sqrt(p) * math.cosh(params.r)
        ch = math.cosh(params.lam)
        c0 = params.t1 * params.t2 * ch / denom
        c1 = (R1 * R2 - R1 * params.T2 - R2 * params.T1) * u * ch / denom
        c2 = R1 * R2 * u * math.sinh(params.lam) / denom
        q = math.tanh(params.lam)
        weights = closed_weights(params.r, params.T1, params.T2, 7) / math.sqrt(p)
        for n in range(8):
            expect = c0 * q**n
            if n >= 1:
                expect += c1 * n * q ** (n - 1)
            if n >= 2:
                expect += c2 * n * (n - 1) * q ** (n - 2)
            expect /= math.cosh(params.lam)
            assert weights[n] == pytest.approx(expect, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("route", [closed_spectrum, catalyze_oracle],
                             ids=["closed_spectrum", "catalyze_oracle"])
    @example(2.3, 0.575, 0.35)  # N = 30 drops 8.4e-17 of the norm, the most seen
    @example(2.0, 1.0, 1.0)
    @example(2.4, 1.0, 1.0)  # N held at MAX_TRUNCATION
    @example(2.409, 1.0, 1.0)
    @given(st.floats(0.0, 2.4), unit, unit)
    @settings(max_examples=100, deadline=None)
    @seed(20261019)
    def test_truncated_norm_is_pcd(self, route, r, T1, T2):
        # The squared norm of the weights up to N, which is the route's
        # p_cd, against the closed-form sum over all n: a dropped tail
        # shows as a relative shortfall.
        params = make_params(r, T1, T2)
        p_exact = closed_measures(r, T1, T2)[0]
        if p_exact <= NORM_FLOOR:
            with pytest.raises(DegeneratePostselectionError):
                route(params)
            return
        _, p_trunc = route(params)
        assert abs(1.0 - p_trunc / p_exact) <= 1e-14


class TestChainRuleEntropy:
    # r = 0: log2 tanh^2 r is -inf, against a zero mass beyond n = 1.
    @example(0.0, 0.5, 0.5)
    @example(0.7, 0.0, 0.4)  # T = 0: only n = 1 can survive
    @example(1.2, 2 / 3, 0.3)  # g_2(2/3) = 0: a zero weight inside the sum
    @example(1.9, 0.75, 0.75)  # g_3(3/4) = 0
    @example(1.0, 0.0, 0.3)  # one weight left: exactly 0 bits
    @example(1.0, 0.0, 0.5)  # no weight left: p_cd = 0, NaN
    @example(0.0, 1e-160, 1e-160)  # p_cd = 1e-320 is not above NORM_FLOOR: NaN
    @example(2.4, 1.0, 1.0)  # N = 2048
    @given(st.floats(0.0, 2.4), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    @seed(26)
    def test_equals_the_per_weight_sum(self, r, T1, T2):
        # The independent route: square and normalise the N + 1 weights
        # of closed_weights, at the N of choose_truncation, and sum
        # -p log2 p over them, 0 log2 0 := 0.
        N = choose_truncation(make_params(r, T1, T2))
        w = closed_weights(r, T1, T2, N)
        p_cd = float(np.sum(w * w))
        got = closed_entropy(r, T1, T2)
        if not p_cd > NORM_FLOOR:
            assert math.isnan(got)
            return
        p = w * w / p_cd
        want = float(-np.sum(p * np.log2(np.where(p > 0.0, p, 1.0))))
        assert abs(got - want) <= 1e-14
        if want == 0.0:
            assert got == 0.0


class TestMomentPolynomials:
    def test_duality_under_swap(self):
        # <a+a> and <b+b> swap by construction (mean_photon_b reads the X
        # table at the swapped point); the printed <ab> table must be
        # symmetric on its own.
        params = make_params(0.6, 0.3, 0.8)
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
        # T1 = T2 = 1 instead of the baseline (1 + tanh r)/2, which the CF
        # quadrature does give; both the collapse and the mismatch are
        # locked in here.
        r = 0.5
        params = make_params(r, 1.0, 1.0)
        printed = fidelity_closed(params)
        quadrature = cf_fidelity_oracle(closed_spectrum(params)[0])
        assert printed == pytest.approx(
            math.exp(-4 * r) * math.cosh(r) ** 4 / 2.0, abs=1e-12
        )
        assert quadrature == pytest.approx(tmsvs_fidelity(r), abs=1e-8)
        assert abs(printed - quadrature) > 1e-6

    def test_zero_squeezing_agrees(self):
        params = make_params(0.0, 0.7, 0.4)
        printed = fidelity_closed(params)
        assert printed == pytest.approx(0.5, abs=1e-12)
        assert abs(printed - cf_fidelity_oracle(closed_spectrum(params)[0])) <= 1e-6


class TestBaselines:
    def test_entropy_at_zero(self):
        assert tmsvs_entropy(0.0) == 0.0
        # sinh(r)^2 underflows to 0 here, and so does the entropy (~1e-397).
        assert tmsvs_entropy(1e-200) == 0.0

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

    @pytest.mark.parametrize("r", [1e-150, 1e-8, 0.784, 2.4, 5.0, 10.0, 15.0,
                                   18.0, 19.0, 20.0, 40.0, 100.0, 300.0, 355.0])
    def test_entropy_against_mpmath(self, r):
        # (1+x) log2(1+x) - x log2(x) cancelled: 1.5e-4 relative error at
        # r = 15, 0.35 at r = 18 and 0 returned from r = 19 on.  The
        # reference needs 400 digits: at 50, 1 + x rounds to x at r = 100.
        with mpmath.workdps(400):
            x = mpmath.sinh(mpmath.mpf(r)) ** 2
            expect = ((1 + x) * mpmath.log(1 + x) - x * mpmath.log(x)) / mpmath.log(2)
        assert tmsvs_entropy(r) == pytest.approx(float(expect), rel=1e-15, abs=0.0)

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
