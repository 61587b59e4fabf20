"""Unit tests for parameter handling and spectrum measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqcat.model import (
    ENTROPY_CLASSES,
    ENTROPY_EPS_TRUNC,
    MAX_TRUNCATION,
    NORM_FLOOR,
    Q_CAP,
    R_MAX,
    DegeneratePostselectionError,
    ParameterError,
    SchmidtSpectrum,
    check_norm,
    choose_truncation,
    entropy_of,
    epr_of,
    make_params,
    normalize_weights,
)


class TestMakeParams:
    def test_derived_fields(self):
        p = make_params(0.5, 0.49, 0.81)
        assert p.t1 == pytest.approx(0.7)
        assert p.t2 == pytest.approx(0.9)
        assert math.tanh(p.lam) == pytest.approx(0.63 * math.tanh(0.5))

    def test_r_max(self):
        # The largest r at which sinh(r)^2 and cosh(r)^2 are finite.
        assert math.isfinite(math.sinh(R_MAX) ** 2)
        make_params(R_MAX, 0.5, 0.5)
        with pytest.raises(ParameterError, match="R_MAX"):
            make_params(math.nextafter(R_MAX, math.inf), 0.5, 0.5)
        with pytest.raises(OverflowError):
            math.sinh(math.nextafter(R_MAX, math.inf)) ** 2

    def test_swapped(self):
        p = make_params(0.3, 0.2, 0.8)
        q = p.swapped()
        assert (q.T1, q.T2) == (p.T2, p.T1)
        assert q.lam == p.lam

    @pytest.mark.parametrize("r,T1,T2", [
        (-0.1, 0.5, 0.5),
        (math.nan, 0.5, 0.5),
        (0.5, -0.01, 0.5),
        (0.5, 0.5, 1.01),
        (0.5, math.inf, 0.5),
        (25.0, 1.0, 1.0),  # t1 t2 tanh(r) rounds to 1
        (356.0, 0.5, 0.5),  # sinh(r)^2 overflows
    ])
    def test_rejects_bad_inputs(self, r, T1, T2):
        with pytest.raises(ParameterError):
            make_params(r, T1, T2)


class TestSpectrum:
    def test_normalize(self):
        spec, norm2 = normalize_weights(np.array([3.0, 4.0]))
        assert norm2 == pytest.approx(25.0)
        assert spec.weights == pytest.approx([0.6, 0.8])

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum(np.array([0.5, 0.5]))

    def test_degenerate_norm(self):
        with pytest.raises(DegeneratePostselectionError):
            normalize_weights(np.zeros(4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_weights_raise(self):
        # A NaN or infinite squared norm is not a norm: [inf] used to divide
        # to the spectrum [nan] with an "invalid value" warning, and [1e200]
        # overflowed in the square to [0].  Each now raises the typed error
        # that names the norm, with no RuntimeWarning.
        for weights in ([math.nan, 1.0], [math.inf], [-math.inf, 1.0],
                        [1e200], [1e160] * 1000):
            with pytest.raises(DegeneratePostselectionError, match="not finite"):
                normalize_weights(np.array(weights))
        for norm2 in (math.nan, math.inf):
            with pytest.raises(DegeneratePostselectionError, match="not finite"):
                check_norm(norm2)
        with pytest.raises(ValueError):
            SchmidtSpectrum(np.array([math.nan]))

    def test_norm_floor_is_one_boundary(self):
        # normalize_weights accepted a squared norm of exactly NORM_FLOOR,
        # which report and success_probability rejected.
        for norm2 in (math.nan, -math.inf, 0.0, NORM_FLOOR):
            with pytest.raises(DegeneratePostselectionError):
                check_norm(norm2)
        assert check_norm(math.nextafter(NORM_FLOOR, 1.0)) > NORM_FLOOR
        w = np.array([math.sqrt(NORM_FLOOR)])
        assert float(np.sum(w**2)) == NORM_FLOOR
        with pytest.raises(DegeneratePostselectionError):
            normalize_weights(w)

    def test_signs_preserved(self):
        spec, _ = normalize_weights(np.array([1.0, -1.0]))
        assert spec.weights[1] < 0.0


class TestTruncation:
    def test_floor(self):
        assert choose_truncation(make_params(0.0, 0.5, 0.5)) == 30

    def test_monotone_in_r(self):
        ns = [choose_truncation(make_params(r, 0.9, 0.9)) for r in (0.5, 1.0, 1.5)]
        assert ns == sorted(ns)

    def test_cap(self):
        # (2, 1, 1), the end of the threshold bracket, is the largest N in
        # use (844 under the 1e-14 rule, 911 as the smallest N passing the
        # 1e-16 rule, 960 as its class).  r = 5 needed N = 514,619 (overlap
        # tables of ~2 TB) and r = 8 searched for over 20 s; both now stop
        # at the cap, allocating nothing.
        assert choose_truncation(make_params(2.0, 1.0, 1.0)) == 960
        for r in (5.0, 8.0):
            with pytest.raises(ParameterError, match=str(MAX_TRUNCATION)):
                choose_truncation(make_params(r, 1.0, 1.0))


def _scan_truncation(q, eps):
    """The smallest N >= 30 that passes the rule (N+2)^4 q^(2N+2) / (1 - q^2)
    < eps, by a linear scan from the floor; None past MAX_TRUNCATION."""
    N = 30
    q2 = q * q
    while (N + 2) ** 4 * q2 ** (N + 1) / (1.0 - q2) >= eps:
        N += 1
        if N > MAX_TRUNCATION:
            return None
    return N


# The class N of the table, written out: doubling from the floor, then the cap.
CLASS_NS = [30, 60, 120, 240, 480, 960, 1920, MAX_TRUNCATION]


def _table_truncation(q):
    """The rule choose_truncation implements, from scans: the first class
    at or above the smallest N that passes the 1e-16 rule.  Where no N up
    to the cap passes it, MAX_TRUNCATION until the 1e-14 rule fails the
    cap too, and None (a ParameterError) beyond."""
    N = _scan_truncation(q, ENTROPY_EPS_TRUNC)
    if N is None:
        return None if _scan_truncation(q, 1e-14) is None else MAX_TRUNCATION
    return min(n for n in CLASS_NS if n >= N)


def _q_of(params):
    return params.t1 * params.t2 * math.tanh(params.r)


def _at_q(q):
    """A point at q = t1 t2 tanh r: tanh(20) rounds to 1, and
    sqrt(q^2) is q unless q^2 underflows."""
    return make_params(20.0, q * q, 1.0)


def _chosen(params):
    try:
        return choose_truncation(params)
    except ParameterError as exc:
        assert str(MAX_TRUNCATION) in str(exc)
        return None


def _check_first_passing_class(params):
    """choose_truncation is the table rule: its N passes the rule (or is
    the cap), and the class below it does not."""
    q = _q_of(params)
    N = _chosen(params)
    assert N == _table_truncation(q), q
    if N is None:
        return
    smallest = _scan_truncation(q, ENTROPY_EPS_TRUNC)
    assert smallest is None and N == MAX_TRUNCATION or smallest <= N, q
    k = CLASS_NS.index(N)
    assert k == 0 or CLASS_NS[k - 1] < (smallest or math.inf), q


class TestClosedFormTruncation:
    def test_matches_the_scan_on_a_seeded_sample(self):
        rng = np.random.default_rng(2026)
        qs = np.concatenate([[0.0, 1e-200, 0.5, 0.99], rng.uniform(0.0, 1.0, 600),
                             1.0 - rng.uniform(0.0, 0.1, 200) ** 2])
        for q in qs.tolist():
            _check_first_passing_class(_at_q(q))

    def test_matches_the_scan_at_every_threshold(self):
        # A class limit is the largest q its class serves; the next float
        # needs the next class.
        assert [N for N, _ in ENTROPY_CLASSES] == CLASS_NS
        for k, (N, limit) in enumerate(ENTROPY_CLASSES):
            at, above = _at_q(limit), _at_q(math.nextafter(limit, 1.0))
            assert _q_of(at) == limit and _q_of(above) > limit
            assert _chosen(at) == N
            assert _chosen(above) == (CLASS_NS[k + 1] if N < MAX_TRUNCATION
                                      else None)
            _check_first_passing_class(at)
            _check_first_passing_class(above)

    def test_entropy_truncation(self):
        # choose_truncation's N per point, and the domain of the two rules
        # the table replaced.
        assert choose_truncation(make_params(0.5, 0.5, 0.5)) == 30
        assert choose_truncation(make_params(2.0, 0.5, 0.5)) == 60
        assert choose_truncation(make_params(2.0, 0.999, 0.999)) == 960
        # Between the two rules' caps N stays at MAX_TRUNCATION; past
        # Q_CAP, where the 1e-14 rule passes it too, it raises.
        assert choose_truncation(make_params(2.4, 1.0, 1.0)) == MAX_TRUNCATION
        with pytest.raises(ParameterError, match=str(MAX_TRUNCATION)):
            choose_truncation(make_params(2.5, 1.0, 1.0))
        assert _scan_truncation(Q_CAP, 1e-14) == MAX_TRUNCATION
        assert _scan_truncation(math.nextafter(Q_CAP, 1.0), 1e-14) is None
        rng = np.random.default_rng(2027)
        points = [make_params(r, T1, T2) for r, T1, T2 in zip(
            rng.uniform(0.0, 3.0, 400), 1.0 - rng.uniform(0.0, 1.0, 400) ** 3,
            1.0 - rng.uniform(0.0, 1.0, 400) ** 3)]
        # r at T1 = T2 = 1 across atanh(Q_CAP) = 2.4095: evenly from 2.38
        # (where the 1e-16 rule reaches the cap), and float by float.
        lo = hi = math.atanh(Q_CAP)
        near = [lo]
        for _ in range(64):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 3.0)
            near += [lo, hi]
        for rs in (np.linspace(2.38, 2.44, 121).tolist(), near):
            chosen = [_chosen(make_params(r, 1.0, 1.0)) for r in rs]
            assert chosen == [_table_truncation(_q_of(make_params(r, 1.0, 1.0)))
                              for r in rs]
            assert None in chosen and MAX_TRUNCATION in chosen
        for params in points:
            assert _chosen(params) == _table_truncation(_q_of(params)), params

    def test_class_limits_serve_their_class(self):
        # Each limit is the largest q at which its N passes the rule: 1e-16
        # for the doubling classes, 1e-14 for the cap.
        for N, limit in ENTROPY_CLASSES:
            eps = 1e-14 if N == MAX_TRUNCATION else ENTROPY_EPS_TRUNC
            assert _scan_truncation(limit, eps) <= N
            assert (_scan_truncation(math.nextafter(limit, 1.0), eps)
                    or math.inf) > N
        assert ENTROPY_CLASSES[-1] == (MAX_TRUNCATION, Q_CAP)


class TestMeasures:
    def test_entropy_of_pure_fock(self):
        spec, _ = normalize_weights(np.array([0.0, 1.0, 0.0]))
        assert entropy_of(spec) == 0.0

    def test_entropy_of_uniform(self):
        spec, _ = normalize_weights(np.ones(4))
        assert entropy_of(spec) == pytest.approx(2.0)

    def test_epr_of_vacuum(self):
        spec, _ = normalize_weights(np.array([1.0]))
        assert epr_of(spec) == pytest.approx(2.0)

    def test_epr_of_twin_fock(self):
        spec, _ = normalize_weights(np.array([0.0, 1.0]))
        assert epr_of(spec) == pytest.approx(6.0)

    def test_epr_of_squeezed_geometric(self):
        # Geometric weights tanh(r)^n reproduce the 2 exp(-2r) variance.
        r = 0.7
        w = math.tanh(r) ** np.arange(200)
        spec, _ = normalize_weights(w)
        assert epr_of(spec) == pytest.approx(2.0 * math.exp(-2.0 * r), abs=1e-12)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_measures_well_defined_for_any_state(self, raw):
        w = np.asarray(raw)
        if float(np.sum(w**2)) < 1e-6:
            return
        spec, _ = normalize_weights(w)
        ent = entropy_of(spec)
        assert 0.0 <= ent <= math.log2(len(w)) + 1e-12
        # Total variance of a physical state is never negative.
        assert epr_of(spec) >= -1e-12
