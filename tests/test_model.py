"""Unit tests for parameter handling and spectrum measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqcat.model import (
    MAX_TRUNCATION,
    DegeneratePostselectionError,
    ParameterError,
    SchmidtSpectrum,
    choose_truncation,
    entropy_of,
    epr_of,
    make_params,
    normalize_weights,
    tail_estimate,
)


class TestMakeParams:
    def test_derived_fields(self):
        p = make_params(0.5, 0.49, 0.81)
        assert p.t1 == pytest.approx(0.7)
        assert p.t2 == pytest.approx(0.9)
        assert math.tanh(p.lam) == pytest.approx(0.63 * math.tanh(0.5))

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
            SchmidtSpectrum(np.array([0.5, 0.5]), truncation=1, tail_bound=0.0)

    def test_degenerate_norm(self):
        with pytest.raises(DegeneratePostselectionError):
            normalize_weights(np.zeros(4))

    def test_signs_preserved(self):
        spec, _ = normalize_weights(np.array([1.0, -1.0]))
        assert spec.weights[1] < 0.0


class TestTruncation:
    def test_floor(self):
        assert choose_truncation(make_params(0.0, 0.5, 0.5)) == 30

    def test_monotone_in_r(self):
        ns = [choose_truncation(make_params(r, 0.9, 0.9)) for r in (0.5, 1.0, 1.5)]
        assert ns == sorted(ns)

    def test_tail_estimate_covers_geometric_tail(self):
        q = 0.6
        w = q ** np.arange(41)
        w = w / math.sqrt(float(np.sum(w**2)))
        exact_tail = float(np.sum((q ** np.arange(41, 400)) ** 2)) / (
            float(np.sum((q ** np.arange(41)) ** 2))
        )
        assert tail_estimate(w, q) >= exact_tail

    def test_cap(self):
        # (2, 1, 1), the end of the threshold bracket, is the largest N in
        # use.  r = 5 needed N = 514,619 (overlap tables of ~2 TB) and r = 8
        # searched for over 20 s; both now stop at the cap, allocating nothing.
        assert choose_truncation(make_params(2.0, 1.0, 1.0)) == 844
        for r in (5.0, 8.0):
            with pytest.raises(ParameterError, match=str(MAX_TRUNCATION)):
                choose_truncation(make_params(r, 1.0, 1.0))

    def test_eps_validation(self):
        with pytest.raises(ParameterError):
            choose_truncation(make_params(0.5, 0.5, 0.5), eps=0.0)


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
