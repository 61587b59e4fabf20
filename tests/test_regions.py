"""Tests of sweeps, thresholds, enhancement intervals and the
implication audit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lqcat import regions
from lqcat.formulas import closed_weights
from lqcat.model import (
    DEFAULT_EPS_TRUNC,
    NORM_FLOOR,
    ParameterError,
    choose_truncation,
    make_params,
    normalize_weights,
    tail_estimate,
)
from lqcat.regions import (
    common_region,
    implication_table,
    sweep,
    symmetric_row,
    symmetric_sweep,
    t_range,
    threshold,
)
from lqcat.report import report


class TestSymmetricRow:
    def test_matches_point_reports(self):
        r = 0.3
        T = np.array([0.1, 0.4, 0.8])
        row = symmetric_row(r, T)
        for j, t in enumerate(T):
            rep = report(make_params(r, t, t))
            assert row.pcd[j] == pytest.approx(rep.p_cd, rel=1e-12)
            assert row.entropy[j] == pytest.approx(rep.entropy, abs=1e-12)
            assert row.epr[j] == pytest.approx(rep.epr, abs=1e-12)
            assert row.fidelity[j] == pytest.approx(rep.fidelity, abs=1e-12)
            assert row.deltas("entropy")[j] == pytest.approx(
                rep.entropy_delta, abs=1e-12
            )
            assert row.deltas("epr")[j] == pytest.approx(rep.epr_delta, abs=1e-12)

    def test_identity_line_has_no_enhancement(self):
        for r in (0.1, 0.5, 1.0, 1.8):
            row = symmetric_row(r, np.array([1.0]))
            for q in ("entropy", "epr", "fidelity"):
                assert abs(row.deltas(q)[0]) < 1e-12

    # The largest tail bound found in 2e6 seeded random points is 4.8e-15,
    # at N = 30 near the Hong-Ou-Mandel point T = 1/2.
    @example(1.9744804363110549, 0.5311946681150259, 0.45541764175071353, 1.0, 1.0)
    @example(2.0, 1.0, 1.0, 1.0, 1.0)
    @example(2.0, 1.0, 1.0, 0.5, 0.5)
    @example(2.0, 1.0, 1.0, 1e-16, 0.5)
    @example(1.0, 0.5, 1.0, 1.0, 0.0)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    @seed(5)
    def test_truncation_at_largest_T_covers_the_row(self, r, T1max, T2max, f1, f2):
        # A row builds its entropy weights at the N that choose_truncation
        # gives for its largest T1 and T2.  At every smaller T the tail
        # bound that closed_spectrum enforces must then hold as well.
        N = choose_truncation(make_params(r, T1max, T2max))
        T1, T2 = f1 * T1max, f2 * T2max
        raw = closed_weights(r, T1, T2, N)
        if np.sum(raw**2) < NORM_FLOOR:
            return
        spectrum, _ = normalize_weights(raw)
        q = math.sqrt(T1) * math.sqrt(T2) * math.tanh(r)
        assert tail_estimate(spectrum.weights, q) < DEFAULT_EPS_TRUNC

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            symmetric_row(-0.1, np.array([0.5]))
        with pytest.raises(ParameterError):
            symmetric_row(0.5, np.array([1.5]))


class TestSweep:
    def test_shapes_and_sign_conventions(self):
        grid = sweep("epr", [0.2, 0.5], [0.1, 0.5], [0.1, 0.3, 0.9])
        assert grid.values.shape == (2, 2, 3)
        # Positive delta means the catalyzed variance beat the baseline.
        assert grid.values[0, 0, 0] == pytest.approx(
            grid.baselines[0] - grid.raw[0, 0, 0], abs=1e-15
        )

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity", "pcd"])
    def test_off_diagonal_cells_match_report(self, quantity):
        r_axis, T1_axis, T2_axis = [0.2, 0.6], [0.1, 0.45, 0.9], [0.3, 0.75]
        grid = sweep(quantity, r_axis, T1_axis, T2_axis)
        for i, r in enumerate(r_axis):
            for j, T1 in enumerate(T1_axis):
                for k, T2 in enumerate(T2_axis):
                    rep = report(make_params(r, T1, T2))
                    if quantity == "pcd":
                        assert grid.raw[i, j, k] == pytest.approx(rep.p_cd, rel=1e-12)
                        continue
                    assert grid.raw[i, j, k] == pytest.approx(
                        getattr(rep, quantity), abs=1e-12
                    )
                    assert grid.values[i, j, k] == pytest.approx(
                        getattr(rep, f"{quantity}_delta"), abs=1e-12
                    )

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity", "pcd"])
    def test_swapping_axes_transposes(self, quantity):
        A, B = [0.1, 0.45, 0.9], [0.3, 0.75]
        ab = sweep(quantity, [0.3, 0.7], A, B)
        ba = sweep(quantity, [0.3, 0.7], B, A)
        assert np.allclose(ab.raw, ba.raw.transpose(0, 2, 1), rtol=0.0, atol=1e-13)

    def test_block_size_does_not_change_values(self, monkeypatch):
        args = ("fidelity", [0.3, 0.7], np.linspace(0.05, 0.95, 7), [0.2, 0.5, 0.8])
        whole = sweep(*args)
        monkeypatch.setattr(regions, "SWEEP_BLOCK", 1)  # one T1 per block
        assert np.allclose(sweep(*args).raw, whole.raw, rtol=0.0, atol=1e-15)

    def test_engines_agree(self):
        for quantity in ("entropy", "epr", "fidelity", "pcd"):
            ref = sweep(quantity, [0.4], [0.2, 0.7], [0.3], engine="closed_form")
            alt = sweep(quantity, [0.4], [0.2, 0.7], [0.3], engine="oracle")
            assert np.allclose(ref.values, alt.values, atol=1e-12), quantity

    def test_pcd_identity_cell(self):
        grid = sweep("pcd", [0.5], [1.0], [1.0])
        assert grid.raw[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_point_is_nan(self):
        # T1 = 0 with a balanced second splitter kills every weight.
        grid = sweep("entropy", [0.3], [0.0], [0.5])
        assert math.isnan(grid.values[0, 0, 0])

    def test_grid_cap(self):
        with pytest.raises(ParameterError):
            sweep("entropy", np.zeros(3) + 0.5, np.linspace(0.1, 0.9, 3000),
                  np.linspace(0.1, 0.9, 3000))

    def test_bad_quantity_and_engine(self):
        with pytest.raises(ParameterError):
            sweep("negativity", [0.5], [0.5], [0.5])
        with pytest.raises(ParameterError):
            sweep("entropy", [0.5], [0.5], [0.5], engine="guess")

    def test_symmetric_sweep_is_blocked(self):
        # One unblocked row would hold (len(T), N + 1) weights: a 123 MB
        # peak here.
        r, T = 0.8, np.linspace(0.001, 0.999, 50_000)
        tracemalloc.start()
        try:
            grid = symmetric_sweep("entropy", [r], T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20
        # Each block truncates at its own largest T, as sweep's blocks do, so
        # the values agree with the one-block row to the tail target, not
        # bit for bit (measured: 7.2e-15).
        whole = symmetric_row(r, T).entropy
        assert np.allclose(grid.raw[0], whole, rtol=0.0, atol=DEFAULT_EPS_TRUNC)

    def test_symmetric_sweep_matches_diagonal(self):
        diag = symmetric_sweep("fidelity", [0.3], [0.2, 0.6])
        full = sweep("fidelity", [0.3], [0.2, 0.6], [0.2, 0.6])
        assert diag.values[0, 0] == pytest.approx(full.values[0, 0, 0], abs=1e-12)
        assert diag.values[0, 1] == pytest.approx(full.values[0, 1, 1], abs=1e-12)


class TestThreshold:
    @pytest.mark.parametrize("quantity,lo,hi", [
        ("entropy", 0.78, 0.79),
        ("epr", 0.54, 0.56),
        ("fidelity", 0.61, 0.63),
    ])
    def test_measured_thresholds(self, quantity, lo, hi):
        result = threshold(quantity, tol=1e-3)
        assert lo < result.r_star < hi

    def test_bracketing_invariant(self):
        result = threshold("entropy", tol=1e-3)
        below = t_range("entropy", result.r_star - 0.05)
        above = t_range("entropy", result.r_star + 3e-3)
        assert below and not above

    def test_validation(self):
        with pytest.raises(ParameterError):
            threshold("pcd")
        with pytest.raises(ParameterError):
            threshold("entropy", tol=0.0)

    def test_refine_finds_a_maximum_between_scan_points(self):
        # The step-1e-3 scan's best EPR delta here is -1.83e-5; the true
        # maximum, +2.85e-6, lies between two scan points.
        r = 0.5484623718261719
        T = np.arange(regions.T_SCAN_STEP, 1.0, regions.T_SCAN_STEP)
        assert np.nanmax(symmetric_row(r, T).deltas("epr")) < -1e-5
        assert regions._enhancement_exists("epr", r)


class TestTRange:
    def test_entropy_interval_at_low_squeezing(self):
        intervals = t_range("entropy", 0.2, tol=1e-3)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(0.0347, abs=2e-3)
        assert hi == pytest.approx(0.2543, abs=2e-3)

    def test_epr_interval_at_low_squeezing(self):
        (lo, hi), = t_range("epr", 0.2, tol=1e-3)
        assert 0.12 < lo < 0.14
        assert 0.24 < hi < 0.26

    def test_empty_above_threshold(self):
        assert t_range("entropy", 0.9) == []

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    @pytest.mark.parametrize("r", [0.05, 0.2, 0.4])
    def test_endpoints_match_a_fine_bisection(self, quantity, r):
        def enhances(t):
            return symmetric_row(r, np.array([t])).deltas(quantity)[0] > 1e-12

        intervals = t_range(quantity, r, tol=1e-3)
        assert intervals
        for end in (end for interval in intervals for end in interval):
            a, b = max(end - 1e-3, 0.0), min(end + 1e-3, 1.0)
            inside_a = enhances(a)
            assert enhances(b) != inside_a
            while b - a > 1e-9:
                mid = 0.5 * (a + b)
                if enhances(mid) == inside_a:
                    a = mid
                else:
                    b = mid
            assert abs(end - 0.5 * (a + b)) <= 1e-3 / 256 + 1e-9

    def test_tol_floor_stops_before_the_scan(self):
        # tol = 1e-8 would scan 10^8 points, more than the grid cap.
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="cap"):
                t_range("entropy", 0.5, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_interval_interior_is_enhancing(self):
        (lo, hi), = t_range("fidelity", 0.3, tol=1e-3)
        mid = 0.5 * (lo + hi)
        row = symmetric_row(0.3, np.array([mid]))
        assert row.deltas("fidelity")[0] > 0.0


class TestImplicationTable:
    def test_resolution_validation(self):
        with pytest.raises(ParameterError):
            implication_table(resolution=50)
        # Above the grid cap (resolution 3162) both audits stop before
        # evaluating a single row.
        for audit in (implication_table, regions.common_region):
            with pytest.raises(ParameterError, match="cap"):
                audit(resolution=3163)

    def test_measured_holds_pattern(self):
        table = implication_table(resolution=100)
        holds = {(e.antecedent, e.consequent): e.holds for e in table.entries}
        assert holds == {
            ("entropy", "epr"): False,
            ("entropy", "fidelity"): False,
            ("epr", "entropy"): True,
            ("epr", "fidelity"): True,
            ("fidelity", "entropy"): False,
            ("fidelity", "epr"): False,
        }

    def test_witnesses_are_real_counterexamples(self):
        table = implication_table(resolution=100)
        for e in table.entries:
            if e.holds:
                assert e.witness is None
                continue
            w = e.witness
            row = symmetric_row(w.r, np.array([w.T]))
            assert row.deltas(e.antecedent)[0] > 1e-12
            assert row.deltas(e.consequent)[0] <= 1e-12

    def test_pattern_stable_under_refinement(self):
        holds_100 = {
            (e.antecedent, e.consequent): e.holds
            for e in implication_table(100).entries
        }
        holds_200 = {
            (e.antecedent, e.consequent): e.holds
            for e in implication_table(200).entries
        }
        assert holds_100 == holds_200


class TestCommonRegion:
    def test_membership(self):
        grid = common_region(resolution=100)
        i = int(np.argmin(np.abs(grid.axis_r - 0.2)))
        j = int(np.argmin(np.abs(grid.axis_T1 - 0.15)))
        assert grid.values[i, j] > 0.0
        # High squeezing and high transmittance are outside.
        hi_r = grid.axis_r > 0.7
        assert not np.any(grid.values[hi_r] > 1e-12)
        hi_T = grid.axis_T1 > 0.35
        assert not np.any(grid.values[:, hi_T] > 1e-12)

    def test_region_is_nonempty_and_bounded(self):
        grid = common_region(resolution=100)
        mask = grid.values > 1e-12
        assert np.any(mask)
        assert grid.axis_r[np.any(mask, axis=1)].max() <= 0.585
        assert grid.axis_T1[np.any(mask, axis=0)].max() < 0.3
