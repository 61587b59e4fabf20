"""Tests of sweeps, thresholds, enhancement intervals and the
implication audit."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lqcat import regions
from lqcat.formulas import closed_entropy
from lqcat.model import (
    ENTROPY_CLASSES,
    MAX_TRUNCATION,
    NORM_FLOOR,
    DegeneratePostselectionError,
    ParameterError,
    choose_truncation,
    make_params,
)
from lqcat.regions import (
    RowMeasures,
    common_region,
    implication_table,
    sweep,
    symmetric_row,
    symmetric_sweep,
    t_range,
    threshold,
)
from lqcat.report import report


def _reference_entropy(r, T1, T2):
    """Entropy in bits at 40 digits: the literal sum over the weights
    tanh(r)^n / cosh(r) g_n(T1) g_n(T2), g_n(T) = ((n+1) T - n) t^(n-1),
    continued until a weight drops below 1e-48.  NaN where the squared
    norm of the weights, the heralding probability, is not above
    NORM_FLOOR, as in the program."""
    with mpmath.workdps(40):
        r, T1, T2 = mpmath.mpf(r), mpmath.mpf(T1), mpmath.mpf(T2)
        u, ch = mpmath.tanh(r), mpmath.cosh(r)
        t12 = mpmath.sqrt(T1) * mpmath.sqrt(T2)
        floor = mpmath.mpf(10) ** -48
        w = [t12 / ch]
        while len(w) < 12 or abs(w[-1]) > floor or abs(w[-2]) > floor:
            n = len(w)
            w.append(u**n / ch * ((n + 1) * T1 - n) * ((n + 1) * T2 - n)
                     * t12 ** (n - 1))
        norm2 = mpmath.fsum(v * v for v in w)
        if norm2 <= NORM_FLOOR:
            return math.nan
        p = [v * v / norm2 for v in w if v != 0]
        return float(-mpmath.fsum(x * mpmath.log(x, 2) for x in p))


special_T = st.one_of(st.sampled_from([0.0, 1e-16, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestSymmetricRow:
    def test_matches_point_reports(self):
        r = 0.3
        T = np.array([0.1, 0.4, 0.8])
        row = symmetric_row(r, T)
        for j, t in enumerate(T):
            rep = report(make_params(r, t, t))
            assert row.pcd[j] == pytest.approx(rep.p_cd, rel=1e-12)
            assert row.entropy[j] == pytest.approx(rep.entropy, abs=1e-14)
            assert row.epr[j] == pytest.approx(rep.epr, abs=1e-12)
            assert row.fidelity[j] == pytest.approx(rep.fidelity, abs=1e-12)
            assert row.deltas("entropy")[j] == pytest.approx(
                rep.entropy_delta, abs=1e-12
            )
            assert row.deltas("epr")[j] == pytest.approx(rep.epr_delta, abs=1e-12)

    def test_report_entropy_is_the_row_cell(self):
        # A point and a row truncate each cell at the N of its own q, so
        # report and symmetric_row agree bit for bit.
        rng = np.random.default_rng(12)
        for r in rng.uniform(0.0, 2.4, 20).tolist() + [2.0]:
            T = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 8), [0.5, 1.0]]))
            row = symmetric_row(r, T).entropy
            for j, t in enumerate(T.tolist()):
                assert report(make_params(r, t, t)).entropy == row[j], (r, t)

    def test_report_entropy_at_each_class(self):
        # One point per truncation class on the T = 1 line, q = tanh r
        # between the class's limit and the one below, and its row holds
        # T = 1/2 and 2/3, where a weight is exactly zero.  (2.4, 1, 1)
        # reaches the cap N = 2048.
        T = np.array([0.1, 0.5, 2 / 3, 0.9, 1.0])
        low = 0.0
        for N, limit in ENTROPY_CLASSES:
            r = math.atanh(0.5 * (low + limit))
            low = limit
            assert choose_truncation(make_params(r, 1.0, 1.0)) == N
            row = symmetric_row(r, T).entropy
            for j, t in enumerate(T.tolist()):
                assert report(make_params(r, t, t)).entropy == row[j], (N, t)
        assert choose_truncation(make_params(2.4, 1.0, 1.0)) == MAX_TRUNCATION
        assert report(make_params(2.4, 1.0, 1.0)).entropy == symmetric_row(
            2.4, np.array([1.0])).entropy[0]

    def test_report_entropy_where_the_state_vanishes(self):
        # At T1 = 0 only w_1 = -tanh(r) g_1(T2) / cosh(r) survives, and
        # g_1(1/2) = 0: the point has no state.  Its grid cell is NaN and
        # report raises.  At T2 = 0.3 the one weight left gives 0 bits.
        grid = sweep("entropy", [1.0], [0.0], [0.3, 0.5]).raw[0, 0]
        assert grid[0] == report(make_params(1.0, 0.0, 0.3)).entropy == 0.0
        assert math.isnan(grid[1])
        with pytest.raises(DegeneratePostselectionError):
            report(make_params(1.0, 0.0, 0.5))
        with pytest.raises(DegeneratePostselectionError):
            report(make_params(0.0, 0.0, 0.0))
        # The scalar is a numpy float64 whether or not the state vanishes.
        nan, bits = closed_entropy(0.0, 0.0, 0.0), closed_entropy(1.0, 0.3, 0.3)
        assert math.isnan(nan)
        assert type(nan) is type(bits) is np.float64

    def test_report_entropy_is_the_grid_cell(self):
        # A grid row of T1 against all of T2 takes the class of its
        # largest T2, and report the class of its own point.  Where the two
        # classes are one, the cell is report's entropy bit for bit;
        # where the row's is larger, the cell keeps more terms and stays
        # within 1e-14 of it.
        rng = np.random.default_rng(14)
        r_axis = np.sort(rng.uniform(0.0, 2.3, 16))
        T = np.unique(np.concatenate([rng.uniform(0.0, 1.0, 9),
                                      [0.0, 0.5, 2 / 3, 1.0]]))
        cells = sweep("entropy", r_axis, T, T).raw
        same = larger = 0
        for i, r in enumerate(r_axis.tolist()):
            for j, a in enumerate(T.tolist()):
                row_N = choose_truncation(make_params(r, a, T[-1]))
                for k, b in enumerate(T.tolist()):
                    params = make_params(r, a, b)
                    if math.isnan(cells[i, j, k]):
                        with pytest.raises(DegeneratePostselectionError):
                            report(params)
                        continue
                    entropy = report(params).entropy
                    if choose_truncation(params) == row_N:
                        same += 1
                        assert entropy == cells[i, j, k], (r, a, b)
                    else:
                        larger += 1
                        assert abs(entropy - cells[i, j, k]) <= 1e-14, (r, a, b)
        assert same and larger

    def test_identity_line_has_no_enhancement(self):
        for r in (0.1, 0.5, 1.0, 1.8):
            row = symmetric_row(r, np.array([1.0]))
            for q in ("entropy", "epr", "fidelity"):
                assert abs(row.deltas(q)[0]) < 1e-12

    # The parent's per-row truncation put report() 1.7e-13, 2.1e-13 and
    # 5.0e-14 off the first three; (2, .999, .999) needs the largest N.
    @example(2.0, 0.5, 0.5, 1.0, 1.0)
    @example(2.0, 0.49, 0.49, 1.0, 1.0)
    @example(1.5, 0.5, 0.65, 1.0, 1.0)
    @example(2.0, 0.999, 0.999, 0.999, 0.999)
    @example(2.0, 1e-16, 0.5, 1.0, 1.0)
    @example(1.0, 0.0, 0.3, 1.0, 0.0)
    # sinh(r)^2 underflows: report's baseline took log(0) and raised.
    @example(2.422495479402347e-240, 1e-16, 1e-16, 0.0, 0.0)
    @given(st.floats(0.0, 2.0), special_T, special_T, special_T, special_T)
    @settings(max_examples=60, deadline=None)
    @seed(9)
    def test_entropy_against_40_digit_sums(self, r, T1, T2, U1, U2):
        # The cell (T1, T2) sits in a grid row, a symmetric row and a
        # report.  (U1, U2) widen the rows, so that the cell's truncation
        # class can lie below the row's largest N.
        grid = RowMeasures(r, np.array([T1, max(T1, U1)])[:, None],
                           np.array([T2, max(T2, U2)])).entropy[0, 0]
        diagonal = symmetric_row(r, np.array([T1, max(T1, U1)])).entropy[0]
        expected = _reference_entropy(r, T1, T2)
        if math.isnan(expected):
            assert math.isnan(grid)
            with pytest.raises(DegeneratePostselectionError):
                report(make_params(r, T1, T2))
        else:
            assert abs(grid - expected) <= 1e-14
            assert abs(report(make_params(r, T1, T2)).entropy - expected) <= 1e-14
        expected = _reference_entropy(r, T1, T1) if T2 != T1 else expected
        if math.isnan(expected):
            assert math.isnan(diagonal)
        else:
            assert abs(diagonal - expected) <= 1e-14

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
        # r = 2 puts the T1 rows in four truncation classes.
        T1 = np.linspace(0.05, 0.95, 7)
        for quantity in ("entropy", "fidelity"):
            args = (quantity, [0.3, 0.7, 2.0], T1, [0.2, 0.5, 0.8])
            whole = sweep(*args).raw
            diagonal = symmetric_sweep(quantity, args[1], T1).raw
            with monkeypatch.context() as m:
                m.setattr(regions, "SWEEP_BLOCK", 1)  # one T1 per block
                assert np.array_equal(sweep(*args).raw, whole), quantity
                assert np.array_equal(
                    symmetric_sweep(quantity, args[1], T1).raw, diagonal)

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

    @pytest.mark.parametrize("axes", [([0.5], [0.5], []), ([0.5], [], [0.5]),
                                      ([], [0.5], [0.5])])
    def test_empty_axis_raises_before_any_work(self, axes, monkeypatch):
        # An empty T2 axis used to reach T2.max() and raise numpy's bare
        # ValueError.
        monkeypatch.setattr(regions, "_blocked_values", None)
        with pytest.raises(ParameterError, match="empty"):
            sweep("pcd", *axes)

    @pytest.mark.parametrize("args", [
        ([0.5], [-0.5, 0.5], [0.5]),
        ([0.5], [0.5], [math.nan]),
        ([0.5], [0.2, math.nan], [0.5]),
        ([0.5], [0.5, 0.5], [0.5]),
        ([0.5, 0.3], [0.5], [0.5]),
        ([356.0], [0.3], [0.3]),
        ([0.5, math.inf], [0.3], [0.3]),
        ([0.5, 3.0], [1.0], [1.0]),
        ([0.5], [0.5, 1.5], None),
        ([356.0], [0.3], None),
        ([0.5], [0.3, 0.2], None),
    ])
    def test_bad_axis_raises_before_any_work(self, args, monkeypatch):
        # The baselines used to be computed, and the grid evaluated, before
        # the axes were checked: r = 356 overflowed in the entropy baseline,
        # a negative T reached numpy's sqrt, and r = 3 at T = 1 passed the
        # truncation cap only after the r = 0.5 row.
        monkeypatch.setattr(regions, "_blocked_values", None)
        monkeypatch.setattr(regions, "_baseline", None)
        with pytest.raises(ParameterError):
            if args[2] is None:
                symmetric_sweep("entropy", *args[:2])
            else:
                sweep("entropy", *args)

    def test_oracle_sweep_checks_the_cap_first(self, monkeypatch):
        # The oracle route truncates every quantity, so r = 3 at T = 1
        # raises before any baseline or point.
        monkeypatch.setattr(regions, "_baseline", None)
        with pytest.raises(ParameterError, match="cap"):
            sweep("pcd", [0.5, 3.0], [1.0], [1.0], engine="oracle")

    def test_bad_quantity_and_engine(self):
        with pytest.raises(ParameterError):
            sweep("negativity", [0.5], [0.5], [0.5])
        with pytest.raises(ParameterError):
            sweep("entropy", [0.5], [0.5], [0.5], engine="guess")

    def test_symmetric_sweep_is_blocked(self):
        # One unblocked row would hold (len(T), N + 1) weights: a 123 MB
        # peak at r = 0.8.
        T = np.linspace(0.001, 0.999, 50_000)
        for r in (0.8, 2.0):
            tracemalloc.start()
            try:
                grid = symmetric_sweep("entropy", [r], T)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 << 20
            # Each cell's truncation depends on its own q only, so the
            # blocks change no value.
            assert np.array_equal(grid.raw[0], symmetric_row(r, T).entropy), r

    @pytest.mark.parametrize("quantity", ["epr", "fidelity", "pcd"])
    def test_closed_measure_blocks_are_sized_by_working_set(self, quantity,
                                                           monkeypatch):
        # closed_measures holds about 50 doubles per cell, so 65,536-cell
        # blocks would peak at 29.4 MB here (measured: 7.5 MB).
        T = np.linspace(0.001, 0.999, 200_000)
        tracemalloc.start()
        try:
            grid = symmetric_sweep(quantity, [0.8], T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000
        # The forms are elementwise, so the blocks change no value.
        part = symmetric_row(0.8, T[::997]).values(quantity)
        assert np.array_equal(grid.raw[0, ::997], part)
        # A 100 x 100 map and a 200-T row each stay one block.
        blocks = []
        monkeypatch.setattr(regions, "RowMeasures",
                            lambda **kw: blocks.append(kw) or RowMeasures(**kw))
        axis = np.linspace(0.0, 1.0, 100)
        sweep(quantity, [0.8], axis, axis)
        symmetric_sweep(quantity, [0.8], np.linspace(0.0, 1.0, 200))
        assert len(blocks) == 2

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
