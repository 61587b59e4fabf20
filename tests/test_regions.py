"""Tests of sweeps, thresholds, enhancement intervals and the
implication audit."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lqcat import formulas, regions
from lqcat.formulas import closed_entropy, closed_measures
from lqcat.model import (
    ENHANCEMENT_GUARD,
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


def cells(kw):
    """The cells that one RowMeasures block, given by its keywords,
    evaluates: its broadcast grid, or r by its pairs."""
    if kw.get("pairs") is None:
        return np.broadcast(kw["r"], kw["T1"], kw["T2"]).size
    return np.size(kw["r"]) * len(kw["pairs"][0])


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
        # Every cell takes the truncation class of its own q, as report
        # does, so each cell with a state is report's entropy bit for
        # bit.  When a grid row took the class of its largest T2, 1,477
        # of these 2,464 cells kept more terms and differed by up to
        # 3.6e-15.
        rng = np.random.default_rng(14)
        r_axis = np.sort(rng.uniform(0.0, 2.3, 16))
        T = np.unique(np.concatenate([rng.uniform(0.0, 1.0, 9),
                                      [0.0, 0.5, 2 / 3, 1.0]]))
        cells = sweep("entropy", r_axis, T, T).raw
        for i, r in enumerate(r_axis.tolist()):
            for j, a in enumerate(T.tolist()):
                for k, b in enumerate(T.tolist()):
                    params = make_params(r, a, b)
                    if math.isnan(cells[i, j, k]):
                        with pytest.raises(DegeneratePostselectionError):
                            report(params)
                        continue
                    assert report(params).entropy == cells[i, j, k], (r, a, b)

    def test_paired_cells_check_the_cap_cell_by_cell(self):
        # Each cell needs N = 120.  The cap used to be checked at
        # (2.45, max T1, max T2) = (2.45, 1, 1), which is not a cell, and
        # raised.
        T1, T2 = [1.0, 0.5], [0.5, 1.0]
        want = [report(make_params(2.45, a, b)).entropy for a, b in zip(T1, T2)]
        assert closed_entropy(2.45, T1, T2).tolist() == want
        assert RowMeasures(2.45, np.array(T1), np.array(T2)).entropy.tolist() == want
        with pytest.raises(ParameterError, match="cap"):
            closed_entropy(2.45, 1.0, 1.0)

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

    def test_entropy_is_relatively_accurate_where_it_is_tiny(self):
        # S = 3.7e-16 bits at (1e-4, 0.5, 0.5), where p_0 lies within an
        # ulp of 1: -p_0 log2 p_0 read as a logarithm of p_0 lost its
        # 1 - p_0, and the sum over the weights read 2.5e-2 relative off
        # there and 3.9e-5 at (1e-6, 0.7, 0.7).  The chain rule takes the
        # dominant mass's logarithm as log1p of the rest.
        r = np.array([1e-6, 1e-4, 1e-2, 0.3])
        T = np.array([1e-4, 0.2, 0.5, 0.7, 1.0])
        grid = sweep("entropy", r, T, T).raw
        for k, x in enumerate(r.tolist()):
            for i, a in enumerate(T.tolist()):
                for j, b in enumerate(T.tolist()):
                    want = _reference_entropy(x, a, b)
                    assert abs(grid[k, i, j] - want) <= 1e-13 * want, (x, a, b)
                    if i == j:
                        point = report(make_params(x, a, b)).entropy
                        assert abs(point - want) <= 1e-13 * want, (x, a)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            symmetric_row(-0.1, np.array([0.5]))
        with pytest.raises(ParameterError):
            symmetric_row(0.5, np.array([1.5]))

    @pytest.mark.parametrize("name", ["_head", "negativity", "values", "r"])
    def test_unknown_quantity(self, name):
        # Any attribute name used to pass: "_head" returned the private
        # head tuple from values and raised KeyError from deltas.
        row = symmetric_row(0.5, np.array([0.2, 0.5]))
        for read in (row.values, row.deltas):
            with pytest.raises(ParameterError, match="unknown quantity"):
                read(name)


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
        # r = 2 puts the T1 rows in four truncation classes, and the last
        # row of the wide grid in five.  Every block size splits the wide
        # rows: 1 and 7 doubles give one cell per block, 500 ten cells and
        # 40,000 800.  The entropy kernel's chunks, set by
        # formulas.SWEEP_BLOCK, split each class on their own: 1 double
        # gives one pair per chunk, and 4,960 five pairs at N = 30, two at
        # N = 60 and one above, mid-row.  On the r axis of
        # `mixed` the T = 1 cells take four classes, and a block of the
        # default size holds several r; each r slab is the row's.
        T1 = np.linspace(0.05, 0.95, 7)
        wide = np.linspace(0.3, 1.0, 40)
        mixed, T = [0.3, 1.0, 2.0, 2.3], np.array([0.0, 0.5, 2 / 3, 1.0])
        for quantity in ("entropy", "fidelity"):
            args = (quantity, [0.3, 0.7, 2.0], T1, [0.2, 0.5, 0.8])
            whole = sweep(*args).raw
            grid = sweep(quantity, [2.0], T1, wide).raw
            diagonal = symmetric_sweep(quantity, args[1], T1).raw
            slabs = sweep(quantity, mixed, T, T).raw
            diagonals = symmetric_sweep(quantity, mixed, T).raw
            for i, r in enumerate(mixed):
                np.testing.assert_array_equal(
                    slabs[i], RowMeasures(r, T[:, None], T).values(quantity))
                np.testing.assert_array_equal(
                    diagonals[i], RowMeasures(r, T, T).values(quantity))
            for block, chunk in itertools.product(
                    (1, 7, 500, 40_000), (1, 4_960, formulas.SWEEP_BLOCK)):
                with monkeypatch.context() as m:
                    m.setattr(regions, "SWEEP_BLOCK", block)
                    m.setattr(formulas, "SWEEP_BLOCK", chunk)
                    assert np.array_equal(sweep(*args).raw, whole), quantity
                    assert np.array_equal(
                        sweep(quantity, [2.0], T1, wide).raw, grid), quantity
                    assert np.array_equal(
                        symmetric_sweep(quantity, args[1], T1).raw, diagonal)
                    np.testing.assert_array_equal(
                        sweep(quantity, mixed, T, T).raw, slabs)
                    np.testing.assert_array_equal(
                        symmetric_sweep(quantity, mixed, T).raw, diagonals)
        limits = [limit for _, limit in ENTROPY_CLASSES]
        q = np.sqrt(T1[-1] * wide) * math.tanh(2.0)
        assert len(set(np.searchsorted(limits, q).tolist())) == 5
        assert len(set(np.searchsorted(limits, np.tanh(mixed)).tolist())) == 4

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity", "pcd"])
    @pytest.mark.parametrize("r,T", [
        # T = 0 and 1; the cells (0, 1/2) and (1/2, 0) have no weight.
        # At r = 2 the entropy's cells take six truncation classes.
        ([0.3, 1.2, 2.0], [0.0, 0.25, 0.5, 2 / 3, 0.9, 1.0]),
        # At r = 350 p_cd underflows at every cell: all NaN.
        ([0.3, 350.0], [0.0, 0.2, 0.5, 2 / 3, 0.9])])
    def test_equal_axes_evaluate_the_triangle(self, quantity, r, T, monkeypatch):
        # On equal T1 and T2 axes only the T1 <= T2 cells are evaluated,
        # and each value is mirrored.  Every quantity is swap-symmetric
        # bit for bit, so at every block size, and every chunk size of
        # the entropy, the grid is the whole evaluation's, NaN cells
        # included.
        r, T = np.array(r), np.array(T)
        whole = RowMeasures(r[:, None, None], T[:, None], T).values(quantity)
        if quantity != "pcd":
            assert np.isnan(whole).any() and not np.isnan(whole[0]).all()
        blocks = []
        monkeypatch.setattr(regions, "RowMeasures",
                            lambda **kw: blocks.append(kw) or RowMeasures(**kw))
        chunks = (1, 4_960, formulas.SWEEP_BLOCK) if quantity == "entropy" else (None,)
        for block, chunk in itertools.product(
                (1, 7, 500, 40_000, regions.SWEEP_BLOCK), chunks):
            blocks.clear()
            with monkeypatch.context() as m:
                m.setattr(regions, "SWEEP_BLOCK", block)
                if chunk is not None:
                    m.setattr(formulas, "SWEEP_BLOCK", chunk)
                grid = sweep(quantity, r, T, T.copy())
            assert grid.raw.tobytes() == whole.tobytes(), (block, chunk)
            assert sum(map(cells, blocks)) == len(r) * len(T) * (len(T) + 1) // 2

    @example(0.7, 0.0, 0.4)
    @example(1.9, 1.0, 0.3)
    @example(0.4, 0.0, 0.5)
    # Large r: p_cd underflows, so the EPR variance and F are NaN.
    @example(350.0, 0.2, 0.9)
    @given(st.floats(0.0, 15.0), special_T, special_T)
    @settings(max_examples=100, deadline=None)
    @seed(18)
    def test_closed_measures_are_swap_symmetric(self, r, T1, T2):
        # The triangle mirrors each value, so it needs (T1, T2) and
        # (T2, T1) to give the same bytes, as points and as a grid row.
        for got, want in zip(closed_measures(r, T1, T2), closed_measures(r, T2, T1)):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        row = np.array([[r]]), np.array([T1, T2]), np.array([T2, T1])
        for values in closed_measures(*row):
            assert values[0, 0].tobytes() == values[0, 1].tobytes()

    # T = 0, 1/2 (a weight is zero), 2/3 and 1; q = t1 t2 tanh r on each
    # side of the N = 30 / 60 class limit at r = 1, T2 = 1; the cap.
    @example(0.9, 0.0, 0.7)
    @example(1.2, 0.5, 0.3)
    @example(0.8, 2 / 3, 1.0)
    @example(2.0, 1.0, 0.25)
    @example(1.0, 0.33357874719123726, 1.0)
    @example(1.0, 0.3335787471912373, 1.0)
    @example(2.4, 1.0, 1.0)
    @given(st.floats(0.0, 2.4), special_T, special_T)
    @settings(max_examples=60, deadline=None)
    @seed(19)
    def test_entropy_is_swap_symmetric(self, r, T1, T2):
        # The triangle mirrors each entropy too, so (T1, T2) and (T2, T1)
        # give the same bytes: as points of closed_entropy and report,
        # and as cells of a grid row.
        assert (closed_entropy(r, T1, T2).tobytes()
                == closed_entropy(r, T2, T1).tobytes())
        row = closed_entropy(np.array([[r]]), np.array([T1, T2]), np.array([T2, T1]))
        assert row[0, 0].tobytes() == row[0, 1].tobytes()
        try:
            want = report(make_params(r, T1, T2)).entropy
        except DegeneratePostselectionError:
            assert math.isnan(row[0, 0])
            with pytest.raises(DegeneratePostselectionError):
                report(make_params(r, T2, T1))
            return
        assert np.float64(report(make_params(r, T2, T1)).entropy).tobytes() == (
            np.float64(want).tobytes())
        assert row[0, 0] == want

    def test_each_read_sums_only_its_quantity(self, monkeypatch):
        # A RowMeasures read of p_cd sums only closed_head; the EPR
        # variance and the fidelity each add their own tail, once.  Every
        # read, of a broadcast grid or of pairs, is closed_measures' bytes
        # at its points, NaN cells (r = 350) included.
        calls = []
        for name in ("closed_epr", "closed_fidelity"):
            tail = getattr(regions, name)
            monkeypatch.setattr(regions, name, lambda head, tail=tail, name=name:
                                calls.append(name) or tail(head))
        r = np.array([0.3, 1.2, 350.0])[:, None]
        T = np.array([0.0, 0.25, 0.5, 2 / 3, 0.9])
        i, j = np.triu_indices(len(T))
        for operands, measures in (
                ((r[:, :, None], T[:, None], T), RowMeasures(r[:, :, None], T[:, None], T)),
                ((r, T[i], T[j]), RowMeasures(r, T, T, pairs=(i, j)))):
            want = dict(zip(("pcd", "epr", "fidelity"), closed_measures(*operands)))
            calls.clear()
            assert measures.pcd.tobytes() == want["pcd"].tobytes()
            assert calls == []
            # Each is read twice; its tail runs on the first read only.
            for quantity in ("fidelity", "epr", "fidelity", "epr"):
                assert measures.values(quantity).tobytes() == want[quantity].tobytes()
            assert calls == ["closed_fidelity", "closed_epr"]
            assert np.isnan(want["epr"][-1]).all() and not np.isnan(want["epr"][0]).all()

    @pytest.mark.parametrize("quantity", ["epr", "fidelity", "pcd"])
    def test_signed_zeros_are_unequal_axes(self, quantity, monkeypatch):
        # 0.0 == -0.0, but the axes differ in their bit patterns, so the
        # sweep evaluates every cell.
        r = np.array([0.3, 0.9])
        zero, signed = np.array([0.0, 0.5, 1.0]), np.array([-0.0, 0.5, 1.0])
        blocks = []
        monkeypatch.setattr(regions, "RowMeasures",
                            lambda **kw: blocks.append(kw) or RowMeasures(**kw))
        for T1, T2 in ((zero, signed), (signed, zero)):
            blocks.clear()
            grid = sweep(quantity, r, T1, T2)
            whole = RowMeasures(r[:, None, None], T1[:, None], T2).values(quantity)
            assert grid.raw.tobytes() == whole.tobytes()
            assert sum(map(cells, blocks)) == whole.size

    def test_unequal_axes_take_r_rows(self, monkeypatch):
        # The rows of every block are the r: each block's r is a slice of
        # the r axis, with no r repeated, and its columns are (T1, T2)
        # pairs.  At every block size the blocks cover the grid once.
        r = np.linspace(0.1, 0.8, 12)
        T1, T2 = np.linspace(0.05, 0.95, 9), np.linspace(0.1, 0.9, 4)
        blocks = []
        monkeypatch.setattr(regions, "RowMeasures",
                            lambda **kw: blocks.append(kw) or RowMeasures(**kw))
        for quantity, block in itertools.product(("entropy", "pcd"),
                                                 (regions.SWEEP_BLOCK, 500, 7)):
            blocks.clear()
            monkeypatch.setattr(regions, "SWEEP_BLOCK", block)
            grid = sweep(quantity, r, T1, T2)
            for kw in blocks:
                rows = kw["r"].ravel()
                start = int(np.searchsorted(r, rows[0]))
                assert rows.tobytes() == r[start:start + len(rows)].tobytes()
                assert kw.get("pairs") is not None
            assert sum(map(cells, blocks)) == grid.raw.size
            whole = RowMeasures(r[:, None, None], T1[:, None], T2).values(quantity)
            assert grid.raw.tobytes() == whole.tobytes(), (quantity, block)

    def test_triangle_is_blocked(self):
        # 1,500 equal T hold 1.1 M pairs: evaluated whole, the triangle
        # would hold about 450 MB, and its pair indices alone 18 MB.
        def traced(evaluate):
            tracemalloc.start()
            try:
                return evaluate(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        T = np.linspace(0.001, 0.999, 1500)
        grid, peak = traced(lambda: sweep("pcd", [0.5], T, T))
        assert peak < grid.raw.nbytes + grid.values.nbytes + (8 << 20)
        # The evaluation alone, above its one output (measured: 4.6 MiB).
        (raw,), peak = traced(lambda: regions._blocked_values(("pcd",), np.array([0.5]), T, T))
        assert peak < raw.nbytes + (8 << 20)
        assert np.array_equal(raw[0, ::149], RowMeasures(0.5, T[::149, None], T).pcd)

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
        # peak at r = 0.8.  closed_entropy evaluates each class in chunks
        # of its own, so direct calls are bounded as well: a 300 x 300
        # grid at r = 0.5 and a 50,000-T symmetric_row at r = 0.8 peaked
        # at 68.2 and 24.9 MiB when each class was one evaluation.
        def traced(evaluate):
            tracemalloc.start()
            try:
                return evaluate(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        T = np.linspace(0.001, 0.999, 50_000)
        for r in (0.8, 2.0):
            grid, peak = traced(lambda: symmetric_sweep("entropy", [r], T))
            assert peak < 10 << 20
            # Each cell's truncation depends on its own q only, so the
            # blocks change no value.
            assert np.array_equal(grid.raw[0], symmetric_row(r, T).entropy), r
        row, peak = traced(lambda: symmetric_row(0.8, T).entropy)
        assert peak < 8 << 20
        square = np.linspace(0.001, 0.999, 300)
        grid, peak = traced(lambda: closed_entropy(0.5, square[:, None], square))
        assert peak < 8 << 20
        assert np.array_equal(grid[::37], closed_entropy(0.5, square[::37, None], square))

    @pytest.mark.parametrize("quantity,r,count,limit", [
        ("pcd", 0.5, 200_000, 12 << 20), ("entropy", 2.0, 4_000, 8 << 20),
        ("pcd", np.linspace(0.01, 0.8, 400), 2_500, 20 << 20)])
    def test_general_sweep_row_is_blocked(self, quantity, r, count, limit):
        # A float r is one T1 = 0.999 row against count T2.  When that row
        # was one block, the two peaked at 77.8 and 88.1 MiB.  An r axis
        # is a tall grid: 400 rows of r, each of 2,500 (T1, T2) pairs.
        # As a million (r, T1) rows of one cell each it peaked at 15.3
        # MiB, and at 27.1 MiB when r and T1 were repeated over every row.
        T = np.linspace(0.001, 0.999, count)
        axes = ([r], [0.999], T) if np.ndim(r) == 0 else (r, T, [0.5])
        tracemalloc.start()
        try:
            grid = sweep(quantity, *axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        r_axis, T1, T2 = (np.asarray(axis)[::97] for axis in axes)
        part = RowMeasures(r_axis[:, None, None], T1[:, None], T2).values(quantity)
        assert np.array_equal(grid.raw[::97, ::97, ::97], part)

    def test_entropy_tables_are_chunked_at_the_cap(self):
        # 145 T near 1 hold 10,585 pairs at r = 2.4, in four truncation
        # classes up to N = 2048.  Unchunked, one block's pair terms at
        # N = 2048 would take about 170 MB; the kernel's chunks hold
        # SWEEP_BLOCK / 32 doubles per table (measured peak: 4.7 MiB).
        T = np.linspace(0.9, 1.0, 145)
        tracemalloc.start()
        try:
            grid = sweep("entropy", [2.4], T, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.raw.nbytes + grid.values.nbytes + (8 << 20)
        assert choose_truncation(make_params(2.4, 1.0, 1.0)) == MAX_TRUNCATION
        part = RowMeasures(2.4, T[::29, None], T).entropy
        assert part.tobytes() == grid.raw[0, ::29].tobytes()

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
        # t_range checks its r through symmetric_row.
        for r in (-0.1, 1000.0, math.nan):
            with pytest.raises(ParameterError):
                t_range("epr", r)

    def test_refine_finds_a_maximum_between_scan_points(self):
        # The step-1e-3 scan's best EPR delta here is -1.83e-5; the true
        # maximum, +2.85e-6, lies between two scan points.
        r = 0.5484623718261719
        T = np.arange(regions.T_SCAN_STEP, 1.0, regions.T_SCAN_STEP)
        assert np.nanmax(symmetric_row(r, T).deltas("epr")) < -1e-5
        assert regions._enhancement_exists("epr", r)[0]


def _exhaustive_enhancement_exists(quantity, r):
    """regions._enhancement_exists as it was before the entropy bound:
    the exact delta at every scan cell and at every refine cell."""
    T = np.arange(regions.T_SCAN_STEP, 1.0, regions.T_SCAN_STEP)
    deltas = regions.symmetric_row(r, T).deltas(quantity)
    best = int(np.nanargmax(deltas))
    if deltas[best] > ENHANCEMENT_GUARD:
        return True
    fine = np.linspace(T[max(best - 1, 0)], T[min(best + 1, len(T) - 1)], regions.POLISH_POINTS)
    return bool(np.nanmax(regions.symmetric_row(r, fine).deltas(quantity)) > ENHANCEMENT_GUARD)


def _exhaustive_threshold(quantity, tol=regions.DEFAULT_TOL):
    """regions.threshold's r_star as it was before the steered bisection:
    _exhaustive_enhancement_exists at both ends and at every midpoint."""
    lo, hi = regions.R_BRACKET
    assert _exhaustive_enhancement_exists(quantity, lo)
    if _exhaustive_enhancement_exists(quantity, hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _exhaustive_enhancement_exists(quantity, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _count_full_scans(monkeypatch):
    """A one-element list that counts the calls of
    regions._enhancement_exists from here on."""
    calls = [0]
    exists = regions._enhancement_exists

    def counting(quantity, r):
        calls[0] += 1
        return exists(quantity, r)
    monkeypatch.setattr(regions, "_enhancement_exists", counting)
    return calls


class TestEntropyBound:
    @example(0.0, 0.0)
    @example(0.01, 1e-16)
    @example(2.0, 0.5)
    @example(2.4, 2 / 3)
    @example(0.0, 2 / 3)  # Q(2) = 0 and x = 0: the tail's mass is 0
    @example(2.4, 1.0)  # a geometric tail: the bound is tight
    @example(0.01, 1.0)
    @example(2.0, 0.999)
    @example(0.0, 1e-160)  # p_cd = 1e-320 underflows NORM_FLOOR
    @given(st.floats(0.0, 2.4), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    @seed(20)
    def test_bound_holds_against_the_computed_delta(self, r, T):
        T = np.array([T])
        bound = regions._entropy_delta_bound(r, T)[0]
        delta = symmetric_row(r, T).deltas("entropy")[0]
        if math.isnan(delta):
            # No bound where p_cd underflows: the cell takes the exact path.
            assert bound == math.inf
            return
        assert delta <= bound
        # The slack's error budget is 2.8e-12; without the slack the
        # bound falls below the computed delta by much less (2.5e-14 at
        # most on dense rows, at T = 1 and r = 2.335).
        assert delta <= bound - regions.ENTROPY_BOUND_MARGIN + 1e-12

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    def test_predicate_matches_the_exhaustive_scan(self, quantity):
        rs = np.concatenate([np.linspace(0.01, 2.0, 40), np.linspace(0.53, 0.63, 10),
                             np.linspace(0.77, 0.80, 10)])
        for r in rs.tolist():
            assert regions._enhancement_exists(quantity, r)[0] == (
                _exhaustive_enhancement_exists(quantity, r)), r

    @pytest.mark.parametrize("loose", [False, True])
    @pytest.mark.parametrize("r", [0.2, 0.7839, 0.784, 0.79, 1.2])
    def test_settled_scan_keeps_the_rows_best_point(self, r, loose, monkeypatch):
        # The cells the bound leaves NaN lie below the computed ones, so
        # the first-occurrence argmax, which places the refine, is the
        # whole row's wherever no cell enhances.  A looser bound, whose
        # largest value sits at small T, far from the best delta, only
        # costs cells.
        if loose:
            bound = regions._entropy_delta_bound
            monkeypatch.setattr(regions, "_entropy_delta_bound",
                                lambda r, T: bound(r, T) + 0.05 * (1.0 - T))
        T = np.arange(regions.T_SCAN_STEP, 1.0, regions.T_SCAN_STEP)
        full = symmetric_row(r, T).deltas("entropy")
        settled = regions._search_deltas("entropy", r, T, rank=True)
        computed = ~np.isnan(settled)
        assert settled[computed].tobytes() == full[computed].tobytes()
        if np.nanmax(full) > ENHANCEMENT_GUARD:
            assert np.nanmax(settled) > ENHANCEMENT_GUARD
        else:
            assert np.nanargmax(settled) == np.nanargmax(full)

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    def test_r_star_is_the_exhaustive_searchs(self, quantity, tol):
        assert threshold(quantity, tol).r_star.hex() == _exhaustive_threshold(quantity, tol).hex()

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    @pytest.mark.parametrize("lie", ["always", "never"])
    def test_a_lying_peak_test_falls_back_to_the_exhaustive_search(self, quantity, lie,
                                                                   monkeypatch):
        # A steering test that answers every midpoint True (or False)
        # ends on a bracket that the exact predicate refutes, so the
        # bisection reruns with the exact predicate at every midpoint.
        calls = _count_full_scans(monkeypatch)
        monkeypatch.setattr(regions, "_peak_test",
                            (lambda q, r, T: T) if lie == "always" else (lambda q, r, T: None))
        assert threshold(quantity).r_star.hex() == _exhaustive_threshold(quantity).hex()
        assert calls[0] > 5

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    def test_search_makes_few_full_scans(self, quantity, monkeypatch):
        # Both ends, the midpoints up to the first enhancing one, and the
        # final bracket's upper end; the exhaustive search makes 13.
        calls = _count_full_scans(monkeypatch)
        threshold(quantity)
        assert calls[0] <= 5

    def test_entropy_search_computes_few_cells(self, monkeypatch):
        # Every exact delta of the search comes from symmetric_row.
        counted = [0]
        row = regions.symmetric_row

        def counting(r, T):
            counted[0] += len(T)
            return row(r, T)
        monkeypatch.setattr(regions, "symmetric_row", counting)
        threshold("entropy")
        pruned = counted[0]
        counted[0] = 0
        _exhaustive_threshold("entropy")
        assert counted[0] == 13_890
        assert pruned < 0.01 * counted[0]


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

    @pytest.mark.parametrize("quantity", ["entropy", "epr", "fidelity"])
    def test_searches_never_reach_the_grid_evaluator(self, quantity, monkeypatch):
        # Both searches scan symmetric rows; only sweeps and audits are grids.
        monkeypatch.setattr(regions, "_blocked_values", None)
        assert t_range(quantity, 0.2)
        assert threshold(quantity, 1e-2).r_star < regions.R_BRACKET[1]

    def test_above_the_truncation_cap(self):
        # At r = 3 the entropy's scan cells near T = 1 need more terms
        # than the cap allows; a bound that settled every cell would
        # return [] instead.  The EPR and fidelity sums need no truncation
        # and enhance nowhere.
        # The error names the first scan cell above the cap, as a scan of
        # exact deltas at every cell does.
        for r, T in ((2.45, 0.999), (3.0, 0.989), (10.0, 0.984)):
            with pytest.raises(ParameterError, match=(
                    rf"^\(r, T1, T2\) = \({r}, {T}, {T}\) needs a truncation above the cap")):
                t_range("entropy", r)
        assert t_range("epr", 3.0) == []
        assert t_range("fidelity", 3.0) == []

    @pytest.mark.parametrize("tol", [1e-3, 1e-4])
    def test_pruned_entropy_scan_is_the_full_scans(self, tol, monkeypatch):
        # The scan computes the exact entropy only where the bound
        # exceeds the guard; with an infinite bound it computes every
        # cell, as a full scan does.
        cells = [0]
        entropy = regions._broadcast_entropy

        def counting(r, T1, T2):
            cells[0] += np.size(T1)
            return entropy(r, T1, T2)
        monkeypatch.setattr(regions, "_broadcast_entropy", counting)
        rs = np.random.default_rng(28).uniform(0.0, 2.4, 6).tolist() + [2.4]
        pruned = [t_range("entropy", r, tol) for r in rs]
        pruned_cells, cells[0] = cells[0], 0
        monkeypatch.setattr(regions, "_entropy_delta_bound",
                            lambda r, T: np.full(len(T), np.inf))
        assert pruned == [t_range("entropy", r, tol) for r in rs]
        assert pruned_cells < 0.5 * cells[0]

    def test_fine_scan_is_blocked(self, monkeypatch):
        # At tol = 1e-6 the scan has 999,999 cells.  As one row it peaked
        # at 290 MiB; in rows of SWEEP_BLOCK doubles, at 23 MiB, which is
        # the scan's few arrays of one value per cell.
        tracemalloc.start()
        try:
            ends = t_range("epr", 0.2, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * 10**6 + (8 << 20)
        (lo, hi), = ends
        assert 0.12 < lo < 0.14 and 0.24 < hi < 0.26
        # No value depends on the rows: ten rows at tol = 1e-5 give what
        # one row gives.
        fine = {q: t_range(q, 0.2, tol=1e-5) for q in regions.MEASURES}
        monkeypatch.setattr(regions, "SWEEP_BLOCK", 1 << 40)
        assert fine == {q: t_range(q, 0.2, tol=1e-5) for q in regions.MEASURES}

    def test_small_block(self, monkeypatch):
        # A SWEEP_BLOCK below CLOSED_CELL_DOUBLES used to divide the scan
        # by zero cells per row; the sweeps already took one cell.
        scans = {q: t_range(q, 0.2) for q in regions.MEASURES}
        monkeypatch.setattr(regions, "SWEEP_BLOCK", 7)
        assert scans == {q: t_range(q, 0.2) for q in regions.MEASURES}


def _per_row_deltas(resolution):
    """The audits' axes and one symmetric_row per r, as the audits
    evaluated them before the grid had an r axis."""
    r_axis = 0.8 * (np.arange(resolution) + 1.0) / resolution
    T_axis = (np.arange(resolution) + 0.5) / resolution
    return r_axis, T_axis, [symmetric_row(r, T_axis) for r in r_axis]


def _per_row_table(resolution):
    """implication_table as a loop over rows: each failing pair keeps the
    first row's witness with the largest antecedent delta (a strict >)."""
    r_axis, T_axis, rows = _per_row_deltas(resolution)
    pairs = [(a, b) for a in regions.MEASURES for b in regions.MEASURES if a != b]
    holds = {pair: True for pair in pairs}
    witnesses = {pair: None for pair in pairs}
    for r, row in zip(r_axis, rows):
        deltas = {q: row.deltas(q) for q in regions.MEASURES}
        flags = {q: deltas[q] > 1e-12 for q in regions.MEASURES}
        for a, b in pairs:
            viol = flags[a] & ~flags[b]
            if not np.any(viol):
                continue
            holds[(a, b)] = False
            j = int(np.argmax(np.where(viol, deltas[a], -np.inf)))
            best = witnesses[(a, b)]
            if best is None or deltas[a][j] > best.antecedent_delta:
                witnesses[(a, b)] = regions.Witness(
                    r=float(r), T=float(T_axis[j]),
                    antecedent_delta=float(deltas[a][j]),
                    consequent_delta=float(deltas[b][j]))
    return [(a, b, holds[(a, b)], witnesses[(a, b)]) for a, b in pairs]


class TestImplicationTable:
    @pytest.mark.parametrize("resolution", [100, 199])
    def test_matches_the_per_row_loop(self, resolution):
        # One masked argmax over the row-major grid picks the loop's
        # witness: the largest antecedent delta, the earliest r, then T.
        entries = [(e.antecedent, e.consequent, e.holds, e.witness)
                   for e in implication_table(resolution).entries]
        assert entries == _per_row_table(resolution)

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
    @pytest.mark.parametrize("resolution", [100, 199])
    def test_matches_the_per_row_min(self, resolution):
        _, _, rows = _per_row_deltas(resolution)
        expected = np.array([np.min([row.deltas(q) for q in regions.MEASURES], axis=0)
                             for row in rows])
        assert common_region(resolution).values.tobytes() == expected.tobytes()

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
