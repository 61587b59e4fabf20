"""Command-line interface tests: formats, exit codes and determinism."""

import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqcat import cli, oracle, regions
from lqcat.cli import build_parser, main
from lqcat.model import normalize_weights

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_identity_point(self, capsys):
        code, out, _ = run(capsys, "measure", "--r", "0.5", "--t", "1",
                           "--json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_cd"] == pytest.approx(1.0, abs=1e-12)
        for q in ("entropy", "epr", "fidelity"):
            assert abs(payload["measures"][q]["delta"]) < 1e-12
            assert payload["measures"][q]["enhanced"] is False

    def test_zero_squeezing(self, capsys):
        code, out, _ = run(capsys, "measure", "--r", "0", "--t1", "0.3",
                           "--t2", "0.4", "--json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_cd"] == pytest.approx(0.12, abs=1e-12)
        assert payload["measures"]["entropy"]["value"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_engine_both_reports_small_differences(self, capsys):
        code, out, _ = run(capsys, "measure", "--r", "0.2", "--t1", "0.1",
                           "--t2", "0.1", "--engine", "both", "--json",
                           "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_diff"]["p_cd"] < 1e-10
        assert payload["abs_diff"]["fidelity"] < 1e-8

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "measure", "--r", "0.2", "--t", "0.15")
        assert code == 0
        assert "p_cd" in out and "enhanced" in out and "yes" in out

    def test_validation_exit_code(self, capsys):
        assert run(capsys, "measure", "--r", "-1", "--t", "0.5")[0] == 2
        assert run(capsys, "measure", "--r", "0.5")[0] == 2
        assert run(capsys, "measure", "--r", "0.5", "--t", "0.5",
                   "--t1", "0.2")[0] == 2

    def test_domain_bound_exit_code(self, capsys):
        code, _, err = run(capsys, "measure", "--r", "25", "--t", "1")
        assert code == 2
        assert "error: r = 25.0 is too large" in err
        code, _, err = run(capsys, "measure", "--r", "5", "--t", "1")
        assert code == 2
        assert "truncation above the cap N = 2048" in err
        code, _, err = run(capsys, "measure", "--r", "1", "--t1", "0", "--t2", "0.5")
        assert code == 2
        assert "not normalizable" in err

    def test_squeezing_bound(self, capsys):
        # From r = 355.58... on, sinh(r)^2 overflows; r = 356 exited 1 with
        # an OverflowError traceback.
        for argv in (("measure", "--r", "356", "--t", "0.5"),
                     ("sweep", "--quantity", "epr", "--r", "356", "--t", "0.3")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "R_MAX" in err

    def test_large_r_baseline_entropy(self, capsys):
        # The baseline entropy at r = 20 is 57.15 bits; it used to come out
        # as 0, so catalysis (2.21 bits) read as an enhancement.
        code, out, _ = run(capsys, "measure", "--r", "20", "--t", "0.3",
                           "--json", "--no-meta")
        assert code == 0
        entropy = json.loads(out)["measures"]["entropy"]
        assert entropy["baseline"] == pytest.approx(57.150496676447, rel=1e-12)
        assert entropy["enhanced"] is False
        code, out, _ = run(capsys, "measure", "--r", "20", "--t", "0.3")
        assert code == 0
        assert out.splitlines()[3].split()[::4] == ["entropy", "no"]

    def test_nan_quadrature_exits_3(self, capsys, monkeypatch):
        # NaN fails the convergence check, as a difference above tolerance does.
        monkeypatch.setattr(oracle, "_table_for",
                            lambda N, q: np.full((N + 1, N + 1), np.nan))
        code, _, err = run(capsys, "measure", "--r", "0.5", "--t", "0.5",
                           "--engine", "oracle")
        assert code == 3
        assert "not converged" in err


COMMANDS = Path(__file__).resolve().parent / "cli_commands.txt"


def test_command_set_parses():
    # The same-behaviour command set must track the parser, so that a
    # renamed option cannot leave it stale.
    parser = build_parser()
    lines = [line for line in COMMANDS.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    assert len(lines) >= 43
    for line in lines:
        args = parser.parse_args(shlex.split(line) + ["--no-meta"])
        assert args.no_meta, line


def _modules_loaded_by(code, prefix):
    """Modules under prefix that a fresh interpreter holds after code."""
    code += f"; import sys; print([m for m in sys.modules if m.startswith({prefix!r})])"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": path})
    return result.stdout.strip()


def test_import_loads_no_scipy():
    # scipy serves only the cross-check routes in lqcat.oracle, so neither
    # the import nor the enhancement searches load it.
    code = ("import lqcat, lqcat.cli; "
            "lqcat.threshold('epr'); lqcat.t_range('epr', 0.2)")
    assert _modules_loaded_by(code, "scipy") == "[]"


def test_oracle_loads_no_scipy_linalg():
    # The circuit is simulated by sector-state propagation, with no expm,
    # and the CF quadrature builds its nodes with numpy's eigvalsh.
    code = ("from lqcat.model import make_params; "
            "from lqcat.oracle import oracle_report; "
            "oracle_report(make_params(0.5, 0.3, 0.7))")
    assert _modules_loaded_by(code, "scipy.linalg") == "[]"


@pytest.mark.parametrize("argv", [
    ("sweep", "--quantity", "pcd", "--r", "0.5", "--t-grid", "10000001"),
    ("sweep", "--quantity", "pcd", "--r", "0:1:10000001", "--t", "0.5"),
    ("sweep", "--quantity", "pcd", "--r", "0.5", "--t1", "0.1:0.9:10000001",
     "--t2", "0.5"),
    ("table", "--resolution", "100000"),
    ("regions", "--resolution", "100000"),
    ("threshold", "--quantity", "epr", "--tol", "1e-17"),
    ("threshold", "--quantity", "epr", "--tol", "inf"),
])
def test_oversized_grid_exits_before_allocating(capsys, argv):
    # Each axis above would take 80 MB or more; the audits would run for
    # hours, and the threshold bisection would never end (or, at an
    # infinite tol, would end at once on the bracket's midpoint).
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv, "--no-meta")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "cap" in err
    assert peak < 1 << 20


class TestSweep:
    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--quantity", "pcd",
                           "--r", "0.5", "--t", "0.25,1.0", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,T1,T2,quantity,value,baseline,delta,enhanced"
        assert len(lines) == 3
        last = lines[2].split(",")
        assert last[:4] == ["0.5", "1", "1", "pcd"]
        assert float(last[4]) == pytest.approx(1.0, abs=1e-12)
        assert last[7] == "false"

    def test_meta_line(self, capsys):
        _, out, _ = run(capsys, "sweep", "--quantity", "pcd", "--r", "0.5",
                        "--t", "0.5")
        assert out.splitlines()[0].startswith("# lqcat ")

    def test_axis_syntax(self, capsys):
        code, out, _ = run(capsys, "sweep", "--quantity", "entropy",
                           "--r", "0.1:0.3:3", "--t", "0.1,0.2", "--no-meta")
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 2

    def test_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "sweep", "--quantity", "epr",
                             "--r", "0.1:0.6:4", "--t1", "0.1:0.9:5",
                             "--t2", "0.1:0.9:5", "-o", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_symmetric_axis_has_no_oracle_engine(self, capsys):
        # symmetric_sweep evaluates the closed forms only; --engine oracle
        # with --t used to print the closed-form CSV.
        code, out, err = run(capsys, "sweep", "--quantity", "epr", "--r", "0.5",
                             "--t", "0.5", "--engine", "oracle", "--no-meta")
        assert (code, out) == (2, "")
        assert "--t1/--t2" in err

    @pytest.mark.parametrize("given", [["--t1", "0.3"], ["--t2", "0.4"],
                                       ["--t1", "0.3", "--t2", "0.4"]],
                             ids=["t1", "t2", "both"])
    def test_symmetric_axis_conflicts_with_t1_t2(self, capsys, given):
        # sweep used to drop --t1/--t2 beside --t and print the diagonal;
        # measure rejects the same arguments.
        for command in (["sweep", "--quantity", "epr", "--no-meta"], ["measure"]):
            code, out, err = run(capsys, *command, "--r", "0.5", "--t", "0.5", *given)
            assert (code, out, err) == (2, "", "error: --t conflicts with --t1/--t2\n")

    @pytest.mark.parametrize("flag", ["--t1", "--t2", "--t"])
    def test_empty_axis_is_an_error(self, capsys, flag):
        # An empty --t1 or --t2 used to fall back to the default axis.
        other = [] if flag == "--t" else ["--t2" if flag == "--t1" else "--t1", "0.5"]
        code, out, err = run(capsys, "sweep", "--quantity", "epr", "--r", "0.5",
                             flag, "", *other, "--no-meta")
        assert (code, out) == (2, "")
        assert err == "error: could not convert string to float: ''\n"

    def test_bad_axis_exits_before_any_work(self, capsys):
        # A negative T used to reach numpy's sqrt (a RuntimeWarning) before
        # the axis check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--quantity", "entropy",
                                 "--r", "0.5", "--t1=-0.5,0.5", "--t2", "0.5")
        assert (code, out) == (2, "")
        assert "T1 must be in [0, 1]" in err

    def test_output_memory_is_bounded(self, capsys, tmp_path):
        # The CSV is written one block of cells at a time, so the output
        # costs a constant beyond the grid's own arrays.  Held whole as one
        # string, this sweep's output peaked at 75.6 MiB.
        T = (np.arange(100) + 0.5) / 100
        grid = regions.sweep("pcd", np.linspace(0.1, 0.8, 20), T, T)
        assert grid.raw.size == 200_000
        arrays = sum(a.nbytes for a in (grid.raw, grid.values, grid.enhanced))
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "sweep", "--quantity", "pcd", "--r", "0.1:0.8:20",
                             "--t-grid", "100", "-o", str(tmp_path / "grid.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < arrays + (8 << 20)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--quantity", "entropy", "--r", "0.1:0.8:3", "--t", "0.1:0.9:5"],
        ["sweep", "--quantity", "epr", "--r", "0.1:0.8:3", "--t-grid", "4"],
        ["sweep", "--quantity", "fidelity", "--r", "0.1:0.8:3",
         "--t1", "0.1:0.9:4", "--t2", "0.2:0.8:3"],
        ["regions", "--resolution", "100"],
    ], ids=["symmetric", "equal-axes", "unequal-axes", "regions"])
    def test_block_boundaries_keep_every_byte(self, capsys, monkeypatch, tmp_path,
                                              argv):
        outputs = set()
        for cells in (1, 7, cli._block_cells()):
            monkeypatch.setattr(cli, "_block_cells", lambda cells=cells: cells)
            code, out, _ = run(capsys, *argv)
            path = tmp_path / f"{cells}.csv"
            assert (code, run(capsys, *argv, "-o", str(path))) == (0, (0, "", ""))
            assert path.read_bytes() == out.encode()
            outputs.add(out)
        assert len(outputs) == 1

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "sweep", "--quantity", "pcd", "--r", "0.5",
                           "--t", "0.5", "-o", "/nonexistent/dir/out.csv")
        assert code == 4
        assert "error" in err

    def test_invalid_input_writes_no_file(self, capsys, tmp_path):
        # main opens --output only once the command has its whole result.
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "sweep", "--quantity", "pcd", "--r", "0.5",
                         "--t1=-0.5", "--t2", "0.5", "-o", str(path))
        assert (code, path.exists()) == (2, False)


class TestThreshold:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "threshold", "--quantity", "entropy",
                           "--tol", "0.005", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "entropy"
        assert 0.78 < payload["r_star"] < 0.79
        assert payload["tol"] == 0.005
        assert payload["t_range_examples"]
        for intervals in payload["t_range_examples"].values():
            for lo, hi in intervals:
                assert 0.0 <= lo < hi <= 1.0


class TestTableAndRegions:
    def test_table_payload(self, capsys):
        code, out, _ = run(capsys, "table", "--resolution", "100", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["resolution"] == 100
        assert len(payload["pairs"]) == 6
        by_pair = {(p["A"], p["B"]): p for p in payload["pairs"]}
        assert set(by_pair) == {
            ("E", "EPR"), ("E", "F"), ("EPR", "E"),
            ("EPR", "F"), ("F", "E"), ("F", "EPR"),
        }
        for p in payload["pairs"]:
            if p["holds"]:
                assert p["witness"] is None
            else:
                assert p["witness"]["delta_A"] > 0.0
                assert p["witness"]["delta_B"] <= 0.0

    def test_regions_csv(self, capsys):
        code, out, _ = run(capsys, "regions", "--resolution", "100",
                           "--no-meta")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,T1,T2,quantity,value,baseline,delta,enhanced"
        assert len(lines) == 1 + 100 * 100
        assert any(line.endswith("true") for line in lines[1:])


class TestVerify:
    def test_passes_with_documented_warnings(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "coarse")
        assert code == 0
        assert out.count("WARNING") == 2
        assert "VERIFY: PASS" in out
        assert "spectrum vs circuit oracle       PASS" in out

    @staticmethod
    def _perturbed_oracle_weights(monkeypatch):
        catalyze = oracle.catalyze_oracle

        def perturbed(params):
            spectrum, p_cd = catalyze(params)
            return normalize_weights(spectrum.weights + 1e-9)[0], p_cd
        monkeypatch.setattr(oracle, "catalyze_oracle", perturbed)
        return "spectrum vs circuit oracle"

    @staticmethod
    def _shifted_closed_fidelity(monkeypatch):
        closed = cli.closed_measures

        def shifted(r, T1, T2):
            p_cd, epr, fidelity = closed(r, T1, T2)
            return p_cd, epr, fidelity + 1e-9
        monkeypatch.setattr(cli, "closed_measures", shifted)
        return "closed forms vs spectrum sums"

    @pytest.mark.parametrize("perturb", ["_perturbed_oracle_weights",
                                         "_shifted_closed_fidelity"])
    def test_one_perturbed_route_fails_one_check(self, capsys, monkeypatch,
                                                 perturb):
        # An error of 1e-9 in one route is ten times the hard tolerance:
        # exactly its own check fails, and the other four still pass.
        failing = getattr(self, perturb)(monkeypatch)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        checks = [line for line in lines if "  PASS  " in line or "  FAIL  " in line]
        assert len(checks) == 5
        for line in checks:
            assert ("  FAIL  " in line) == line.startswith(failing), line
        assert lines[-1] == "VERIFY: FAIL (1 hard failures, 2 documented warnings)"

