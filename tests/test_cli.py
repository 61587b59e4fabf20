"""Command-line interface tests: formats, exit codes and determinism."""

import json

import pytest

from lqcat.cli import main


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

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "sweep", "--quantity", "pcd", "--r", "0.5",
                           "--t", "0.5", "-o", "/nonexistent/dir/out.csv")
        assert code == 4
        assert "error" in err


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

