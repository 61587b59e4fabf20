"""Command-line interface: point evaluation, sweeps, thresholds, region
exports and the closed-form vs brute-force verification report.

Output is deterministic: 17-significant-digit decimal formatting, '\\n'
line endings, and no timestamps.  Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 numerical non-convergence, 4 output I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .formulas import (
    closed_spectrum,
    epr_closed,
    fidelity_closed,
    published_success_probability,
)
from .model import (
    DEFAULT_EPS_TRUNC,
    DegeneratePostselectionError,
    ParameterError,
    QuadratureError,
    entropy_of,
    epr_of,
    make_params,
)
from .oracle import DEFAULT_QUAD_POINTS, catalyze_oracle, cf_fidelity_oracle
from .regions import (
    MEASURES,
    QUANTITIES,
    RegionGrid,
    common_region,
    implication_table,
    sweep,
    symmetric_sweep,
    t_range,
    threshold,
)
from .report import report, spectrum_report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

PAIR_LABELS = {"entropy": "E", "epr": "EPR", "fidelity": "F"}

CSV_HEADER = "r,T1,T2,quantity,value,baseline,delta,enhanced"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_axis(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' as a linspace or a comma list of values."""
    if ":" in text:
        lo, hi, count = text.split(":")
        n = int(count)
        if n < 1:
            raise ParameterError(f"axis count must be >= 1, got {n}")
        return np.linspace(float(lo), float(hi), n)
    return np.array([float(v) for v in text.split(",")])


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _meta_line(no_meta: bool) -> list:
    return [] if no_meta else [f"# lqcat {__version__}"]


def _grid_csv(grid: RegionGrid, no_meta: bool) -> str:
    """One CSV line per grid cell, row-major; a symmetric grid has T2 = T1."""
    lines = _meta_line(no_meta)
    lines.append(CSV_HEADER)
    enhanced = grid.enhanced
    for cell, delta in np.ndenumerate(grid.values):
        i, j = cell[:2]
        T2 = grid.axis_T1[j] if grid.axis_T2 is None else grid.axis_T2[cell[2]]
        lines.append(",".join([
            _fmt(grid.axis_r[i]), _fmt(grid.axis_T1[j]), _fmt(T2), grid.quantity,
            _fmt(grid.raw[cell]), _fmt(grid.baselines[i]), _fmt(delta),
            "true" if enhanced[cell] else "false",
        ]))
    return "\n".join(lines) + "\n"


def _json_dump(obj, no_meta: bool) -> str:
    if not no_meta:
        obj = {"meta": {"tool": "lqcat", "version": __version__}, **obj}
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def cmd_measure(args) -> int:
    params = make_params(args.r, args.t1, args.t2)
    closed = report(params, eps=args.eps, quad_points=args.quad_points)
    oracle = None
    if args.engine in ("oracle", "both"):
        oracle = spectrum_report(params, *catalyze_oracle(params), args.quad_points)
    primary = oracle if args.engine == "oracle" else closed
    measures = {
        q: {
            "value": getattr(primary, q),
            "baseline": getattr(primary, f"baseline_{q}"),
            "delta": getattr(primary, f"{q}_delta"),
            "enhanced": getattr(primary, f"{q}_enhanced"),
        }
        for q in MEASURES
    }
    fields = ("p_cd",) + MEASURES
    if args.engine == "both":
        diffs = {k: abs(getattr(closed, k) - getattr(oracle, k)) for k in fields}

    if args.json:
        payload = {
            "r": args.r, "T1": args.t1, "T2": args.t2,
            "engine": args.engine,
            "p_cd": primary.p_cd,
            "measures": measures,
        }
        if args.engine == "both":
            payload["oracle"] = {k: getattr(oracle, k) for k in fields}
            payload["abs_diff"] = diffs
        _write_text(args.output, _json_dump(payload, args.no_meta))
        return EXIT_OK

    lines = [
        f"r  = {_fmt(args.r)}   T1 = {_fmt(args.t1)}   T2 = {_fmt(args.t2)}",
        f"p_cd      {_fmt(primary.p_cd)}",
        f"{'quantity':<10}{'value':<24}{'baseline':<24}{'delta':<24}enhanced",
    ]
    for q, m in measures.items():
        lines.append(
            f"{q:<10}{_fmt(m['value']):<24}{_fmt(m['baseline']):<24}"
            f"{_fmt(m['delta']):<24}{'yes' if m['enhanced'] else 'no'}"
        )
    if args.engine == "both":
        lines.append("engine comparison (|closed_form - oracle|):")
        for k, diff in diffs.items():
            lines.append(f"  {k:<10}{_fmt(diff)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    r_axis = _parse_axis(args.r)
    if args.t is not None:
        grid = symmetric_sweep(args.quantity, r_axis, _parse_axis(args.t))
    else:
        t1 = _parse_axis(args.t1) if args.t1 else _default_t_axis(args.t_grid)
        t2 = _parse_axis(args.t2) if args.t2 else _default_t_axis(args.t_grid)
        grid = sweep(args.quantity, r_axis, t1, t2, engine=args.engine)
    _write_text(args.output, _grid_csv(grid, args.no_meta))
    return EXIT_OK


def _default_t_axis(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def cmd_threshold(args) -> int:
    result = threshold(args.quantity, tol=args.tol)
    examples = {}
    for r in (0.2, round(0.5 * result.r_star, 3)):
        if 0.0 < r < result.r_star:
            examples[repr(float(r))] = [
                [lo, hi] for lo, hi in t_range(args.quantity, r, args.tol)
            ]
    payload = {
        "quantity": args.quantity,
        "r_star": result.r_star,
        "tol": result.tolerance,
        "t_range_examples": examples,
    }
    _write_text(args.output, _json_dump(payload, args.no_meta))
    return EXIT_OK


def cmd_regions(args) -> int:
    grid = common_region(resolution=args.resolution)
    _write_text(args.output, _grid_csv(grid, args.no_meta))
    return EXIT_OK


def cmd_table(args) -> int:
    table = implication_table(resolution=args.resolution)
    pairs = []
    for e in table.entries:
        witness = None
        if e.witness is not None:
            witness = {
                "r": e.witness.r,
                "T": e.witness.T,
                "delta_A": e.witness.antecedent_delta,
                "delta_B": e.witness.consequent_delta,
            }
        pairs.append({
            "A": PAIR_LABELS[e.antecedent],
            "B": PAIR_LABELS[e.consequent],
            "holds": e.holds,
            "witness": witness,
        })
    payload = {"resolution": table.resolution, "pairs": pairs}
    _write_text(args.output, _json_dump(payload, args.no_meta))
    return EXIT_OK


VERIFY_GRIDS = {
    "coarse": {"r": (0.1, 0.5, 0.9), "T": (0.1, 0.5, 0.9)},
    "fine": {"r": (0.05, 0.2, 0.35, 0.5, 0.8, 1.1, 1.5),
             "T": (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)},
}


def cmd_verify(args) -> int:
    """Cross-check every closed form against the brute-force routes.

    Hard checks (any failure exits 1): closed-form spectrum and p_cd
    against the sector-exact circuit simulation, the printed p_cd
    polynomial against the squared norm of the weights, the T1 = T2 = 1
    identity line, and the T1 = 0 twin-Fock line.  The two published
    moment polynomials that are known not to match the exact spectrum
    (the fidelity polynomial, which misses its own T = 1 limit, and the
    EPR second-moment tables) are reported as WARNING sections with both
    values and do not affect the exit status.
    """
    spec_grid = VERIFY_GRIDS[args.grid]
    out = []
    failures = 0

    max_dw = max_dp = max_rel_pcd = 0.0
    max_depr = (0.0, None)
    max_dfid = (0.0, None)
    for r in spec_grid["r"]:
        for T1 in spec_grid["T"]:
            for T2 in spec_grid["T"]:
                params = make_params(r, T1, T2)
                spec_c, p_c = closed_spectrum(params)
                spec_o, p_o = catalyze_oracle(params)
                n = min(len(spec_c.weights), len(spec_o.weights))
                max_dw = max(max_dw, float(np.max(np.abs(
                    spec_c.weights[:n] - spec_o.weights[:n]))))
                max_dp = max(max_dp, abs(p_c - p_o))
                max_rel_pcd = max(max_rel_pcd, abs(
                    published_success_probability(params) - p_c) / p_c)
                d_epr = abs(epr_closed(params) - epr_of(spec_o))
                if d_epr > max_depr[0]:
                    max_depr = (d_epr, (r, T1, T2))
                fc = fidelity_closed(params)
                d_fid = abs(fc.value - fc.oracle_value)
                if d_fid > max_dfid[0]:
                    max_dfid = (d_fid, (r, T1, T2))
    ok = max_dw < 1e-10 and max_dp < 1e-10
    failures += not ok
    out.append(f"spectrum vs circuit oracle       "
               f"{'PASS' if ok else 'FAIL'}  "
               f"max|dw| = {max_dw:.3e}  max|dp| = {max_dp:.3e}")
    ok = max_rel_pcd < 1e-10
    failures += not ok
    out.append(f"printed p_cd polynomial          "
               f"{'PASS' if ok else 'FAIL'}  max rel diff = {max_rel_pcd:.3e}")

    worst = 0.0
    for r in np.arange(0.05, 1.501, 0.05):
        rep = report(make_params(r, 1.0, 1.0))
        worst = max(
            worst,
            abs(rep.p_cd - 1.0),
            abs(rep.entropy_delta) / 1e2,
            abs(rep.epr_delta) / 1e2,
            abs(rep.fidelity_delta) / 1e4,
        )
    ok = worst < 1e-12
    failures += not ok
    out.append(f"identity line T1 = T2 = 1        "
               f"{'PASS' if ok else 'FAIL'}  scaled worst = {worst:.3e}")

    worst = 0.0
    for r in (0.2, 0.5, 1.0):
        for T2 in (0.0, 0.3, 0.8):
            params = make_params(r, 0.0, T2)
            spec, p = closed_spectrum(params)
            expect_p = (1 - 2 * T2) ** 2 * math.tanh(r) ** 2 / math.cosh(r) ** 2
            worst = max(
                worst,
                abs(abs(spec.weights[1]) - 1.0),
                abs(entropy_of(spec)),
                abs(epr_of(spec) - 6.0),
                abs(cf_fidelity_oracle(spec) - 0.25) / 1e4,
                abs(p - expect_p),
            )
    ok = worst < 1e-12
    failures += not ok
    out.append(f"twin-Fock line T1 = 0            "
               f"{'PASS' if ok else 'FAIL'}  scaled worst = {worst:.3e}")

    d, at = max_dfid
    out.append("WARNING published fidelity polynomial disagrees with the CF "
               "quadrature (it does not reduce to (1+tanh r)/2 at T = 1):")
    out.append(f"  max |printed - quadrature| = {d:.6e} at (r, T1, T2) = {at}")
    d, at = max_depr
    out.append("WARNING published EPR second-moment polynomials disagree with "
               "the exact spectrum (printed <a+a> can even go negative):")
    out.append(f"  max |printed - spectrum| = {d:.6e} at (r, T1, T2) = {at}")

    status = "PASS" if failures == 0 else "FAIL"
    out.append(f"VERIFY: {status} ({failures} hard failures, 2 documented warnings)")
    _write_text(args.output, "\n".join(out) + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None,
                   help="output file (default: stdout)")
    p.add_argument("--no-meta", action="store_true",
                   help="omit the tool-version metadata line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqcat",
        description="Photon catalysis of two-mode squeezed vacuum: "
                    "measures, feasibility regions and cross-checks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"lqcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate all measures at one point")
    p.add_argument("--r", type=float, required=True, help="squeezing parameter")
    p.add_argument("--t1", type=float, default=None, help="transmittance T1")
    p.add_argument("--t2", type=float, default=None, help="transmittance T2")
    p.add_argument("--t", type=float, default=None,
                   help="symmetric transmittance (sets both T1 and T2)")
    p.add_argument("--engine", choices=("closed_form", "oracle", "both"),
                   default="closed_form")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS_TRUNC,
                   help="truncation tail target")
    p.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS,
                   help="Gauss-Laguerre nodes for the fidelity quadrature")
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="grid sweep of one quantity's delta")
    p.add_argument("--quantity", choices=QUANTITIES, required=True)
    p.add_argument("--r", required=True,
                   help="r axis: comma list or lo:hi:count")
    p.add_argument("--t1", default=None, help="T1 axis (same syntax)")
    p.add_argument("--t2", default=None, help="T2 axis (same syntax)")
    p.add_argument("--t", default=None,
                   help="symmetric T axis: sweep along the T1 = T2 diagonal")
    p.add_argument("--t-grid", type=int, default=100,
                   help="cell count for default T axes, midpoints of (0,1)")
    p.add_argument("--engine", choices=("closed_form", "oracle"),
                   default="closed_form")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="largest enhancing r (symmetric T)")
    p.add_argument("--quantity", choices=MEASURES, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("regions", help="common feasibility region CSV")
    p.add_argument("--resolution", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("table", help="pairwise enhancement implication audit")
    p.add_argument("--resolution", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="closed forms vs brute-force cross-check")
    p.add_argument("--grid", choices=tuple(VERIFY_GRIDS), default="coarse")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _resolve_symmetric(args) -> None:
    if getattr(args, "t", None) is not None and isinstance(args.t, float):
        if args.t1 is not None or args.t2 is not None:
            raise ParameterError("--t conflicts with --t1/--t2")
        args.t1 = args.t2 = args.t
    if args.command == "measure" and (args.t1 is None or args.t2 is None):
        raise ParameterError("measure needs --t1 and --t2, or --t")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_symmetric(args)
        return args.func(args)
    except (ParameterError, DegeneratePostselectionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except QuadratureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONVERGENCE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
