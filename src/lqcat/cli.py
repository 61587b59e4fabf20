"""Command-line interface: point evaluation, sweeps, thresholds, region
exports and the closed-form vs brute-force verification report.

Output is deterministic: 17-significant-digit decimal formatting, '\\n'
line endings, and no timestamps.  Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 non-convergence of the CF quadrature, which
only the oracle engine and verify run, 4 output I/O.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .formulas import (
    closed_measures,
    closed_spectrum,
    epr_closed,
    fidelity_closed,
    published_success_probability,
)
from .model import (
    DegeneratePostselectionError,
    ParameterError,
    QuadratureError,
    entropy_of,
    epr_of,
    make_params,
)
from .regions import (
    DEFAULT_TOL,
    GRID_CAP,
    MEASURES,
    QUANTITIES,
    RegionGrid,
    _block_cells,
    common_region,
    implication_table,
    sweep,
    symmetric_sweep,
    t_range,
    threshold,
)
from .report import report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

PAIR_LABELS = {"entropy": "E", "epr": "EPR", "fidelity": "F"}

CSV_HEADER = "r,T1,T2,quantity,value,baseline,delta,enhanced"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _axis_count(n: int) -> int:
    """n, checked against the grid cap before an axis of n points is built."""
    if not 1 <= n <= GRID_CAP:
        raise ParameterError(
            f"axis count must be in [1, grid cap {GRID_CAP}], got {n}")
    return n


def _parse_axis(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' as a linspace or a comma list of values."""
    if ":" in text:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), _axis_count(int(count)))
    return np.array([float(v) for v in text.split(",")])


def _grid_csv(grid: RegionGrid, no_meta: bool):
    """Yield the CSV text: the header, then the lines of _block_cells()
    cells at a time.  One line per grid cell, row-major; a symmetric grid
    has T2 = T1.

    Each axis value and baseline is formatted once, and each line by one
    %-format: "%.17g" % x is _fmt(x), nan, inf and -0.0 included.
    """
    yield ("" if no_meta else f"# lqcat {__version__}\n") + CSV_HEADER + "\n"
    r, T1, baselines = ([_fmt(x) for x in axis.tolist()]
                        for axis in (grid.axis_r, grid.axis_T1, grid.baselines))
    rows = itertools.product(zip(r, baselines), T1)
    if grid.axis_T2 is None:
        cells = ((ri, t, t, base) for (ri, base), t in rows)
    else:
        T2 = [_fmt(x) for x in grid.axis_T2.tolist()]
        cells = ((ri, t1, t2, base)
                 for ((ri, base), t1), t2 in itertools.product(rows, T2))
    flags = ("false", "true")
    columns = grid.raw.ravel(), grid.values.ravel(), grid.enhanced.ravel()
    step = _block_cells()
    for k in range(0, columns[0].size, step):
        # cells comes last, so zip stops without taking a cell past the block.
        yield "".join("%s,%s,%s,%s,%.17g,%s,%.17g,%s\n" % (
            ri, t1, t2, grid.quantity, value, base, delta, flags[enhanced])
            for value, delta, enhanced, (ri, t1, t2, base) in zip(
                *(column[k:k + step].tolist() for column in columns), cells))


def _json_dump(obj, no_meta: bool) -> str:
    if not no_meta:
        obj = {"meta": {"tool": "lqcat", "version": __version__}, **obj}
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _transmittances(args) -> tuple:
    """(T1, T2) as given, each None where absent: --t sets both, and
    conflicts with --t1/--t2."""
    if args.t is None:
        return args.t1, args.t2
    if args.t1 is not None or args.t2 is not None:
        raise ParameterError("--t conflicts with --t1/--t2")
    return args.t, args.t


def cmd_measure(args) -> tuple:
    T1, T2 = _transmittances(args)
    if T1 is None or T2 is None:
        raise ParameterError("measure needs --t1 and --t2, or --t")
    params = make_params(args.r, T1, T2)
    closed = report(params)
    oracle = None
    if args.engine in ("oracle", "both"):
        from .oracle import oracle_report

        oracle = oracle_report(params)
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
            "r": args.r, "T1": T1, "T2": T2,
            "engine": args.engine,
            "p_cd": primary.p_cd,
            "measures": measures,
        }
        if args.engine == "both":
            payload["oracle"] = {k: getattr(oracle, k) for k in fields}
            payload["abs_diff"] = diffs
        return EXIT_OK, [_json_dump(payload, args.no_meta)]

    lines = [
        f"r  = {_fmt(args.r)}   T1 = {_fmt(T1)}   T2 = {_fmt(T2)}",
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
    return EXIT_OK, ["\n".join(lines) + "\n"]


def cmd_sweep(args) -> tuple:
    T1, T2 = _transmittances(args)
    r_axis = _parse_axis(args.r)
    if args.t is not None:
        if args.engine == "oracle":
            raise ParameterError("--t sweeps the closed forms only; give "
                                 "--t1/--t2 for --engine oracle")
        grid = symmetric_sweep(args.quantity, r_axis, _parse_axis(args.t))
    else:
        T1, T2 = (_default_t_axis(args.t_grid) if axis is None else _parse_axis(axis)
                  for axis in (T1, T2))
        grid = sweep(args.quantity, r_axis, T1, T2, engine=args.engine)
    return EXIT_OK, _grid_csv(grid, args.no_meta)


def _default_t_axis(n: int) -> np.ndarray:
    return (np.arange(_axis_count(n)) + 0.5) / n


def cmd_threshold(args) -> tuple:
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
    return EXIT_OK, [_json_dump(payload, args.no_meta)]


def cmd_regions(args) -> tuple:
    grid = common_region(resolution=args.resolution)
    return EXIT_OK, _grid_csv(grid, args.no_meta)


def cmd_table(args) -> tuple:
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
    return EXIT_OK, [_json_dump(payload, args.no_meta)]


VERIFY_GRIDS = {
    "coarse": {"r": (0.1, 0.5, 0.9), "T": (0.1, 0.5, 0.9)},
    "fine": {"r": (0.05, 0.2, 0.35, 0.5, 0.8, 1.1, 1.5),
             "T": (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)},
}


def _grid_residuals(params) -> tuple:
    """verify's residuals at one grid point: |dw| and |dp| between the
    closed-form spectrum and the circuit simulation; the closed forms'
    relative p_cd, |dEPR| and |dF| against the closed-form spectrum's
    squared norm, EPR variance and CF-quadrature fidelity; the printed
    p_cd polynomial's relative error; then the printed fidelity's gap to
    the quadrature and the printed EPR's gap to the circuit spectrum."""
    from .oracle import catalyze_oracle, cf_fidelity_oracle

    spec_c, p_c = closed_spectrum(params)
    spec_o, p_o = catalyze_oracle(params)
    n = min(len(spec_c.weights), len(spec_o.weights))
    fid_q = cf_fidelity_oracle(spec_c)
    p_f, epr_f, fid_f = closed_measures(params.r, params.T1, params.T2)
    return (float(np.max(np.abs(spec_c.weights[:n] - spec_o.weights[:n]))),
            abs(p_c - p_o),
            abs(p_f - p_c) / p_c,
            abs(epr_f - epr_of(spec_c)),
            abs(fid_f - fid_q),
            abs(published_success_probability(params) - p_c) / p_c,
            abs(fidelity_closed(params) - fid_q),
            abs(epr_closed(params) - epr_of(spec_o)))


def _identity_residual(r) -> float:
    """Largest scaled gap between report at T1 = T2 = 1 and the squeezed
    vacuum it must reduce to."""
    rep = report(make_params(r, 1.0, 1.0))
    return max(abs(rep.p_cd - 1.0), abs(rep.entropy_delta) / 1e2,
               abs(rep.epr_delta) / 1e2, abs(rep.fidelity_delta) / 1e4)


def _twin_fock_residual(r, T2) -> float:
    """Largest scaled gap between the T1 = 0 spectrum and the twin-Fock
    state |1,1> it must be, with its heralding probability."""
    from .oracle import cf_fidelity_oracle

    spec, p = closed_spectrum(make_params(r, 0.0, T2))
    expect_p = (1 - 2 * T2) ** 2 * math.tanh(r) ** 2 / math.cosh(r) ** 2
    return max(abs(abs(spec.weights[1]) - 1.0), abs(entropy_of(spec)),
               abs(epr_of(spec) - 6.0), abs(cf_fidelity_oracle(spec) - 0.25) / 1e4,
               abs(p - expect_p))


def cmd_verify(args) -> tuple:
    """Cross-check every closed form against the brute-force routes.

    Hard checks (any failure exits 1): closed-form spectrum and p_cd
    against the sector-exact circuit simulation, the truncation-free
    closed forms against the spectrum's squared norm, its EPR variance
    and its CF-quadrature fidelity, the printed p_cd polynomial against
    the squared norm of the weights, the T1 = T2 = 1 identity line, and
    the T1 = 0 twin-Fock line.  The two published moment polynomials that
    are known not to match the exact spectrum (the fidelity polynomial,
    which misses its own T = 1 limit, and the EPR second-moment tables)
    are reported as WARNING sections with both values and do not affect
    the exit status.
    """
    grid = VERIFY_GRIDS[args.grid]
    points = list(itertools.product(grid["r"], grid["T"], grid["T"]))
    table = np.array([_grid_residuals(make_params(*p)) for p in points])
    worst = table.max(axis=0)
    identity = max(_identity_residual(r) for r in np.arange(0.05, 1.501, 0.05))
    twin_fock = max(_twin_fock_residual(r, T2)
                    for r in (0.2, 0.5, 1.0) for T2 in (0.0, 0.3, 0.8))
    # Each hard check: its label, the bound on its maxima, and the name
    # each maximum prints under.
    checks = (
        ("spectrum vs circuit oracle", 1e-10,
         {"max|dw|": worst[0], "max|dp|": worst[1]}),
        ("closed forms vs spectrum sums", 1e-10,
         {"max rel dp": worst[2], "max|dEPR|": worst[3], "max|dF|": worst[4]}),
        ("printed p_cd polynomial", 1e-10, {"max rel diff": worst[5]}),
        ("identity line T1 = T2 = 1", 1e-12, {"scaled worst": identity}),
        ("twin-Fock line T1 = 0", 1e-12, {"scaled worst": twin_fock}),
    )
    # The published polynomials known to disagree with the exact spectrum:
    # their residual column, the warning, and what the gap is between.
    warnings = (
        (6, "published fidelity polynomial disagrees with the CF quadrature "
            "(it does not reduce to (1+tanh r)/2 at T = 1):", "printed - quadrature"),
        (7, "published EPR second-moment polynomials disagree with the exact "
            "spectrum (printed <a+a> can even go negative):", "printed - spectrum"),
    )

    out = []
    failures = 0
    for label, bound, maxima in checks:
        ok = all(m < bound for m in maxima.values())
        failures += not ok
        out.append(f"{label:<33}{'PASS' if ok else 'FAIL'}  "
                   + "  ".join(f"{n} = {m:.3e}" for n, m in maxima.items()))
    for column, warning, gap in warnings:
        k = int(np.argmax(table[:, column]))
        out.append(f"WARNING {warning}")
        out.append(f"  max |{gap}| = {table[k, column]:.6e} at (r, T1, T2) = {points[k]}")

    status = "PASS" if failures == 0 else "FAIL"
    out.append(f"VERIFY: {status} ({failures} hard failures, 2 documented warnings)")
    return EXIT_OK if failures == 0 else EXIT_VERIFY, ["\n".join(out) + "\n"]


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
                   default="closed_form",
                   help="closed_form sums the fidelity exactly; oracle "
                        "simulates the circuit and takes the fidelity by "
                        "a fixed 120-node CF quadrature, checked at 240")
    p.add_argument("--json", action="store_true", help="emit JSON")
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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="largest enhancing r (symmetric T)")
    p.add_argument("--quantity", choices=MEASURES, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("regions", help="common feasibility region CSV")
    p.add_argument("--resolution", type=int, default=200)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("table", help="pairwise enhancement implication audit")
    p.add_argument("--resolution", type=int, default=200)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="closed forms vs brute-force cross-check")
    p.add_argument("--grid", choices=tuple(VERIFY_GRIDS), default="coarse")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("-o", "--output", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--no-meta", action="store_true",
                       help="omit the tool-version metadata line")
    return parser


def main(argv=None) -> int:
    """Run one command, then write its output to --output, or to stdout
    for none or '-'.

    Each command returns (exit code, text pieces) and computes its whole
    result before the output is opened, so an error leaves no output,
    except an OSError while writing (exit 4), which leaves the bytes
    already written.
    """
    args = build_parser().parse_args(argv)
    try:
        code, pieces = args.func(args)
        if args.output in (None, "-"):
            sys.stdout.writelines(pieces)
        else:
            with open(args.output, "w", newline="") as fh:
                fh.writelines(pieces)
        return code
    except (ValueError, DegeneratePostselectionError, QuadratureError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return (EXIT_CONVERGENCE if isinstance(exc, QuadratureError)
                else EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
