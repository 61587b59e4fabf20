"""Assemble all measures at one parameter point."""

from __future__ import annotations

from .formulas import (
    closed_entropy,
    closed_measures,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import CatalysisParams, MeasureReport, check_norm


def report(params: CatalysisParams) -> MeasureReport:
    """Evaluate p_cd, entropy, EPR and fidelity with their baselines.

    p_cd, the EPR variance and the fidelity come from the truncation-free
    closed forms (formulas.closed_measures), and the entropy from
    formulas.closed_entropy, the kernel that rows and sweeps use.  Raises
    DegeneratePostselectionError where the heralding probability is not
    above NORM_FLOOR.  The published moment polynomials in formulas
    (epr_closed, fidelity_closed) are kept as cross-checks only, since
    both are known to disagree with the exact spectrum (see their
    docstrings).
    """
    p_cd, epr, fidelity = closed_measures(params.r, params.T1, params.T2)
    check_norm(p_cd)
    entropy = float(closed_entropy(params.r, params.T1, params.T2))
    return _with_baselines(params, p_cd, entropy, epr, fidelity)


def _with_baselines(params, p_cd, entropy, epr, fidelity) -> MeasureReport:
    return MeasureReport(
        params=params,
        p_cd=p_cd,
        entropy=entropy,
        epr=epr,
        fidelity=fidelity,
        baseline_entropy=tmsvs_entropy(params.r),
        baseline_epr=tmsvs_epr(params.r),
        baseline_fidelity=tmsvs_fidelity(params.r),
    )
