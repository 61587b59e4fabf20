"""Assemble all measures at one parameter point."""

from __future__ import annotations

from .formulas import (
    _entropy,
    closed_measures,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import CatalysisParams, MeasureReport, check_norm, choose_truncation


def report(params: CatalysisParams) -> MeasureReport:
    """Evaluate p_cd, entropy, EPR and fidelity with their baselines.

    p_cd, the EPR variance and the fidelity come from the truncation-free
    closed forms (formulas.closed_measures).  The entropy comes from the
    per-N kernel behind formulas.closed_entropy, called once at
    N = choose_truncation(params): params is already validated, so the
    point skips closed_entropy's second make_params and class lookup,
    and its entropy equals its cell's in symmetric_row bit for bit.
    Raises DegeneratePostselectionError where the heralding probability
    is not above NORM_FLOOR.  The published moment polynomials in formulas
    (epr_closed, fidelity_closed) are kept as cross-checks only, since
    both are known to disagree with the exact spectrum (see their
    docstrings).
    """
    p_cd, epr, fidelity = closed_measures(params.r, params.T1, params.T2)
    check_norm(p_cd)
    N = choose_truncation(params)
    entropy = float(_entropy(params.r, params.T1, params.T2, N))
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
