"""Assemble all measures at one parameter point."""

from __future__ import annotations

from .formulas import (
    closed_measures,
    closed_spectrum,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import CatalysisParams, MeasureReport, entropy_of


def report(params: CatalysisParams) -> MeasureReport:
    """Evaluate p_cd, entropy, EPR and fidelity with their baselines.

    p_cd, the EPR variance and the fidelity come from the truncation-free
    closed forms (formulas.closed_measures).  The entropy is the one
    N-term sum, over the closed-form spectrum truncated at tail bound
    DEFAULT_EPS_TRUNC;
    that spectrum also raises DegeneratePostselectionError where the
    heralding probability underflows.  The published moment polynomials in
    formulas (epr_closed, fidelity_closed) are kept as cross-checks only,
    since both are known to disagree with the exact spectrum (see their
    docstrings).
    """
    spectrum, _ = closed_spectrum(params)
    p_cd, epr, fidelity = closed_measures(params.r, params.T1, params.T2)
    return _with_baselines(params, p_cd, entropy_of(spectrum), epr, fidelity)


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
