"""Assemble all measures at one parameter point."""

from __future__ import annotations

from .formulas import (
    closed_spectrum,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import (
    DEFAULT_EPS_TRUNC,
    CatalysisParams,
    MeasureReport,
    SchmidtSpectrum,
    entropy_of,
    epr_of,
)
from .oracle import DEFAULT_QUAD_POINTS, cf_fidelity_oracle


def report(params: CatalysisParams, eps: float = DEFAULT_EPS_TRUNC,
           quad_points: int = DEFAULT_QUAD_POINTS) -> MeasureReport:
    """Evaluate p_cd, entropy, EPR and fidelity with their baselines.

    p_cd (the squared norm) and the spectrum come from the closed-form
    weights; entropy and the EPR variance are evaluated on that spectrum;
    the fidelity comes from the CF quadrature.  The standalone moment polynomials in
    formulas (epr_closed, fidelity_closed) are kept as published
    cross-checks only, since both are known to disagree with the exact
    spectrum (see their docstrings); everything reported here is
    spectrum-based and oracle-verified.
    """
    spectrum, p_cd = closed_spectrum(params, eps)
    return spectrum_report(params, spectrum, p_cd, quad_points)


def spectrum_report(params: CatalysisParams, spectrum: SchmidtSpectrum,
                    p_cd: float,
                    quad_points: int = DEFAULT_QUAD_POINTS) -> MeasureReport:
    """All measures of the spectrum of the state at params, from either
    route, with the baselines at params.r."""
    return MeasureReport(
        params=params,
        p_cd=p_cd,
        entropy=entropy_of(spectrum),
        epr=epr_of(spectrum),
        fidelity=cf_fidelity_oracle(spectrum, quad_points),
        baseline_entropy=tmsvs_entropy(params.r),
        baseline_epr=tmsvs_epr(params.r),
        baseline_fidelity=tmsvs_fidelity(params.r),
    )
