"""Assemble all measures at one parameter point."""

from __future__ import annotations

from .formulas import (
    _entropy,
    closed_epr,
    closed_fidelity,
    closed_head,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
)
from .model import CatalysisParams, MeasureReport, check_norm, choose_truncation


def report(params: CatalysisParams) -> MeasureReport:
    """Evaluate p_cd, entropy, EPR and fidelity with their baselines.

    One closed_head serves all four: p_cd, the EPR variance and the
    fidelity from its truncation-free closed forms, the entropy from its
    chain-rule sum (formulas._entropy) at N = choose_truncation(params),
    so it equals its cell's in any row or grid bit for bit.  Raises
    DegeneratePostselectionError where the heralding probability is not
    above NORM_FLOOR.  The published polynomials formulas.epr_closed and
    fidelity_closed are cross-checks only: both disagree with the exact
    spectrum (see their docstrings).
    """
    head = closed_head(params.r, params.T1, params.T2)
    check_norm(head[0])
    entropy = _entropy(head, params.r, params.T1, params.T2, N=choose_truncation(params))
    return _with_baselines(params, head[0], float(entropy), closed_epr(head),
                           closed_fidelity(head))


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
