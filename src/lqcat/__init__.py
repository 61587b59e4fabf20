"""Numerical laboratory for beam-splitter photon catalysis of two-mode
squeezed vacuum: heralded Schmidt spectra, entanglement and teleportation
measures, and parameter-space feasibility analysis."""

from .formulas import (
    ClosedFidelity,
    StateCoefficients,
    closed_spectrum,
    closed_weights,
    epr_closed,
    fidelity_closed,
    state_coefficients,
    success_probability,
    tmsvs_entropy,
    tmsvs_epr,
    tmsvs_fidelity,
    unnormalized_weights,
)
from .model import (
    CatalysisParams,
    DegeneratePostselectionError,
    MeasureReport,
    ParameterError,
    QuadratureError,
    SchmidtSpectrum,
    choose_truncation,
    entropy_of,
    epr_of,
    make_params,
    normalize_weights,
)
from .oracle import (
    bs_sector,
    catalyze_oracle,
    cf_fidelity_oracle,
)
from .regions import (
    ImplicationTable,
    RegionGrid,
    ThresholdResult,
    common_region,
    implication_table,
    sweep,
    symmetric_row,
    symmetric_sweep,
    t_range,
    threshold,
)
from .report import report

__version__ = "0.1.0"

__all__ = [
    "CatalysisParams",
    "ClosedFidelity",
    "DegeneratePostselectionError",
    "ImplicationTable",
    "MeasureReport",
    "ParameterError",
    "QuadratureError",
    "RegionGrid",
    "SchmidtSpectrum",
    "StateCoefficients",
    "ThresholdResult",
    "bs_sector",
    "catalyze_oracle",
    "cf_fidelity_oracle",
    "choose_truncation",
    "closed_spectrum",
    "closed_weights",
    "common_region",
    "entropy_of",
    "epr_closed",
    "epr_of",
    "fidelity_closed",
    "implication_table",
    "make_params",
    "normalize_weights",
    "report",
    "state_coefficients",
    "success_probability",
    "sweep",
    "symmetric_row",
    "symmetric_sweep",
    "t_range",
    "threshold",
    "tmsvs_entropy",
    "tmsvs_epr",
    "tmsvs_fidelity",
    "unnormalized_weights",
]
