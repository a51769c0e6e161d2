"""genfit: generalized (G) families of continuous distributions with a shift
parameter, plus maximum product of spacings estimation and goodness-of-fit
reporting."""

from .base_distributions import (
    BASE_DISTRIBUTIONS,
    base_cdf,
    base_log_hazard,
    base_log_pdf,
    base_log_sf,
    base_pdf,
    base_quantile,
    base_sample,
    base_sf,
)
from .datasets import load_dataset
from .family_transforms import (
    FAMILIES,
    family_cdf,
    family_log_pdf,
    family_pdf,
    family_quantile,
    family_sample,
    h_forward,
    h_inverse,
    log_h_prime,
)
from .gof import GofReport, edf_statistics, full_report, information_criteria, ks_test
from .mps_fit import (
    FitResult,
    MoranTest,
    SpacingContext,
    fit,
    moran_chi_square_test,
    moran_moments,
)
from .optimizers import OptimizerConfig, OptResult, maximize
from .selftest import selftest

__version__ = "0.1.0"

__all__ = [
    "BASE_DISTRIBUTIONS",
    "FAMILIES",
    "FitResult",
    "GofReport",
    "MoranTest",
    "OptResult",
    "OptimizerConfig",
    "SpacingContext",
    "base_cdf",
    "base_log_hazard",
    "base_log_pdf",
    "base_log_sf",
    "base_pdf",
    "base_quantile",
    "base_sample",
    "base_sf",
    "edf_statistics",
    "family_cdf",
    "family_log_pdf",
    "family_pdf",
    "family_quantile",
    "family_sample",
    "fit",
    "full_report",
    "h_forward",
    "h_inverse",
    "information_criteria",
    "ks_test",
    "load_dataset",
    "log_h_prime",
    "maximize",
    "moran_chi_square_test",
    "moran_moments",
    "selftest",
]
