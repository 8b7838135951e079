"""Conditional density estimation with honest forest weights.

The estimate at a query point is an exponential-series density whose
coefficients match forest-weighted basis moments of the outcome; a
bias-corrected infinitesimal jackknife over the same trees supplies standard
errors and confidence intervals.
"""

__version__ = "0.1.0"

from .basis import BasisSpec, basis_matrix, default_basis, legendre_eval, make_quadrature
from .errors import (AllWeightsZero, BoundaryMoment, EstimationError, NonConvergence,
                     ZeroDenominator)
from .expfam import (MomentVector, ThetaSolution, covariance, density,
                     log_partition, moments, solve_theta, t_functional)
from .forest import (Box, BranchResult, Dataset, ForestConfig, WeightVector,
                     best_split, draw_subsamples, grow_branch, grow_from_halves,
                     mu_hat, split_half, weights)
from .estimator import (FittedConditionalDensity, confidence_interval, fit,
                        pdf, std_error)

# The Monte Carlo harness needs scipy.  It and its names are imported on
# first access (PEP 562), so importing the estimator loads numpy only.
_HARNESS = ("MCReport", "gen_covariates", "gen_outcome", "kernel_baseline",
            "run_mc", "true_cdf", "true_density")

__all__ = sorted([
    "AllWeightsZero", "BasisSpec", "BoundaryMoment", "Box", "BranchResult", "Dataset",
    "EstimationError", "FittedConditionalDensity", "ForestConfig", "MomentVector",
    "NonConvergence", "ThetaSolution", "WeightVector", "ZeroDenominator",
    "basis_matrix", "best_split", "confidence_interval", "covariance", "default_basis",
    "density", "draw_subsamples", "fit", "grow_branch", "grow_from_halves", "legendre_eval",
    "log_partition", "make_quadrature", "moments", "mu_hat", "pdf", "solve_theta",
    "split_half", "std_error", "t_functional", "weights", *_HARNESS])


def __getattr__(name):
    if name == "simbench" or name in _HARNESS:
        from importlib import import_module
        simbench = import_module(f"{__name__}.simbench")
        return simbench if name == "simbench" else getattr(simbench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
