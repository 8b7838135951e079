"""End-to-end conditional density estimation with confidence intervals.

Simulates one dataset from the first benchmark design, fits the density
of the outcome at the central covariate value, and prints the estimate
with infinitesimal-jackknife standard errors against the analytic truth.

Run:  python demos/03_conditional_density_fit.py
"""

import numpy as np

from forestdens import (Dataset, ForestConfig, confidence_interval, fit,
                        gen_covariates, gen_outcome, pdf, std_error,
                        true_density)

rng = np.random.default_rng(3)
n = 1000
x_mat = gen_covariates(n, rng)
y_vec = gen_outcome("D1", x_mat, rng)
data = Dataset(y_vec, x_mat)

x_query = np.full(4, 0.5)
cfg = ForestConfig(subsample_size=200, n_trees=560, basis_order=8,
                   min_child=10, min_fraction=0.05, scheme="theta",
                   initial_parent=[[0.0] * 4, [1.0] * 4], seed=11)

# se_params requests standard errors: the fit keeps its tree subsamples, and
# the bias-corrected infinitesimal jackknife reuses every tree grown for the
# point estimate.  The (n_sigma, d_sigma) pair draws no delete groups.
fitted = fit(data, x_query, cfg, se_params=(70, 50), workers=2)
print(f"solved coefficients: {np.round(fitted.theta_hat.theta, 3)}")

print("\ny      estimate  truth    se      95% interval")
for y in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875):
    est = pdf(fitted, y)
    tru = true_density("D1", y, x_query)
    se = std_error(fitted, y)
    lo, hi = confidence_interval(fitted, y, 0.95)
    print(f"{y:.3f}  {est:7.4f}  {tru:7.4f}  {se:6.3f}  [{lo:7.4f}, {hi:7.4f}]")

grid = np.linspace(0.0, 1.0, 501)
vals = pdf(fitted, grid)
print(f"\nestimate integrates to {np.trapezoid(vals, grid):.6f}; "
      f"minimum value {vals.min():.4f} (always positive)")
