"""A small Monte Carlo benchmark run with the oracle kernel comparison.

Repeats data generation and fitting for one design at reduced scale,
aggregates bias / dispersion / integrated squared error, and contrasts a
few pointwise estimates with the oracle kernel ratio estimator.

Run:  python demos/04_monte_carlo_benchmark.py        (about a minute)
"""

import numpy as np

from forestdens import (Dataset, ForestConfig, gen_covariates, gen_outcome,
                        kernel_baseline, run_mc, true_density)
from forestdens.simbench import report_rows

cfg = ForestConfig(subsample_size=125, n_trees=280, basis_order=8,
                   min_child=10, min_fraction=0.05, scheme="theta",
                   initial_parent=[[0.0] * 4, [1.0] * 4], seed=1)

report = run_mc("D1", 500, 10, cfg, None, design_points=(0.25, 0.5, 0.75),
                workers=2)
print("y       truth   bias     sd")
for i, y in enumerate(report.design_points):
    print(f"{y:.3f}  {report.truth[i]:6.3f}  {report.bias[i]:+.4f}  "
          f"{report.sd[i]:.4f}")
print(f"MISE over {report.mise_interval}: {report.mise:.4f} "
      f"({report.completed}/{report.reps} replications, "
      f"{report.runtime_seconds:.0f}s)")

print("\nfixed-schema rows (as written to CSV):")
for row in report_rows(report):
    print(",".join(row))

# the oracle kernel estimator knows which covariates matter but still
# smooths much harder than the forest weights
rng = np.random.default_rng(2)
x_mat = gen_covariates(2000, rng)
y_vec = gen_outcome("D1", x_mat, rng)
data = Dataset(y_vec, x_mat)
x_query = np.full(4, 0.5)
print("\ny      kernel   truth")
for y in (0.25, 0.5, 0.75):
    print(f"{y:.3f}  {kernel_baseline(data, y, x_query):6.3f}  "
          f"{true_density('D1', y, x_query):6.3f}")
