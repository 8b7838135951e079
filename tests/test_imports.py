"""The estimator core loads numpy only; the Monte Carlo harness adds scipy.special,
the one scipy subpackage it uses, and never scipy.integrate or scipy.stats.

Each check runs in a fresh interpreter, because the pytest process has
already imported scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
REPORT_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["forestdens", "forestdens.cli"])
def test_import_loads_no_scipy(module):
    assert run_fresh(f"import {module}\n{REPORT_SCIPY}") == "[]"


def test_fit_and_queries_load_no_scipy():
    code = """
import numpy as np
import forestdens as fd
rng = np.random.default_rng(0)
data = fd.Dataset(rng.random(60), rng.random((60, 2)))
cfg = fd.ForestConfig(subsample_size=20, n_trees=12, basis_order=3,
                      initial_parent=[[0.0, 0.0], [1.0, 1.0]], min_child=3, seed=1)
fitted = fd.fit(data, [0.5, 0.5], cfg)
lo, hi = fd.confidence_interval(fitted, 0.5)
assert fd.pdf(fitted, 0.5) > 0.0 and fd.std_error(fitted, 0.5) >= 0.0 and lo <= hi
"""
    assert run_fresh(code + REPORT_SCIPY) == "[]"


def test_harness_names_resolve_on_access():
    import forestdens
    from forestdens import simbench
    for name in ("MCReport", "gen_covariates", "gen_outcome", "kernel_baseline",
                 "run_mc", "true_cdf", "true_density"):
        assert name in forestdens.__all__
        assert getattr(forestdens, name) is getattr(simbench, name)
    assert run_fresh("from forestdens import run_mc\nprint(run_mc.__module__)") \
        == "forestdens.simbench"
    with pytest.raises(AttributeError):
        forestdens.no_such_name


@pytest.fixture(scope="module")
def monte_carlo_scipy():
    """The scipy subpackages loaded by Monte Carlo runs with and without SEs."""
    code = """
from forestdens.forest import ForestConfig
from forestdens.simbench import run_mc
cfg = ForestConfig(subsample_size=40, n_trees=8, basis_order=4,
                   initial_parent=[[0.0] * 4, [1.0] * 4], min_child=4, seed=5)
for se in (False, True):
    assert run_mc("D1", 120, 2, cfg, se, workers=1).completed == 2
print(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}))
"""
    return ast.literal_eval(run_fresh(code))


def test_monte_carlo_run_loads_no_scipy_stats(monte_carlo_scipy):
    assert "special" in monte_carlo_scipy and "stats" not in monte_carlo_scipy


def test_monte_carlo_run_loads_no_scipy_integrate(monte_carlo_scipy):
    assert "integrate" not in monte_carlo_scipy
