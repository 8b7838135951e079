"""Census of the public names and optional settings, and of the command line's config keys.

Every defaulted parameter of a public function and every defaulted init
field of a public dataclass is a setting a caller may choose, and so is
every leaf key of a command's config.  A setting belongs here only when a
benchmark workload, the command line, a demo or library code sets it; a
setting that only tests set is a test hook, and a test that needs another
value monkeypatches the module constant instead.  Adding one means adding
its name below, and so does adding a name to the ``__all__`` of the package
or of a module.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import forestdens
from forestdens import cli

MODULES = ("basis", "expfam", "forest", "estimator", "simbench", "cli")
BENCH = Path(__file__).resolve().parent.parent / "bench"

#: Module attributes kept only because the traced benchmark wraps them by
#: name; each goes when ``bench/worker.py`` stops naming it.
BENCH_HELD = ["forest.se_subsample_plan", "forest.sigma_fe", "estimator.basis_matrix"]

#: Parameters of ``estimator.fit`` that have no effect and stay only because an
#: ``estimator.fit(...)`` call in ``bench/worker.py`` passes them by keyword.
BENCH_PASSED = ["estimator.fit.se_params", "estimator.fit.workers"]

OPTIONS = [
    "forest.ForestConfig.min_child",
    "forest.ForestConfig.min_fraction",
    "forest.ForestConfig.scheme",
    "forest.ForestConfig.n_grid",
    "forest.ForestConfig.seed",
    "estimator.fit.se_params",
    "estimator.fit.workers",
    "estimator.confidence_interval.level",
    "simbench.run_mc.design_points",
    "simbench.run_mc.workers",
    "simbench.run_mc.mise_grid_points",
    "simbench.run_mc.ci_level",
    "cli.main.argv",
    "cli.cmd_fit.seed",
    "cli.cmd_fit.out_dir",
    "cli.cmd_mc.seed",
    "cli.cmd_mc.workers",
    "cli.cmd_mc.out_dir",
]

FOREST_KEYS = ["subsample_size", "n_trees", "basis_order", "min_child", "min_fraction",
               "scheme", "n_grid", "initial_parent"]

CONFIG_KEYS = {
    "fit": ["input", "query_x", "y_grid.start", "y_grid.stop", "y_grid.num", "ci_level",
            "se", "seed", *(f"forest.{k}" for k in FOREST_KEYS)],
    "mc": ["design", "n", "reps", "design_points", "ci_level", "mise_grid_points", "se",
           "seed", "workers", *(f"forest.{k}" for k in FOREST_KEYS)],
}

PUBLIC_NAMES = {
    "forestdens": [
        "AllWeightsZero", "BasisSpec", "BoundaryMoment", "Box", "BranchResult", "Dataset",
        "EstimationError", "FittedConditionalDensity", "ForestConfig", "MCReport",
        "MomentVector", "NonConvergence", "ThetaSolution", "WeightVector", "ZeroDenominator",
        "basis_matrix", "best_split", "confidence_interval", "covariance", "default_basis",
        "density", "draw_subsamples", "fit", "gen_covariates", "gen_outcome", "grow_branch",
        "grow_from_halves", "kernel_baseline", "legendre_eval", "log_partition", "make_quadrature", "moments", "mu_hat", "pdf",
        "run_mc", "solve_theta", "split_half", "std_error", "t_functional", "true_cdf",
        "true_density", "weights"],
    "basis": ["BasisSpec", "default_basis", "legendre_eval", "basis_matrix", "basis_range",
              "make_quadrature"],
    "expfam": ["MomentVector", "ThetaSolution", "THETA_BOX_BOUND", "NEWTON_TOL", "GROWTH_TOL",
               "log_partition", "density", "moments", "covariance", "solve_theta",
               "t_functional"],
    "forest": ["Box", "Dataset", "ForestConfig", "SplitRecord", "BranchResult", "WeightVector",
               "draw_subsamples", "split_half", "best_split", "grow_branch",
               "grow_from_halves", "grow_forest", "weights", "mu_hat",
               "infinitesimal_jackknife", "debiased_variance"],
    "estimator": ["FittedConditionalDensity", "fit", "pdf", "std_error", "confidence_interval"],
    "simbench": ["DESIGNS", "DEFAULT_DESIGN_POINTS", "MISE_INTERVAL", "MCReport",
                 "gen_covariates", "gen_outcome", "true_density", "true_cdf", "kernel_baseline",
                 "run_mc", "report_rows", "write_report_csv", "report_to_dict"],
    "cli": ["main", "cmd_fit", "cmd_mc", "UsageError"],
}


def leaf_keys(defaults: dict, prefix: str = "") -> list[str]:
    return [leaf for key, value in defaults.items()
            for leaf in (leaf_keys(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


def defaulted_settings(module_name: str) -> list[str]:
    module = importlib.import_module(f"forestdens.{module_name}")
    found = []
    for name in module.__all__:
        obj = getattr(module, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            found += [f"{module_name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.init and (f.default is not dataclasses.MISSING
                                     or f.default_factory is not dataclasses.MISSING)]
        elif inspect.isfunction(obj):
            found += [f"{module_name}.{name}.{p.name}"
                      for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return found


def test_public_options_are_the_recorded_ones():
    assert [s for m in MODULES for s in defaulted_settings(m)] == OPTIONS


def test_public_names_are_the_recorded_ones():
    found = {"forestdens": forestdens.__all__}
    found |= {m: importlib.import_module(f"forestdens.{m}").__all__ for m in MODULES}
    assert found == PUBLIC_NAMES


def test_config_keys_are_the_recorded_ones():
    found = {"fit": leaf_keys(cli._FIT_DEFAULTS), "mc": leaf_keys(cli._MC_DEFAULTS)}
    assert found == CONFIG_KEYS


def test_bench_held_names_stay_only_while_the_bench_wraps_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracer = importlib.import_module("worker").install_tracer(lambda: 0.0)
        wrapped = {f"{m.__name__.rsplit('.', 1)[1]}.{attr}" for m, attr, _ in tracer._installed}
        tracer.uninstall()
    finally:
        for name in ("worker", "speed", "tracer"):
            sys.modules.pop(name, None)
    for held in BENCH_HELD:
        module_name, attr = held.split(".")
        module = importlib.import_module(f"forestdens.{module_name}")
        assert hasattr(module, attr) and attr not in module.__all__, held
        assert held in wrapped, (
            f"bench/worker.py no longer wraps {held}: delete it and its BENCH_HELD entry")


def test_bench_passed_parameters_stay_only_while_the_bench_passes_them():
    tree = ast.parse((BENCH / "worker.py").read_text())
    passed = {f"estimator.fit.{kw.arg}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "estimator.fit"
              for kw in node.keywords}
    for held in BENCH_PASSED:
        assert held in OPTIONS, held
        assert held in passed, (
            f"no estimator.fit call in bench/worker.py passes {held}: "
            f"delete the parameter and its BENCH_PASSED and OPTIONS entries")


@pytest.mark.parametrize("name", ["sigma_fe", "SESubsamplePlan", "NoCleanTrees", "MissingPlan"])
def test_retired_names_leave_the_package(name):
    with pytest.raises(AttributeError):
        getattr(forestdens, name)
