"""Census of the public API's optional settings and the command line's config keys.

Every defaulted parameter of a public function and every defaulted init
field of a public dataclass is a setting a caller may choose, and so is
every leaf key of a command's config.  A setting belongs here only when a
workload, the command line or a demo sets it, or when a test needs it to
reach a behaviour it checks.  Adding one means adding its name below.
"""

import dataclasses
import importlib
import inspect

from forestdens import cli

MODULES = ("basis", "expfam", "forest", "estimator", "simbench", "cli")

OPTIONS = [
    "expfam.solve_theta.max_iter",
    "expfam.solve_theta_batch.max_iter",
    "forest.Box.lower_open",
    "forest.ForestConfig.min_child",
    "forest.ForestConfig.min_fraction",
    "forest.ForestConfig.scheme",
    "forest.ForestConfig.n_grid",
    "forest.ForestConfig.seed",
    "forest.BranchResult.splits",
    "forest.best_split.spec",
    "forest.grow_branch.index",
    "forest.grow_from_halves.index",
    "forest.weights.workers",
    "estimator.fit.se_params",
    "estimator.fit.workers",
    "estimator.fit.weights_override",
    "estimator.confidence_interval.level",
    "simbench.MCReport.failures",
    "simbench.kernel_baseline.bandwidths",
    "simbench.run_mc.design_points",
    "simbench.run_mc.rng",
    "simbench.run_mc.workers",
    "simbench.run_mc.mise_grid_points",
    "simbench.run_mc.ci_level",
    "cli.main.argv",
    "cli.cmd_fit.seed",
    "cli.cmd_fit.workers",
    "cli.cmd_fit.out_dir",
    "cli.cmd_mc.seed",
    "cli.cmd_mc.workers",
    "cli.cmd_mc.out_dir",
]

FOREST_KEYS = ["subsample_size", "n_trees", "basis_order", "min_child", "min_fraction",
               "scheme", "n_grid", "initial_parent"]

CONFIG_KEYS = {
    "fit": ["input", "query_x", "y_grid.start", "y_grid.stop", "y_grid.num", "ci_level",
            "se", "seed", "workers", *(f"forest.{k}" for k in FOREST_KEYS)],
    "mc": ["design", "n", "reps", "design_points", "ci_level", "mise_grid_points", "se",
           "seed", "workers", *(f"forest.{k}" for k in FOREST_KEYS)],
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


def test_config_keys_are_the_recorded_ones():
    found = {"fit": leaf_keys(cli._FIT_DEFAULTS), "mc": leaf_keys(cli._MC_DEFAULTS)}
    assert found == CONFIG_KEYS
