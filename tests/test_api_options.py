"""Census of the public API's optional settings.

Every defaulted parameter of a public function and every defaulted init
field of a public dataclass is a setting a caller may choose.  A setting
belongs here only when a workload, the command line or a demo sets it, or
when a test needs it to reach a behaviour it checks.  Adding one means
adding its name below.
"""

import dataclasses
import importlib
import inspect

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
    "forest.grow_forest.rng",
    "forest.weights.rng",
    "forest.weights.workers",
    "estimator.fit.se_params",
    "estimator.fit.rng",
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
    "simbench.run_mc.rep_seeds",
    "cli.main.argv",
    "cli.cmd_fit.seed",
    "cli.cmd_fit.workers",
    "cli.cmd_fit.out_dir",
    "cli.cmd_mc.seed",
    "cli.cmd_mc.workers",
    "cli.cmd_mc.out_dir",
]


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
