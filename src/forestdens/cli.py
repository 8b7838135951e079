"""Command-line front end: fit on user data, or run the Monte Carlo suite.

Both commands read a single JSON configuration document (unknown keys are
rejected), write fixed-schema CSV outputs plus a JSON provenance block with
every resolved setting, and exit with 0 on success, 1 on input errors, and
2 on estimation failures: the commands raise ``UsageError`` or
``EstimationError``, and :func:`main` maps them to exit codes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, estimator
from .errors import EstimationError
from .forest import Box, Dataset, ForestConfig

__all__ = ["main", "cmd_fit", "cmd_mc", "UsageError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ESTIMATION = 2

_FOREST_DEFAULTS = {
    "subsample_size": 200,
    "n_trees": 2240,
    "basis_order": 8,
    **{key: getattr(ForestConfig, key)  # ForestConfig's own defaults
       for key in ("min_child", "min_fraction", "scheme", "n_grid")},
    "initial_parent": None,
}

_FIT_DEFAULTS = {
    "input": None,
    "query_x": None,
    "y_grid": {"start": 0.05, "stop": 0.95, "num": 19},
    "ci_level": 0.95,
    "se": "auto",
    "seed": 0,
    "forest": _FOREST_DEFAULTS,
}

_MC_DEFAULTS = {
    "design": None,
    "n": 1000,
    "reps": 100,
    "design_points": None,  # simbench.DEFAULT_DESIGN_POINTS, filled in by cmd_mc
    "ci_level": 0.95,
    "mise_grid_points": 141,
    "se": "auto",
    "seed": 0,
    "workers": 1,
    "forest": dict(_FOREST_DEFAULTS, initial_parent=[[0.25] * 4, [0.75] * 4]),
}


class UsageError(Exception):
    """Invalid flags, config, or input data; maps to exit code 1."""


def _merge_config(defaults: dict, user: dict, context: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {context + key!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict) and key != "y_grid":
            out[key] = _merge_config(defaults[key], value, context=f"{key}.")
        else:
            out[key] = value
    return out


def _load_config(path: str, defaults: dict, **flags) -> dict:
    """Read a JSON config over ``defaults``; each count named in ``flags`` is the flag unless None."""
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    cfg = _merge_config(defaults, user)
    for key, flag in flags.items():
        cfg[key] = _count(cfg[key] if flag is None else flag, key)
    return cfg


def _read_input_csv(path: str) -> Dataset:
    """Read the fit input: header row, outcome in the first column."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise UsageError(f"cannot read input {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"input {path} is empty") from None
        if len(header) < 2:
            raise UsageError(f"input {path} needs an outcome and at least one covariate column")
        width = len(header)
        ys, xs = [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != width:
                raise UsageError(f"input {path} row {rownum}: expected {width} fields")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise UsageError(f"input {path} row {rownum}: non-numeric value") from None
            if not np.all(np.isfinite(vals)):
                raise UsageError(f"input {path} row {rownum}: non-finite value")
            if not 0.0 <= vals[0] <= 1.0:
                raise UsageError(
                    f"input {path} row {rownum}: outcome {vals[0]} outside [0, 1]")
            ys.append(vals[0])
            xs.append(vals[1:])
    if not ys:
        raise UsageError(f"input {path} has no data rows")
    return Dataset(np.array(ys), np.array(xs))


def _count(value, name: str) -> int:
    """An integer config count; a boolean, a fractional float or a non-number is an input error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _real(value, name: str, lists: bool = False):
    """A real config number as a float; with ``lists``, also a list of them at any depth, as a
    float array.  A boolean or another non-number is an input error, as for :func:`_count`."""
    if lists and isinstance(value, list):
        return np.array([_real(v, name, lists) for v in value], dtype=float)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{name} must be a number{' or a list of numbers' * lists}, not {value!r}")
    return float(value)


def _build_forest_config(fcfg: dict, seed: int, data: Dataset = None) -> ForestConfig:
    parent = fcfg["initial_parent"]
    if parent is None:
        if data is None:
            raise UsageError("initial_parent must be given when no data bounds exist")
        lo = data.x.min(axis=0)
        hi = data.x.max(axis=0)
        pad = 0.01 * (hi - lo)
        parent = Box(lo + pad, hi - pad)
    else:
        parent = _real(parent, "initial_parent", lists=True)
    counts = {key: _count(fcfg[key], key)
              for key, default in _FOREST_DEFAULTS.items() if isinstance(default, int)}
    return ForestConfig(**counts, initial_parent=parent,
                        min_fraction=_real(fcfg["min_fraction"], "min_fraction"),
                        scheme=str(fcfg["scheme"]), seed=seed)


def _resolved_forest_dict(cfg: ForestConfig) -> dict:
    return dict({key: getattr(cfg, key) for key in _FOREST_DEFAULTS},
                initial_parent=[cfg.initial_parent.lower.tolist(),
                                cfg.initial_parent.upper.tolist()])


def _write_provenance(out_dir: str, name: str, command: str, cfg: dict,
                      fcfg: ForestConfig, se: bool, **extra) -> Path:
    """Create the output directory and write the provenance block as ``name`` in it.

    The block holds the command, ``cfg`` with the resolved forest settings and
    ``se``, whether SE columns were computed, the library versions and the
    ``extra`` entries.  Returns the directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "config": dict(cfg, forest=_resolved_forest_dict(fcfg), se=se),
        "versions": {
            "forestdens": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        **extra,
    }
    with open(out / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


@contextmanager
def _input_errors(command: str, errors=(TypeError, ValueError, OverflowError)):
    """Treat ``errors`` raised in the block as an input error.

    Config values are converted under the default, so that a value of the
    wrong type or out of range is an input error; the estimator runs under
    ``ValueError`` alone.
    """
    try:
        yield
    except errors as exc:
        raise UsageError(f"invalid {command} configuration: {exc}") from exc


def _se_arg(se) -> bool:
    """Whether a config's ``se`` asks for SE columns: true or "auto" do, false or null do not."""
    if not (se is None or isinstance(se, bool) or se == "auto"):
        raise UsageError(f"se must be null, \"auto\" or a boolean, not {se!r}")
    return se is True or se == "auto"


def _ci_level(value) -> float:
    level = _real(value, "ci_level")
    if not 0.0 < level < 1.0:  # NaN fails both
        raise UsageError(f"ci_level must lie in (0, 1), not {value!r}")
    return level


def _y_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        if set(spec) != {"start", "stop", "num"}:
            raise UsageError(f"y_grid keys must be start, stop and num, not {sorted(spec)}")
        grid = np.linspace(_real(spec["start"], "y_grid.start"),
                           _real(spec["stop"], "y_grid.stop"), _count(spec["num"], "y_grid.num"))
    else:
        grid = np.asarray(_real(spec, "y_grid", lists=True))
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise UsageError("y_grid must be a nonempty flat grid inside [0, 1]")  # NaN fails too
    return grid


def cmd_fit(config_path: str, seed=None, out_dir: str = ".") -> int:
    """Fit on a user CSV and write density, SE, and CI columns over a y grid."""
    cfg = _load_config(config_path, _FIT_DEFAULTS, seed=seed)
    if cfg["input"] is None:
        raise UsageError("config key 'input' is required for fit")
    if cfg["query_x"] is None:
        raise UsageError("config key 'query_x' is required for fit")
    data = _read_input_csv(cfg["input"])
    with _input_errors("fit"):
        query_x = _real(cfg["query_x"], "query_x", lists=True)
        fcfg = _build_forest_config(cfg["forest"], cfg["seed"], data)
        grid = _y_grid(cfg["y_grid"])
        se = _se_arg(cfg["se"])
        level = _ci_level(cfg["ci_level"])

    with _input_errors("fit", ValueError):
        fitted = estimator.fit(data, query_x, fcfg)
        rows = []
        for y in map(float, grid):
            row = [y, estimator.pdf(fitted, y)]
            if se:
                se_y = estimator.std_error(fitted, y)
                row += [se_y, *estimator._interval(row[1], se_y, level)]
            rows.append([repr(v) for v in row] + [""] * (5 - len(row)))

    out = _write_provenance(out_dir, "fit_provenance.json", "fit",
                            dict(cfg, y_grid=grid.tolist()), fcfg, se)
    with open(out / "fit.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "pdf", "se", "ci_lo", "ci_hi"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_mc(config_path: str, seed=None, workers=None, out_dir: str = ".") -> int:
    """Run the Monte Carlo benchmark and write the report CSV and JSON summary."""
    from . import simbench  # the harness loads scipy; only this command needs it
    cfg = _load_config(config_path, dict(
        _MC_DEFAULTS, design_points=list(simbench.DEFAULT_DESIGN_POINTS)),
        seed=seed, workers=workers)
    with _input_errors("mc"):
        fcfg = _build_forest_config(cfg["forest"], cfg["seed"])
        n, reps = _count(cfg["n"], "n"), _count(cfg["reps"], "reps")
        se = _se_arg(cfg["se"])
        options = dict(design_points=_real(cfg["design_points"], "design_points", lists=True),
                       workers=cfg["workers"],
                       mise_grid_points=_count(cfg["mise_grid_points"], "mise_grid_points"),
                       ci_level=_ci_level(cfg["ci_level"]))

    with _input_errors("mc", ValueError):
        report = simbench.run_mc(cfg["design"], n, reps, fcfg, se, **options)

    out = _write_provenance(out_dir, "mc_report.json", "mc", cfg, fcfg, se,
                            report=simbench.report_to_dict(report))
    simbench.write_report_csv(report, out / "mc_report.csv")
    print(f"mc completed: {report.completed}/{report.reps} replications in "
          f"{report.runtime_seconds:.1f}s", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="forestdens",
                     description="Conditional density estimation with forest weights")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("fit", "fit a conditional density on a CSV sample"),
                           ("mc", "run a Monte Carlo benchmark design")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "mc":
            p.add_argument("--workers", type=int, default=None, help="override the config workers")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "fit":
            return cmd_fit(args.config, args.seed, args.out)
        return cmd_mc(args.config, args.seed, args.workers, args.out)
    except UsageError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EstimationError as exc:
        print(f"estimation failed during {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
