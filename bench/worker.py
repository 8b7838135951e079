"""Benchmark worker: runs one workload in a closed loop and reports JSON.

Started by ``bench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread.  One caller issues one op at a time;
each op starts only after the previous one has returned.  In an untraced
run the speed probe of ``speed.py`` samples the machine during the ops, and
every op time is kept as thread CPU, wall and reference seconds.

Usage::

    python3 bench/worker.py --workload fit_theta_se --seed 1 --seconds 24 --trace 0 --out-dir .bench_out

The last line of standard output is one JSON object with the timings,
check results, output digest, provenance and (with ``--trace 1``) the
per-layer metrics.  Every op of a run gets the same generated inputs, so
every op must produce the same outputs; the digest of the first op is the
run's determinism record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from hashlib import sha256
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

import forestdens
from forestdens import basis, cli, estimator, expfam, forest, simbench
from speed import NUMPY_REF_S, NumpyKernel, SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

BASIS_ORDER = 8
QUERY_X = np.full(4, 0.5)
CI_LEVEL = 0.95
Z = 1.959963984540054  # standard normal 0.975 quantile, for the CI check
Y_GRID = np.linspace(0.05, 0.95, 19)  # the fit command's default y_grid
ISE_GRID = np.linspace(0.15, 0.85, 141)  # simbench's MISE interval and grid
UNIT_CUBE = [[0.0] * 4, [1.0] * 4]
MC_REPS = 4
MC_MISE_BOUND = 0.05  # acceptance criterion 7's smoke bound
CPU_SLACK = 1.05
TICK_S = 0.02  # process_time advances per scheduler tick while the probe's timer is armed


def timings(op, fit, rest) -> dict:
    """Op, fit and rest times, each a (CPU, wall, reference) triple, as named floats."""
    return {f"{part}{clock}": float(t[k])
            for part, t in (("", op), ("fit_", fit), ("rest_", rest))
            for k, clock in enumerate(("cpu", "wall", "ref"))}


TIMINGS = tuple(timings(*[np.zeros(3)] * 3))


def all_cpu() -> float:
    """CPU seconds of this process plus those of its ended, waited-for children.

    ``process_time`` leaves out child processes, so work sent to a process
    pool (``workers > 1``) would otherwise vanish from the checks.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def digest(*parts: bytes) -> str:
    h = sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


class FitWorkload:
    """The paper's reference fit (D1, n = 1000) plus the fit command's query loop.

    One op is ``estimator.fit`` followed by pdf, std_error and
    confidence_interval at each of the 19 default y-grid points, exactly as
    ``cli.cmd_fit`` does it.  Fit and query are timed apart.
    """

    n = 1000

    def __init__(self, scheme: str, seed: int, out_dir: Path, probe: SpeedProbe):
        self.clocks = probe.clocks
        data_seed, forest_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
        rng = np.random.default_rng(data_seed)
        x = simbench.gen_covariates(self.n, rng)
        y = simbench.gen_outcome("D1", x, rng)
        self.data = forest.Dataset(y, x)
        # the fit command's forest defaults, with the unit cube as root node
        self.cfg = forest.ForestConfig(
            subsample_size=200, n_trees=2240, basis_order=BASIS_ORDER,
            initial_parent=UNIT_CUBE, min_child=10, min_fraction=0.05,
            scheme=scheme, n_grid=32, seed=forest_seed)
        self.seeds = {"data": data_seed, "forest": forest_seed}
        self.units = 1

    def op(self) -> dict:
        t0 = np.array(self.clocks())
        fitted = estimator.fit(self.data, QUERY_X, self.cfg, se_params="auto", workers=1)
        t1 = np.array(self.clocks())
        rows = []
        for y in Y_GRID:
            y = float(y)
            dens = estimator.pdf(fitted, y)
            se = estimator.std_error(fitted, y)
            lo, hi = estimator.confidence_interval(fitted, y, CI_LEVEL)
            rows.append((dens, se, lo, hi))
        t2 = np.array(self.clocks())
        return {"fitted": fitted, "rows": np.array(rows)} | timings(t2 - t0, t1 - t0, t2 - t1)

    def check(self, res: dict) -> tuple[list[str], str]:
        """Output checks; returns (problems, output digest)."""
        fitted, rows = res["fitted"], res["rows"]
        dens, se, lo, hi = rows.T
        problems = []
        if not fitted.theta_hat.converged:
            problems.append("theta_hat did not converge")
        if not (np.all(np.isfinite(dens)) and np.all(dens > 0.0)):
            problems.append("pdf not finite and positive on the grid")
        spec = fitted.basis
        mass = float(spec.weights @ estimator.pdf(fitted, spec.nodes))
        if not abs(mass - 1.0) <= 1e-9:
            problems.append(f"pdf integrates to {mass!r}, not 1")
        if not (np.all(np.isfinite(se)) and np.all(se >= 0.0)):
            problems.append("std_error not finite and nonnegative")
        if not (np.allclose(lo, dens - Z * se, rtol=1e-12, atol=1e-14)
                and np.allclose(hi, dens + Z * se, rtol=1e-12, atol=1e-14)):
            problems.append("confidence interval is not pdf -/+ z * SE")
        return problems, digest(rows.tobytes(), fitted.theta_hat.theta.tobytes())

    def accuracy(self, res: dict) -> float:
        """ISE on [0.15, 0.85] against the true D1 density, as simbench computes it."""
        fhat = estimator.pdf(res["fitted"], ISE_GRID)
        truth = simbench.true_density("D1", ISE_GRID, QUERY_X)
        return float(simpson((fhat - truth) ** 2, x=ISE_GRID))


class McWorkload:
    """The criterion-7 D1 smoke run through the ``forestdens mc`` entry point.

    One op is ``cli.main(["mc", ...])`` with ``MC_REPS`` replications; the
    report is read back from ``mc_report.json``.  A clock read around each
    ``estimator.fit`` call splits the op into fit time and the rest (data
    generation, grid evaluation, report); both are given per replication.
    The clock wrapper is in place only while an op runs.
    """

    def __init__(self, seed: int, out_dir: Path, probe: SpeedProbe):
        self.clocks = probe.clocks
        mc_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        self.seeds = {"mc": mc_seed}
        self.units = MC_REPS
        self.out = out_dir / "mc"
        config = {
            "design": "D1", "n": 500, "reps": MC_REPS, "se": None, "seed": mc_seed,
            "workers": 1, "ci_level": 0.95, "mise_grid_points": 141,
            "design_points": list(simbench.DEFAULT_DESIGN_POINTS),
            "forest": {"subsample_size": 125, "n_trees": 560, "basis_order": BASIS_ORDER,
                       "min_child": 10, "min_fraction": 0.05, "scheme": "theta",
                       "n_grid": 32, "initial_parent": UNIT_CUBE},
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / "mc_config.json"
        config_path.write_text(json.dumps(config))
        self.argv = ["mc", "--config", str(config_path), "--seed", str(mc_seed),
                     "--workers", "1", "--out", str(self.out)]

    def op(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        fit_time = np.zeros(3)  # (CPU, wall, reference) seconds inside estimator.fit
        fit = estimator.fit

        def timed_fit(*args, **kwargs):
            t0 = np.array(self.clocks())
            try:
                return fit(*args, **kwargs)
            finally:
                fit_time[:] += np.array(self.clocks()) - t0

        estimator.fit = timed_fit
        try:
            t0 = np.array(self.clocks())
            code = cli.main(self.argv)
            op = np.array(self.clocks()) - t0
        finally:
            estimator.fit = fit
        fit, rest = fit_time / MC_REPS, (op - fit_time) / MC_REPS
        return {"exit_code": code} | timings(op, fit, rest)

    def check(self, res: dict) -> tuple[list[str], str]:
        if res["exit_code"] != 0:
            return [f"mc exited with code {res['exit_code']}"], ""
        report = json.loads((self.out / "mc_report.json").read_text())["report"]
        res["report"] = report
        problems = []
        if report["completed"] != MC_REPS:
            problems.append(f"{report['completed']}/{MC_REPS} replications completed")
        if not report["mise"] < MC_MISE_BOUND:
            problems.append(f"MISE {report['mise']!r} not below {MC_MISE_BOUND}")
        return problems, digest(json.dumps(report, sort_keys=True).encode())

    def accuracy(self, res: dict) -> float:
        return float(res["report"]["mise"])


def warm_up() -> None:
    """A tiny fit and SE on the timed code paths, so lazy imports finish before timing."""
    rng = np.random.default_rng(0)
    x = simbench.gen_covariates(60, rng)
    data = forest.Dataset(simbench.gen_outcome("D1", x, rng), x)
    cfg = forest.ForestConfig(subsample_size=30, n_trees=8, basis_order=BASIS_ORDER,
                              initial_parent=UNIT_CUBE, min_child=5)
    estimator.std_error(estimator.fit(data, QUERY_X, cfg, se_params=(2, 3)), 0.5)


WORKLOADS = {
    "fit_theta_se": lambda *args: FitWorkload("theta", *args),
    "fit_mu_se": lambda *args: FitWorkload("mu", *args),
    "mc_d1_smoke": McWorkload,
}


# -- tracing ---------------------------------------------------------------

def install_tracer(clock) -> Tracer:
    """Wrap the public entry point of each layer; counts come from results and errors."""
    tr = Tracer(clock)

    def on_theta(t, sol):
        t.count("expfam.solve_theta.ok")
        t.count("expfam.solve_theta.newton_iters", sol.iterations)
        t.high("expfam.solve_theta.newton_iters_max", sol.iterations)

    def on_split(t, found):
        t.count("forest.best_split.found", found is not None)

    def on_branch(t, br):
        size = int(br.holdout_members.size)
        t.count("forest.splits", len(br.splits))
        t.count("forest.leaf_holdout", size)
        t.count("forest.empty_leaves", size == 0)
        t.low("forest.leaf_holdout.min", size)

    def on_fit(t, fitted):
        w = fitted.weights.weights
        t.count("estimator.weights_ess", 1.0 / float(w @ w))

    tr.wrap(expfam, "solve_theta", "expfam.solve_theta", on_theta,
            errors=(forestdens.BoundaryMoment, forestdens.NonConvergence))
    tr.wrap(expfam, "t_functional", "expfam.t_functional")
    tr.wrap(expfam, "density", "expfam.density")
    tr.wrap(forest, "best_split", "forest.best_split", on_split)
    tr.wrap(forest, "grow_branch", "forest.grow_branch", on_branch)
    tr.wrap(forest, "sigma_fe", "forest.sigma_fe")
    tr.wrap(forest, "draw_subsamples", "forest.subsamples")
    tr.wrap(forest, "se_subsample_plan", "forest.subsamples")
    tr.wrap(forest, "per_tree_means", "forest.per_tree_means")
    tr.wrap(estimator, "fit", "estimator.fit", on_fit)
    tr.wrap(estimator, "std_error", "estimator.std_error")
    tr.wrap(simbench, "gen_covariates", "simbench.gen_data")
    tr.wrap(simbench, "gen_outcome", "simbench.gen_data")
    tr.wrap(simbench, "run_mc", "simbench.run_mc")
    tr.wrap(cli, "cmd_mc", "cli.cmd_mc")
    for module in (basis, expfam, forest, estimator):
        tr.wrap(module, "basis_matrix", "basis.basis_matrix")
    return tr


def op_counts(tr: Tracer, times: dict, op: int) -> dict:
    """Exact counts of one traced op: span calls plus counts seen at the wrappers."""
    calls = {f"{name}.calls": c for name, (c, _s, _i) in times[op].items()}
    return dict(sorted({**calls, **tr.counts[op], **tr.minima[op], **tr.maxima[op]}.items()))


def layer_metrics(tr: Tracer, times: dict, ops: list[dict], traced: list[int]) -> dict:
    """Per-layer metrics, each normalised per op over the traced ops."""
    k = len(traced)

    def per_op(get) -> float:
        return sum(get(op) for op in traced) / k

    def calls(name):
        return per_op(lambda op: times[op].get(name, (0, 0.0, 0.0))[0])

    def self_s(name):
        return per_op(lambda op: times[op].get(name, (0, 0.0, 0.0))[1])

    def incl_s(name):
        return per_op(lambda op: times[op].get(name, (0, 0.0, 0.0))[2])

    def count(key):
        return per_op(lambda op: tr.counts[op][key])

    def ratio(num, den):
        return num / den if den else 0.0

    theta_calls = calls("expfam.solve_theta")
    split_calls = calls("forest.best_split")
    branch_calls = calls("forest.grow_branch")
    fit_calls = calls("estimator.fit")
    op_s = statistics.median(ops[op].get("ref", float("nan")) for op in traced)
    fit_s = incl_s("estimator.fit")
    m = {
        "basis.basis_matrix.calls": calls("basis.basis_matrix"),
        "basis.basis_matrix.self_s": self_s("basis.basis_matrix"),
        "expfam.solve_theta.calls": theta_calls,
        "expfam.solve_theta.self_s": self_s("expfam.solve_theta"),
        "expfam.solve_theta.newton_iters": count("expfam.solve_theta.newton_iters"),
        "expfam.solve_theta.newton_iters_max": max(
            tr.maxima[op].get("expfam.solve_theta.newton_iters_max", 0) for op in traced),
        "expfam.solve_theta.boundary_moment": count("expfam.solve_theta.BoundaryMoment"),
        "expfam.solve_theta.non_convergence": count("expfam.solve_theta.NonConvergence"),
        "expfam.solve_theta.ok_ratio": ratio(count("expfam.solve_theta.ok"), theta_calls),
        "expfam.t_functional.self_s": self_s("expfam.t_functional"),
        "expfam.density.self_s": self_s("expfam.density"),
        "forest.grow_branch.calls": branch_calls,
        "forest.grow_branch.self_s": self_s("forest.grow_branch"),
        "forest.best_split.calls": split_calls,
        "forest.best_split.self_s": self_s("forest.best_split"),
        "forest.best_split.found_ratio": ratio(count("forest.best_split.found"), split_calls),
        "forest.splits_per_tree.mean": ratio(count("forest.splits"), branch_calls),
        "forest.leaf_holdout.mean": ratio(count("forest.leaf_holdout"), branch_calls),
        "forest.leaf_holdout.min": min(
            tr.minima[op].get("forest.leaf_holdout.min", 0) for op in traced),
        "forest.empty_leaves": count("forest.empty_leaves"),
        "forest.subsamples.self_s": self_s("forest.subsamples"),
        "forest.per_tree_means.self_s": self_s("forest.per_tree_means"),
        "forest.sigma_fe.calls": calls("forest.sigma_fe"),
        "forest.sigma_fe.self_s": self_s("forest.sigma_fe"),
        "estimator.fit.self_s": self_s("estimator.fit"),
        "estimator.std_error.calls": calls("estimator.std_error"),
        "estimator.std_error.self_s": self_s("estimator.std_error"),
        "estimator.weights_ess": ratio(count("estimator.weights_ess"), fit_calls),
        "simbench.gen_data.self_s": self_s("simbench.gen_data"),
        "simbench.run_mc.self_s": self_s("simbench.run_mc"),
        "cli.cmd_mc.self_s": self_s("cli.cmd_mc"),
        "trace.op_s": op_s,
        "trace.fit_s": fit_s,
        "trace.query_s": op_s - fit_s,
        "trace.overhead_s": op_s - statistics.median(
            o.get("ref", float("nan")) for i, o in enumerate(ops) if i not in traced),
    }
    return m


# -- run -------------------------------------------------------------------

def provenance(args, workload) -> dict:
    import scipy

    def blas(cfg) -> str:
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
        "seed": args.seed,
        "derived_seeds": workload.seeds,
        "forestdens": forestdens.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(forestdens.__file__).resolve().parent.parent != src:
        print(f"forestdens was imported from {forestdens.__file__}, not {src}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    probe = SpeedProbe(NumpyKernel(), NUMPY_REF_S)
    workload = WORKLOADS[args.workload](args.seed, work_dir, probe)
    probe.start()
    warm_up()

    ops: list[dict] = []
    problems: list[str] = []
    failed = 0
    traced: list[int] = []
    min_ops = 3 if args.trace else 2  # a traced run compares the counts of two traced ops
    first_digest = None
    accuracy = None
    tracer = None
    start = time.perf_counter()
    try:
        while True:
            i = len(ops)
            if args.trace and i >= 1 and tracer is None:
                tracer = install_tracer(lambda: probe.clocks()[2])  # op 0 stays untraced
            if tracer is not None:
                traced.append(i)
            first_sample = len(probe.samples)
            w0, p0, t0 = time.perf_counter(), all_cpu(), time.thread_time()
            res, op_problems = run_op(workload, tracer, i)
            op_wall = time.perf_counter() - w0
            proc_cpu, thread_cpu = all_cpu() - p0, time.thread_time() - t0
            if not op_problems:
                op_problems, out = workload.check(res)
                if not proc_cpu <= CPU_SLACK * thread_cpu + TICK_S:
                    op_problems.append(f"CPU time of the process and its children {proc_cpu:.3f} s "
                                       f"exceeds {CPU_SLACK} x the measuring thread's "
                                       f"{thread_cpu:.3f} s")
                if out and first_digest is None:
                    first_digest, accuracy = out, workload.accuracy(res)
                elif out != first_digest:
                    op_problems.append("outputs differ from the first op's on the same inputs")
            problems += [f"op {i}: {p}" for p in op_problems]
            failed += workload.units if op_problems else 0
            ops.append({"op_wall": op_wall, "probe_samples": len(probe.samples) - first_sample}
                       | {k: v for k, v in res.items() if k in TIMINGS})
            elapsed = time.perf_counter() - start
            if len(ops) >= min_ops and elapsed + statistics.median(o["op_wall"] for o in ops) > args.seconds:
                break
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": ops,
        "attempted": len(ops) * workload.units,
        "failed": failed,
        "problems": problems,
        "digest": first_digest,
        "accuracy": accuracy,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "provenance": provenance(args, workload),
    }
    if tracer is not None:
        tracer.uninstall()
        times = tracer.self_times()
        counts = [op_counts(tracer, times, op) for op in traced]
        if any(c != counts[0] for c in counts[1:]):
            result["problems"].append("traced counts differ between ops on the same inputs")
            result["failed"] += workload.units
        result["counts"] = counts[0]
        result["counts_digest"] = digest(json.dumps(counts[0], sort_keys=True).encode())
        result["per_layer"] = layer_metrics(tracer, times, ops, traced)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


def run_op(workload, tracer: Tracer | None, i: int) -> tuple[dict, list[str]]:
    """One op, traced as op ``i`` when a tracer is installed.

    An op that raises is reported as a problem (with its traceback) and the
    closed loop goes on, so one failure does not hide the rest of the run.
    """
    try:
        if tracer is None:
            return workload.op(), []
        tracer.op = i
        try:
            with tracer.span("bench.op"):
                return workload.op(), []
        finally:
            tracer.op = None
    except Exception:
        return {}, ["op raised:\n" + traceback.format_exc()]


if __name__ == "__main__":
    sys.exit(main())
