"""Monte Carlo designs, truth formulas, the oracle kernel baseline, and the harness.

Three data-generating designs share the covariate law (four coordinates,
independent normals with mean 1/2 and variance 1/8 truncated to [0, 1]; the
fourth coordinate never enters the outcome law):

* ``D1``: Beta(1 + x1/4 + x2/4, 1 + x3/2), truncated to [0.1, 0.9];
* ``D2``: log-normal with location 1/2 + x1 + x2 and squared scale
  1 + (x3 - 1/2)^2, truncated to [0.25, 5];
* ``D3``: equal-weight mixture of normals with means -(5 + x1 + x2) and
  +(5 + x1 + x2) and variance 18 + (x3 - 1/2)^2 / 10, truncated to
  [-12, 12].

Each truncated law is rescaled affinely so the outcome lives on [0, 1];
sampling inverts the truncated CDF.  The harness repeats: draw a sample,
fit at x = (1/2, 1/2, 1/2, 1/2), and record pointwise errors, standard
errors, interval coverage, and the integrated squared error over
[0.15, 0.85].

Of scipy, the module loads only ``scipy.special`` (the laws' CDFs, their
inverses and the beta density's log terms).  The normal and beta densities
are written out, so ``scipy.stats`` is never imported, and so is Simpson's
rule for the ISE (:func:`_simpson`, with the bits of
``scipy.integrate.simpson``), so ``scipy.integrate`` is never imported either.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri, xlog1py, xlogy

from . import estimator
from .basis import _check_unit_interval
from .errors import EstimationError, ZeroDenominator
from .forest import Dataset, ForestConfig

__all__ = [
    "DESIGNS",
    "DEFAULT_DESIGN_POINTS",
    "MISE_INTERVAL",
    "MCReport",
    "gen_covariates",
    "gen_outcome",
    "true_density",
    "true_cdf",
    "kernel_baseline",
    "run_mc",
    "report_rows",
    "write_report_csv",
    "report_to_dict",
]

DESIGNS = ("D1", "D2", "D3")
DEFAULT_DESIGN_POINTS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
#: Outcome interval over which the integrated squared error is taken.
MISE_INTERVAL = (0.15, 0.85)

_COV_SD = np.sqrt(1.0 / 8.0)
_COV_DIM = 4


def gen_covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` covariate rows from the truncated-normal product law.

    Coordinates are independent, so each is drawn by inverting its own
    truncated CDF.
    """
    if n < 1:
        raise ValueError("n must be positive")
    lo = ndtr((0.0 - 0.5) / _COV_SD)
    hi = ndtr((1.0 - 0.5) / _COV_SD)
    u = rng.random((n, _COV_DIM))
    return 0.5 + _COV_SD * ndtri(lo + u * (hi - lo))


def _check_design(design: str) -> str:
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    return design


def _design_params(design: str, x):
    """Per-row distribution parameters and the truncation window of rows ``x``, (d,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != _COV_DIM:
        raise ValueError(f"covariate rows must have {_COV_DIM} coordinates, not shape {x.shape}")
    x = np.atleast_2d(x)
    if design == "D1":
        return (1.0 + x[:, 0] / 4.0 + x[:, 1] / 4.0, 1.0 + x[:, 2] / 2.0), (0.1, 0.9)
    if design == "D2":
        return (0.5 + x[:, 0] + x[:, 1],
                np.sqrt(1.0 + (x[:, 2] - 0.5) ** 2)), (0.25, 5.0)
    m = 5.0 + x[:, 0] + x[:, 1]
    sd = np.sqrt(18.0 + (x[:, 2] - 0.5) ** 2 / 10.0)
    return (m, sd), (-12.0, 12.0)


def _base_cdf(design: str, t, params):
    if design == "D1":
        a, b = params
        return betainc(a, b, t)
    if design == "D2":
        mu, sig = params
        return ndtr((np.log(t) - mu) / sig)
    m, sd = params
    return 0.5 * (ndtr((t + m) / sd) + ndtr((t - m) / sd))


def _norm_pdf(t, loc=0.0, scale=1.0):
    """The normal density in ``scipy.stats.norm.pdf``'s own expression, so with the same bits."""
    z = (t - loc) / scale
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / scale


def _base_pdf(design: str, t, params):
    if design == "D1":
        a, b = params
        return np.exp(xlogy(a - 1.0, t) + xlog1py(b - 1.0, -t) - betaln(a, b))
    if design == "D2":
        mu, sig = params
        return _norm_pdf((np.log(t) - mu) / sig) / (sig * t)
    m, sd = params
    return 0.5 * (_norm_pdf(t, -m, sd) + _norm_pdf(t, m, sd))


def _window(design: str, x):
    """Parameters of rows ``x`` under ``design``, its window ``lo, hi`` and the base CDF at both."""
    params, (lo, hi) = _design_params(design, x)
    return params, lo, hi, _base_cdf(design, lo, params), _base_cdf(design, hi, params)


def gen_outcome(design: str, x, rng: np.random.Generator):
    """Draw outcomes at covariate rows ``x`` ((d,) or (n, d)); values in [0, 1].

    The truncated law is sampled by inverse CDF: uniform draws are mapped
    into the CDF range over the truncation window and inverted (closed form
    for D1/D2, bisection for the D3 mixture), then the window is rescaled
    affinely onto [0, 1].
    """
    design = _check_design(design)
    params, lo, hi, c_lo, c_hi = _window(design, x)
    u = rng.random(params[0].size)  # one draw per row
    p = c_lo + u * (c_hi - c_lo)
    if design == "D1":
        a, b = params
        t = betaincinv(a, b, p)
    elif design == "D2":
        mu, sig = params
        t = np.exp(mu + sig * ndtri(p))
    else:
        t = _bisect_cdf(lambda v: _base_cdf("D3", v, params), p, lo, hi)
    y = (np.clip(t, lo, hi) - lo) / (hi - lo)
    return float(y[0]) if np.asarray(x).ndim == 1 else y


def _bisect_cdf(cdf, p, lo, hi, iters: int = 90) -> np.ndarray:
    """Vectorized bisection for a monotone CDF; exact to double precision."""
    a = np.full_like(p, lo, dtype=float)
    b = np.full_like(p, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        go_right = cdf(mid) < p
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    return 0.5 * (a + b)


def _one_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (_COV_DIM,):
        raise ValueError(f"x must be one covariate row of {_COV_DIM} coordinates, "
                         f"not shape {x.shape}")
    return x


def _truth(design: str, y, x, cdf: bool):
    """The rescaled truncated law's CDF if ``cdf``, else its density, at ``y`` given one row ``x``.

    Checks ``design``, then ``y`` (in [0, 1]), then ``x``; a float for a scalar ``y``.
    """
    design = _check_design(design)
    arr = np.asarray(y, dtype=float)
    _check_unit_interval(arr)
    params, lo, hi, c_lo, c_hi = _window(design, _one_row(x))
    t = lo + (hi - lo) * arr
    vals = ((_base_cdf(design, t, params) - c_lo) / (c_hi - c_lo) if cdf
            else (hi - lo) * _base_pdf(design, t, params) / (c_hi - c_lo))
    return float(np.squeeze(vals)) if arr.ndim == 0 else np.asarray(vals).reshape(arr.shape)


def true_density(design: str, y, x):
    """Conditional density of the rescaled truncated law at ``y`` in [0, 1], given one row ``x``."""
    return _truth(design, y, x, cdf=False)


def true_cdf(design: str, y, x):
    """Conditional CDF matching :func:`true_density`, at ``y`` in [0, 1], given one row ``x``."""
    return _truth(design, y, x, cdf=True)


def _triweight(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) <= 1.0
    out[inside] = (35.0 / 32.0) * (1.0 - u[inside] ** 2) ** 3
    return out


def kernel_baseline(data: Dataset, y: float, x) -> float:
    """Oracle kernel ratio estimate of the conditional density.

    Product tri-weight kernels over the outcome and the first three
    covariates only (the irrelevant fourth is ignored by construction).
    The bandwidths are 1.06 times the sample standard deviation scaled by
    ``n^(-1/8)`` in the numerator and ``n^(-1/7)`` for the covariates in the
    denominator.  ``ValueError`` for data without 4 covariates, a query row
    ``x`` of another shape, a ``y`` that is not a scalar in [0, 1], or one of these
    columns constant, whose bandwidth would be zero; the message names that column.
    """
    if data.dim != _COV_DIM:
        raise ValueError(f"data of {data.dim} covariates, not {_COV_DIM}")
    x = _one_row(x)
    if np.ndim(y) != 0:
        raise ValueError(f"y must be a scalar, not an array of shape {np.shape(y)}")
    _check_unit_interval(y)
    flat = np.ptp(np.column_stack([data.y, data.x[:, :3]]), axis=0) == 0.0
    if flat.any():
        name = ("outcome", "covariate 1", "covariate 2", "covariate 3")[np.argmax(flat)]
        raise ValueError(f"{name} is constant, so its kernel bandwidth is zero")
    n = data.n
    h_y = 1.06 * np.std(data.y, ddof=1) * n ** (-1.0 / 8.0)
    sx = np.std(data.x[:, :3], axis=0, ddof=1)
    h_num = 1.06 * sx * n ** (-1.0 / 8.0)
    h_den = 1.06 * sx * n ** (-1.0 / 7.0)
    ky = _triweight((y - data.y) / h_y) / h_y
    kx_num = np.prod(_triweight((x[:3] - data.x[:, :3]) / h_num) / h_num, axis=1)
    kx_den = np.prod(_triweight((x[:3] - data.x[:, :3]) / h_den) / h_den, axis=1)
    den = kx_den.mean()
    if den <= 0.0:
        raise ZeroDenominator("no sample mass near the query point")
    return float((ky * kx_num).mean() / den)


@dataclass(frozen=True, eq=False)
class MCReport:
    """Aggregated Monte Carlo results for one design and sample size."""

    design: str
    n: int
    reps: int
    completed: int
    design_points: np.ndarray
    truth: np.ndarray
    bias: np.ndarray
    sd: np.ndarray
    avg_se: np.ndarray
    coverage: np.ndarray
    mise: float
    ci_level: float
    mise_interval: tuple[float, float]
    mise_grid_points: int
    runtime_seconds: float
    failures: tuple[str, ...]

    def __post_init__(self):
        if self.mise < 0.0:
            raise ValueError("MISE must be nonnegative")
        cov = np.asarray(self.coverage, dtype=float)
        if np.any((cov < 0.0) | (cov > 1.0)):
            raise ValueError("coverage must lie in [0, 1]")


def _one_replication(design, n, cfg, se, points, grid, truth, level, x_query, rep_ss):
    """A replication's estimates, SEs and ``level``-interval hits (NaN unless ``se``), or its failure.
    """
    rng = np.random.default_rng(rep_ss)
    try:
        xmat = gen_covariates(n, rng)
        yvec = gen_outcome(design, xmat, rng)
        data = Dataset(yvec, xmat)
        fit_cfg = replace(cfg, seed=int(rng.integers(np.iinfo(np.int64).max)))
        fitted = estimator.fit(data, x_query, fit_cfg)
        f_points = estimator.pdf(fitted, points)
        f_grid = estimator.pdf(fitted, grid)
        se_points = hits = np.full(points.size, np.nan)
        if se:
            se_points = np.array([estimator.std_error(fitted, float(y)) for y in points])
            lo, hi = np.array([estimator.confidence_interval(fitted, float(y), level)
                               for y in points]).T
            hits = ((lo <= truth) & (truth <= hi)).astype(float)
    except EstimationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f_points, f_grid, se_points, hits


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson's rule of ``y`` at the increasing points ``x`` (1-D, N >= 2).

    Operation for operation ``scipy.integrate.simpson(y, x=x)`` of scipy 1.17.1, so
    with its bits, without loading ``scipy.integrate``.  Odd N: the rule for unequal
    spacings over each pair of intervals.  Even N: the trapezoid at N = 2, else that
    rule over the first N - 1 points plus Cartwright's correction for the last
    interval.  scipy's guards against zero spacings are left out: ``x`` increases.
    """
    h = np.diff(x)
    if y.size == 2:
        return 0.0 + 0.5 * h[-1] * (y[-1] + y[-2])  # scipy's running sum starts at 0.0
    stop = y.size - 3 + y.size % 2  # pairs start at 0, 2, ..., below stop: all points if N is odd
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if y.size % 2:
        return result
    h0, h1 = h[-2, ...], h[-1, ...]  # 0-d arrays, as scipy's
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = 1 * h1 ** 3 / (6 * h0 * (h0 + h1))
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0  # scipy adds its 0.0 last


def run_mc(design: str, n: int, reps: int, cfg: ForestConfig, se,
           design_points=DEFAULT_DESIGN_POINTS, workers: int = 1,
           mise_grid_points: int = 141, ci_level: float = 0.95) -> MCReport:
    """Run the Monte Carlo benchmark for one design.

    Each replication generates a fresh sample, fits at the fixed query
    point x = (1/2, 1/2, 1/2, 1/2), and records the estimate at the design
    points and on the integrated-squared-error grid of ``mise_grid_points``
    (at least 2) points over :data:`MISE_INTERVAL`.  ``se`` is read as a
    truth value: when it is false the SE and coverage columns are NaN.
    ``cfg.seed`` is the master seed: each replication's stream is spawned
    from it by index and seeds that replication's data and forest, so the
    report does not depend on ``workers``, the number of worker processes.
    Failures are collected in replication order and reported without
    aborting the run.
    """
    design = _check_design(design)
    if reps < 2:
        raise ValueError("need at least 2 replications")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    if not 0.0 < ci_level < 1.0:  # NaN fails both
        raise ValueError("ci_level must lie in (0, 1)")
    if mise_grid_points < 2:  # Simpson's rule on one point integrates to 0
        raise ValueError("mise_grid_points must be at least 2")
    points = np.asarray(design_points, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValueError(f"design_points must be a nonempty flat list, not shape {points.shape}")
    grid = np.linspace(*MISE_INTERVAL, mise_grid_points)
    x_query = np.full(4, 0.5)
    truth_points = true_density(design, points, x_query)
    truth_grid = true_density(design, grid, x_query)
    rep_streams = np.random.SeedSequence(cfg.seed).spawn(reps)
    replicate = partial(_one_replication, design, n, cfg, se, points, grid,
                        truth_points, ci_level, x_query)

    t0 = time.perf_counter()
    f_points = np.full((reps, points.size), np.nan)
    ise = np.full(reps, np.nan)
    se_all = np.full((reps, points.size), np.nan)
    hits = np.full((reps, points.size), np.nan)
    failures: list[str] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        for r, outcome in enumerate((pool.map if pool else map)(replicate, rep_streams)):
            if isinstance(outcome, str):
                failures.append(f"replication {r}: {outcome}")
                continue
            f_points[r], fg, se_all[r], hits[r] = outcome
            ise[r] = _simpson((fg - truth_grid) ** 2, grid)

    ok = ~np.isnan(f_points[:, 0])
    completed = int(ok.sum())
    if completed < 2:
        raise EstimationError("fewer than 2 replications completed")
    fp = f_points[ok]
    bias = fp.mean(axis=0) - truth_points
    sd = fp.std(axis=0, ddof=1)
    return MCReport(
        design=design, n=n, reps=reps, completed=completed,
        design_points=points, truth=truth_points, bias=bias, sd=sd,
        avg_se=se_all[ok].mean(axis=0), coverage=hits[ok].mean(axis=0),
        mise=float(ise[ok].mean()), ci_level=ci_level,
        mise_interval=MISE_INTERVAL, mise_grid_points=mise_grid_points,
        runtime_seconds=time.perf_counter() - t0, failures=tuple(failures),
    )


def report_rows(report: MCReport) -> list[list[str]]:
    """Rows of the fixed-schema CSV: one per design point, then the MISE row.

    Columns are ``y, truth, bias, sd, avg_se, coverage``; the MISE row is
    labelled ``mise`` and stores its value in the second column.
    """
    def fmt(v) -> str:
        return "" if (v is None or (isinstance(v, float) and np.isnan(v))) else repr(float(v))

    rows = []
    for i, y in enumerate(report.design_points):
        rows.append([fmt(y), fmt(report.truth[i]), fmt(report.bias[i]),
                     fmt(report.sd[i]), fmt(report.avg_se[i]), fmt(report.coverage[i])])
    rows.append(["mise", fmt(report.mise), "", "", "", ""])
    return rows


def write_report_csv(report: MCReport, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "truth", "bias", "sd", "avg_se", "coverage"])
        writer.writerows(report_rows(report))


def report_to_dict(report: MCReport) -> dict:
    """JSON-ready summary of every field but the wall-clock runtime, so outputs are reproducible.

    Arrays and tuples become lists, and NaN (the SE columns of a run without SE) becomes null.
    """
    def plain(v):
        if isinstance(v, (np.ndarray, tuple)):
            return [plain(e) for e in (v.tolist() if isinstance(v, np.ndarray) else v)]
        return None if isinstance(v, float) and np.isnan(v) else v

    return {f.name: plain(getattr(report, f.name)) for f in fields(MCReport)
            if f.name != "runtime_seconds"}
