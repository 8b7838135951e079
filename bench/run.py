"""Benchmark launcher for forestdens.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload fit_theta_se --seed 1 --seconds 24 --trace 0

The launcher pins BLAS to one thread, measures set-up time in a few fresh
processes, then starts ``bench/worker.py``, which runs the workload in a
closed loop with one caller for about ``--seconds`` seconds.  It prints a
readable table and, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record of the run (every op's CPU, wall and
reference time, the output digest, exact counts, provenance) is written to
``.bench_out/result-<workload>-seed<seed>-trace<trace>.json``.

End-to-end times are reference seconds: the CPU seconds of the measuring
thread (``time.thread_time``), scaled by the speed probe of ``speed.py`` to
a fixed reference speed of the machine.  The program is single-threaded and
waits on no I/O, so its CPU time is its uncontended latency; the scaling
removes most of the drift in the speed of a shared virtual CPU.  Unscaled
CPU and wall seconds are printed beside them.  A check per op rejects CPU
time of the worker and its child processes above 1.05 x the measuring
thread's, so work moved to other threads or processes cannot hide behind
this clock.

Exits with 1, printing no result, when the checkout has no ``src/forestdens``
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
SETUP_CODE = """
import sys
sys.path.insert(0, {bench!r})
import speed
probe = speed.SpeedProbe(speed.python_kernel, speed.PYTHON_REF_S, interval_s=0.02)
probe.start()
import forestdens
forestdens.default_basis(8)
probe.stop()
cpu, _wall, ref = probe.clocks()
print(cpu, ref)
"""
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MC_WORKLOAD = "mc_d1_smoke"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, timeout: float) -> list[tuple[float, float]]:
    """(CPU, reference) seconds of import plus default_basis(8), each in a fresh process."""
    code = SETUP_CODE.format(bench=str(BENCH))
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=timeout, check=True)
        cpu, ref = out.stdout.split()[-2:]
        probes.append((float(cpu), float(ref)))
    return probes


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Contract metrics (CPU seconds at the probe's reference speed), plus
    readable extras (accuracy, failed share, unscaled CPU and wall times)."""
    ops = [o for o in res["ops"] if "cpu" in o]
    units = res["attempted"] // len(res["ops"])

    def med(key):
        return statistics.median(o[key] for o in ops)

    metrics = {
        "setup_s": statistics.median(ref for _cpu, ref in setup),
        "fit_s": med("fit_ref"),
        "query_s": med("rest_ref"),
        "rep_s": med("ref") / units,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extras = {
        "mise" if res["workload"] == MC_WORKLOAD else "ise": res["accuracy"],
        "failed_share": res["failed"] / res["attempted"],
        "setup_cpu_s": statistics.median(cpu for cpu, _ref in setup),
        "fit_cpu_s": med("fit_cpu"),
        "query_cpu_s": med("rest_cpu"),
        "fit_wall_s": med("fit_wall"),
        "query_wall_s": med("rest_wall"),
        "speed": statistics.median(o["ref"] / o["cpu"] for o in ops),
        "ops_timed": len(ops),
    }
    return metrics, extras


def print_table(res: dict, metrics: dict, extras: dict, units: dict) -> None:
    print(f"forestdens bench: workload {res['workload']}, seed {res['seed']}, "
          f"trace {res['trace']}: {len(res['ops'])} ops, {res['attempted']} attempted, "
          f"{res['failed']} failed")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name, value in extras.items():
        print(f"  {name:40s} {value if value is None else format(value, '14.6g')}")
    prov = res["provenance"]
    print(f"  provenance: {prov['nproc']} CPUs ({prov['cpu_model']}), Python {prov['python']}, "
          f"NumPy {prov['numpy']} ({prov['numpy_blas']}), SciPy {prov['scipy']} "
          f"({prov['scipy_blas']}), BLAS threads {prov['blas_threads']}, "
          f"workers {prov['workers']}, seeds {prov['derived_seeds']}")
    print(f"  output digest {res['digest']}")
    if "counts_digest" in res:
        print(f"  counts digest {res['counts_digest']}")
    for p in res["problems"]:
        print(f"  PROBLEM {p}")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description="forestdens benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "forestdens" / "__init__.py").is_file():
        return fail(f"no forestdens sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    try:
        setup = measure_setup(env, DEADLINE_S)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", str(OUT_DIR)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - t0))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not any("cpu" in o for o in res["ops"]):
        return fail("no op completed:\n" + "\n".join(res["problems"]))

    if args.trace:
        metrics, extras = dict(res["per_layer"], **{"accuracy.ise": res["accuracy"]}), {}
    else:
        metrics, extras = end_to_end(res, setup)
    missing = set(units) - set(metrics)
    if missing:
        return fail(f"metrics not measured: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}

    print_table(res, metrics, extras, units)
    record = {"metrics": metrics, "extras": extras, "setup": setup,
              "worker": res}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
