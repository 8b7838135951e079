"""Record the benchmark's baseline for the code in this checkout.

Usage (from the root of a checkout)::

    python3 bench/baseline.py

Runs every workload of ``BENCHMARK.json`` through ``bench/run.py`` on the
default seed (untraced and traced) and on the held-back seed (untraced),
with the ``run_seconds`` of ``BENCHMARK.json``, and writes
``bench/baseline.json`` with the end-to-end metrics, the readable extras,
the per-layer table, the exact counts, the output digests and the
provenance.  For ``fit_theta_se`` it adds
the shares of the traced fit time taken by the self time of
``expfam.solve_theta``, ``forest.best_split`` and ``forest.grow_branch``;
for ``fit_mu_se`` the share of the traced query time taken by
``forest.sigma_fe``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
HELD_BACK_SEED = 7  # for confirming a later claim on a seed not used while writing it


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(record: dict) -> dict:
    worker = record["worker"]
    out = {"metrics": record["metrics"], "extras": record["extras"],
           "correct": worker["failed"] == 0 and not worker["problems"],
           "ops": len(worker["ops"]), "digest": worker["digest"]}
    if "counts" in worker:
        out["counts"] = worker["counts"]
        out["counts_digest"] = worker["counts_digest"]
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    base = {"run_seconds": seconds, "default_seed": DEFAULT_SEED,
            "held_back_seed": HELD_BACK_SEED, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        default = run(w, DEFAULT_SEED, 0, seconds)
        traced = run(w, DEFAULT_SEED, 1, seconds)
        held_back = run(w, HELD_BACK_SEED, 0, seconds)
        base.setdefault("provenance", {k: v for k, v in default["worker"]["provenance"].items()
                                       if k not in ("seed", "derived_seeds")})
        entry = {f"seed_{DEFAULT_SEED}": summary(default),
                 f"seed_{DEFAULT_SEED}_traced": summary(traced),
                 f"seed_{HELD_BACK_SEED}": summary(held_back)}
        layers = traced["metrics"]
        if w == "fit_theta_se":
            fit = layers["trace.fit_s"]
            shares = {name: layers[f"{name}.self_s"] / fit for name in
                      ("expfam.solve_theta", "forest.best_split", "forest.grow_branch")}
            entry["fit_self_share"] = shares | {"sum": sum(shares.values())}
        if w == "fit_mu_se":
            entry["query_sigma_fe_share"] = layers["forest.sigma_fe.self_s"] / layers["trace.query_s"]
        base["workloads"][w] = entry
        print(f"{w}: recorded", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
