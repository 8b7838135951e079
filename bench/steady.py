"""Steadiness check: run the benchmark over several seeds, twice, and report spreads.

Usage (from the root of a checkout)::

    python3 bench/steady.py --workload fit_mu_se --seeds 1 2 3 4 5 [--trace 1]

Two sets of runs are made; in each, every seed is run once through
``bench/run.py`` with the ``run_seconds`` of ``BENCHMARK.json``.  For every
metric the spread of each set is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; it is printed beside the metric's bound, and the median of
the second set is compared with the first's.  Each seed's output digest
must be the same in both sets; so must its counts digest, which only traced
runs (``--trace 1``) record.  Runs are appended to
``.bench_out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed} exit {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    row = {"workload": workload, "seed": seed, "trace": trace, "correct": line["correct"],
           "metrics": {k: v["value"] for k, v in line["metrics"].items()},
           "digest": record["worker"]["digest"],
           "counts_digest": record["worker"].get("counts_digest")}
    with open(ROOT / ".bench_out" / "steady.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    return row


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])}

    sets = []
    for s in range(SETS):
        rows = []
        for seed in args.seeds:
            row = run_once(args.workload, seed, spec["run_seconds"], args.trace)
            print(f"set {s} seed {seed}: correct={row['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in row["metrics"].items()), flush=True)
            rows.append(row)
        sets.append(rows)

    ok = all(r["correct"] for rows in sets for r in rows)
    print(f"{args.workload}: {len(args.seeds)} seeds x {SETS} sets, all correct: {ok}")
    for name, bound in bounds.items():
        meds = []
        for s, rows in enumerate(sets):
            values = [r["metrics"][name] for r in rows]
            meds.append(statistics.median(values))
            sp = spread(values) if len(values) >= 2 and meds[-1] else float("nan")
            limit = f"bound {bound}, spread/bound {sp / bound:.2f}" if bound else "no bound"
            print(f"  set {s} {name:36s} median {meds[-1]:12.6g}  spread {sp:7.4f}  ({limit})")
        if bound:
            print(f"    second/first median - 1 = {meds[1] / meds[0] - 1:+.4f} (bound {bound})")
    pairs = list(zip(*sets))
    for key in ("digest", "counts_digest"):
        if key == "counts_digest" and not args.trace:
            print(f"  {key} not compared: untraced runs record no counts")
            continue
        same = all(a[key] is not None and a[key] == b[key] for a, b in pairs)
        print(f"  {key} identical across sets for every seed: {same}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
