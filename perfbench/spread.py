"""Run-to-run spread of the benchmark, and the baseline record.

usage: python3 perfbench/spread.py [--out FILE]

Runs perfbench/run.py once per seed 1-10 on each workload, for the run
length in BENCHMARK.json, and reports for every end-to-end metric the median
of the per-run values and their spread: the distance between the first and
third quartile as a share of the median.  A spread is steady when it is
below a third of the metric's bound, and out of bound above the bound.  It
then makes two traced runs at seed 1 and checks that the per-layer counts
repeat exactly.  With --out it writes everything, including the
per-operation accuracy fields, as a JSON baseline.  It exits with 1 unless
every spread is steady and every count repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ACCURACY = ("F", *(f"a_{n}" for n in range(7)), "residual_max_initial",
            "residual_max_lateral", "residual_max_dirichlet", "residual_max_flux",
            "boundary_max_err", "solution_max_err", "phi0_max_err")
SEEDS = range(1, 11)
TRACED_RUNS = 2


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run of run.py: (final result, per-operation records)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    records = [json.loads(line)["record"] for line in lines
               if line.startswith('{"record"')]
    return json.loads(lines[-1]), records


def describe(values: list) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2 and out["median"] != 0:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=summary.spread(values))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ungated = run.ungated()
    counts = [name for name, unit in run.declared("per_layer").items()
              if unit == "count"]

    baseline = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in workloads.NAMES:
        runs = [bench_run(name, seed, seconds, 0) for seed in SEEDS]
        entry = {"failed": sum(r["failed"] for r, _ in runs),
                 "attempted": sum(r["attempted"] for r, _ in runs),
                 "end_to_end": {}, "tail": {}}
        print(f"{name}: {entry['attempted']} operations, {entry['failed']} failed")
        for metric, bound in bounds.items():
            stats = describe([r["metrics"][metric]["value"] for r, _ in runs])
            stats["bound"] = bound
            ok = stats["spread"] < bound / 3
            steady &= ok
            entry["end_to_end"][metric] = stats
            verdict = ("steady" if ok else "within bound, not steady"
                       if stats["spread"] <= bound else "OUT OF BOUND")
            print(f"  {metric:<18} median {stats['median']:<12.6g} spread "
                  f"{stats['spread']:.4f}  bound {bound}  {verdict}")
        for metric in (*bounds, *ungated):
            per_run = [statistics.median(v) for v in
                       (run.e2e_values(records, metric) for _, records in runs) if v]
            values = run.e2e_values([rec for _, records in runs for rec in records],
                                    metric)
            if not values:
                continue
            if metric in ungated:
                entry["end_to_end"][metric] = describe(per_run)
            tail = summary.tail_percentile(values)
            entry["tail"][metric] = {"samples": len(values), "median": statistics.median(values),
                                     "percentile": tail[0] if tail else None,
                                     "value": tail[1] if tail else None}
        entry["accuracy"] = [{"seed": seed, **{k: rec[k] for k in ACCURACY if k in rec}}
                             for seed, (_, records) in zip(SEEDS, runs)
                             for rec in records[:1]]
        traced = [bench_run(name, SEEDS[0], seconds, 1)[0] for _ in range(TRACED_RUNS)]
        layers = {m: describe([r["metrics"][m]["value"] for r in traced])
                  for m in traced[0]["metrics"]}
        entry["counts_repeat"] = all(len(set(layers[m]["values"])) == 1 for m in counts)
        entry["per_layer"] = layers
        steady &= entry["counts_repeat"]
        print(f"  per-layer counts repeat exactly: {entry['counts_repeat']}")
        baseline["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print("all spreads steady" if steady else "some spreads NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
