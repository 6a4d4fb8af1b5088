"""Run the benchmark on every workload and print every metric with its unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seeds 1,2,3] [--baseline]

Runs every workload of BENCHMARK.json once per seed, one run after the
other, each for the file's `run_seconds` with tracing off, as `run.py`
does, and prints for each workload and end-to-end metric the median over
seeds, the quartiles and the spread (q3 - q1) / median next to the
metric's bound, the failed-job ratio with its base and an environment
stamp. With --baseline it also runs the `baseline` job set, the six jobs
of the ROADMAP baseline table at the table's sizes, and prints their
times next to the table's. Exits 1 when any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess

import run

ROOT = run.ROOT

# (ROADMAP row, job of the `baseline` job set, seconds in the ROADMAP baseline table)
BASELINE = (
    ("folner_search Z^2, eps 1/10", "folner-z2-boxes", 6.6),
    ("folner_search Z^3, eps 1/2", "folner-z3-boxes", 5.5),
    ("verify_flow_cycle F_2, r=4", "verify-f2-r4-a", 0.54),
    ("verify_flow_cycle F_2, r=5", "verify-f2-r5-a", 5.9),
    ("finite_h0 S_5", "h0-s5", 6.7),
    ("isoperimetric_min F_2, r=2", "iso-f2-r2", 0.31),
)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--baseline", action="store_true", help="also time the ROADMAP baseline jobs")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    any_failed = False
    env = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            result, detail = run.measure(workload, seed, seconds, 0)
            env = detail["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            for reason in detail["failures"][:20]:
                print(f"  {workload} seed {seed}: FAILED {reason}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        any_failed |= failed > 0
        print(f"\n{workload}: seeds {args.seeds}, {seconds} s per run")
        print(f"  {'failed_ratio':28s} {failed / attempted:.4f} ratio  ({failed} of {attempted} jobs)")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            print(f"  {name:28s} {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {sp:.3f}"
                  f"  bound {bounds[name]:.2f}")

    if args.baseline:
        result, detail = run.measure("baseline", seeds[0], seconds, 0)
        env = detail["env"]
        any_failed |= result["failed"] > 0
        limit = bounds["job_max_s"]
        print(f"\nROADMAP baseline rows: CLI jobs (argument parsing, group build and JSON output included), "
              f"{detail['batches']} runs each; failed {result['failed']} of {result['attempted']}")
        for label, job, base in BASELINE:
            rec = detail["jobs"][job]
            ratio = rec["median_s"] / base
            flag = "" if abs(ratio - 1) <= limit else f"  outside the {limit:.2f} bound"
            print(f"  {label:30s} table {base:5.2f} s  median {rec['median_s']:6.3f} s  "
                  f"best {rec['best_s']:6.3f} s  scaled {rec['scaled_median_s']:6.3f} s  x{ratio:.2f}{flag}")

    print(f"\nenv python {env.get('python')}  cpu {env.get('cpu')}  nproc {env.get('nproc')}  commit {commit()}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
