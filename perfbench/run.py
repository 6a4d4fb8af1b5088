"""amencert benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then alternates set-up
samples in fresh interpreters with worker processes that repeat the job
batch until S seconds have been spent in batches, validates every output
independently of the library, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Every time reported
is scaled by the speed of a fixed reference loop timed next to it
(`reference.py`), so that the host's drifting speed cancels out. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. Exits 1 when any job failed and
2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import validate  # noqa: E402

# set-up probes and job batches alternate in rounds, so that both sample the
# whole run rather than one stretch of it
ROUNDS = 5
SETUP_SAMPLES = 4  # probes per round
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def env_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(manifest_path: str) -> list[dict]:
    """Seconds from spawning a fresh interpreter until the set-up probe is ready.

    The probe prints the monotonic clock when set-up is done; reading it
    there, rather than when the process is reaped, keeps interpreter exit
    and the polling of a wait with timeout out of the sample. Each sample
    carries the reference loop's times from just before and just after it.
    """
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), manifest_path]
    samples = []
    before = reference.samples()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), check=True, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True)
        seconds = float(proc.stdout.split()[-1]) - start
        after = reference.samples(seconds)
        samples.append({"seconds": seconds, "reference": before + after})
        before = after
    return samples


def run_worker(manifest_path: str, workdir: str, seconds: float, trace: int) -> dict:
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, result_path,
           "--seconds", repr(seconds), "--trace", str(trace)]
    subprocess.run(cmd, env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path) as fh:
        return json.load(fh)


def run_rounds(manifest_path: str, workdir: str, seconds: int) -> tuple[list[float], dict]:
    """ROUNDS rounds of set-up probes, each followed by a worker that runs batches for its share of `seconds`.

    Returns the set-up samples in the order taken and the workers' results
    merged: every batch, the first output of each job, the highest peak RSS.
    Later workers' outputs are checked against the first worker's, so a job
    must print the same bytes in every process.
    """
    setup = []
    merged = {"outputs": {}, "batches": [], "peak_rss_mb": 0.0}
    for _ in range(ROUNDS):
        setup += time_setup(manifest_path)
        part = run_worker(manifest_path, workdir, seconds / ROUNDS, 0)
        for name, text in part["outputs"].items():
            merged["outputs"].setdefault(name, text)
        merged["batches"] += part["batches"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], part["peak_rss_mb"])
    return setup, merged


def judge(manifest: dict, result: dict) -> tuple[int, int, list[str]]:
    """Validate the first output of each job; later runs must repeat it byte for byte."""
    jobs = {job["name"]: job for job in manifest["jobs"]}
    first_rc = {}
    for batch in result["batches"]:
        for rec in batch["jobs"]:
            first_rc.setdefault(rec["name"], rec.get("rc"))
    verdict, digest = {}, {}
    for name, text in result["outputs"].items():
        verdict[name] = validate.check(jobs[name], first_rc[name], text)
        digest[name] = hashlib.sha256(text.encode()).hexdigest()
    attempted, failed, reasons = 0, 0, []
    for batch in result["batches"]:
        for rec in batch["jobs"]:
            attempted += 1
            name = rec["name"]
            if "error" in rec:
                reason = rec["error"]
            elif verdict.get(name):
                reason = verdict[name]
            elif rec["sha256"] != digest.get(name):
                reason = "output differs from the first run of the same job"
            else:
                continue
            failed += 1
            reasons.append(f"{name}: {reason}")
    return attempted, failed, reasons


def job_times(batches: list[dict]) -> dict:
    """Median and best of each job's successful runs as measured, their count, and their scaled median.

    A traced run takes no reference passes, so its scaled times are the raw ones.
    """
    times: dict[str, list[tuple[float, float]]] = {}
    for batch in batches:
        for rec in batch["jobs"]:
            if "seconds" in rec:
                scaled = reference.scale(rec["seconds"], rec["reference"]) if "reference" in rec else rec["seconds"]
                times.setdefault(rec["name"], []).append((rec["seconds"], scaled))
    out = {}
    for name, v in sorted(times.items()):
        raw = [r for r, _ in v]
        scaled = [s for _, s in v]
        out[name] = {"median_s": statistics.median(raw), "best_s": min(raw), "runs": len(v),
                     "scaled_median_s": statistics.median(scaled)}
    return out


def end_to_end(jobs: dict, setup: list[dict], peak_rss_mb: float) -> dict:
    """Every time is scaled by the reference loop timed next to it (see `reference`).

    A job's time is the median of its scaled times over the run's batches,
    and `wall_s` is the sum of the jobs' times. Set-up is the median of the
    run's scaled samples, which the rounds spread over the whole run.
    """
    per_job = [job["scaled_median_s"] for job in jobs.values()] or [0.0]
    return {
        "setup_s": statistics.median(reference.scale(s["seconds"], s["reference"]) for s in setup),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "peak_rss_mb": peak_rss_mb,
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run: the result line's object and the run's detail (per-job times, environment, failures).

    Also writes the detail to `.perfbench/<workload>-seed<n>-trace<t>.json`
    and, for a traced run, the spans to `...-spans.jsonl` next to it.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        manifest = gen.generate(workload, seed, workdir)
        manifest_path = os.path.join(workdir, "manifest.json")
        if trace:
            setup = []
            result = run_worker(manifest_path, workdir, seconds, trace)
            os.replace(os.path.join(workdir, "spans.jsonl"), os.path.join(OUT, f"{tag}-spans.jsonl"))
        else:
            setup, result = run_rounds(manifest_path, workdir, seconds)
        attempted, failed, reasons = judge(manifest, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = job_times(result["batches"])
    if trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(jobs, setup, result["peak_rss_mb"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(), "batches": len(result["batches"]), "setup_samples_s": setup,
        "jobs": jobs, "attempted": attempted, "failed": failed,
        "failures": reasons, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "amencert", "__init__.py")):
        print(f"error: no program to measure: {SRC}/amencert is missing", file=sys.stderr)
        return 2
    line, detail = measure(args.workload, args.seed, args.seconds, args.trace)

    print(f"env {json.dumps(detail['env'])}")
    for name, job in detail["jobs"].items():
        print(f"job {name} scaled_median_s={job['scaled_median_s']:.4f} median_s={job['median_s']:.4f} "
              f"best_s={job['best_s']:.4f} runs={job['runs']}")
    for reason in detail["failures"][:20]:
        print(f"FAILED {reason}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
