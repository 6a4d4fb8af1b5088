"""Runs one workload's job batch in a closed loop and records what it saw.

Usage: python3 worker.py MANIFEST RESULT --seconds N --trace 0|1

One caller, one process, one thread: each job waits for its certificate
before the next starts. CLI-shaped jobs go through `amencert.cli.main`
with stdout captured, so argument parsing, file parsing and JSON output
are timed; API jobs call the library directly. Every job builds its groups
from spec dictionaries, so no memoised ball carries over between jobs.

With --trace 0 batches repeat until N seconds have been spent in them.
With --trace 1 one untraced batch runs, then one batch with the layer
wrappers of `tracing` installed; the result carries the per-layer metrics
and the difference of the two batch times, and the spans are written as
JSON lines to `spans.jsonl` in RESULT's directory.

Outputs are not checked here: the result file holds each job's time, exit
code and output digest for every batch, plus the full outputs of the first
batch, and the caller validates them without importing the library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time

import reference
from amencert import cli, complexes
from amencert.complexes import BoundedCochain, EquivariantChain, UfChain
from amencert.functions import frac_str
from amencert.groups import group_from_dict
from amencert.pairing import adjointness_values


def op_boundary2(data):
    chain = EquivariantChain.from_json(data)
    b = chain.boundary()
    return {"boundary": b.to_json(), "boundary2-zero": b.degree == 0 or b.boundary().is_zero}


def op_uf_boundary2(data):
    chain = UfChain.from_json(data)
    b = chain.boundary()
    return {"boundary": b.to_json(), "boundary2-zero": b.degree == 0 or b.boundary().is_zero}


def op_inflate(data):
    chain = UfChain.from_json(data)
    inflated = complexes.inflate(chain)
    back = complexes.deflate(inflated)
    return {
        "inflated": inflated.to_json(),
        "roundtrip": back.to_json(),
        "roundtrip-equal": back == chain,
        "commutes": complexes.inflate(chain.boundary()) == inflated.boundary(),
    }


def op_coboundary2(data):
    phi = BoundedCochain.from_json(data)
    group = phi.group
    d = phi.coboundary()
    dd = d.coboundary()
    probes = [tuple(group.elem_from_json(g) for g in key) for key in data["probes"]]
    return {
        "d": [d.value_at(key[:2]).to_pairs() for key in probes],
        "dd": [dd.value_at(key).to_pairs() for key in probes],
    }


def op_adjointness(data):
    phi = BoundedCochain.from_json(data["cochain"])
    chain = EquivariantChain.from_json(data["chain"])
    left, right = adjointness_values(phi, chain)
    return {"left": frac_str(left), "right": frac_str(right), "equal": left == right}


def op_connecting(data):
    group = group_from_dict(data)
    lifted = complexes.one_lift_cochain(group).coboundary()
    return {
        "values": [[group.elem_to_json(g), lifted.value_at((g,)).to_pairs()] for g in group.ball(2)],
        "check": complexes.connecting_lift_check(group),
    }


OPS = {
    "boundary2": op_boundary2,
    "uf-boundary2": op_uf_boundary2,
    "inflate": op_inflate,
    "coboundary2": op_coboundary2,
    "adjointness": op_adjointness,
    "connecting": op_connecting,
}


class Runner:
    def __init__(self, manifest: dict, tracer=None):
        self.jobs = manifest["jobs"]
        self.tracer = tracer
        # API inputs are read before any timing; the jobs build library objects from them
        self.data = {}
        for job in self.jobs:
            if job["kind"] == "api" and job["input"] not in self.data:
                with open(job["input"]) as fh:
                    self.data[job["input"]] = json.load(fh)

    def run_job(self, job: dict) -> tuple[int, str, float]:
        if job["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
            seconds = time.perf_counter() - start
            text = out.getvalue()
            if self.tracer is not None:
                self.tracer.count("cli.out_bytes", len(text.encode()))
            return rc, text or err.getvalue(), seconds
        start = time.perf_counter()
        result = OPS[job["op"]](self.data[job["input"]])
        seconds = time.perf_counter() - start
        return 0, json.dumps(result, sort_keys=True), seconds

    def batch(self, outputs: dict, calibrate: bool = False) -> dict:
        """Run every job once; keep the first output of each job in `outputs`.

        With `calibrate`, the reference loop also runs before the first job
        and after every job, and each job's record carries the loop's times
        from just before and just after it.
        """
        records = []
        start = time.perf_counter()
        before = reference.samples() if calibrate else []
        for job in self.jobs:
            if self.tracer is not None:
                self.tracer.job = job["name"]
            try:
                rc, text, seconds = self.run_job(job)
            except Exception as exc:  # a raising job is a failed job, not a crashed run
                records.append({"name": job["name"], "error": f"{type(exc).__name__}: {exc}"})
                continue
            record = {
                "name": job["name"], "seconds": seconds, "rc": rc,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
            if calibrate:
                after = reference.samples(seconds)
                record["reference"] = before + after
                before = after
            records.append(record)
            outputs.setdefault(job["name"], text)
        return {"wall_s": time.perf_counter() - start, "jobs": records}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)

    outputs: dict[str, str] = {}
    result = {"outputs": outputs}
    if args.trace:
        import tracing

        untraced = Runner(manifest).batch(outputs)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = Runner(manifest, tracer).batch(outputs)
        result["batches"] = [untraced, traced]
        result["layers"] = tracer.metrics()
        result["layers"]["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        tracer.write(os.path.join(os.path.dirname(args.result), "spans.jsonl"))
    else:
        runner = Runner(manifest)
        batches = []
        spent = 0.0
        while not batches or spent < args.seconds:
            batches.append(runner.batch(outputs, calibrate=True))
            spent += batches[-1]["wall_s"]
        result["batches"] = batches
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
