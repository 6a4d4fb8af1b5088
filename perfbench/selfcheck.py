"""Check that the validator rejects corrupted certificates.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

Produces a few small real certificates with amencert, checks that each
validates, then corrupts each in a way a broken program could (a Folner
set with one element removed while the old ratio is kept, a wrong
pairing value, a wrong span dimension, ...) and checks that validation
rejects every corrupted copy. Also checks that a job whose later run
prints different bytes is counted as failed. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from amencert import cli  # noqa: E402

import gen  # noqa: E402
import plain  # noqa: E402
import run  # noqa: E402
import validate  # noqa: E402
import worker  # noqa: E402


def cli_output(argv: list) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())


def s3_spec() -> dict:
    table, index = plain.symmetric_table(3)
    return gen.finite_spec(table, [index[(1, 0, 2)], index[(1, 2, 0)]])


def cases(workdir: str):
    """(job, [(corruption name, function that corrupts a copy of the job's output)])"""
    writer = gen.Writer(workdir)
    z2 = gen.abelian_spec(2, ("a", "b"))
    z2_path = writer.write("z2.json", "group", z2)
    job = gen.cli_job("folner", ["folner", "--group", z2_path, "--eps", "1/2", "--strategy", "boxes",
                                 "--max-radius", "40"], {"type": "folner-box", "group": z2, "eps": "1/2"})
    yield job, [
        ("element removed, size updated, ratio kept",
         lambda p: p.update(set=p["set"][1:], **{"set-size": p["set-size"] - 1})),
        ("element removed, size and ratio kept", lambda p: p.update(set=p["set"][1:])),
        ("ratio changed", lambda p: p.update(ratio="1/3")),
        ("difference miscounted", lambda p: p["generator-differences"].update(a=p["generator-differences"]["a"] + 1)),
    ]
    job = gen.cli_job("verify", ["verify-f2", "--radius", "2"],
                      {"type": "verify-f2", "rank": 2, "radius": 2, "ray": "a"})
    yield job, [
        ("points-checked off by one", lambda p: p.update(**{"points-checked": p["points-checked"] - 1})),
        ("pairing value 3/1", lambda p: p["pairing"].update(value="3/1")),
        ("incoming constant 2", lambda p: p.update(**{"incoming-constant": 2})),
    ]
    s3 = s3_spec()
    s3_path = writer.write("s3.json", "group", s3)
    job = gen.cli_job("h0", ["finite-h0", "--group", s3_path], {"type": "finite-h0", "group": s3})
    yield job, [
        ("span dimension n", lambda p: p.update(**{"span-dimension": p["order"]})),
        ("one in span", lambda p: p.update(**{"one-in-span": True})),
        ("other group hash", lambda p: p.update(**{"group-hash": "0" * 64})),
    ]
    job = gen.cli_job("iso", ["iso-min", "--radius", "2"],
                      {"type": "iso-min", "group": gen.free_spec(2), "radius": 2, "min": "72/17"})
    yield job, [
        ("minimiser element removed", lambda p: p.update(minimizer=p["minimizer"][1:])),
        ("min ratio 4/1", lambda p: p.update(**{"min-ratio": "4/1"})),
    ]
    spec = gen.free_spec(2)
    cochain = writer.write("j.json", "cochain", {"builtin": "johnson", "group": spec})
    cycle = writer.write("f.json", "cycle", {"builtin": "flow", "group": spec, "ray": "b"})
    job = gen.cli_job("pair", ["pair", "--cochain", cochain, "--cycle", cycle],
                      {"type": "pair-builtin", "group": spec, "value": "2/1", "cochain": "johnson-cocycle",
                       "cycle": "tree-flow(b)"})
    yield job, [("pairing value 1/1", lambda p: p.update(value="1/1"))]


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    bad = 0
    try:
        for job, corruptions in cases(workdir):
            rc, payload = cli_output(job["argv"])
            verdict = validate.check(job, rc, json.dumps(payload))
            print(f"{job['name']}: original {'valid' if verdict is None else 'REJECTED: ' + verdict}")
            bad += verdict is not None
            for name, corrupt in corruptions:
                copy = json.loads(json.dumps(payload))
                corrupt(copy)
                verdict = validate.check(job, rc, json.dumps(copy))
                print(f"  {name}: {'ACCEPTED' if verdict is None else 'rejected (' + verdict[:70] + ')'}")
                bad += verdict is None

        # an API job: a boundary with one coefficient changed
        rng = gen.random.Random(0)
        spec = gen.free_spec(2)
        group = plain.PlainGroup(spec)
        path = os.path.join(workdir, "chain.json")
        with open(path, "w") as fh:
            json.dump(gen.dump_l1(group, spec, gen.l1_chain(rng, group, 2), 2), fh)
        job = gen.api_job("boundary", "boundary2", path)
        with open(path) as fh:
            out = worker.op_boundary2(json.load(fh))
        good = validate.check(job, 0, json.dumps(out))
        out["boundary"]["entries"][0][1]["l1"][0][1] = "1000/1"
        broken = validate.check(job, 0, json.dumps(out))
        print(f"boundary: original {'valid' if good is None else 'REJECTED'}, changed coefficient "
              f"{'ACCEPTED' if broken is None else 'rejected'}")
        bad += good is not None or broken is None

        # byte identity: the second run of a job prints other bytes
        job = gen.cli_job("h0", ["finite-h0", "--group", os.path.join(workdir, "s3.json")],
                          {"type": "finite-h0", "group": s3_spec()})
        rc, payload = cli_output(job["argv"])
        text = json.dumps(payload)
        result = {
            "outputs": {"h0": text},
            "batches": [{"jobs": [{"name": "h0", "rc": rc, "sha256": run.hashlib.sha256(text.encode()).hexdigest()}]},
                        {"jobs": [{"name": "h0", "rc": rc, "sha256": "0" * 64}]}],
        }
        attempted, failed, _ = run.judge({"jobs": [job]}, result)
        print(f"byte identity: {failed} of {attempted} runs counted as failed (expected 1 of 2)")
        bad += (attempted, failed) != (2, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
