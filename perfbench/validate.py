"""Independent validation of job outputs.

Nothing here imports `amencert`. Every certificate is checked against the
job's inputs with the plain arithmetic of `plain`: Folner sets and
isoperimetric minimisers are recounted with integer set arithmetic, the
flow-cycle sweep against the closed form |B_r|^2, the finite H_0 report
against span dimension n - 1, pairings and chain identities by
recomputing them from the input files.

`check(job, rc, text)` returns None for a valid output and a one-line
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import plain
from plain import PlainGroup, frac_str, parse_frac


class Invalid(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Invalid(what)


def expect_eq(got, want, what: str) -> None:
    if got != want:
        raise Invalid(f"{what}: got {str(got)[:80]!r}, expected {str(want)[:80]!r}")


def load(path: str):
    with open(path) as fh:
        return json.load(fh)


def parse_fn(group: PlainGroup, pairs) -> dict:
    out: dict = {}
    for elem, c in pairs:
        plain.accumulate(out, group.parse(elem), parse_frac(c))
    return out


def parse_bounded(group: PlainGroup, data: dict) -> tuple:
    (kind, payload), = data.items()
    if kind == "constant":
        return parse_frac(payload), {}
    if kind == "finite":
        return Fraction(0), parse_fn(group, payload)
    expect_eq(kind, "constant-plus-finite", "bounded value kind")
    return parse_frac(payload["constant"]), parse_fn(group, payload["finite"])


def parse_chain(group: PlainGroup, data: dict) -> dict:
    out = {}
    for key, value in data["entries"]:
        key = tuple(group.parse(g) for g in key)
        if data["kind"] == "l1":
            out[key] = parse_fn(group, value["l1"])
        else:
            out[key] = parse_bounded(group, value)
    return out


def parse_uf(group: PlainGroup, data: dict) -> dict:
    return {tuple(group.parse(g) for g in key): parse_frac(c) for key, c in data["entries"]}


def parse_cochain(group: PlainGroup, data: dict) -> dict:
    return {tuple(group.parse(g) for g in key): parse_fn(group, pairs) for key, pairs in data["entries"]}


def expect_group(payload: dict, spec: dict) -> None:
    expect_eq(payload.get("group-hash"), plain.spec_hash(spec), "group-hash")
    if "group" in payload:
        expect_eq(payload["group"], spec, "group")


def folner_ratio(group: PlainGroup, members: set) -> tuple[list[int], Fraction]:
    counts = plain.boundary_count(group, members)
    return counts, Fraction(sum(counts), len(members))


# -- CLI certificates -------------------------------------------------------


def check_verify_f2(check: dict, rc: int, p: dict) -> None:
    rank, radius, ray = check["rank"], check["radius"], check["ray"]
    spec = {"family": "free", "rank": rank, "generators": list("abc"[:rank])}
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "flow-cycle-verification", "type")
    expect_group(p, spec)
    expect_eq((p["ray"], p["radius"]), (ray, radius), "ray and radius")
    expect_eq(p["points-checked"], plain.free_ball_size(rank, radius) ** 2, "points-checked")
    expect_eq(p["outgoing-constant"], 1, "outgoing-constant")
    expect_eq(p["incoming-constant"], 2 * rank - 1, "incoming-constant")
    expect_eq(p["boundary-constant"], 2 * rank - 2, "boundary-constant")
    expect(p["failures"] == [] and p["passed"] is True, "sweep reported failures")
    value = f"{2 * rank - 2}/1"
    cert = p["pairing"]
    expect_eq(cert["type"], "pairing-certificate", "pairing type")
    expect_eq((cert["cochain"], cert["cycle"]), ("johnson-cocycle", f"tree-flow({ray})"), "pairing ids")
    expect_eq(cert["value"], value, "pairing value")
    expect_eq(cert["truncation-radius"], 1, "truncation-radius")
    expect_group(cert, spec)
    witness = cert["adjointness-witness"]
    expect_eq((witness["cochain-route"], witness["chain-route"], witness["equal"]), (value, value, True),
              "adjointness witness")


def check_folner_box(check: dict, rc: int, p: dict) -> None:
    spec, eps = check["group"], parse_frac(check["eps"])
    group = PlainGroup(spec)
    d = group.rank
    side = -(-4 * d // eps)  # a box of side n has ratio 4d/n
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "folner-certificate", "type")
    expect_group(p, spec)
    expect_eq((p["strategy"], p["parameter"]), ("boxes", side), "strategy and side")
    members = [group.parse(g) for g in p["set"]]
    box = set(itertools.product(range(side), repeat=d))
    expect_eq(len(members), len(set(members)), "distinct members")
    expect_eq(p["set-size"], len(members), "set-size")
    expect(set(members) == box, "set is not the box of the stated side")
    counts, ratio = folner_ratio(group, set(members))
    expect_eq(p["generator-differences"], dict(zip(group.letter_labels, counts)), "generator-differences")
    expect_eq(p["ratio"], frac_str(ratio), "ratio")
    expect(ratio <= eps, "ratio exceeds eps")


def check_folner_failure(check: dict, rc: int, p: dict) -> None:
    spec, eps = check["group"], parse_frac(check["eps"])
    group = PlainGroup(spec)
    expect_eq(rc, check["rc"], "exit code")
    expect_eq(p["type"], "folner-failure", "type")
    expect_group(p, spec)
    expect_eq((p["strategy"], p["eps"], p["max-parameter"]), ("balls", frac_str(eps), check["max"]),
              "search parameters")
    want = []
    for r in range(check["max"] + 1):
        ball = group.ball(r)
        _, ratio = folner_ratio(group, ball)
        expect(ratio > eps, f"ball of radius {r} meets eps, the search should have stopped")
        want.append({"parameter": r, "set-size": len(ball), "ratio": frac_str(ratio)})
    expect_eq(p["attempts"], want, "attempts")
    expect_eq(p["best-ratio"], min((a["ratio"] for a in want), key=parse_frac), "best-ratio")


def check_reiter(check: dict, rc: int, p: dict) -> None:
    spec = check["group"]
    group = PlainGroup(spec)
    f = parse_fn(group, load(check["set"]))
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "reiter-ratio", "type")
    expect_group(p, spec)
    norm = sum(f.values(), Fraction(0))
    diffs = {}
    for label, s in zip(group.letter_labels, group.letters):
        moved = plain.translate(group, f, s)
        diffs[label] = frac_str(sum((abs(moved.get(g, 0) - f.get(g, 0)) for g in moved.keys() | f.keys()),
                                    Fraction(0)))
    expect_eq(p["l1-norm"], frac_str(norm), "l1-norm")
    expect_eq(p["generator-differences"], diffs, "generator-differences")
    expect_eq(p["ratio"], frac_str(sum(map(parse_frac, diffs.values()), Fraction(0)) / norm), "ratio")


def check_finite_h0(check: dict, rc: int, p: dict) -> None:
    spec = check["group"]
    n = len(spec["table"])
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "finite-h0-report", "type")
    expect_group(p, spec)
    expect_eq(p["order"], n, "order")
    expect_eq(p["span-dimension"], n - 1, "span-dimension")
    expect_eq(p["one-in-span"], False, "one-in-span")
    expect(parse_frac(p["residual-l1"]) > 0, "residual-l1 must be positive when one is not in the span")


def check_iso_min(check: dict, rc: int, p: dict) -> None:
    spec, radius = check["group"], check["radius"]
    group = PlainGroup(spec)
    ball = group.ball(radius)
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "isoperimetric-minimum", "type")
    expect_group(p, spec)
    expect_eq((p["radius"], p["ball-size"]), (radius, len(ball)), "radius and ball-size")
    expect_eq(p["subsets-enumerated"], 2 ** len(ball) - 1, "subsets-enumerated")
    expect_eq(p["min-ratio"], check["min"], "min-ratio")
    members = {group.parse(g) for g in p["minimizer"]}
    expect(members and members <= ball, "minimizer is not a nonempty subset of the ball")
    expect_eq(frac_str(folner_ratio(group, members)[1]), check["min"], "recounted minimizer ratio")


def check_pair(check: dict, rc: int, p: dict) -> None:
    spec = check["group"]
    group = PlainGroup(spec)
    cochain = parse_cochain(group, load(check["cochain"]))
    cycle = parse_chain(group, load(check["cycle"]))
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "pairing-certificate", "type")
    expect_group(p, spec)
    expect_eq((p["cochain"], p["cycle"]), ("cochain", "cycle-file"), "pairing ids")
    value = plain.pair_value(lambda key: cochain.get(key, {}), cycle)
    expect_eq(p["value"], frac_str(value), "pairing value")
    radius = max((group.length(g) for key in cycle for g in key), default=0)
    expect_eq(p["truncation-radius"], radius, "truncation-radius")
    expect("adjointness-witness" not in p, "unexpected adjointness witness")


def check_pair_builtin(check: dict, rc: int, p: dict) -> None:
    expect_eq(rc, 0, "exit code")
    expect_eq(p["type"], "pairing-certificate", "type")
    expect_group(p, check["group"])
    expect_eq((p["cochain"], p["cycle"]), (check["cochain"], check["cycle"]), "pairing ids")
    expect_eq(p["value"], check["value"], "pairing value")
    expect_eq(p["truncation-radius"], 1 if check["cycle"].startswith("tree-flow") else 0, "truncation-radius")


# -- API results --------------------------------------------------------------


def check_boundary2(data: dict, out: dict) -> None:
    group = PlainGroup(data["group"])
    bounded = data["kind"] == "linf"
    chain = parse_chain(group, data)
    b = out["boundary"]
    expect_eq((b["group"], b["degree"], b["kind"]), (data["group"], data["degree"] - 1, data["kind"]), "shape")
    expect_eq(parse_chain(group, b), plain.slice_boundary(group, chain, data["degree"], bounded), "boundary")
    expect_eq(out["boundary2-zero"], True, "boundary of the boundary is zero")


def check_uf_boundary2(data: dict, out: dict) -> None:
    group = PlainGroup(data["group"])
    b = out["boundary"]
    expect_eq((b["group"], b["degree"]), (data["group"], data["degree"] - 1), "shape")
    expect_eq(parse_uf(group, b), plain.uf_boundary(parse_uf(group, data)), "boundary")
    expect_eq(out["boundary2-zero"], True, "boundary of the boundary is zero")


def check_inflate(data: dict, out: dict) -> None:
    group = PlainGroup(data["group"])
    chain = parse_uf(group, data)
    inflated = {key: (Fraction(0), fn) for key, fn in plain.inflate(group, chain).items()}
    expect_eq(out["inflated"]["kind"], "linf", "inflated kind")
    expect_eq(parse_chain(group, out["inflated"]), inflated, "inflated slice")
    expect_eq(parse_uf(group, out["roundtrip"]), chain, "deflate(inflate(chain))")
    expect_eq((out["roundtrip-equal"], out["commutes"]), (True, True), "round trip and commutation flags")


def check_coboundary2(data: dict, out: dict) -> None:
    group = PlainGroup(data["group"])
    cochain = parse_cochain(group, data)
    probes = [tuple(group.parse(g) for g in key) for key in data["probes"]]
    got = [parse_fn(group, pairs) for pairs in out["d"]]
    expect_eq(got, [plain.coboundary_value(group, cochain, key[:2]) for key in probes], "coboundary values")
    expect_eq(out["dd"], [[] for _ in probes], "coboundary of the coboundary")


def check_adjointness(data: dict, out: dict) -> None:
    group = PlainGroup(data["chain"]["group"])
    cochain = parse_cochain(group, data["cochain"])
    chain = parse_chain(group, data["chain"])
    via_chain = plain.pair_value(lambda key: cochain.get(key, {}),
                                 plain.slice_boundary(group, chain, data["chain"]["degree"]))
    via_cochain = plain.pair_value(lambda key: plain.coboundary_value(group, cochain, key), chain)
    expect_eq(via_chain, via_cochain, "the validator's own adjointness")
    expect_eq((out["left"], out["right"], out["equal"]), (frac_str(via_cochain), frac_str(via_chain), True),
              "adjointness values")


def check_connecting(data: dict, out: dict) -> None:
    group = PlainGroup(data)
    e = group.identity
    got = {}
    for elem, pairs in out["values"]:
        got[group.parse(elem)] = parse_fn(group, pairs)
    want = {g: ({} if g == e else {g: 1, e: -1}) for g in group.ball(2)}
    expect_eq(got, want, "coboundary of the delta lift on ball(2)")
    expect_eq(out["check"], True, "connecting-map check")


CLI_CHECKS = {
    "verify-f2": check_verify_f2,
    "folner-box": check_folner_box,
    "folner-ball-failure": check_folner_failure,
    "reiter": check_reiter,
    "finite-h0": check_finite_h0,
    "iso-min": check_iso_min,
    "pair": check_pair,
    "pair-builtin": check_pair_builtin,
}

API_CHECKS = {
    "boundary2": check_boundary2,
    "uf-boundary2": check_uf_boundary2,
    "inflate": check_inflate,
    "coboundary2": check_coboundary2,
    "adjointness": check_adjointness,
    "connecting": check_connecting,
}


def check(job: dict, rc: int, text: str) -> str | None:
    """None when `text` is a valid output of `job`, else the reason it is not."""
    try:
        payload = json.loads(text)
        if job["kind"] == "cli":
            CLI_CHECKS[job["check"]["type"]](job["check"], rc, payload)
        else:
            API_CHECKS[job["op"]](load(job["input"]), payload)
    except Invalid as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
