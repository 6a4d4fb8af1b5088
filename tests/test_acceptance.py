"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every check is exact (rationals compared for equality, zero
tolerance); the two timed criteria assert their wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

from amencert.amenability import (
    FolnerCertificate,
    _iso_enumerate,
    finite_h0,
    folner_search,
    indicator,
    isoperimetric_argmin,
    reiter_ratio,
)
from amencert.cli import main
from amencert.complexes import connecting_lift_check, deflate, inflate
from amencert.groups import FreeAbelianGroup, FreeGroup, cyclic_group
from amencert.pairing import adjointness_values
from amencert.sampling import (
    random_cochain,
    random_l1_chain,
    random_tuple,
    random_uf_chain,
)
from amencert.witnesses import FlowCycleSpec, flow_value, verify_flow_cycle
from conftest import s3_group


def report(number, name, ok):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {number} failed: {name}"


def spec_groups():
    return [FreeGroup(2), FreeAbelianGroup(2), cyclic_group(3)]


def test_criterion_1_f2_witness(capsys):
    start = time.perf_counter()
    code = main(["verify-f2", "--radius", "4"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = (
            code == 0
            and payload["passed"] is True
            and payload["points-checked"] == 161**2
            and payload["outgoing-constant"] == 1
            and payload["incoming-constant"] == 3
            and payload["boundary-constant"] == 2
            and payload["failures"] == []
            and payload["pairing"]["value"] == "2/1"
            and payload["pairing"]["adjointness-witness"]["equal"] is True
            and elapsed < 10.0
        )
        report(1, f"verify-f2 radius 4 ({elapsed:.2f}s, ball(4)^2 pairs, pairing 2/1)", ok)


def test_criterion_2_connecting_map():
    results = {
        "free(2)": connecting_lift_check(FreeGroup(2)),
        "free-abelian(2)": connecting_lift_check(FreeAbelianGroup(2)),
        "Z/3": connecting_lift_check(cyclic_group(3)),
    }
    report(2, f"coboundary of the delta lift equals the degree-1 cocycle on ball(3) slices {results}", all(results.values()))


def test_criterion_3_complex_axioms():
    rng = random.Random(3)
    groups = spec_groups()
    checked = 0
    ok = True
    for _ in range(180):  # summable equivariant chains, degrees 2..3
        chain = random_l1_chain(rng, rng.choice(groups), rng.randint(2, 3))
        ok = ok and chain.boundary().boundary().is_zero
        checked += 1
    for _ in range(180):  # uniformly finite chains, degrees 2..3
        uf = random_uf_chain(rng, rng.choice(groups), rng.randint(2, 3))
        ok = ok and uf.boundary().boundary().is_zero
        checked += 1
    for _ in range(180):  # cochains, coboundary squared probed on random keys
        group = rng.choice(groups)
        phi = random_cochain(rng, group, rng.randint(0, 1))
        dd = phi.coboundary().coboundary()
        for _ in range(3):
            ok = ok and dd.value_at(random_tuple(rng, group, dd.degree)).is_zero
        checked += 1
    report(3, f"boundary^2 = 0 and coboundary^2 = 0 on {checked} random (co)chains", ok and checked >= 500)


def test_criterion_4_adjointness():
    rng = random.Random(4)
    groups = spec_groups()
    checked = 0
    ok = True
    for _ in range(510):
        group = rng.choice(groups)
        m = rng.randint(0, 2)
        phi = random_cochain(rng, group, m)
        c = random_l1_chain(rng, group, m + 1)
        left, right = adjointness_values(phi, c)
        ok = ok and left == right
        checked += 1
    report(4, f"pair(d phi, c) = pair(phi, boundary c) on {checked} random instances", ok and checked >= 500)


def test_criterion_5_inflation():
    rng = random.Random(5)
    groups = spec_groups()
    checked = 0
    ok = True
    for _ in range(210):
        group = rng.choice(groups)
        uf = random_uf_chain(rng, group, rng.randint(0, 2))
        ok = ok and deflate(inflate(uf)) == uf
        if uf.degree >= 1:
            ok = ok and inflate(uf.boundary()) == inflate(uf).boundary()
        checked += 1
    report(5, f"deflate(inflate) = id and inflate is a chain map on {checked} random chains", ok and checked >= 200)


def test_criterion_6_amenable_side():
    z2 = FreeAbelianGroup(2)
    cert = folner_search(z2, Fraction(1, 10), strategy="boxes", max_radius=100)
    folner_ok = (
        isinstance(cert, FolnerCertificate)
        and cert.parameter == 80
        and cert.ratio <= Fraction(1, 10)
    )

    def box(side):
        return [(i, j) for i in range(side) for j in range(side)]

    ratios = [reiter_ratio(z2, indicator(z2, box(n))) for n in range(2, 65)]
    monotone_ok = all(a > b for a, b in zip(ratios, ratios[1:]))

    h0_ok = all(
        finite_h0(group).one_in_span is False
        for group in (cyclic_group(3), cyclic_group(5), s3_group())
    )
    report(
        6,
        f"Folner box side {cert.parameter} at ratio {cert.ratio}; box ratios strictly decrease; "
        f"all-ones avoids the span for Z/3, Z/5, S3",
        folner_ok and monotone_ok and h0_ok,
    )


def test_criterion_7_isoperimetric_brute_force():
    # the enumeration of all 2^17 - 1 subsets is the oracle for the forest count
    f2 = FreeGroup(2)
    start = time.perf_counter()
    enumerated = _iso_enumerate(f2, f2.ball(2))
    elapsed = time.perf_counter() - start
    minimum = enumerated[0]
    closed_form = isoperimetric_argmin(f2, 2)
    ok = enumerated == closed_form and minimum == Fraction(72, 17) and minimum >= 4 and elapsed < 60.0
    report(
        7,
        f"min over 2^17-1 subsets of ball(2) = {minimum} ({elapsed:.2f}s), "
        f"equal to the forest count {closed_form[0]}",
        ok,
    )


def test_criterion_8_negative_control():
    f2 = FreeGroup(2)
    fs = FlowCycleSpec(f2, 1)
    bad_point = f2.elem_from_json("b*a^-1")

    def perturbed(s, g):
        value = flow_value(fs, s, g)
        if s == -2 and g == bad_point:
            return 1 - value
        return value

    clean = verify_flow_cycle(fs, 2)
    broken = verify_flow_cycle(fs, 2, flow=perturbed)
    ok = clean.passed and not broken.passed and len(broken.failures) > 0
    report(8, f"a single perturbed flow value produces {len(broken.failures)} per-point failures", ok)
