"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are exact (algebraic equality) except for the stated wall-clock
budgets; the random suites are seeded and deterministic.
"""

import json
import random
import subprocess
import sys
import time

import mpmath

from coxcent import (
    CoxeterContext,
    FieldContext,
    centralizer,
    enumerate_group,
    involution_certificate,
    is_minus_one_type,
    longest_element,
    verify_centralizer_certificate,
    verify_centralizer_is_normalizer,
)
from coxcent.scalar import dickson_polynomials
from roots import Ring, neg

mpmath.mp.dps = 60

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192, "F4": 1152, "H3": 120,
    "I2(5)": 10, "I2(6)": 12, "I2(7)": 14, "I2(8)": 16,
}

LONGEST_LENGTHS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
    "B2": 4, "B3": 9, "B4": 16,
    "D4": 12, "F4": 24, "H3": 15,
    "I2(5)": 5, "I2(6)": 6, "I2(7)": 7, "I2(8)": 8,
}

MINUS_ONE_TYPE_FULL = {
    "A1": True, "A2": False, "A3": False, "A4": False, "A5": False,
    "B2": True, "B3": True, "B4": True,
    "D4": True, "F4": True, "H3": True,
    "I2(5)": False, "I2(6)": True, "I2(7)": False, "I2(8)": True,
}

# the classical list: A1, B_n, D_{2k}, E7, E8, F4, H3, H4, I2(2k)
CLASSICAL_CROSS_CHECK = {
    "D5": False, "D6": True, "E6": False, "E7": True, "E8": True, "H4": True,
}

_cache: dict[str, tuple] = {}


def system(name):
    if name not in _cache:
        ctx = CoxeterContext.from_name(name)
        _cache[name] = (ctx, enumerate_group(ctx))
    return _cache[name]


def involutions_of(group):
    return [w for w in group if (w * w).is_identity]


def report(num, label, extra=""):
    print(f"[acceptance] criterion {num} ({label}): PASS{extra}")


def test_criterion_1_group_orders():
    start = time.monotonic()
    for name, expected in GROUP_ORDERS.items():
        _ctx, group = system(name)
        assert len(group) == expected, f"{name}: {len(group)} != {expected}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"enumeration suite took {elapsed:.1f}s"
    report(1, "group orders", f" [{elapsed:.1f}s]")


def test_criterion_2_longest_elements():
    for name, expected in LONGEST_LENGTHS.items():
        ctx, _ = system(name)
        rho = longest_element(ctx, range(ctx.rank))
        assert rho.length == expected, f"{name}: l(rho) = {rho.length} != {expected}"
        assert (rho * rho).is_identity
        positives = rho.inversion_set()  # rho inverts all of Phi+
        assert len(positives) == expected
        assert {rho.act(g) for g in positives} == {neg(g) for g in positives}
    report(2, "longest elements")


def test_criterion_3_minus_one_type_detection():
    for name, expected in MINUS_ONE_TYPE_FULL.items():
        ctx, _ = system(name)
        assert is_minus_one_type(ctx, range(ctx.rank)) is expected, name
    for name, expected in CLASSICAL_CROSS_CHECK.items():
        ctx = CoxeterContext.from_name(name)
        assert is_minus_one_type(ctx, range(ctx.rank)) is expected, name
    report(3, "(-1)-type detection")


def test_criterion_4_certificates_for_all_involutions():
    start = time.monotonic()
    checked = 0
    for name in GROUP_ORDERS:
        ctx, group = system(name)
        for w in involutions_of(group):
            cert = involution_certificate(w)
            assert cert.verify(w), f"{name}: certificate failed for {w!r}"
            cur = w
            for s in cert.steps:
                gen = ctx.generator(s)
                nxt = gen * cur * gen
                assert nxt.length == cur.length - 2, "step did not shorten by 2"
                cur = nxt
            assert cur == cert.target()
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"certificate suite took {elapsed:.1f}s"
    report(4, "certificates for every involution", f" [{checked} involutions, {elapsed:.1f}s]")


def test_criterion_5_centralizer_equals_normalizer():
    checked = 0
    for name in GROUP_ORDERS:
        ctx, group = system(name)
        for mask in range(1 << ctx.rank):
            subset = frozenset(s for s in range(ctx.rank) if mask >> s & 1)
            if not is_minus_one_type(ctx, subset):
                continue
            assert verify_centralizer_is_normalizer(subset, group), (name, sorted(subset))
            checked += 1
    report(5, "centralizer of rho_I is the normalizer", f" [{checked} subsets]")


def test_criterion_6_main_identity():
    checked = 0
    for name in ("A3", "B3", "H3", "D4"):
        _ctx, group = system(name)
        for w in involutions_of(group):
            assert verify_centralizer_certificate(w, group), (name, w)
            checked += 1
    _ctx, group = system("F4")
    pool = [w for w in involutions_of(group) if not w.is_identity]
    rng = random.Random(20260808)
    for w in rng.sample(pool, 50):
        assert verify_centralizer_certificate(w, group), ("F4", w)
        checked += 1
    report(6, "centralizer = conjugated normalizer", f" [{checked} involutions]")


def test_criterion_7_infinite_group_smoke():
    start = time.monotonic()
    systems = [
        CoxeterContext.from_name("Atilde2"),
        CoxeterContext(((1, 3, 3), (3, 1, 0), (3, 0, 1))),  # labels (3, 3, infinity)
    ]
    checked = 0
    rng = random.Random(97)
    for ctx in systems:
        subsets = [frozenset({s}) for s in range(ctx.rank)]
        subsets += [
            frozenset(pair)
            for pair in [(a, b) for a in range(ctx.rank) for b in range(a + 1, ctx.rank)]
            if is_minus_one_type(ctx, pair)
        ]
        for subset in subsets:
            rho = longest_element(ctx, subset)
            for _ in range(100):
                v = ctx.element([rng.randrange(ctx.rank) for _ in range(8)])
                w = v * rho * v.inverse()
                cert = involution_certificate(w)
                assert cert.verify(w)
                assert 2 * len(cert.steps) <= w.length
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"smoke suite took {elapsed:.1f}s"
    report(7, "infinite-group certificates", f" [{checked} cases, {elapsed:.1f}s]")


def test_criterion_8_cli_determinism():
    args = [sys.executable, "-m", "coxcent", "verify", "--type", "B3", "--suite", "main", "--json"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["failures"] == []
    report(8, "byte-identical CLI output")


def test_criterion_9_scalar_soundness():
    # ring laws on int coefficients, each product also against the test ring,
    # which reduces by long division and shares no code with coxcent.scalar
    rng = random.Random(13)
    ring_checks = 0
    for order in (4, 5, 6, 12):
        field = FieldContext(order)
        ring = Ring(field.min_poly)
        d = field.degree
        for _ in range(125):
            a, b, c = (field.from_coeffs([rng.randint(-9, 9) for _ in range(d)]) for _ in range(3))
            ab, bc = a * b, b * c
            assert ab * c == a * bc
            assert a * (b + c) == ab + a * c
            for x, y in ((a, b), (b, c), (ab, c), (a, bc), (a, b + c), (a, c)):
                assert (x * y).coeffs == ring.mul(x.coeffs, y.coeffs)
            ring_checks += 2
        dick = dickson_polynomials(2 * order)
        for k in range(1, order + 1):
            half = field.from_coeffs(dick[k])
            assert field.from_coeffs(dick[2 * k]) == half * half + (-2)
            assert (half * half).coeffs == ring.mul(half.coeffs, half.coeffs)
            ring_checks += 1
    assert ring_checks >= 1000

    sign_checks = 0
    for order in (4, 5, 6, 12):
        field = FieldContext(order)
        x = 2 * mpmath.cos(mpmath.pi / order)
        for _ in range(250):
            coeffs = [rng.randint(-30, 30) for _ in range(field.degree)]
            if not any(coeffs):
                coeffs[0] = 1
            a = field.from_coeffs(coeffs)
            numeric = mpmath.mpf(0)
            for coefficient in reversed(a.coeffs):
                numeric = numeric * x + coefficient
            assert abs(numeric) > mpmath.mpf(10) ** -40
            assert a.sign() == field.sign(a.coeffs) == (1 if numeric > 0 else -1)
            sign_checks += 1
    assert sign_checks >= 1000
    report(9, "scalar soundness", f" [{ring_checks} ring, {sign_checks} sign checks]")
