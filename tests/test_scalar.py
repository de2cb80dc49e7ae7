"""Exact field arithmetic: minimal polynomials, ring ops, certified signs."""

import random
import sys
from fractions import Fraction
from math import cos, lcm, pi
from time import perf_counter

import mpmath
import pytest
from roots import Ring, mp_sign

from coxcent import CoxeterContext, scalar
from coxcent.scalar import (
    MAX_FIELD_DEGREE,
    FieldContext,
    FieldDegreeError,
    _scaled_value,
    cyclotomic_polynomial,
    dickson_polynomials,
    euler_phi,
    two_cos_minimal_poly,
)

mpmath.mp.dps = 60


def theta_numeric(order):
    return 2 * mpmath.cos(mpmath.pi / order)


def eval_numeric(coeffs, order):
    x = theta_numeric(order)
    acc = mpmath.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divexact(num, den):
    # exact long division over Z by a monic polynomial, low degree first
    num = list(num)
    d = len(den) - 1
    quot = [0] * (len(num) - d)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + d]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                if dj:
                    num[k + j] -= c * dj
    assert not any(num[:d])
    return quot


def test_cyclotomic_matches_division_oracle():
    # the defining recursion: Phi_n = (z^n - 1) / Phi_d over every proper
    # divisor d of n; dividing by the largest d first keeps the running
    # quotient short.  n <= 1050 covers 2N for every admitted order N <= 525.
    oracle = {}
    for n in range(1, 1051):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(n - 1, 0, -1):
            if n % d == 0:
                poly = _divexact(poly, oracle[d])
        oracle[n] = poly
        assert cyclotomic_polynomial(n) == poly, n


def test_cyclotomic_basics():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(24) == [1, 0, 0, 0, -1, 0, 0, 0, 1]


def test_dickson_recurrence_values():
    d = dickson_polynomials(4)
    assert d[0] == [2]
    assert d[1] == [0, 1]
    assert d[2] == [-2, 0, 1]
    assert d[3] == [0, -3, 0, 1]
    assert d[4] == [2, 0, -4, 0, 1]


@pytest.mark.parametrize(
    "order,expected",
    [
        (1, (2, 1)),       # 2cos(pi) = -2
        (2, (0, 1)),       # 2cos(pi/2) = 0
        (3, (-1, 1)),      # 2cos(pi/3) = 1
        (4, (-2, 0, 1)),   # sqrt(2)
        (5, (-1, -1, 1)),  # golden ratio
        (6, (-3, 0, 1)),   # sqrt(3)
        # hand derivation for 2cos(pi/12): x^2 = 2 + sqrt(3), so x^4 - 4x^2 + 1 = 0
        (12, (1, 0, -4, 0, 1)),
    ],
)
def test_minimal_polynomials_frozen(order, expected):
    assert two_cos_minimal_poly(order) == expected


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 12, 15, 30])
def test_minimal_polynomial_numeric_root_and_degree(order):
    poly = two_cos_minimal_poly(order)
    assert len(poly) - 1 == euler_phi(2 * order) // 2
    x = theta_numeric(order)
    acc = mpmath.mpf(0)
    for c in reversed(poly):
        acc = acc * x + c
    assert abs(acc) < mpmath.mpf(10) ** -40


def test_minimal_polynomials_match_sympy():
    # p is the minimal polynomial of theta = 2cos(pi/n) when it is monic and
    # irreducible, of degree D = [Q(theta):Q] (phi(2n)/2 for n >= 2), and
    # p(theta) = 0.  The last is proved numerically: with B = sum |c_k| 2^k,
    # a nonzero p(theta) is an algebraic integer of degree at most D whose
    # conjugates are all at most B in absolute value (|theta_j| <= 2), so its
    # norm, a nonzero integer, gives |p(theta)| >= B^-(D-1); mpmath at
    # D bits(B) + 64 bits shows |p(theta)| < B^-(D-1)/2.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for order in range(1, 61):
        p = two_cos_minimal_poly(order)
        D = len(p) - 1
        assert p[-1] == 1 and D == (sympy.totient(2 * order) // 2 if order > 1 else 1), order
        assert sympy.Poly(list(reversed(p)), x).is_irreducible, order
        B = sum(abs(c) << k for k, c in enumerate(p))
        with mpmath.workprec(D * B.bit_length() + 64):
            theta = 2 * mpmath.cos(mpmath.pi / order)
            value = mpmath.polyval(list(reversed(p)), theta)
            assert abs(value) < mpmath.mpf(B) ** -(D - 1) / 2, order


def test_field_degree_guard():
    # I2(251) has degree 125 and is built; 1001 = lcm(7, 11, 13) needs 360
    assert FieldContext(251).degree == 125 <= MAX_FIELD_DEGREE
    with pytest.raises(FieldDegreeError, match="degree 360"):
        FieldContext(1001)
    with pytest.raises(FieldDegreeError, match="degree 500001"):
        FieldContext(1000003)
    # too large to factor quickly: rejected on the bound phi(n) >= sqrt(n/2)
    with pytest.raises(FieldDegreeError, match="degree at least 500000000"):
        FieldContext(10**18 + 3)


def test_field_from_matrix_orders():
    # labels 2, 3, 4, 6 and infinity take integer Cartan entries: N = 1, theta = -2
    for matrix in ([[1, 3, 2], [3, 1, 3], [2, 3, 1]],   # A3
                   [[1, 4], [4, 1]],                    # B2
                   [[1, 3, 2], [3, 1, 4], [2, 4, 1]],   # B3: mixed {3, 4}
                   [[1, 2], [2, 1]]):                   # no bonds at all
        f = CoxeterContext(matrix).field
        assert f.order == 1 and f.degree == 1 and f.min_poly == (2, 1)  # theta + 2
    # an odd label m brings 2cos(pi/m): N = 5, the golden ratio
    f = CoxeterContext([[1, 5], [5, 1]]).field
    assert f.order == 5 and f.min_poly == (-1, -1, 1) and f.degree == 2
    # an even label m brings 2 + 2cos(2pi/m) = 2 + 2cos(pi/(m/2)): N = 4, theta^2 = 2
    f = CoxeterContext([[1, 8], [8, 1]]).field
    assert f.order == 4 and f.min_poly == (-2, 0, 1) and f.degree == 2


def test_equal_scalars_hash_alike():
    # a scalar is its reduced int tuple: equal values, however built, are one
    # set member; a scalar never equals an int, nor a scalar of another field
    for order, degree in ((1, 1), (5, 2), (12, 4), (35, 12)):
        f = FieldContext(order)
        assert f.degree == degree
        for value in (0, 1, -1, 2, -7):
            a = f.from_coeffs((value,))
            b = f.from_coeffs((value,) + (0,) * (2 * degree))
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            assert a.coeffs == (value,) + (0,) * (degree - 1)
            assert a != value and a != FieldContext(order).from_coeffs((value,))
        one = f.from_coeffs((1,))
        assert {one: "one"}[f.from_coeffs((1,)) * one] == "one"
        if degree > 1:
            theta = f.from_coeffs((0, 1))
            assert theta not in {f.from_coeffs((c,)) for c in (0, 1, -1, 2, -2)}
    with pytest.raises(ValueError, match="must be ints"):
        FieldContext(5).from_coeffs((Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="must be ints"):
        FieldContext(5).from_coeffs((1.0,))


def _admitted_orders():
    # phi(n) >= sqrt(n/2) gives phi(2N)/2 >= sqrt(N)/2, so an admitted N is at
    # most (2 * MAX_FIELD_DEGREE)^2; sieve phi up to twice that
    top = (2 * MAX_FIELD_DEGREE) ** 2
    phi = list(range(2 * top + 1))
    for p in range(2, 2 * top + 1):
        if phi[p] == p:
            for k in range(p, 2 * top + 1, p):
                phi[k] -= phi[k] // p
    return [n for n in range(1, top + 1) if phi[2 * n] // 2 <= MAX_FIELD_DEGREE]


def test_seed_interval_brackets_exactly_one_root():
    # Every root of the minimal polynomial of 2cos(pi/N) other than theta itself
    # is 2cos(j pi/N) with odd j >= 3, so at most 2cos(3pi/N).  A seed interval
    # with a sign change that lies wholly above 2cos(3pi/N) brackets theta alone.
    orders = _admitted_orders()
    assert len(orders) == 337 and max(orders) == 525
    for order in orders:
        f = FieldContext(order)
        lo, hi = f.theta_enclosure()
        poly = f.min_poly
        assert _sign_at(poly, lo) * _sign_at(poly, hi) < 0, order
        if f.degree == 1:  # the one root is the int -p_0
            assert lo < -poly[0] < hi and -poly[0] == {1: -2, 2: 0, 3: 1}[order]
            continue
        theta = theta_numeric(order)
        assert _mp(lo) < theta < _mp(hi), order
        assert _mp(lo) - 2 * mpmath.cos(3 * mpmath.pi / order) > mpmath.mpf(10) ** -6, order


def _sign_at(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def test_two_cos_values():
    f12 = FieldContext(12)
    assert f12.two_cos(2).coeffs == (0, 0, 0, 0)
    assert f12.two_cos(1).coeffs == (-2, 0, 0, 0)
    root2 = f12.two_cos(4)
    assert root2.coeffs == (0, -3, 0, 1)  # theta^3 - 3 theta
    assert abs(eval_numeric(root2.coeffs, 12) - mpmath.sqrt(2)) < mpmath.mpf(10) ** -40
    assert root2 * root2 == f12.from_coeffs((2,))
    for k in (5, 0, -3):  # 5 does not divide 12; no label code is read
        with pytest.raises(ValueError, match="does not divide"):
            f12.two_cos(k)
    f4 = FieldContext(4)
    assert f4.two_cos(4) * f4.two_cos(4) == f4.from_coeffs((2,))


def test_ring_identities_and_canonical_form():
    f = FieldContext(12)
    ring = Ring(f.min_poly)
    theta = f.from_coeffs((0, 1))
    a = theta * theta + (-3)
    assert a.coeffs == ring.of(-3, 0, 1)
    assert a + 0 == a == 0 + a
    assert f.from_coeffs(a.coeffs) == a  # reduction of a reduced vector is identity
    # reduction of high powers: theta^4 = 4 theta^2 - 1, theta^8 = (theta^4)^2
    theta4 = f.from_coeffs([0, 0, 0, 0, 1])
    assert theta4.coeffs == ring.of(0, 0, 0, 0, 1) == (-1, 0, 4, 0)
    assert theta4 == 4 * theta * theta + (-1)
    assert f.from_coeffs([0] * 8 + [1]) == theta4 * theta4
    assert (theta4 * theta4).coeffs == ring.mul(theta4.coeffs, theta4.coeffs)


def test_signs():
    f = FieldContext(4)
    root2 = f.from_coeffs((0, 1))
    assert f.from_coeffs((0,)).sign() == 0
    assert (root2 + (-1)).sign() == 1
    assert (-1 * root2 + 1).sign() == -1
    assert (root2 * root2 + (-2)).sign() == 0
    f1 = FieldContext(1)
    assert f1.from_coeffs((0, 1)).sign() == -1  # theta_1 = -2


def test_sign_multiplicative_random():
    rng = random.Random(20260808)
    for order in (4, 5, 6, 12):
        f = FieldContext(order)
        ring = Ring(f.min_poly)
        for _ in range(120):
            a = f.from_coeffs([rng.randint(-9, 9) for _ in range(f.degree)])
            b = f.from_coeffs([rng.randint(-9, 9) for _ in range(f.degree)])
            assert (a * b).coeffs == ring.mul(a.coeffs, b.coeffs)
            assert (a * b).sign() == a.sign() * b.sign()
            assert (a.sign() == 0) == (not any(a.coeffs))


def test_dickson_half_angle_exact():
    # D_{2k}(theta) = D_k(theta)^2 - 2 for the shared field argument
    for order in (4, 6, 12, 15):
        f = FieldContext(order)
        polys = dickson_polynomials(2 * order)
        ring = Ring(f.min_poly)
        for k in range(1, order + 1):
            lhs = f.from_coeffs(polys[2 * k])
            rhs = f.from_coeffs(polys[k])
            assert lhs == rhs * rhs + (-2)
            assert lhs.coeffs == ring.add(ring.mul(rhs.coeffs, rhs.coeffs), ring.of(-2))


def test_interval_contains_float_evaluation():
    # 1000 random scalars: the certified interval evaluation brackets the
    # 64-bit floating evaluation to within the interval's own width
    rng = random.Random(7)
    for order in (4, 5, 6, 12):
        f = FieldContext(order)
        x = 2.0 * cos(pi / order)
        lo, hi = _narrowed(f, Fraction(1, 10**12))
        for _ in range(250):
            a = f.from_coeffs([rng.randint(-50, 50) for _ in range(f.degree)])
            value = 0.0
            for c in reversed(a.coeffs):
                value = value * x + c
            value = Fraction(value)
            plo, phi = _interval_eval(a, lo, hi)
            width = phi - plo
            assert plo - width <= value <= phi + width


def _narrowed(f, max_width):
    # the enclosure of theta after halving it until it is at most max_width wide
    lo, hi = f.theta_enclosure()
    while hi - lo > max_width:
        f.refine_theta(1)
        lo, hi = f.theta_enclosure()
    return lo, hi


def _interval_eval(scalar, lo, hi):
    rlo = rhi = Fraction(scalar.coeffs[-1])
    for c in reversed(scalar.coeffs[:-1]):
        products = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo, rhi = min(products) + c, max(products) + c
    return rlo, rhi


def test_theta_enclosure_narrows_monotonically():
    f = FieldContext(12)
    lo1, hi1 = f.theta_enclosure()
    lo2, hi2 = _narrowed(f, Fraction(1, 10**30))
    assert lo1 <= lo2 <= hi2 <= hi1
    assert hi2 - lo2 <= Fraction(1, 10**30)
    target = theta_numeric(12)
    assert mpmath.mpf(lo2.numerator) / lo2.denominator <= target
    assert mpmath.mpf(hi2.numerator) / hi2.denominator >= target


def test_mixed_context_rejected():
    a = FieldContext(4).from_coeffs((0, 1))
    b = FieldContext(6).from_coeffs((0, 1))
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a * b


def test_repr_smoke():
    f = FieldContext(4)
    assert repr(f.from_coeffs((0,))) == "AlgebraicScalar((0, 0) in Q(2cos(pi/4)))"
    assert "(0, 1)" in repr(f.from_coeffs((0, 1)))


def test_concurrent_sign_determination_consistent():
    # interval refinement narrows a shared cache; readers must all agree
    import threading

    f = FieldContext(12)
    rng = random.Random(5150)
    tuples = [tuple(rng.randint(-20, 20) for _ in range(f.degree)) for _ in range(120)]
    # near-zero values, so that the threads narrow the enclosure and rebuild its plan
    tuples += [(-p, q, 0, 0) for p, q in _convergents(theta_numeric(12)) if q >= 10**4]
    expected = [f.sign(t) for t in tuples]
    assert expected == [mp_sign(t, 12) for t in tuples]
    fresh = FieldContext(12)
    results = {}

    def worker(idx):
        results[idx] = [fresh.sign(t) for t in tuples]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside plan builds and narrowings
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    for got in results.values():
        assert got == expected
    lo, hi = fresh.theta_enclosure()
    assert lo <= hi


def _fraction_sign(coeffs, poly, enclosure):
    # The sign as decided over Fractions: interval Horner over a certified
    # enclosure of theta, bisected with the Fraction _sign_at until it decides.
    # enclosure is a one-element list holding (lo, hi); it is narrowed in place.
    if not any(coeffs):
        return 0
    top = max(k for k, c in enumerate(coeffs) if c) + 1
    while True:
        lo, hi = enclosure[0]
        rlo = rhi = Fraction(coeffs[top - 1])
        for c in reversed(coeffs[: top - 1]):
            products = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
            rlo, rhi = min(products) + c, max(products) + c
        if rlo > 0:
            return 1
        if rhi < 0:
            return -1
        enclosure[0] = _fraction_bisection(poly, lo, hi, 8)


def _fraction_bisection(poly, lo, hi, halvings):
    # halvings of [lo, hi] over Fractions: the midpoint replaces the end whose sign it shares
    s_lo = _sign_at(poly, lo)
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if _sign_at(poly, mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _convergents(x):
    # continued-fraction convergents p/q of the mpf x, q ascending
    h0, h1, k0, k1 = 0, 1, 1, 0
    while k1 < 10**20:
        a = int(mpmath.floor(x))
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        yield h1, k1
        x = 1 / (x - a)


def test_scaled_value_is_the_fraction_value_scaled():
    # The integer point Horner returns p(X/2^e) times 2^(e*top), top the
    # length of the coefficient list less one, for X of either sign, e >= 0
    # and zero top coefficients.
    rng = random.Random(2718)
    for _ in range(300):
        top = rng.randint(0, 13)
        coeffs = [rng.randint(-99, 99) for _ in range(top)] + [rng.choice((0, -3, 1, 7))]
        X, e = rng.randint(-(1 << 40), 1 << 40), rng.randint(0, 40)
        x = Fraction(X, 1 << e)
        value = sum(c * x**k for k, c in enumerate(coeffs))
        assert _scaled_value(coeffs, X, e) == value * 2 ** (e * top)


def _fraction_seed(order, poly):
    # the seed enclosure computed over Fractions: the float value of theta,
    # widened from 2^-28 until the minimal polynomial changes sign across it
    approx = Fraction(2.0 * cos(pi / order))
    eps = Fraction(1, 1 << 28)
    while eps < Fraction(1, 1 << 8):
        lo, hi = approx - eps, approx + eps
        if _sign_at(poly, lo) * _sign_at(poly, hi) < 0:
            return lo, hi
        eps *= 2
    raise AssertionError(f"no seed for order {order}")


@pytest.mark.parametrize("order,halvings", [(5, 200), (7, 200), (35, 200), (60, 200), (251, 40)],
                         ids=["deg2", "deg3", "deg12", "deg16", "deg125"])
def test_integer_bisection_is_the_fraction_bisection(order, halvings):
    # refine_theta on the int triple (L, H, e) from a fresh field gives, as
    # rationals, the ends of a Fraction bisection from the Fraction seed.
    f = FieldContext(order)
    seed = _fraction_seed(order, f.min_poly)
    assert f.theta_enclosure() == seed
    f.refine_theta(halvings // 2)
    f.refine_theta(halvings - halvings // 2)
    assert f.theta_enclosure() == _fraction_bisection(f.min_poly, *seed, halvings)


@pytest.mark.parametrize("order,count,max_q", [
    (5, 40, 10**20), (12, 40, 10**20), (35, 30, 10**20), (251, 3, 10**5),
], ids=["deg2", "deg4", "deg12", "deg125"])
def test_sign_matches_fraction_horner_and_mpmath(order, count, max_q):
    # Random int tuples, some with zero top coefficients, and near-zero values
    # q*theta - p from the convergents p/q of theta, alone and times a random
    # cofactor (multiplied by the test ring).  The near-zero ones force
    # refine_theta.  Each sign, read by FieldContext.sign as
    # CoxeterContext._coord_sign reads it and by AlgebraicScalar.sign, must
    # equal the Fraction interval Horner's and the sign of a 60-digit evaluation.
    rng = random.Random(order)
    f = FieldContext(order)
    ring = Ring(f.min_poly)
    d = f.degree
    seed = f.theta_enclosure()
    assert _sign_at(f.min_poly, seed[0]) * _sign_at(f.min_poly, seed[1]) < 0
    enclosure = [seed]
    tuples = []
    for _ in range(count):
        top = rng.randint(2, d)
        small = [rng.randint(-50, 50) for _ in range(top)]
        large = [rng.randint(-50, 50) * rng.randint(1, 12) for _ in range(top)]
        tuples += [ring.of(*small), ring.of(*large)]
    near_zero = [ring.of(-p, q) for p, q in _convergents(theta_numeric(order))
                 if 10**4 <= q <= max_q]
    assert len(near_zero) >= 2
    cofactor = ring.of(*[rng.randint(-9, 9) * rng.randint(1, 5) for _ in range(d)])
    tuples += near_zero + [ring.mul(x, cofactor) for x in near_zero]
    tuples += [ring.of(rng.choice((-1, 1)) * rng.randint(1, 50)),
               ring.of(rng.randint(-50, -1) * rng.randint(2, 12))]
    assert f.sign((0,) * d) == 0 and f.from_coeffs((0,)).sign() == 0
    for x in tuples:
        value = eval_numeric(x, order)
        assert abs(value) > mpmath.mpf(10) ** -30
        expected = 1 if value > 0 else -1
        assert f.sign(x) == expected, x
        assert f.from_coeffs(x).sign() == expected, x
        assert _fraction_sign(x, f.min_poly, enclosure) == expected, x
    lo, hi = f.theta_enclosure()
    assert seed[0] <= lo < hi <= seed[1] and hi - lo < seed[1] - seed[0]


@pytest.mark.parametrize("order", [5, 7, 11, 35, 60],
                         ids=["deg2", "deg3", "deg5", "deg12", "deg16"])
def test_plan_sign_matches_mpmath_from_a_cold_seed(order):
    # FieldContext.sign on int tuples, from a field's cold seed enclosure,
    # against mpmath at a precision the norm bound makes sufficient: a nonzero
    # value is at least B^-(d-1), B = sum |c_k| 2^k, so d*log2(B) bits and a
    # margin resolve it (roots.mp_sign).  Random tuples, and near-zero ones
    # (D theta - N)^k r with N/D close to theta, reduced in the field; those
    # force narrowing, after which the cached plan must belong to the current
    # enclosure.
    rng = random.Random(f"plan-{order}")
    f = FieldContext(order)
    ring = Ring(f.min_poly)
    d = f.degree
    seed = f.theta_enclosure()
    theta = theta_numeric(order)
    tuples = [tuple(rng.randint(-10**6, 10**6) for _ in range(d)) for _ in range(150)]
    for _ in range(60):
        den = rng.randint(10**2, 10**6)
        near = ring.of(-int(mpmath.nint(den * theta)), den)
        x = ring.of(*[rng.randint(-99, 99) for _ in range(d)], 1)
        for _ in range(rng.randint(1, 3)):
            x = ring.mul(x, near)
        tuples.append(x)
    assert f.sign((0,) * d) == 0
    for coeffs in tuples:
        assert f.sign(coeffs) == mp_sign(coeffs, order), coeffs
    lo, hi = f.theta_enclosure()
    assert seed[0] <= lo < hi <= seed[1] and hi - lo < seed[1] - seed[0]
    assert f._plan[0] is f._interval
    L, H, e = f._interval  # the plan reads the int triple (L, H, e) of [L/2^e, H/2^e]
    assert all(type(n) is int for n in (L, H, e))
    assert (Fraction(L, 1 << e), Fraction(H, 1 << e)) == (lo, hi)


@pytest.mark.parametrize("order,size,den", [(5, 10**6, 99), (35, 10**6, 99), (251, 9, 1)],
                         ids=["deg2", "deg12", "deg125"])
def test_sign_that_never_decides_raises_within_its_halving_budget(monkeypatch, order, size, den):
    # A sign test that never decides must exhaust the halving budget of
    # FieldContext.sign (|p(theta)| >= B^-(d-1)) and raise, not hang.  The
    # plans and the bisection's point evaluations are stubbed too: at degree
    # 125, 15935 real halvings take minutes and their plans seconds.
    rng = random.Random(order)
    f = FieldContext(order)
    fresh = FieldContext(order)  # the same seed interval, built before the patch
    # d random fractions cleared of their denominators: ints of many sizes
    fractions = [Fraction(rng.randint(-size, size), rng.randint(1, den)) for _ in range(f.degree)]
    common = lcm(*[c.denominator for c in fractions])
    ints = tuple(int(c * common) for c in fractions)
    x = f.from_coeffs(ints)
    assert x.coeffs == ints
    halvings = []
    refine = FieldContext.refine_theta

    def counted_refine(field, count):
        halvings.append(count)
        # budgets here: 21, 862 and 15935 halvings; fail instead of hanging
        if len(halvings) > 100 or sum(halvings) > 20000:
            raise RuntimeError("refinement ran past any halving budget")
        refine(field, count)

    monkeypatch.setattr(FieldContext, "refine_theta", counted_refine)
    monkeypatch.setattr(scalar, "_plan_sign", lambda coeffs, plan: 0)
    monkeypatch.setattr(scalar, "_midpoint_plan", lambda interval, d: (interval,))
    monkeypatch.setattr(scalar, "_scaled_value", lambda coeffs, X, e: -1)
    start = perf_counter()
    with pytest.raises(ArithmeticError, match="narrow enough"):
        x.sign()
    assert perf_counter() - start < 5
    assert halvings
    # the int tuple path of CoxeterContext._coord_sign spends the same
    # halvings from the same seed interval
    scalar_halvings = halvings[:]
    halvings.clear()
    with pytest.raises(ArithmeticError, match="narrow enough"):
        fresh.sign(ints)
    assert halvings == scalar_halvings


@pytest.mark.parametrize("order", [5, 12, 35, 251], ids=["deg2", "deg4", "deg12", "deg125"])
def test_multiples_and_products_match_polynomial_division(order):
    # FieldContext.multiples is shared by AlgebraicScalar.__mul__, from_coeffs
    # and the Cartan tables of CoxeterContext, so it is checked against the
    # test ring (tests/roots.py), which shares no code with it: theta^j c and
    # a 2d-long vector reduced by polynomial division, and a schoolbook
    # product reduced the same way.  The vectors include zero top
    # coefficients and rational and zero ones; a second kind is zero past its
    # first 12 coefficients, with larger entries, so that degree 125 stays
    # fast in the division.
    rng = random.Random(f"multiples-{order}")
    f = FieldContext(order)
    ring = Ring(f.min_poly)
    d = f.degree
    vectors = [[0] * d, [rng.randint(-9, 9)] + [0] * (d - 1)]
    for _ in range(3 if d < 100 else 1):
        top = rng.randint(1, d)
        vectors.append([rng.randint(-50, 50) for _ in range(top)] + [0] * (d - top))
        top = rng.randint(1, min(d, 12))
        vectors.append([rng.randint(-50, 50) * rng.randint(1, 12) for _ in range(top)]
                       + [0] * (d - top))
    for c in vectors:
        multiples = list(f.multiples(c))
        assert len(multiples) == d
        for j, column in enumerate(multiples):
            assert column == ring.of(*[0] * j, *c)
        # from_coeffs reduces a vector of any length through the same step
        assert f.from_coeffs(c + c[::-1]).coeffs == ring.of(*c, *c[::-1])
    for a in vectors:
        for b in vectors:
            product = (f.from_coeffs(a) * f.from_coeffs(b)).coeffs
            assert product == ring.mul(a, b), (a, b)
