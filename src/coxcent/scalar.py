"""Exact arithmetic in the real cyclotomic subfield Q(theta), theta = 2cos(pi/N).

A Coxeter system needs this field only for its bond labels outside
{2, 3, 4, 6, infinity}; those five take integer Cartan entries
(group.CoxeterContext).  N is the lcm over the other labels m of m (m odd) or
m/2 (m even).  A system with none of them has N = 1 and computes over plain
ints, with no scalar of this module.  Every Cartan entry is an algebraic
integer, so a value is d = deg(min_poly) int coefficients in the power basis
1, theta, ..., theta^(d-1), reduced modulo the minimal polynomial of theta:
equal values have equal tuples.  A sign is decided by the value at the
midpoint of a certified enclosure [L/2^e, H/2^e] of theta, kept as the int
triple (L, H, e), against a mean-value bound (Moore 1966): two integer dot
products with a plan cached per enclosure, with no Fraction and no float.
The enclosure is bisected on the same ints, the minimal polynomial evaluated
at each midpoint by one integer Horner (_scaled_value), until the test
decides, within a number of halvings bounded from the coefficients
(FieldContext.sign).

FieldContext owns the field arithmetic on int tuples: the exact sign (sign)
and the products with powers of theta, reduced modulo the minimal polynomial
(multiples).  One step, _shift_fold, multiplies by theta and folds the
theta^d term back; multiples and from_coeffs (Horner in theta) are its only
callers, so the field has one reduction.  group.CoxeterContext calls sign
and multiples on its flat int vectors with no scalar object built.
AlgebraicScalar is the public value of a Cartan entry in action_coeff at
degree 2 and up: its coefficients, + and * within its field (the
realization forms 2 + 2cos(pi/k)), equality and the sign.  theta_enclosure
reports the current enclosure of theta, and refine_theta narrows it.

The minimal polynomial is obtained from the cyclotomic polynomial of order 2N:
with z on the unit circle and y = z + 1/z, a palindromic Phi_{2N}(z) of degree
2d folds to a degree-d polynomial in y via z^i + z^-i = D_i(y), where D_i are
the Dickson polynomials D_0 = 2, D_1 = y, D_{i+1} = y*D_i - D_{i-1} (they
satisfy D_i(2cos x) = 2cos(ix)).
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, isqrt, pi
from operator import mul

# Largest field degree a FieldContext accepts.  Labels (7, 11, 13) need degree
# 360, where one 20-letter word takes minutes; I2(251), degree 125, is fast.
MAX_FIELD_DEGREE = 128
# euler_phi factors by trial division, so it is not asked about larger orders;
# since phi(n) >= sqrt(n/2), their degree is at least sqrt(N)/2, far over the limit.
_FACTORED_ORDER_LIMIT = 1 << 32


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Phi_n is the product of (z^d - 1)^mu(n/d) over the divisors d of n.  The
    factors with mu = +1 are multiplied in first, then those with mu = -1 are
    divided out exactly; each step is a sparse pass over the coefficients.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    mu = {d: _mobius(n // d) for d in divisors}
    poly = [1]
    for d in divisors:
        if mu[d] == 1:
            # poly * (z^d - 1)
            out = [-c for c in poly] + [0] * d
            for k, c in enumerate(poly):
                out[k + d] += c
            poly = out
    for d in divisors:
        if mu[d] == -1:
            # poly / (z^d - 1): poly[j] = q[j - d] - q[j], so q[j] = q[j - d] - poly[j]
            m = len(poly) - d
            quot = []
            for j in range(m):
                quot.append((quot[j - d] if j >= d else 0) - poly[j])
            if [quot[j - d] if j >= d else 0 for j in range(m, len(poly))] != poly[m:]:
                raise ArithmeticError("inexact polynomial division")
            poly = quot
    return poly


def dickson_polynomials(count: int) -> list[list[int]]:
    """D_0 .. D_count as integer coefficient lists, low degree first."""
    polys = [[2], [0, 1]]
    while len(polys) <= count:
        prev, cur = polys[-2], polys[-1]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        polys.append(nxt)
    return polys[: count + 1]


def two_cos_minimal_poly(n: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(pi/n) over Q, monic, low degree first."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (2, 1)  # theta = 2cos(pi) = -2
    cyc = cyclotomic_polynomial(2 * n)
    d = (len(cyc) - 1) // 2
    dick = dickson_polynomials(d)
    out = [0] * (d + 1)
    out[0] = cyc[d]
    for i in range(1, d + 1):
        c = cyc[d + i]
        if c:
            for j, dj in enumerate(dick[i]):
                out[j] += c * dj
    if out[d] != 1 or d != euler_phi(2 * n) // 2:
        raise ArithmeticError(f"bad minimal polynomial for 2cos(pi/{n})")
    if d >= 2:
        _check_no_rational_root(out)
    return tuple(out)


def _check_no_rational_root(poly: list[int]) -> None:
    # monic, so rational roots would be integer divisors of the constant term
    a0 = abs(poly[0])
    candidates = set()
    k = 1
    while k * k <= a0:
        if a0 % k == 0:
            candidates.update((k, -k, a0 // k, -(a0 // k)))
        k += 1
    for r in candidates:
        if _scaled_value(poly, r, 0) == 0:
            raise ArithmeticError(f"reducible minimal polynomial, root {r}")


def _scaled_value(coeffs, X: int, e: int) -> int:
    """sum coeffs[k] x^k at the dyadic point x = X/2^e, times 2^(e*top), top = len(coeffs) - 1.

    Horner on plain ints: R_k = R_(k+1)*X + coeffs[k]*2^(e*(top-k)); the scale
    is a positive power of two, so the sign is the value's.
    """
    acc, shift = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        shift += e
        acc = acc * X + (c << shift)
    return acc


def _shift_fold(column: tuple, low, min_poly) -> tuple:
    """column times theta, plus low: a shift, with the theta^d term folded back
    through the monic minimal polynomial."""
    top = column[-1]
    column = (low,) + column[:-1]
    if top:
        column = tuple(c - top * m for c, m in zip(column, min_poly))
    return column


def _midpoint_plan(interval, d: int) -> tuple:
    """(interval, values, weights, scale) of FieldContext.sign, degree d, interval (L, H, e).

    With M = L + H, Q = 2^(e+1) and r the least integer >= max(|L|, |H|)/2^e:
    values[k] = M^k Q^(d-1-k), so sum c_k values[k] is p(m) Q^(d-1) at the
    midpoint m = M/Q; weights[k] = k r^(k-1) and scale = (H-L) Q^(d-2), so the
    slack scale * sum |c_k| weights[k] is Q^(d-1) (H-L)/2^(e+1) sum k |c_k| r^(k-1)
    >= Q^(d-1) |p(x) - p(m)| for x in the enclosure (mean value).
    """
    L, H, e = interval
    M, r = L + H, -(-max(abs(L), abs(H)) >> e)
    values, power = [], 1  # power is M^k, one running product
    for k in range(d):
        values.append(power << ((e + 1) * (d - 1 - k)))
        power *= M
    weights = [k * r ** (k - 1) if k else 0 for k in range(d)]
    return interval, values, weights, (H - L) << ((e + 1) * (d - 2))


def _plan_sign(coeffs, plan) -> int:
    """+1 or -1 when the midpoint value outweighs the slack of the plan, 0 when undecided."""
    _, values, weights, scale = plan
    value = sum(map(mul, coeffs, values))
    slack = scale * sum(map(mul, map(abs, coeffs), weights))
    return 1 if value > slack else -1 if -value > slack else 0


class FieldDegreeError(ValueError):
    """The field Q(2cos(pi/N)) has a degree above MAX_FIELD_DEGREE; nothing was built."""

    def __init__(self, order: int, degree):
        super().__init__(
            f"field Q(2cos(pi/{order})) has degree {degree}, above the limit of {MAX_FIELD_DEGREE}"
        )


class FieldContext:
    """The field Q(theta_N) shared by all scalars of one Coxeter system.

    Immutable after construction, except that the cached enclosure of theta
    may be narrowed.  The enclosure is one tuple (L, H, e) of ints, meaning
    [L/2^e, H/2^e], with p(L/2^e) < 0 <= p(H/2^e) for the monic minimal
    polynomial p, whose largest root is theta.  Narrowing keeps every
    previously visible enclosure valid, so concurrent readers are never wrong
    (the enclosure, and the sign plan that names it, are swapped in as one
    tuple each).  Orders whose degree phi(2N)/2 exceeds MAX_FIELD_DEGREE are
    rejected with FieldDegreeError before any polynomial is built.
    """

    __slots__ = ("order", "min_poly", "degree", "_interval", "_plan")

    def __init__(self, order: int):
        if order > _FACTORED_ORDER_LIMIT:
            raise FieldDegreeError(order, f"at least {isqrt(order) // 2}")
        degree = euler_phi(2 * order) // 2
        if degree > MAX_FIELD_DEGREE:
            raise FieldDegreeError(order, degree)
        self.order = order
        self.min_poly = two_cos_minimal_poly(order)
        self.degree = len(self.min_poly) - 1
        self._interval = self._initial_interval()
        self._plan = (None,)  # _midpoint_plan of the enclosure it names

    def _initial_interval(self) -> tuple[int, int, int]:
        # Certified seed around the float value: widen from 2^-28 until the
        # minimal polynomial is negative at the lower end and positive at the
        # upper one.  Roots of the minimal polynomial are separated by far more
        # than the float error, so the bracketed root is 2cos(pi/N) itself.
        n, den = (2.0 * cos(pi / self.order)).as_integer_ratio()  # den = 2^k
        k = den.bit_length() - 1
        e = max(k, 28)
        X = n << (e - k)
        for w in range(e - 28, e - 8):  # half-width 2^w / 2^e
            L, H = X - (1 << w), X + (1 << w)
            if _scaled_value(self.min_poly, L, e) < 0 < _scaled_value(self.min_poly, H, e):
                return L, H, e
        raise ArithmeticError(f"could not bracket 2cos(pi/{self.order})")

    def theta_enclosure(self) -> tuple[Fraction, Fraction]:
        """Current certified enclosure of theta; refine_theta narrows it."""
        L, H, e = self._interval
        return Fraction(L, 1 << e), Fraction(H, 1 << e)

    def refine_theta(self, halvings: int) -> None:
        # bisect at M = L + H over 2^(e+1), keeping p(L/2^e) < 0 <= p(H/2^e)
        L, H, e = self._interval
        for _ in range(halvings):
            M = L + H
            e += 1
            if _scaled_value(self.min_poly, M, e) < 0:
                L, H = M, H << 1
            else:
                L, H = L << 1, M
        self._interval = (L, H, e)

    def sign(self, coeffs) -> int:
        """Exact sign of sum coeffs[k] theta^k for d ints; no Fraction, no float.

        The plan of the enclosure (L, H, e) of theta (_midpoint_plan, kept
        until the enclosure narrows) gives V = p(m) at the midpoint and a bound
        S >= |p(theta) - p(m)|, both times one power of two: V > S decides +1,
        -V > S decides -1 (_plan_sign), and otherwise theta is narrowed.  The
        enclosure is read once per attempt and a plan names its own, so a
        concurrent narrowing is never half seen.

        The narrowing is bounded.  The value p(theta) = sum c_k theta^k
        is a nonzero algebraic integer of degree d (deg p < d), and every
        conjugate 2cos(j*pi/N) of theta lies in [-2, 2], so every conjugate of
        p(theta) is at most B = sum |c_k| 2^k in absolute value.  Their product,
        the norm, is a nonzero integer, so |p(theta)| >= B^-(d-1).  The
        enclosure, of width h = (H - L)/2^e, lies inside [-3, 3] (its seed is
        within 2^-8 of theta in [0, 2)), so the plan's r <= 3 and the slack is
        at most h*W/2, W = sum k |c_k| 3^(k-1).  Undecided, |p(theta)| <=
        |p(m)| + h*W/2 <= h*W.  Once h * W * B^(d-1) < 1, that would put
        |p(theta)| below its bound, so the test decides; undecided after
        that many halvings is an ArithmeticError.
        """
        if not any(coeffs[1:]):  # an int, and zero exactly when coeffs[0] is
            c = coeffs[0]
            return (c > 0) - (c < 0)
        budget = None  # halvings left before the test must decide
        halvings = 8
        while True:
            interval, plan = self._interval, self._plan
            if plan[0] is not interval:
                plan = self._plan = _midpoint_plan(interval, self.degree)
            if sign := _plan_sign(coeffs, plan):
                return sign
            if budget is None:
                L, H, e = interval
                bound = sum(abs(c) << k for k, c in enumerate(coeffs)) ** (self.degree - 1)
                widening = sum(k * abs(c) * 3 ** (k - 1) for k, c in enumerate(coeffs) if k)
                budget = (((H - L) * widening * bound) >> e).bit_length()  # 2^budget > h*W*B^(d-1)
            if budget <= 0:
                raise ArithmeticError("sign undecided on an enclosure narrow enough to decide it")
            step = min(halvings, budget)
            self.refine_theta(step)
            budget -= step
            halvings *= 2

    def multiples(self, coeffs):
        """Yield c*theta^j for j < d as coefficient tuples, c given by its d coefficients.

        Each is the previous one times theta (_shift_fold).  Lazy, so a caller
        that needs only the first few columns builds no more.
        """
        column = tuple(coeffs)
        yield column
        for _ in range(self.degree - 1):
            column = _shift_fold(column, 0, self.min_poly)
            yield column

    def from_coeffs(self, coeffs) -> "AlgebraicScalar":
        """Scalar from int power-basis coefficients of any length, by Horner in
        theta: each step is one _shift_fold, the reduction that multiples uses."""
        column = (0,) * self.degree
        for c in reversed(coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints, got {c!r}")
            column = _shift_fold(column, c, self.min_poly)
        return AlgebraicScalar(self, column)

    def two_cos(self, k: int) -> "AlgebraicScalar":
        """The exact value 2cos(pi/k) for k dividing the order N: the Dickson
        polynomial D_(N/k) at theta, as D_j(2cos x) = 2cos(jx)."""
        if k < 1 or self.order % k:
            raise ValueError(f"{k} does not divide the field order {self.order}")
        j = self.order // k
        return self.from_coeffs(dickson_polynomials(j)[j])

    def __repr__(self):
        return f"FieldContext(2cos(pi/{self.order}), degree {self.degree})"


class AlgebraicScalar:
    """Immutable element of Q(theta_N): its d int coefficients, reduced, so
    equal values have equal vectors.  The public value of a Cartan entry;
    + and * take scalars of the same field and ints."""

    __slots__ = ("field", "coeffs", "_sign")

    def __init__(self, field: FieldContext, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs
        self._sign = None

    def _coerce(self, other):
        if isinstance(other, AlgebraicScalar):
            if other.field is not self.field:
                raise ValueError("scalars from different field contexts")
            return other
        if isinstance(other, int):
            return self.field.from_coeffs((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlgebraicScalar(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __mul__(self, other):
        """a*b = sum a_i (b theta^i), the columns b theta^i from the field's multiples."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = (0,) * self.field.degree
        for a, column in zip(self.coeffs, self.field.multiples(other.coeffs)):
            out = tuple(o + a * c for o, c in zip(out, column))
        return AlgebraicScalar(self.field, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly by the field and kept."""
        if self._sign is None:
            self._sign = self.field.sign(self.coeffs)
        return self._sign

    def __repr__(self):
        return f"AlgebraicScalar({self.coeffs} in Q(2cos(pi/{self.field.order})))"
