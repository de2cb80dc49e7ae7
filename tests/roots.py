"""Test helpers for roots, which the library hands out as flat int tuples:
n*d ints, coordinate t at g[t*d:(t+1)*d] (the layout of orbit_key()); for
signs in Q(2cos(pi/N)) read by mpmath alone; and for the field's arithmetic
on int tuples, with no code of coxcent.scalar."""

import mpmath


def neg(g):
    """-gamma for a flat root gamma."""
    return tuple(-c for c in g)


def root_sign(ctx, g):
    """+1 for a positive root, -1 for a negative one, each coordinate's sign
    read by ctx.field.sign on its int slice.

    Raises ArithmeticError when the coordinates mix signs or all vanish: such
    a vector is not a root, which signals an arithmetic bug.
    """
    d = ctx.field.degree
    signs = {ctx.field.sign(g[b : b + d]) for b in range(0, len(g), d)} - {0}
    if len(signs) != 1:
        raise ArithmeticError(f"not a root: {g}")
    return signs.pop()


def mp_sign(coeffs, order):
    """Sign of sum coeffs[k] theta^k, theta = 2cos(pi/order), for the d int
    coefficients of a field element, by mpmath alone.

    A nonzero value is at least B^-(d-1) in absolute value, B = sum |c_k| 2^k
    (the norm bound), so d*log2(B) bits and a margin resolve it.
    """
    if not any(coeffs[1:]):
        return (coeffs[0] > 0) - (coeffs[0] < 0)
    bound = sum(abs(c) << k for k, c in enumerate(coeffs))
    with mpmath.workprec(len(coeffs) * bound.bit_length() + 64):
        x = 2 * mpmath.cos(mpmath.pi / order)
        value = mpmath.fsum(c * x**k for k, c in enumerate(coeffs))
    assert value != 0, coeffs
    return 1 if value > 0 else -1


class Ring:
    """Z[theta] modulo a monic minimal polynomial, on tuples of d ints.

    A product is a schoolbook convolution followed by the remainder of long
    division by the polynomial, from the top degree down; coxcent.scalar
    instead folds one power of theta at a time, so the two share no code.
    """

    def __init__(self, min_poly):
        self.min_poly = tuple(min_poly)
        self.d = len(min_poly) - 1

    def of(self, *coeffs):
        """A polynomial in theta of any length, reduced to d ints."""
        conv, d = list(coeffs) + [0] * self.d, self.d
        for k in range(len(conv) - 1, d - 1, -1):
            if q := conv[k]:
                for j, m in enumerate(self.min_poly):
                    conv[k - d + j] -= q * m
        return tuple(conv[:d])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, c, a):
        return tuple(c * x for x in a)

    def mul(self, a, b):
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        return self.of(*conv)
