"""Test helpers for roots, which the library hands out as flat int tuples:
n*d ints, coordinate t at g[t*d:(t+1)*d] (the layout of orbit_key()), and
for signs in Q(2cos(pi/N)) read by mpmath alone."""

from fractions import Fraction
from math import lcm

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
    """Sign of sum coeffs[k] theta^k, theta = 2cos(pi/order), for the d reduced
    coefficients (ints or Fractions) of a field element, by mpmath alone.

    Cleared of denominators, a nonzero value is at least B^-(d-1) in absolute
    value, B = sum |c_k| 2^k (the norm bound), so d*log2(B) bits and a margin
    resolve it.
    """
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    if not any(ints[1:]):
        return (ints[0] > 0) - (ints[0] < 0)
    bound = sum(abs(c) << k for k, c in enumerate(ints))
    with mpmath.workprec(len(ints) * bound.bit_length() + 64):
        x = 2 * mpmath.cos(mpmath.pi / order)
        value = mpmath.fsum(c * x**k for k, c in enumerate(ints))
    assert value != 0, coeffs
    return 1 if value > 0 else -1
