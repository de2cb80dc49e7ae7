"""Test helpers for roots, which the library hands out as flat int tuples:
n*d ints, coordinate t at g[t*d:(t+1)*d] (the layout of orbit_key())."""


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
