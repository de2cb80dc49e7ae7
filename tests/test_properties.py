"""Seeded property checks of the element core on random Coxeter matrices.

Labels come from {2, 3, 4, 6, infinity}, so every field is Q(2cos(pi/N)) with
N dividing 12, of degree at most 4.  Finite matrices are also enumerated.
"""

import random

import pytest
from test_group import action_matrix_oracle

from coxcent import CoxeterContext, catalog, enumerate_group

LABELS = (2, 3, 4, 6, 0)  # 0 encodes an infinite bond
MATRICES = 30


def random_matrix(rng):
    n = rng.randint(2, 4)
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(LABELS)
    return m


@pytest.mark.parametrize("seed", range(MATRICES))
def test_random_coxeter_matrix_properties(seed):
    rng = random.Random(seed)
    matrix = random_matrix(rng)
    ctx = CoxeterContext(matrix)
    n = ctx.rank

    def random_element():
        return ctx.element([rng.randrange(n) for _ in range(rng.randrange(8))])

    pool = [random_element() for _ in range(6)]
    for a in pool:
        assert ctx.element(a.word).word == a.word
        assert (a * a.inverse()).is_identity
        assert len(a.inversion_set()) == a.length
        for b in pool:
            c = rng.choice(pool)
            assert (a * b) * c == a * (b * c)
            same_images = action_matrix_oracle(ctx, a.word) == action_matrix_oracle(ctx, b.word)
            assert (a == b) == same_images

    if catalog.is_finite_diagram(ctx.matrix, range(n)):
        for g in enumerate_group(ctx):
            assert ctx.element(g.word).word == g.word
