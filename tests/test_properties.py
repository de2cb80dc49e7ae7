"""Seeded property checks of the element core on random Coxeter matrices.

Labels come from {2, 3, 4, 6, infinity}, so every field is Q(2cos(pi/N)) with
N dividing 12, of degree at most 4.  Finite matrices are also enumerated.
The exact decisions on unreduced words (represents, descent_sets, and through
them is_involution and certificate verification) are checked against
normal-form arithmetic on the same matrices and on B3, H3 and Atilde2.
"""

import random

import pytest
from test_group import action_matrix_oracle

from coxcent import (
    CoxeterContext,
    InvolutionCertificate,
    catalog,
    enumerate_group,
    involution_certificate,
    is_involution,
    is_minus_one_type,
    longest_element,
    negated_simples,
)

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


def context_for(system):
    """A catalog system by name, or the random matrix of test seed `system`."""
    if isinstance(system, str):
        return CoxeterContext.from_name(system)
    return CoxeterContext(random_matrix(random.Random(system)))


@pytest.mark.parametrize("system", ["B3", "H3", "Atilde2", *range(MATRICES)])
def test_exact_decisions_match_normal_forms(system):
    ctx = context_for(system)
    n = ctx.rank
    rng = random.Random(f"decisions-{system}")

    def random_word(max_length):
        return tuple(rng.randrange(n) for _ in range(rng.randrange(max_length)))

    words = [random_word(8) for _ in range(6)]
    # equal elements under different, unreduced words
    for a in words[:3]:
        k = rng.randrange(len(a) + 1)
        s = rng.randrange(n)
        words.append(a[:k] + (s, s) + a[k:])
        words.append(ctx.element(a).word)
    for a in words:
        w = ctx.element(a)
        for b in words:
            assert ctx.represents(a, ctx.element(b)) == (w == ctx.element(b))
        descents, negated = ctx.descent_sets(a)
        assert descents == w.right_descents()
        minus = {s for s in descents if w.act(ctx.simple_root(s)) == -ctx.simple_root(s)}
        assert negated == negated_simples(w) == minus

    subsets = [frozenset(s for s in range(n) if mask >> s & 1) for mask in range(1 << n)]
    rhos = [longest_element(ctx, J).word for J in subsets if is_minus_one_type(ctx, J)]
    candidates = [ctx.element(a) for a in words]
    for _ in range(8):
        x = random_word(5)
        candidates.append(ctx.element(x + rng.choice(rhos) + x[::-1]))
    rejected = 0
    for w in candidates:
        assert is_involution(w) == (w * w).is_identity
        if not is_involution(w):
            continue
        cert = involution_certificate(w)
        assert cert.verify(w)
        u = cert.conjugator
        for subset in subsets:
            if subset != cert.subset:
                assert not InvolutionCertificate(subset, u, cert.steps).verify(w)
        for s in range(n):
            for tampered in (u * ctx.generator(s), ctx.generator(s) * u):
                holds = tampered * w * tampered.inverse() == cert.target()
                assert InvolutionCertificate(cert.subset, tampered, cert.steps).verify(w) == holds
                rejected += not holds
    # in (Z/2)^n every tampered conjugator still conjugates w onto rho_I
    assert rejected or all(m in (1, 2) for row in ctx.matrix for m in row)
