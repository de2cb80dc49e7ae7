"""Seeded property checks of the element core on random Coxeter matrices.

The first 30 matrices draw labels from {2, 3, 4, 6, infinity}, whose Cartan
entries are integers, so their contexts run at field degree 1.  Finite
matrices are also enumerated.  The exact decisions on unreduced words
(represents, screened_descents, and through them is_involution and
certificate verification) are checked against normal-form arithmetic on the
same matrices and on B3, H3 and Atilde2, and negated_simples against the root
action.

The realization itself is cross-checked against the symmetric one,
2cos(pi/m_st) over Q(2cos(pi/L)) with L the lcm of all finite labels, on
catalog systems and on further matrices whose labels include 5, 8, 10 and 12,
so that field degrees 2 and up are exercised too.  On 20 further integer
matrices, of rank 4 to 7, certificates are checked step for step against
the same descent run on the symmetric realization.
"""

import random
from math import lcm

import pytest
from roots import Ring, mp_sign, neg
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
from coxcent.scalar import two_cos_minimal_poly

LABELS = (2, 3, 4, 6, 0)  # 0 encodes an infinite bond
MATRICES = 30


def random_matrix(rng, ranks=(2, 4)):
    n = rng.randint(*ranks)
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
        descents = ctx.screened_descents(ctx.orbit_key(a))[0]
        assert descents == w.right_descents()
        minus = {s for s in descents if w.act(ctx.simple_root(s)) == neg(ctx.simple_root(s))}
        assert negated_simples(w) == minus

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


class SymmetricRealization:
    """Test oracle: the symmetric 2cos(pi/m) matrix over Q(2cos(pi/L)), L the lcm of all labels.

    Normal forms peel the least left descent off w(rho); nothing is shared with
    the Cartan matrix of CoxeterContext but the Coxeter matrix.  Values are
    int tuples of the test ring (tests/roots.py), 2cos(pi/m) = D_(L/m)(theta)
    comes from the Dickson recurrence D_(i+1) = theta D_i - D_(i-1) in that
    ring, and signs come from mpmath: no arithmetic of coxcent.scalar.
    """

    def __init__(self, matrix):
        self.order = lcm(1, *[m for row in matrix for m in row if m >= 3])
        ring = self.ring = Ring(two_cos_minimal_poly(self.order))
        dickson = [ring.of(2), ring.of(0, 1)]
        while len(dickson) <= self.order:
            dickson.append(ring.add(ring.mul(dickson[1], dickson[-1]), ring.scale(-1, dickson[-2])))
        self.dickson = dickson
        # label 0 is an infinite bond, 2cos(0) = 2; the diagonal label 1 is never read
        self.two_cos = [[ring.of(2) if m == 0 else ring.of(0) if m in (1, 2)
                         else self.dickson[self.order // m] for m in row] for row in matrix]
        self.rank = len(matrix)

    def orbit(self, word):
        """w(rho) for w the product of the word."""
        v = [self.ring.of(1)] * self.rank
        for s in reversed(word):
            self.reflect(v, s)
        return v

    def reflect(self, v, s):
        ring, x = self.ring, v[s]
        for t in range(self.rank):
            if t != s:
                v[t] = ring.add(v[t], ring.mul(self.two_cos[s][t], x))
        v[s] = ring.scale(-1, x)

    def normal_form(self, word):
        v, out = self.orbit(word), []
        while (s := next((t for t in range(self.rank) if self.negative(v[t])), None)) is not None:
            out.append(s)
            self.reflect(v, s)
        return tuple(out)

    def descents(self, v):
        return frozenset(t for t in range(self.rank) if self.negative(v[t]))

    def negative(self, x):
        return mp_sign(x, self.order) < 0

    def embed(self, x, field):
        """A Cartan entry of a context over the subfield Q(2cos(pi/N)), N | L,
        as a value of this ring: Horner at 2cos(pi/N) = D_(L/N)(theta)."""
        ring = self.ring
        theta = self.dickson[self.order // field.order]
        acc = ring.of(0)
        for c in reversed((x,) if type(x) is int else x.coeffs):
            acc = ring.add(ring.mul(acc, theta), ring.of(c))
        return acc


WIDE_LABELS = (2, 3, 4, 5, 6, 8, 10, 12, 0)  # 0 encodes an infinite bond
WIDE_MATRICES = 12
INF4 = ((1, 0, 3, 2), (0, 1, 3, 4), (3, 3, 1, 0), (2, 4, 0, 1))


def wide_matrix(seed):
    rng = random.Random(f"wide-{seed}")
    n = rng.randint(2, 4)
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(WIDE_LABELS)
    return m


@pytest.mark.parametrize(
    "system", ["B4", "F4", "H3", "I2(8)", "I2(12)", "inf4", *range(WIDE_MATRICES)]
)
def test_cartan_realization_matches_symmetric_oracle(system):
    if system == "inf4":
        ctx = CoxeterContext(INF4)
    elif isinstance(system, str):
        ctx = CoxeterContext.from_name(system)
    else:
        ctx = CoxeterContext(wide_matrix(system))
    oracle = SymmetricRealization(ctx.matrix)
    n = ctx.rank
    for s in range(n):
        for t in range(n):
            if s != t:
                product = oracle.ring.mul(oracle.embed(ctx.action_coeff[s][t], ctx.field),
                                          oracle.embed(ctx.action_coeff[t][s], ctx.field))
                assert product == oracle.ring.mul(oracle.two_cos[s][t], oracle.two_cos[s][t])
    if ctx.field.degree == 1:
        assert all(type(a) is int for row in ctx.action_coeff for a in row)
    rng = random.Random(f"realization-{system}")
    words = [tuple(rng.randrange(n) for _ in range(rng.randrange(10))) for _ in range(8)]
    words += [a + b[::-1] + b for a, b in zip(words[:4], words[4:])]  # unreduced repeats
    orbits = [tuple(oracle.orbit(a)) for a in words]
    for a, orbit in zip(words, orbits):
        w = ctx.element(a)
        assert w.word == oracle.normal_form(a)
        assert w.left_descents() == oracle.descents(orbit)
        assert w.right_descents() == oracle.descents(oracle.orbit(a[::-1]))
        for b, other in zip(words, orbits):
            assert ctx.represents(b, w) == (other == orbit)


CERTIFIED_MATRICES = 20


def symmetric_descent(oracle, word):
    """The certificate descent on the symmetric realization's orbit vectors.

    x starts as the involution; D is the set of right descents of x, read off
    x^-1(rho), and N the s in D with s x s = x, by equality of orbit vectors.
    While D != N, x becomes s x s for s = min(D \\ N).  Returns (D, the steps,
    the ShortLex word of the conjugator s_k ... s_1).
    """
    steps, x = [], tuple(word)
    while True:
        key = oracle.orbit(x[::-1])
        descents = oracle.descents(key)
        s = next((s for s in sorted(descents)
                  if oracle.orbit((s,) + x[::-1] + (s,)) != key), None)
        if s is None:
            return descents, tuple(steps), oracle.normal_form(steps[::-1])
        steps.append(s)
        x = (s,) + x + (s,)


@pytest.mark.parametrize("seed", range(CERTIFIED_MATRICES))
def test_integer_certificate_matches_symmetric_descent(seed):
    # the degree-1 descent (int signs, inline reflections) against the same
    # descent on 2cos(pi/m) scalars with mpmath signs, step for step
    rng = random.Random(f"certified-{seed}")
    ctx = CoxeterContext(random_matrix(rng, ranks=(4, 7)))
    assert ctx.field.degree == 1
    oracle = SymmetricRealization(ctx.matrix)
    n = ctx.rank
    subsets = [frozenset(s for s in range(n) if mask >> s & 1) for mask in range(1, 1 << n)]
    rhos = [longest_element(ctx, J).word for J in subsets if is_minus_one_type(ctx, J)]
    for _ in range(3):
        x = tuple(rng.randrange(n) for _ in range(rng.randint(0, 12)))
        w = ctx.element(x + rng.choice(rhos) + x[::-1])
        cert = involution_certificate(w)
        assert (cert.subset, cert.steps, cert.conjugator.word) == symmetric_descent(oracle, w.word)
