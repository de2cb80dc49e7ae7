"""Root action, descents, ShortLex normal form, inversion sets."""

import itertools
import random
from fractions import Fraction

import pytest

from coxcent import CoxeterContext, word_from_string, word_to_string
from roots import Ring, mp_sign, neg, root_sign


def el(ctx, text):
    return ctx.element(word_from_string(text))


def action_matrix_oracle(ctx, word):
    """Image of every simple root under the word, via the reflection op only.

    Composes ctx.reflect right-to-left, independently of normal forms, matrix
    products and descent peeling.
    """
    images = []
    for t in range(ctx.rank):
        root = ctx.simple_root(t)
        for s in reversed(word):
            root = ctx.reflect(s, root)
        images.append(root)
    return tuple(images)


def shortlex_oracle(ctx, word):
    """First word in (length, lex) order with the same action: brute force."""
    target = action_matrix_oracle(ctx, word)
    for length in range(len(word) + 1):
        for cand in itertools.product(range(ctx.rank), repeat=length):
            if action_matrix_oracle(ctx, cand) == target:
                return cand
    raise AssertionError("unreachable: the word itself matches")


def test_simple_reflection_action_a2(context_of):
    ctx = context_of("A2")
    a1, a2 = ctx.simple_root(0), ctx.simple_root(1)
    assert ctx.reflect(0, a1) == neg(a1)
    # coefficient 2cos(pi/3) = 1, so s1 sends alpha_2 to alpha_1 + alpha_2
    assert ctx.reflect(0, a2) == (1, 1)
    assert ctx.reflect(1, (1, 1)) == (1, 0)


def test_act_and_reflect_take_flat_int_tuples(context_of):
    # a root is a tuple of rank*d ints; anything else is refused before the walk
    for name, bad in (("A2", ((1,), (1, 0, 0), [1, 0], (1.0, 0), (Fraction(1), 0), (True, 0))),
                      ("H3", ((1, 0, 0), (1,) * 5, (1, 0, 0, 0, 0, 0.5)))):
        ctx = context_of(name)
        w = ctx.element((0, 1))
        for root in bad:
            with pytest.raises(ValueError, match="tuple of"):
                ctx.reflect(0, root)
            with pytest.raises(ValueError, match="tuple of"):
                w.act(root)
    h3 = context_of("H3")
    one, zero = h3.field.from_coeffs((1,)), h3.field.from_coeffs((0,))
    with pytest.raises(ValueError):
        h3.reflect(0, (one, zero, zero))
    assert h3.reflect(0, h3.simple_root(0)) == neg(h3.simple_root(0))


def test_reflection_involutive_random(context_of):
    rng = random.Random(11)
    ctx = context_of("B3")
    for _ in range(50):
        root = ctx.simple_root(rng.randrange(3))
        for s in [rng.randrange(3) for _ in range(6)]:
            root = ctx.reflect(s, root)
        s = rng.randrange(3)
        assert ctx.reflect(s, ctx.reflect(s, root)) == root


def test_positive_root_orbit_a2(context_of):
    # |Phi+| = 3 for A2: enumerate the orbit of the simple roots
    ctx = context_of("A2")
    seen = set(ctx.simple_root(s) for s in range(2))
    frontier = list(seen)
    while frontier:
        root = frontier.pop()
        for s in range(2):
            image = ctx.reflect(s, root)
            if root_sign(ctx, image) > 0 and image not in seen:
                seen.add(image)
                frontier.append(image)
    assert seen == {ctx.simple_root(0), ctx.simple_root(1), (1, 1)}


def test_act_examples(context_of):
    ctx = context_of("A2")
    gamma = ctx.simple_root(1)
    assert ctx.identity().act(gamma) == gamma
    w = el(ctx, "1 2 1")
    assert w.act(ctx.simple_root(0)) == neg(ctx.simple_root(1))
    rng = random.Random(5)
    ctx3 = context_of("B3")
    for _ in range(25):
        w = ctx3.element([rng.randrange(3) for _ in range(8)])
        root = ctx3.simple_root(rng.randrange(3))
        for s in [rng.randrange(3) for _ in range(4)]:
            root = ctx3.reflect(s, root)
        assert w.act(w.inverse().act(root)) == root


def test_is_positive_and_mixed_signs(context_of):
    ctx = context_of("A2")
    a1 = ctx.simple_root(0)
    assert root_sign(ctx, a1) == 1
    assert root_sign(ctx, neg(a1)) == -1
    assert root_sign(ctx, (1, 1)) == 1
    with pytest.raises(ArithmeticError):
        root_sign(ctx, (1, -1))
    with pytest.raises(ArithmeticError):
        root_sign(ctx, (0, 0))


def test_is_positive_reads_exact_signs_of_near_zero_coordinates():
    # phi*F_n - F_(n+1) = -(-1/phi)^n is too near zero for the seed interval of
    # theta = phi, so the sign refines theta; the scalar's sign, its multiples'
    # and the int tuple read of the group's coordinates agree, and a second
    # read of x comes from its cache
    ctx = CoxeterContext.from_name("H3")
    theta = ctx.field.from_coeffs((0, 1))
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    for n in (30, 31):
        x = theta * fib[n] + (-fib[n + 1])
        expected = 1 if n % 2 == 1 else -1
        assert [c.sign() for c in (x, 3 * x, x)] == [expected] * 3
        assert ctx.field.sign(x.coeffs) == expected


@pytest.mark.parametrize("matrix,message", [
    ([], "empty Coxeter matrix"),
    ([[1, 3, 2], [3, 1], [2, 2, 1.0]], "row 1 has length 2, expected 3"),
    ([[1, 3, 2], [3, 1, 0], [2, True, 1.5]], "entry (2,1) must be an integer, got True"),
    ([[1, 4, 2], [3, 1, 2], [2, 2, 0]], "matrix not symmetric at (0,1)"),
    ([[1, 3, 2], [3, 2, 2], [2, 2, 0]], "diagonal entry (1,1) must be 1"),
    ([[1, 3, 1], [3, 1, -2], [1, -2, 1]], "invalid label 1 at (0,2); use 0 for infinity"),
    ([[1, 3, 2], [3, 1, -2], [2, -2, 5]], "invalid label -2 at (1,2); use 0 for infinity"),
    ([[1, 3, 2], [3, 1, 5], [2, 4, 1]], "matrix not symmetric at (1,2)"),
], ids=["empty", "length", "type", "symmetry", "diagonal", "one", "negative", "late-symmetry"])
def test_matrix_validation_names_the_first_bad_entry(matrix, message):
    # the checks run row by row: length and type over all rows first, then
    # the diagonal, symmetry and label of each entry in row-major order
    with pytest.raises(ValueError) as caught:
        CoxeterContext(matrix)
    assert str(caught.value) == message


def test_generator_checks_its_index(context_of):
    ctx = context_of("A2")
    assert ctx.generator(1).word == (1,)
    for s in (-1, ctx.rank):
        with pytest.raises(ValueError, match="out of range") as from_generator:
            ctx.generator(s)
        with pytest.raises(ValueError) as from_element:
            ctx.element((s,))
        assert str(from_generator.value) == str(from_element.value)


def test_word_api_checks_generator_index(context_of):
    # a negative letter would be read as generator n - 1, one past the rank
    # would raise IndexError from the tables
    ctx = context_of("A3")
    x = ctx.element((2,))
    assert ctx.represents((2, 0, 0), x) and ctx.orbit_key([2]) == x.orbit_key()
    for s in (-1, ctx.rank):
        for call in (lambda: ctx.represents((s,), x), lambda: ctx.orbit_key((0, s))):
            with pytest.raises(ValueError, match=f"generator index {s} out of range 0..2"):
                call()
    # a word with several bad letters names the first one in word order, and
    # a NaN letter, which no comparison holds for, is refused as well; so are
    # a float, which would raise TypeError from the tables, and True, which
    # would be read as generator 1
    for call in (ctx.element, ctx.orbit_key, lambda word: ctx.represents(word, x)):
        for word, s in (((0, 9, -1), 9), ((0, float("nan"), 1), "nan"), ((0, 1.5), 1.5),
                        ((True, 1), True), ((0, 1.0), 1.0)):
            with pytest.raises(ValueError, match=f"generator index {s} out of range 0..2"):
                call(word)


def test_represents_refuses_an_element_of_another_context(context_of):
    # an equal matrix is not the same context: orbit vectors of two contexts
    # are never compared, whether or not they would match
    ctx = context_of("A3")
    other = CoxeterContext.from_name("A3")
    for x in (other.element((2,)), other.identity()):
        with pytest.raises(ValueError, match="element from a different context"):
            ctx.represents(x.word, x)
    assert ctx.represents((2,), ctx.element((2,)))


@pytest.mark.parametrize("name", ["A3", "H3"])
def test_root_api_checks_generator_index(context_of, name):
    # a negative index would wrap around to the last generator
    ctx = context_of(name)
    root, w = ctx.simple_root(1), ctx.element((0, 1))
    for s in (-1, ctx.rank):
        with pytest.raises(ValueError) as from_element:
            ctx.element((s,))
        for call in (lambda: ctx.simple_root(s), lambda: ctx.reflect(s, root),
                     lambda: w.column(s)):
            with pytest.raises(ValueError, match="out of range") as caught:
                call()
            assert str(caught.value) == str(from_element.value)


def test_descents(context_of):
    ctx = context_of("A2")
    assert ctx.identity().right_descents() == frozenset()
    assert ctx.identity().left_descents() == frozenset()
    w = el(ctx, "1 2 1")
    assert w.right_descents() == {0, 1}
    assert el(ctx, "1").right_descents() == {0}
    assert el(ctx, "1 2").right_descents() == {1}
    assert el(ctx, "1 2").left_descents() == {0}


def test_descent_law_random(context_of):
    rng = random.Random(3)
    ctx = context_of("B3")
    for _ in range(60):
        w = ctx.element([rng.randrange(3) for _ in range(rng.randrange(10))])
        for s in range(3):
            ws = w * ctx.generator(s)
            assert (s in w.right_descents()) == (ws.length == w.length - 1)
            sw = ctx.generator(s) * w
            assert (s in w.left_descents()) == (sw.length == w.length - 1)


def test_normal_form_examples(context_of):
    ctx = context_of("A2")
    assert el(ctx, "1 1").word == ()
    assert el(ctx, "2 1 2").word == (0, 1, 0)  # braid move, ShortLex prefers 121
    assert el(ctx, "1 2 1 2").word == (1, 0)   # (s1 s2)^3 = 1
    b2 = context_of("B2")
    assert el(b2, "1 2 1 2 1").word == (1, 0, 1)


@pytest.mark.parametrize("system,words", [
    ("A2", ["", "1", "2 1 2", "1 2 1 2", "2 2", "1 2 1", "2 1 1 2 1"]),
    ("B2", ["1 2 1 2 1", "2 1 2 1", "1 2 1 2", "2 1 2 2 1", "1 1 2"]),
])
def test_normal_form_against_bruteforce_shortlex(system, words, context_of):
    ctx = context_of(system)
    for text in words:
        word = word_from_string(text)
        assert ctx.element(word).word == shortlex_oracle(ctx, word)


def test_normal_form_soundness_random_braid_moves(context_of):
    # words that differ by braid/ss insertions normalize identically
    rng = random.Random(17)
    ctx = context_of("B3")
    m = ctx.matrix
    for _ in range(40):
        base = [rng.randrange(3) for _ in range(rng.randrange(8))]
        variant = list(base)
        for _ in range(4):
            kind = rng.randrange(3)
            pos = rng.randrange(len(variant) + 1)
            if kind == 0:
                s = rng.randrange(3)
                variant[pos:pos] = [s, s]
            elif kind == 1 and pos + 2 <= len(variant):
                pass  # deletion of ss pairs is covered by insertion + equality
            else:
                s, t = rng.randrange(3), rng.randrange(3)
                if s != t:
                    block = [s, t] * m[s][t]
                    variant[pos:pos] = block  # (st)^m = 1
        assert ctx.element(base) == ctx.element(variant)
        assert action_matrix_oracle(ctx, tuple(base)) == action_matrix_oracle(ctx, tuple(variant))


def test_multiply_inverse_length(context_of):
    ctx = context_of("A2")
    rng = random.Random(23)
    for _ in range(30):
        a = ctx.element([rng.randrange(2) for _ in range(rng.randrange(6))])
        assert (a * a.inverse()).is_identity
        assert a.inverse().inverse() == a
    assert el(ctx, "1 2 1").length == 3
    b2 = context_of("B2")
    assert el(b2, "1 2 1 2").length == 4
    with pytest.raises(ValueError):
        _ = el(ctx, "1") * el(b2, "1")
    with pytest.raises(ValueError):
        ctx.element([5])


def test_multiply_associative_mixed_paths(context_of):
    # long and short factors on both sides, in a degree-4 field
    ctx = context_of("F4")
    rng = random.Random(31)
    for _ in range(10):
        a = ctx.element([rng.randrange(4) for _ in range(12)])
        b = ctx.element([rng.randrange(4) for _ in range(12)])
        c = ctx.element([rng.randrange(4) for _ in range(2)])
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_inversion_sets(context_of):
    ctx = context_of("A2")
    assert el(ctx, "1").inversion_set() == {ctx.simple_root(0)}
    assert el(ctx, "1 2 1").inversion_set() == {ctx.simple_root(0), ctx.simple_root(1), (1, 1)}


def test_inversion_set_size_is_length_b3(context_of):
    ctx = context_of("B3")
    rng = random.Random(2024)
    for _ in range(200):
        w = ctx.element([rng.randrange(3) for _ in range(rng.randrange(13))])
        inv = w.inversion_set()
        assert len(inv) == w.length
        for root in inv:
            assert root_sign(ctx, root) == 1
            assert root_sign(ctx, w.act(root)) == -1


def test_length_parity(context_of):
    ctx = context_of("B3")
    rng = random.Random(4)
    for _ in range(40):
        w = ctx.element([rng.randrange(3) for _ in range(rng.randrange(9))])
        for s in range(3):
            g = ctx.generator(s)
            conj = g * w * g
            assert conj.length - w.length in (-2, 0, 2)


def test_matrix_property_and_columns(context_of):
    ctx = context_of("A2")
    w = el(ctx, "1")
    # column t is w * alpha_t
    assert w.column(0) == (-1, 0)
    assert w.column(1) == (1, 1)


def test_equal_words_iff_equal_matrices(context_of):
    rng = random.Random(61)
    ctx = context_of("B3")
    pool = [ctx.element([rng.randrange(3) for _ in range(rng.randrange(8))]) for _ in range(30)]
    columns = {w: tuple(w.column(t) for t in range(ctx.rank)) for w in pool}
    for a in pool:
        for b in pool:
            assert (a.word == b.word) == (columns[a] == columns[b])
            assert (a == b) == (a.word == b.word)


def test_word_string_roundtrip():
    assert word_from_string("1 2 10") == (0, 1, 9)
    assert word_to_string((0, 1, 9)) == "1 2 10"
    assert word_from_string("") == ()
    with pytest.raises(ValueError):
        word_from_string("1 x")
    with pytest.raises(ValueError):
        word_from_string("0 1")


class ScalarWalk:
    """Test oracle: the weight and root reflections one coordinate at a time,
    each coordinate a tuple of d ints, read from the public action_coeff with
    no flat table; products come from the test ring (tests/roots.py) and
    signs from mpmath, with no arithmetic of coxcent.scalar."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.n = ctx.rank
        self.ring = Ring(ctx.field.min_poly)
        self.one, self.zero = self.ring.of(1), self.ring.of(0)
        self.cartan = [[(a,) if type(a) is int else a.coeffs for a in row]
                       for row in ctx.action_coeff]

    def reflect_weights(self, v, s):
        """(s*v)_s = -v_s and (s*v)_t = v_t + a_st*v_s, in place."""
        ring, x = self.ring, v[s]
        for t in range(self.n):
            if t != s:
                v[t] = ring.add(v[t], ring.mul(self.cartan[s][t], x))
        v[s] = ring.scale(-1, x)

    def orbit(self, word):
        """w(rho) for w the product of the word."""
        v = [self.one] * self.n
        for s in reversed(word):
            self.reflect_weights(v, s)
        return v

    def act(self, word, coords):
        ring, g = self.ring, list(coords)
        for s in reversed(word):
            acc = ring.scale(-1, g[s])
            for t in range(self.n):
                if t != s:
                    acc = ring.add(acc, ring.mul(self.cartan[s][t], g[t]))
            g[s] = acc
        return tuple(g)

    def sign(self, x):
        return mp_sign(x, self.ctx.field.order)

    def flat(self, v):
        return tuple(c for x in v for c in x)

    def normal_form(self, word):
        v, out = self.orbit(word), []
        while (s := next((t for t in range(self.n) if self.sign(v[t]) < 0), None)) is not None:
            out.append(s)
            self.reflect_weights(v, s)
        return tuple(out)


ORACLE_SYSTEMS = {
    "H3": 24, "H4": 24, "I2(8)": 24, "I2(35)": 40, "E8": 30, "Atilde4": 24,
    "deg12": 8, "inf4": 10,
}
ORACLE_MATRICES = {
    "deg12": ((1, 5, 2, 2), (5, 1, 7, 2), (2, 7, 1, 5), (2, 2, 5, 1)),
    "inf4": ((1, 0, 3, 2), (0, 1, 3, 4), (3, 3, 1, 0), (2, 4, 0, 1)),
}


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_flat_vectors_match_scalar_walk(system):
    # the flat integer tables against a walk on the public Cartan entries:
    # coefficients, signs and normal forms of orbit vectors, and root images
    spec = ORACLE_MATRICES.get(system)
    ctx = CoxeterContext(spec) if spec else CoxeterContext.from_name(system)
    oracle = ScalarWalk(ctx)
    rng = random.Random(f"flat-{system}")
    max_len = ORACLE_SYSTEMS[system]
    words = [tuple(rng.randrange(ctx.rank) for _ in range(rng.randrange(max_len + 1)))
             for _ in range(20)]
    for word in words:
        inverse_orbit = oracle.orbit(word[::-1])
        key = ctx.orbit_key(word)
        assert key == oracle.flat(inverse_orbit)
        assert all(type(c) is int for c in key)
        for t in range(ctx.rank):
            assert ctx._coord_sign(key, t) == oracle.sign(inverse_orbit[t])
            assert ctx._is_minus_one(key, t) == (inverse_orbit[t] == oracle.ring.of(-1))
        w = ctx.element(word)
        assert w.word == oracle.normal_form(word)
        assert w.orbit_key() == key
        assert w.right_descents() == {t for t in range(ctx.rank)
                                      if oracle.sign(inverse_orbit[t]) < 0}
        for t in range(ctx.rank):
            alpha = tuple(oracle.one if u == t else oracle.zero for u in range(ctx.rank))
            assert ctx.simple_root(t) == oracle.flat(alpha)
            assert w.column(t) == oracle.flat(oracle.act(w.word, alpha))
            assert ctx.reflect(t, w.column(t)) == oracle.flat(oracle.act((t,) + w.word, alpha))


@pytest.mark.parametrize("system", ["A5", "H4", "deg12"])
def test_reflection_tables_match_textbook_formula(system):
    # One walk per table and generator, on random flat int vectors with zero
    # blocks and zero coefficients, against the formulas on action_coeff:
    # (s*v)_s = -v_s, (s*v)_t = v_t + a_st*v_s on weights, and
    # (s*g)_s = -g_s + sum_t a_st*g_t on roots.  Walking s twice is the identity.
    spec = ORACLE_MATRICES.get(system)
    ctx = CoxeterContext(spec) if spec else CoxeterContext.from_name(system)
    oracle = ScalarWalk(ctx)
    n, d = ctx.rank, ctx.field.degree
    rng = random.Random(f"tables-{system}")
    for _ in range(20):
        flat = []
        for _ in range(n):
            zero_block = rng.random() < 0.25
            flat += [0 if zero_block or rng.random() < 0.3 else rng.randint(-99, 99)
                     for _ in range(d)]
        coords = [tuple(flat[t * d:(t + 1) * d]) for t in range(n)]
        for s in range(n):
            weights = list(coords)
            oracle.reflect_weights(weights, s)
            v = list(flat)
            ctx._reflect_weights(v, (s,))
            assert tuple(v) == oracle.flat(weights)
            ctx._reflect_weights(v, (s,))
            assert v == flat
            g = list(flat)
            ctx._walk(g, (s,), ctx._root_table)
            assert tuple(g) == oracle.flat(oracle.act((s,), coords))
            ctx._walk(g, (s,), ctx._root_table)
            assert g == flat
