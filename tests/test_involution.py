"""Descent sets vs negated simples, parabolic longest elements, certificates."""

import random

import pytest

from coxcent import (
    CoxeterContext,
    InvolutionCertificate,
    enumerate_group,
    involution_certificate,
    involutions,
    is_finite_parabolic,
    is_involution,
    is_minus_one_type,
    longest_element,
    negated_simples,
    normalizer,
    word_from_string,
    word_to_string,
)
from coxcent import catalog, cli
from roots import neg, root_sign

# Two non-catalog systems: infinite bonds with labels 3 and 4 (field degree
# 4), and labels 5, 7, 5 over Q(2cos(pi/35)), field degree 12.
MATRICES = {
    "inf4": ((1, 0, 3, 2), (0, 1, 3, 4), (3, 3, 1, 0), (2, 4, 0, 1)),
    "deg12": ((1, 5, 2, 2), (5, 1, 7, 2), (2, 7, 1, 5), (2, 2, 5, 1)),
}


def fresh_context(system):
    spec = MATRICES.get(system)
    return CoxeterContext(spec) if spec else CoxeterContext.from_name(system)


def el(ctx, text):
    return ctx.element(word_from_string(text))


def test_descent_set_examples(context_of):
    ctx = context_of("A2")
    assert ctx.identity().right_descents() == frozenset()
    assert el(ctx, "1 2 1").right_descents() == {0, 1}
    assert el(ctx, "1").right_descents() == {0}


def test_negated_simples_examples(context_of):
    ctx = context_of("A2")
    assert negated_simples(el(ctx, "1")) == {0}
    w = el(ctx, "1 2 1")
    assert negated_simples(w) == frozenset()
    # oracle: direct action on the simple roots
    assert w.act(ctx.simple_root(0)) == neg(ctx.simple_root(1))
    assert w.act(ctx.simple_root(1)) == neg(ctx.simple_root(0))
    b2 = context_of("B2")
    rho = el(b2, "1 2 1 2")
    assert negated_simples(rho) == {0, 1}
    for s in range(2):
        assert rho.act(b2.simple_root(s)) == neg(b2.simple_root(s))


def test_negated_simples_subset_of_descents_random(context_of):
    rng = random.Random(8)
    for name in ("B3", "H3", "Atilde2"):
        ctx = context_of(name)
        for _ in range(40):
            w = ctx.element([rng.randrange(ctx.rank) for _ in range(rng.randrange(10))])
            assert negated_simples(w) <= w.right_descents()


def test_is_finite_parabolic(context_of):
    ctx = context_of("Atilde2")
    assert is_finite_parabolic(ctx, ())
    assert is_finite_parabolic(ctx, (0, 1))
    assert not is_finite_parabolic(ctx, (0, 1, 2))
    i27 = context_of("I2(7)")
    assert is_finite_parabolic(i27, (0, 1))


@pytest.mark.parametrize("s", [-1, 7, 1.5, True, 1.0])
def test_subset_functions_check_generator_index(s):
    # a negative index would be read as generator n - 1 (and memoized under
    # s), one past the rank would raise IndexError from the tables, True
    # would be read as generator 1 and a float would raise TypeError or pass
    # for an int
    ctx = fresh_context("A3")
    for call in (lambda: longest_element(ctx, {s}), lambda: is_minus_one_type(ctx, {0, s}),
                 lambda: is_finite_parabolic(ctx, {s})):
        with pytest.raises(ValueError, match=f"generator index {s} out of range 0..2"):
            call()
    assert not ctx._longest_memo
    affine = fresh_context("Atilde2")
    with pytest.raises(ValueError, match=f"generator index {s} out of range 0..2"):
        is_finite_parabolic(affine, [0, 1, s])  # a list: the set {0, 1, True} is {0, 1}


def test_subset_memo_hits_classify_nothing(monkeypatch):
    # a hit checks its generators in one loop, with no sort, and decides nothing again
    ctx = fresh_context("A3")
    rho, minus = longest_element(ctx, {0, 2}), is_minus_one_type(ctx, {0, 2})

    def unexpected(*args):
        raise AssertionError("a memo hit sorted or classified its subset")

    monkeypatch.setattr(ctx, "_checked_subset", unexpected)
    monkeypatch.setattr(ctx, "greedy_longest", unexpected)
    assert longest_element(ctx, {0, 2}) == rho and is_minus_one_type(ctx, {0, 2}) == minus


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-1"])
def test_subset_is_checked_before_its_memo_is_read(warm):
    # frozenset({True}) == frozenset({1}): were a subset checked only on a memo
    # miss, {True} would read the entry of {1} once {1} had been asked
    ctx = fresh_context("A3")
    group = enumerate_group(ctx)
    if warm:
        longest_element(ctx, {1})
        normalizer({1}, group)
    cert = InvolutionCertificate(frozenset({True}), ctx.identity(), ())
    for call in (lambda: longest_element(ctx, {True}), lambda: is_minus_one_type(ctx, {True}),
                 lambda: cert.checks(ctx.generator(1)), lambda: normalizer({True}, group)):
        with pytest.raises(ValueError, match="^generator index True out of range 0..2$"):
            call()
    assert set(ctx._longest_memo) == ({frozenset({1})} if warm else set())


def test_finite_group_never_classifies_a_parabolic(monkeypatch, capsys):
    # W(D5) is finite, so each of its parabolics is: the catalog classifies
    # the diagram of W once per context and no subdiagram at all
    calls = []
    real = catalog.is_finite_diagram

    def counting(matrix, subset):
        calls.append(subset)
        return real(matrix, subset)

    monkeypatch.setattr(catalog, "is_finite_diagram", counting)
    assert cli.main(["verify", "--type", "D5", "--suite", "prop1", "--json"]) == 0
    assert calls == []


def test_infinite_group_still_classifies_its_parabolics():
    ctx = CoxeterContext.from_name("Atilde2")  # fresh: no memo filled yet
    assert ctx.order is None
    with pytest.raises(ValueError):
        longest_element(ctx, {0, 1, 2})
    assert not is_minus_one_type(ctx, {0, 1, 2})
    assert is_minus_one_type(ctx, {0})


def test_longest_elements(context_of):
    ctx = context_of("A2")
    assert longest_element(ctx, {0}) == ctx.generator(0)
    rho = longest_element(ctx, {0, 1})
    assert rho.word == (0, 1, 0) and rho.length == 3
    b2 = context_of("B2")
    rho = longest_element(b2, {0, 1})
    assert rho.word == (0, 1, 0, 1) and rho.length == 4
    assert (rho * rho).is_identity
    # rho maps the positive roots of the parabolic onto their negatives
    inversions = rho.inversion_set()
    assert len(inversions) == 4
    assert {rho.act(g) for g in inversions} == {neg(g) for g in inversions}
    with pytest.raises(ValueError):
        longest_element(context_of("Atilde2"), {0, 1, 2})


def test_longest_element_ascent_order_independent(context_of):
    # greedy ascent with randomized choices lands on the same element
    rng = random.Random(77)
    for name, subset in [("B3", (0, 1, 2)), ("A3", (0, 2)), ("H3", (0, 1)), ("F4", (1, 2, 3))]:
        ctx = context_of(name)
        expected = longest_element(ctx, subset)
        for _ in range(5):
            w = ctx.identity()
            while True:
                ascents = [s for s in subset if root_sign(ctx, w.act(ctx.simple_root(s))) > 0]
                if not ascents:
                    break
                w = w * ctx.generator(rng.choice(ascents))
            assert w == expected


def test_longest_element_lengths_large_types():
    # classical positive-root counts; no enumeration needed, just greedy ascent
    for name, expected in [("E6", 36), ("E7", 63), ("E8", 120), ("H4", 60), ("D6", 30)]:
        ctx = CoxeterContext.from_name(name)
        rho = longest_element(ctx, range(ctx.rank))
        assert rho.length == expected
        assert (rho * rho).is_identity


def test_is_minus_one_type(context_of):
    assert is_minus_one_type(context_of("A2"), {0})
    assert not is_minus_one_type(context_of("A2"), {0, 1})
    assert is_minus_one_type(context_of("B2"), {0, 1})
    assert is_minus_one_type(context_of("H3"), {0, 1, 2})
    assert not is_minus_one_type(context_of("A3"), {0, 1, 2})
    # disconnected: two commuting generators
    assert is_minus_one_type(context_of("A3"), {0, 2})
    # infinite parabolic is never of (-1)-type
    assert not is_minus_one_type(context_of("Atilde2"), {0, 1, 2})


def test_is_involution(context_of):
    ctx = context_of("A2")
    assert is_involution(ctx.identity())
    assert is_involution(el(ctx, "1"))
    assert not is_involution(el(ctx, "1 2"))


def test_certificate_identity(context_of):
    ctx = context_of("A2")
    cert = involution_certificate(ctx.identity())
    assert cert.subset == frozenset() and cert.conjugator.is_identity and cert.steps == ()
    assert cert.verify(ctx.identity())


def test_certificate_worked_example_a2(context_of):
    # descents {1,2}, negated simples empty, conjugate by s1 to reach s2
    ctx = context_of("A2")
    w = el(ctx, "1 2 1")
    cert = involution_certificate(w)
    assert cert.subset == {1}
    assert cert.conjugator == ctx.generator(0)
    assert cert.steps == (0,)
    u = cert.conjugator
    assert u * w * u.inverse() == ctx.generator(1)
    assert cert.verify(w)


def test_certificate_b2_central(context_of):
    ctx = context_of("B2")
    cert = involution_certificate(el(ctx, "1 2 1 2"))
    assert cert.subset == {0, 1} and cert.conjugator.is_identity and cert.steps == ()


def test_certificate_a3_commuting(context_of):
    ctx = context_of("A3")
    w = el(ctx, "1 3")
    assert w.act(ctx.simple_root(0)) == neg(ctx.simple_root(0))
    assert w.act(ctx.simple_root(2)) == neg(ctx.simple_root(2))
    assert root_sign(ctx, w.act(ctx.simple_root(1))) > 0
    cert = involution_certificate(w)
    assert cert.subset == {0, 2} and cert.conjugator.is_identity


def test_certificate_checks_are_decided_independently():
    # each check is computed on its own, so a forged certificate shows which
    # property fails; verify holds only when both do
    ctx = fresh_context("A2")
    w0 = longest_element(ctx, {0, 1})  # sends alpha_1 to -alpha_2: not of (-1)-type
    cert = InvolutionCertificate(frozenset({0, 1}), ctx.identity(), ())
    assert cert.checks(w0) == {"minus_one_type": False, "conjugation_exact": True}
    cert = InvolutionCertificate(frozenset({0}), ctx.generator(1), (1,))
    assert cert.checks(ctx.generator(0)) == {"minus_one_type": True, "conjugation_exact": False}
    assert not cert.verify(ctx.generator(0))
    good = involution_certificate(w0)
    assert good.checks(w0) == {"minus_one_type": True, "conjugation_exact": True} and good.verify(w0)
    assert not good.verify(fresh_context("A2").identity())
    with pytest.raises(ValueError, match="different context"):
        good.checks(fresh_context("A2").identity())
    affine = fresh_context("Atilde2")
    infinite = InvolutionCertificate(frozenset({0, 1, 2}), affine.identity(), ())
    assert infinite.checks(affine.identity()) == {"minus_one_type": False,
                                                  "conjugation_exact": False}


def test_certificate_rejects_non_involutions(context_of):
    ctx = context_of("A2")
    with pytest.raises(ValueError, match="not an involution"):
        involution_certificate(el(ctx, "1 2"))


@pytest.mark.parametrize("system", ["H3", "B3", "Atilde2", "inf4"])
def test_certificate_decides_involution_on_every_short_element(system):
    # the descent decides w^2 = 1 on its own: the square's ValueError exactly
    # for the non-involutions, a certificate that verifies for the rest
    ctx = fresh_context(system)
    layer = [ctx.identity()]
    elements = list(layer)
    for _ in range(6):
        seen = {}
        for g in layer:
            for s in range(ctx.rank):
                h = g * ctx.generator(s)
                if h.length > g.length:
                    seen.setdefault(h.word, h)
        layer = list(seen.values())
        elements += layer
    rejected = 0
    for w in elements:
        square = w * w
        if square.is_identity:
            assert involution_certificate(w).verify(w)
            continue
        with pytest.raises(ValueError) as caught:
            involution_certificate(w)
        assert str(caught.value) == (
            f"not an involution: square has normal form '{word_to_string(square.word)}'"
        )
        rejected += 1
    assert 0 < rejected < len(elements)


def test_certificate_invariants_on_all_involutions(group_of, context_of):
    # steps drop the length by exactly 2, so len(steps) <= length/2;
    # the conjugator is a subproduct of the steps, so no longer than them
    for name in ("A3", "B3", "H3"):
        ctx = context_of(name)
        for w in group_of(name):
            if not (w * w).is_identity:
                continue
            cert = involution_certificate(w)
            assert cert.verify(w)
            assert cert.conjugator.length <= len(cert.steps)
            assert 2 * len(cert.steps) <= w.length
            # the matching-sets base case is the parabolic longest element
            final = cert.conjugator * w * cert.conjugator.inverse()
            assert final.right_descents() == negated_simples(final) == cert.subset
            assert final == longest_element(ctx, cert.subset)


def test_descent_steps_shorten_by_two(group_of, context_of):
    ctx = context_of("B3")
    checked = 0
    for w in group_of("B3"):
        if not (w * w).is_identity:
            continue
        cert = involution_certificate(w)
        if not cert.steps:
            continue
        cur = w
        for s in cert.steps:
            nxt = ctx.generator(s) * cur * ctx.generator(s)
            assert nxt.length == cur.length - 2
            cur = nxt
        assert cur == cert.target()
        checked += 1
    assert checked > 0, "B3 should have involutions needing descent steps"


def reference_certificate(w):
    """The descent by its defining rule: both sets of every conjugate, then min(D \\ N).

    D and N are read off the root action, s in D when x(alpha_s) is negative
    and in N when it is -alpha_s, so the reference shares nothing with the
    orbit-vector test s x s = x that the library decides N by.
    """
    ctx = w.context
    steps, word = [], w.word
    while True:
        x = ctx.element(word)
        images = [x.act(ctx.simple_root(s)) for s in range(ctx.rank)]
        descents = frozenset(s for s, g in enumerate(images) if root_sign(ctx, g) < 0)
        negated = frozenset(s for s, g in enumerate(images) if g == neg(ctx.simple_root(s)))
        if descents == negated:
            break
        s = min(descents - negated)
        steps.append(s)
        word = (s,) + word + (s,)
    assert ctx.represents(word, longest_element(ctx, negated))
    return negated, tuple(steps), ctx.element(steps[::-1]).word


@pytest.mark.parametrize("system,lengths,count", [
    ("Atilde3", (4, 8, 12, 16), 40), ("Atilde4", (4, 8, 12, 16, 20), 40),
    ("E8", (4, 8, 12, 16, 20), 30), ("H4", (4, 8, 12, 16), 30), ("B4", (4, 8, 12), 30),
    ("I2(8)", (3, 6, 9), 20), ("inf4", (2, 3, 4, 5), 20), ("deg12", (2, 3, 4), 12),
])
def test_descent_matches_reference_on_random_conjugates(system, lengths, count):
    # x . rho_J . x^-1 over every (-1)-type J in turn, x a seeded random word
    rng = random.Random(system)
    ctx = fresh_context(system)
    subsets = [frozenset(s for s in range(ctx.rank) if mask >> s & 1)
               for mask in range(1, 1 << ctx.rank)]
    rhos = [longest_element(ctx, J).word for J in subsets if is_minus_one_type(ctx, J)]
    longest = 0
    for i in range(count):
        x = [rng.randrange(ctx.rank) for _ in range(lengths[i % len(lengths)])]
        w = ctx.element(x + list(rhos[i % len(rhos)]) + x[::-1])
        cert = involution_certificate(w)
        assert (cert.subset, cert.steps, cert.conjugator.word) == reference_certificate(w), w
        longest = max(longest, len(cert.steps))
    assert longest >= 3


@pytest.mark.parametrize("system", ["H3", "B4", "D4"])
def test_descent_matches_reference_on_every_involution(group_of, system):
    for w in involutions(group_of(system)):
        cert = involution_certificate(w)
        assert (cert.subset, cert.steps, cert.conjugator.word) == reference_certificate(w), w


@pytest.mark.parametrize("system", ["E8", "H4", "Atilde4", "inf4", "deg12"])
def test_certificate_path_walks_no_root(monkeypatch, system):
    # N is decided by s x s = x on orbit vectors, so with the root walk
    # broken every decision of the certificate path still succeeds on a cold
    # context; the answers are then checked against the root action
    def no_root_walk(*args):
        raise AssertionError("a root was walked")

    rng = random.Random(f"no-roots-{system}")
    ctx = fresh_context(system)
    subsets = [frozenset(s for s in range(ctx.rank) if mask >> s & 1)
               for mask in range(1 << ctx.rank)]
    with monkeypatch.context() as patch:
        patch.setattr(CoxeterContext, "_act", no_root_walk)
        types = {J: is_minus_one_type(ctx, J) for J in subsets}
        rhos = [longest_element(ctx, J) for J in subsets if types[J]]
        for rho in rhos:
            assert negated_simples(rho) == rho.right_descents()
        certified = []
        for i in range(10):
            x = [rng.randrange(ctx.rank) for _ in range(6)]
            w = ctx.element(x + list(rhos[i % len(rhos)].word) + x[::-1])
            cert = involution_certificate(w)
            assert cert.verify(w)
            certified.append((w, cert))
    assert "_root_table" not in vars(ctx)  # built on the first root walk only
    for J, minus_one in types.items():
        if is_finite_parabolic(ctx, J):
            rho = longest_element(ctx, J)
            negates = all(rho.act(ctx.simple_root(s)) == neg(ctx.simple_root(s)) for s in J)
            assert minus_one == negates, J
        else:
            assert not minus_one, J
    for w, cert in certified:
        assert (cert.subset, cert.steps, cert.conjugator.word) == reference_certificate(w), w


@pytest.mark.parametrize("system", ["H4", "B4", "Atilde3", "inf4"])
def test_minus_one_memo_matches_a_fresh_context(system):
    # every subset, infinite parabolics included: one memo entry per subset,
    # None for an infinite one, equal to the entry a new context computes,
    # and a second call returns the same answer from it
    ctx = fresh_context(system)
    infinite = 0
    for mask in range(1 << ctx.rank):
        subset = frozenset(s for s in range(ctx.rank) if mask >> s & 1)
        fresh = fresh_context(system)
        expected = is_minus_one_type(fresh, subset)
        assert is_minus_one_type(ctx, subset) is expected
        assert ctx._longest_memo[subset] == fresh._longest_memo[subset]
        assert is_minus_one_type(ctx, sorted(subset)) is expected
        if not is_finite_parabolic(ctx, subset):
            assert expected is False and ctx._longest_memo[subset] is None
            infinite += 1
        else:
            word, _, minus_one = ctx._longest_memo[subset]
            assert minus_one is expected and longest_element(ctx, subset).word == word
    assert len(ctx._longest_memo) == 1 << ctx.rank
    assert infinite > 0 or system in ("H4", "B4")


@pytest.mark.parametrize("system", ["A5", "F4", "H3", "Atilde4", "deg12"])
def test_memo_vector_is_the_orbit_key_of_its_word(system):
    # the memo takes rho_I's vector from the climb of greedy_longest, which
    # ends at rho_I(rho) = rho_I^-1(rho); a walk of the word must agree
    ctx = fresh_context(system)
    finite = 0
    for mask in range(1 << ctx.rank):
        is_minus_one_type(ctx, frozenset(s for s in range(ctx.rank) if mask >> s & 1))
    for entry in ctx._longest_memo.values():
        if entry is not None:
            word, key, _ = entry
            assert key == ctx.orbit_key(word)
            finite += 1
    assert finite > 1 and (ctx.order is None or finite == 1 << ctx.rank)


def test_each_subset_is_classified_once_per_context(monkeypatch):
    # finiteness, rho_I and (-1)-type all come from one memo entry per
    # subset, so repeated queries of any kind classify its diagram once
    calls = []
    real = catalog.is_finite_diagram

    def counting(matrix, subset):
        calls.append(frozenset(subset))
        return real(matrix, subset)

    monkeypatch.setattr(catalog, "is_finite_diagram", counting)
    ctx = fresh_context("Atilde4")
    pair, whole = frozenset({0, 2}), frozenset(range(5))
    for _ in range(2):
        assert is_minus_one_type(ctx, pair) and longest_element(ctx, pair).word == (0, 2)
        assert InvolutionCertificate(pair, ctx.identity(), ()).verify(ctx.element((0, 2)))
        assert not is_minus_one_type(ctx, whole)
        with pytest.raises(ValueError, match="infinite parabolic"):
            longest_element(ctx, whole)
        assert InvolutionCertificate(whole, ctx.identity(), ()).checks(ctx.identity()) == {
            "minus_one_type": False, "conjugation_exact": False}
    assert sorted(calls, key=len) == [pair, whole]
