"""Brute-force group enumeration and the centralizer/normalizer oracles."""

import gc
import json
import random
import weakref
from itertools import combinations
from operator import lt

import pytest

from coxcent import (
    DEFAULT_ENUMERATION_CAP,
    CoxeterContext,
    ElementSet,
    EnumerationCapExceeded,
    InfiniteGroupError,
    InvolutionCertificate,
    centralizer,
    enumerate_group,
    involution_certificate,
    involution_classes,
    involutions,
    is_minus_one_type,
    longest_element,
    normalizer,
    verify_centralizer_certificate,
    verify_centralizer_is_normalizer,
    word_from_string,
    word_to_string,
)
from coxcent import cli, finite
from coxcent.finite import conjugated_normalizer

from class_engine import class_centralizer, class_memo


def el(ctx, text):
    return ctx.element(word_from_string(text))


def test_enumeration_orders(group_of):
    assert len(group_of("A2")) == 6
    assert len(group_of("B2")) == 8
    assert len(group_of("A3")) == 24


def test_enumeration_no_duplicates_closed_under_inverse(group_of):
    group = group_of("B3")
    words = group.words()
    assert len(words) == len(group) == 48
    for w in group:
        assert w.inverse().word in words


def test_enumeration_matches_matrix_closure(group_of, context_of):
    # independent dedup key: closing the generator set under multiplication
    # with action matrices (the columns w(alpha_t)) as identity must
    # reproduce the word-keyed set
    for name in ("B3", "H3"):
        ctx = context_of(name)

        def matrix(w):
            return tuple(w.column(t) for t in range(ctx.rank))

        identity = ctx.identity()
        seen = {matrix(identity): identity}
        frontier = [identity]
        while frontier:
            fresh = []
            for g in frontier:
                for s in range(ctx.rank):
                    h = g * ctx.generator(s)
                    if matrix(h) not in seen:
                        seen[matrix(h)] = h
                        fresh.append(h)
            frontier = fresh
        group = group_of(name)
        assert len(seen) == len(group)
        assert {w.word for w in seen.values()} == group.words()


def test_enumeration_cap_exceeded_affine():
    ctx = CoxeterContext.from_name("Atilde2")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_group(ctx, cap=10000)


def test_infinite_group_rejected_before_enumeration():
    ctx = CoxeterContext.from_name("Atilde2")
    with pytest.raises(InfiniteGroupError, match="cap of 10000 elements") as info:
        enumerate_group(ctx, cap=10000)
    assert info.value.cap == 10000


def test_finite_group_over_cap_is_not_reported_infinite():
    ctx = CoxeterContext.from_name("A5")  # 720 elements
    with pytest.raises(EnumerationCapExceeded) as info:
        enumerate_group(ctx, cap=100)
    assert type(info.value) is EnumerationCapExceeded
    assert info.value.cap == 100


def test_involutions_match_normal_form_filter(group_of):
    for name in ("A3", "B3", "H3"):
        group = group_of(name)
        assert involutions(group) == [w for w in group if (w * w).is_identity]


def test_walk_and_inverse_index(group_of):
    group = group_of("A3")
    rng = random.Random(12)
    for _ in range(40):
        i = rng.randrange(len(group))
        j = rng.randrange(len(group))
        a, b = group[i], group[j]
        assert group[group.walk(i, b.word)] == a * b
        assert group[group._inv[i]] == a.inverse()


def test_normalizer_checks_generator_index():
    group = enumerate_group(CoxeterContext.from_name("A3"))
    for s in (-1, 3, 1.5, True, 1.0):
        with pytest.raises(ValueError, match=f"^generator index {s} out of range 0..2$"):
            normalizer({s}, group)
    # a refused subset builds no conjugation pass and leaves no memo entry
    assert not group._normalizer_memo and not group._passes
    members = normalizer({1}, group).indices
    assert normalizer({1}, group).indices is members  # the memo's list
    # {True} == {1} as sets, and is still refused once {1} is in the memo
    for s in (True, 1.0):
        with pytest.raises(ValueError, match=f"^generator index {s} out of range 0..2$"):
            normalizer({s}, group)


def test_group_indexing(group_of):
    group = group_of("A3")
    assert group[0].is_identity and group[-1] == group[len(group) - 1]
    assert group[-1].length == 6 and list(group) == [group[i] for i in range(len(group))]
    for i in (len(group), -len(group) - 1):
        with pytest.raises(IndexError,
                           match=f"^element index {i} out of range for a group of 24 elements$"):
            group[i]


def test_centralizer_examples(group_of, context_of):
    ctx, group = context_of("A3"), group_of("A3")
    assert centralizer(ctx.identity(), group).words() == group.words()
    z = centralizer(ctx.generator(0), group)
    assert len(z) == 4  # transposition centralizer in the symmetric group on 4 letters
    b2 = context_of("B2")
    zc = centralizer(el(b2, "1 2 1 2"), group_of("B2"))
    assert len(zc) == 8  # the -1 action is central


def test_centralizer_lagrange_and_class_sizes(group_of, context_of):
    for name in ("A3", "B3"):
        ctx, group = context_of(name), group_of(name)
        classes = involution_classes(group)
        for members, _cert in classes:
            rep = tuple(members)[0]
            z = centralizer(rep, group)
            assert len(group) % len(z) == 0
            assert len(group) // len(z) == len(members)


# A2 x B2: a reducible system, whose classes are products of the factors' classes
A2_X_B2 = [[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 4], [2, 2, 4, 1]]


@pytest.mark.parametrize("name", ["H3", "B4", "A5", "D4", "F4", "I2(8)", "A2xB2"])
def test_class_centralizer_matches_brute_force(name):
    # a fresh group, queried in a seeded random order, so the member that
    # becomes each class's rep is not always its ShortLex-least one
    ctx = CoxeterContext(A2_X_B2) if name == "A2xB2" else CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    members = involutions(group)
    random.Random(name).shuffle(members)
    for w in members:
        got = sorted(group.index_of(g) for g in class_centralizer(w, group))
        want = sorted(group.index_of(g) for g in centralizer(w, group))
        assert got == want, w.word
    # one memo entry per involution, one pass per class
    memo = class_memo(group)
    assert len(memo) == len(members)
    assert len({id(v) for v in memo.values()}) == len(involution_classes(group))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(8)", "A2xB2"])
def test_class_centralizer_matches_brute_force_on_every_element(name):
    # non-involutions too: the pass of a rep k with k != k^-1 runs through
    # conjugates g^-1 k g that are not involutions, where s x s needs x^-1
    ctx = CoxeterContext(A2_X_B2) if name == "A2xB2" else CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    assert any(group._inv[x] != x for x in range(len(group)))
    for w in group:
        assert class_centralizer(w, group).indices == centralizer(w, group).indices, w.word


def test_normalizer_examples(group_of, context_of):
    ctx, group = context_of("A2"), group_of("A2")
    assert normalizer((), group).words() == group.words()
    n1 = normalizer({0}, group)
    assert sorted(w.word for w in n1) == [(), (0,)]
    ctx3, g3 = context_of("A3"), group_of("A3")
    n = normalizer({0}, g3)
    assert len(n) == 4
    assert n.words() == centralizer(ctx3.generator(0), g3).words()


def test_centralizer_equals_normalizer_examples(group_of, context_of):
    assert verify_centralizer_is_normalizer({0, 1}, group_of("B2"))
    assert verify_centralizer_is_normalizer({0}, group_of("A3"))
    assert verify_centralizer_is_normalizer({0, 1, 2}, group_of("H3"))


def test_centralizer_certificate_examples(group_of, context_of):
    ctx, group = context_of("A3"), group_of("A3")
    assert verify_centralizer_certificate(ctx.identity(), group)
    w = el(ctx, "2 1 3 2")  # the (14)(23) involution pattern
    assert (w * w).is_identity
    assert verify_centralizer_certificate(w, group)
    with pytest.raises(ValueError, match="not an involution"):
        verify_centralizer_certificate(el(ctx, "1 2"), group)


def test_centralizer_certificate_f4_random(group_of, context_of):
    ctx, group = context_of("F4"), group_of("F4")
    involutions = [w for w in group if not w.is_identity and (w * w).is_identity]
    rng = random.Random(42)
    for w in rng.sample(involutions, 20):
        assert verify_centralizer_certificate(w, group)


def _set_equality(w, group, cert=None):
    """The independent oracle of the main identity: Z_W(w) from the test
    class engine against u^-1 N_W(W_I) u, member by member, as sorted index lists."""
    cert = cert or involution_certificate(w)
    return class_centralizer(w, group).indices == conjugated_normalizer(cert, group).indices


@pytest.mark.parametrize("name, count", [("H3", 32), ("B4", 76), ("A5", 76), ("D5", 156),
                                         ("F4", 140), ("E6", 892)])
def test_main_agrees_with_set_equality(group_of, name, count):
    group = group_of(name)
    members = involutions(group)
    assert len(members) == count
    for w in members:
        assert verify_centralizer_certificate(w, group) is True, w.word
        assert _set_equality(w, group) is True, w.word


def _minus_one_subsets(ctx):
    """The (-1)-type subsets as frozensets, in the prop2 suite's order."""
    return [frozenset(c) for k in range(ctx.rank + 1) for c in combinations(range(ctx.rank), k)
            if is_minus_one_type(ctx, c)]


def test_main_suite_reads_no_class_centralizer():
    group = enumerate_group(CoxeterContext.from_name("D5"))
    assert finite.verify_suite("main", group) == (156, [])
    subsets = {involution_certificate(w).subset for w in involutions(group)}
    assert group._verdicts == dict.fromkeys(subsets, True)
    assert sorted(group._passes) == sorted(set().union(*subsets))
    assert not class_memo(group)


def test_main_after_prop2_adds_no_verdict_and_no_pass():
    group = enumerate_group(CoxeterContext.from_name("D5"))
    assert finite.verify_suite("prop2", group) == (15, [])
    verdicts, passes = dict(group._verdicts), dict(group._passes)
    normalizers = dict(group._normalizer_memo)
    assert set(verdicts) == set(_minus_one_subsets(group.context))
    assert finite.verify_suite("main", group) == (156, [])
    assert group._verdicts == verdicts
    assert group._passes.keys() == passes.keys()
    assert all(group._passes[s] is d for s, d in passes.items())
    assert group._normalizer_memo.keys() == normalizers.keys()


@pytest.mark.parametrize("name", ["H3", "B4", "A5", "D5", "F4", "E6"])
def test_prop2_verdict_matches_the_class_engine(group_of, name):
    # every (-1)-type subset, and on A5 and D5 every subset: A5's {1, 2, 3, 5}
    # and {1, 3, 4, 5} and D5's {3, 4, 5} have |N_W(W_I)| = |Z_W(rho_I)| with
    # N_W(W_I) != Z_W(rho_I), which only the commutation check refuses
    group = group_of(name)
    ctx = group.context
    subsets = _minus_one_subsets(ctx)
    if name in ("A5", "D5"):
        subsets = [c for k in range(ctx.rank + 1) for c in combinations(range(ctx.rank), k)]
    verdicts = []
    for subset in subsets:
        rho = longest_element(ctx, subset)
        want = class_centralizer(rho, group).indices == normalizer(subset, group).indices
        assert verify_centralizer_is_normalizer(subset, group) is want, subset
        verdicts.append(want)
    assert True in verdicts and (False in verdicts) is (name in ("A5", "D5"))


def test_prop2_checks_the_subset_before_its_verdict():
    group = enumerate_group(CoxeterContext.from_name("A3"))
    assert verify_centralizer_is_normalizer({1}, group) is True
    for s in (True, 1.0, 3, -1):
        with pytest.raises(ValueError, match=f"^generator index {s} out of range 0..2$"):
            verify_centralizer_is_normalizer({s}, group)
    assert list(group._verdicts) == [frozenset({1})]


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_prop2_and_main_fail_when_a_member_does_not_commute(name):
    # for each I with N_W(W_I) != W, the first and then the last member of
    # N_W(W_I) is swapped for an element that does not commute with rho_I, so
    # lies outside it, the count kept: only the member check sees it, and
    # prop2 refuses I, and main every involution certified to I, and no other
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    memo = group._normalizer_memo
    certified = {x: cert[0] for x, cert in group._certificates.items()}
    mutated = 0
    for subset in _minus_one_subsets(ctx):
        members = normalizer(subset, group).indices
        if len(members) == len(group):
            continue  # the simple generators are checked, not the members
        rho = longest_element(ctx, subset)
        outside = sorted(set(range(len(group))) - set(centralizer(rho, group).indices))
        for end in (0, -1):
            swapped = list(members)
            swapped[end] = outside[end]
            memo[subset] = sorted(swapped)
            group._verdicts.clear()
            assert finite.verify_suite("prop2", group)[1] == \
                [{"instance": sorted(s + 1 for s in subset),
                  "reason": "centralizer of longest element != normalizer"}]
            group._verdicts.clear()
            failures = finite.verify_suite("main", group)[1]
            assert [f["instance"] for f in failures] == \
                [word_to_string(group.word(x)) for x, c in certified.items() if c == subset]
            mutated += 1
        memo[subset] = members
    assert mutated > 0


def test_prop2_reads_no_word(monkeypatch):
    def refuse(self, i):
        raise AssertionError("prop2 read a member's word")

    group = enumerate_group(CoxeterContext.from_name("D5"))
    monkeypatch.setattr(finite.FiniteGroup, "word", refuse)
    assert finite.verify_suite("prop2", group) == (15, [])


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_prop2_fails_on_a_conjugate_of_the_normalizer(monkeypatch, name):
    # N_W(W_I) swapped for s N_W(W_I) s, s a generator that does not
    # normalize it: a subgroup of the right order, so only the member check
    # refuses it
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    swapped = {}
    for subset in _minus_one_subsets(ctx):
        members = normalizer(subset, group).indices
        for s in range(ctx.rank):
            moved = sorted(group._conjugate(members, (s,)))
            if moved != members:
                swapped[subset] = moved
                break
    assert swapped
    true_normalizer = finite.normalizer

    def conjugated(subset, group):
        members = swapped.get(frozenset(subset))
        return true_normalizer(subset, group) if members is None else ElementSet(group, members)

    monkeypatch.setattr(finite, "normalizer", conjugated)
    for subset in _minus_one_subsets(ctx):
        assert verify_centralizer_is_normalizer(subset, group) is (subset not in swapped), subset


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_main_fails_with_a_wrong_conjugator(name):
    # each table entry (I, steps) is mutated to u s for every generator s and
    # to u with its last step dropped (u is the steps reversed)
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    table = group._certificates
    verdicts = []
    for w in involutions(group):
        x = group.index_of(w)
        subset, steps = table[x]
        rho = group.walk(0, longest_element(ctx, subset).word)
        for bad in [(s,) + steps for s in range(ctx.rank)] + [steps[:-1]] * bool(steps):
            table[x] = (subset, bad)
            verdict = verify_centralizer_certificate(w, group)
            u = bad[::-1]
            exact = group.walk(0, u + w.word + bad) == rho
            cert = InvolutionCertificate(subset, ctx.element(u), bad)
            assert verdict is (exact and _set_equality(w, group, cert)), (w.word, bad)
            verdicts.append(verdict)
        table[x] = (subset, steps)
        assert verify_centralizer_certificate(w, group) is True, w.word
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_main_fails_when_a_subset_is_not_of_minus_one_type(monkeypatch, name):
    # every rho_I check passes; only the (-1)-type flag of the subset memo is flipped
    group = enumerate_group(CoxeterContext.from_name(name))
    parabolic = finite._parabolic
    monkeypatch.setattr(finite, "_parabolic", lambda ctx, key: parabolic(ctx, key)[:2] + (False,))
    checked, failures = finite.verify_suite("main", group)
    assert checked == len(failures) == len(involutions(group))


@pytest.mark.parametrize("name", ["H3", "B4", "A5", "D5", "F4", "H4", "E6", "I2(8)"])
def test_certificate_table_matches_the_descent(group_of, name):
    group = group_of(name)
    table = group._certificates
    members = involutions(group)
    assert list(table) == [group.index_of(w) for w in members]
    assert table[0] == (frozenset(), ())
    for w in members:
        cert = involution_certificate(w)
        assert table[group.index_of(w)] == (cert.subset, cert.steps), w.word


def test_certificate_table_refuses_a_conjugate_it_has_not_met(context_of):
    # with inv[1 2] read as 1 2 1, the conjugate of 1 2 1 by s_1 comes out as
    # 1 2, which has no entry: an AssertionError, not a KeyError or a skip
    ctx = context_of("A2")
    group = enumerate_group(ctx)
    inv = list(group._inv)
    inv[group.index_of(el(ctx, "1 2"))] = group.index_of(el(ctx, "1 2 1"))
    group._inv = inv
    with pytest.raises(AssertionError, match="not a shorter involution"):
        group._certificates


def test_main_builds_no_involution_certificate(monkeypatch):
    def refuse(w):
        raise AssertionError("main read the orbit-vector descent")

    group = enumerate_group(CoxeterContext.from_name("D5"))
    monkeypatch.setattr(finite, "involution_certificate", refuse)
    assert finite.verify_suite("main", group) == (156, [])
    calls = []
    monkeypatch.setattr(finite, "involution_certificate",
                        lambda w: calls.append(w.word) or involution_certificate(w))
    assert finite.verify_suite("prop1", group) == (156, [])
    assert sorted(calls) == sorted(w.word for w in involutions(group))


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_main_fails_with_a_class_size_off_by_one(name):
    # on a fresh group per subset I and sign, |class of rho_I| is put off by
    # one: prop2 refuses I, and main every involution certified to I, and
    # no other
    ctx = CoxeterContext.from_name(name)
    subsets = _minus_one_subsets(ctx)
    for subset in subsets:
        for delta in (1, -1):
            group = enumerate_group(ctx)
            group._class_sizes[group.walk(0, longest_element(ctx, subset).word)] += delta
            for w in involutions(group):
                want = group._certificates[group.index_of(w)][0] != subset
                assert verify_centralizer_certificate(w, group) is want, (w.word, delta)
            for other in subsets:
                assert verify_centralizer_is_normalizer(other, group) is (other != subset)


def test_involution_classes_a2(group_of):
    classes = involution_classes(group_of("A2"))
    assert [len(c) for c, _ in classes] == [1, 3]


def test_involution_classes_b2(group_of, context_of):
    ctx = context_of("B2")
    classes = involution_classes(group_of("B2"))
    got = [([w.word for w in members], sorted(cert.subset))
           for members, cert in classes]
    assert got == [
        ([()], []),
        ([(0,), (1, 0, 1)], [0]),
        ([(1,), (0, 1, 0)], [1]),
        ([(0, 1, 0, 1)], [0, 1]),
    ]


def test_involution_classes_a3(group_of):
    classes = involution_classes(group_of("A3"))
    sizes = [len(c) for c, _ in classes]
    subsets = [sorted(cert.subset) for _, cert in classes]
    assert sizes == [1, 6, 3]
    assert subsets == [[], [0], [0, 2]]


def test_involution_classes_partition(group_of):
    group = group_of("B3")
    classes = involution_classes(group)
    seen = set()
    for members, cert in classes:
        words = members.words()
        assert not (words & seen)
        seen |= words
        rho = longest_element(group.context, cert.subset)
        assert rho in members
        rep = tuple(members)[0]
        for w in members:
            assert (len(rep.word), rep.word) <= (len(w.word), w.word)
    total = sum(1 for w in group if (w * w).is_identity)
    assert len(seen) == total


def test_rank_one_group(context_of):
    ctx = context_of("A1")
    group = enumerate_group(ctx)
    assert sorted(w.word for w in group) == [(), (0,)]
    assert verify_centralizer_certificate(ctx.generator(0), group)


def test_odd_dihedral_reflections_single_class(group_of, context_of):
    # in I2(5) all five reflections are conjugate; one certificate serves them all
    group = group_of("I2(5)")
    classes = involution_classes(group)
    assert [len(c) for c, _ in classes] == [1, 5]
    assert sorted(classes[1][1].subset) == [0]
    for w in classes[1][0]:
        assert verify_centralizer_certificate(w, group)


def test_even_dihedral_reflections_two_classes(group_of):
    # I2(6): the two reflection classes stay apart, plus the central longest element
    classes = involution_classes(group_of("I2(6)"))
    assert [len(c) for c, _ in classes] == [1, 3, 3, 1]


def test_subset_oracles_reject_foreign_elements(group_of, context_of):
    group = group_of("A2")
    other = context_of("B2")
    with pytest.raises(ValueError):
        centralizer(other.generator(0), group)
    z = centralizer(group.context.generator(0), group)
    with pytest.raises(AttributeError):
        z.walk(0, (0,))  # subsets carry no step table


def _is_shortlex(members):
    keys = [(len(w.word), w.word) for w in members]
    return keys == sorted(keys)


def test_index_order_is_shortlex(group_of, context_of):
    # the oracles return members in index order (or sorted indices) with no
    # sort key, so they rely on enumeration producing ShortLex order
    for name in ("A5", "B4", "D5", "H3", "F4", "I2(8)"):
        ctx, group = context_of(name), group_of(name)
        assert _is_shortlex(group)
        minus_one = [frozenset(c) for c in
                     ((0,), tuple(range(ctx.rank)), (0, ctx.rank - 1))
                     if is_minus_one_type(ctx, c)]
        for subset in minus_one:
            assert _is_shortlex(normalizer(subset, group))
        for w in involutions(group)[1::9]:
            assert _is_shortlex(centralizer(w, group))
            assert _is_shortlex(conjugated_normalizer(involution_certificate(w), group))
        for members, _cert in involution_classes(group):
            assert _is_shortlex(members)


def test_normalizer_built_once_per_subset(context_of):
    group = enumerate_group(context_of("B3"))
    first = normalizer([0, 2], group)
    again = normalizer((2, 0), group)
    assert again.words() == first.words()
    assert again.indices is first.indices


def test_finite_group_over_cap_is_rejected_before_any_element(monkeypatch):
    # |W(E8)| = 696,729,600 is read from the catalog: the BFS never starts
    def no_bfs(ctx, order, bits):
        raise AssertionError("the BFS was started")

    monkeypatch.setattr(finite, "_bfs", no_bfs)
    with pytest.raises(EnumerationCapExceeded) as info:
        enumerate_group(CoxeterContext.from_name("E8"))
    assert type(info.value) is EnumerationCapExceeded
    assert info.value.cap == DEFAULT_ENUMERATION_CAP
    with pytest.raises(EnumerationCapExceeded):
        enumerate_group(CoxeterContext.from_name("A5"), cap=719)


def test_cap_equal_to_the_order_enumerates(context_of):
    assert len(enumerate_group(context_of("A5"), cap=720)) == 720


def _walk_normalizer(subset, group):
    """The g with g s g^-1 in W_I for each s in I, walked on words: the oracle.

    g s g^-1 is walked from g s along the reversed word of g, and lies in W_I
    iff its ShortLex word uses only letters of I.
    """
    subset = frozenset(subset)
    members = []
    for i, el in enumerate(group):
        inv_word = el.word[::-1]
        if all(set(group[group.walk(group._steps[i][s], inv_word)].word) <= subset
               for s in subset):
            members.append(i)
    return members


@pytest.mark.parametrize("name", ["H3", "B4", "A5", "D5", "F4", "A2xB2"])
def test_normalizer_matches_walk_definition(name):
    # every subset, not only the (-1)-type ones, on a fresh group
    ctx = CoxeterContext(A2_X_B2) if name == "A2xB2" else CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    for k in range(ctx.rank + 1):
        for subset in combinations(range(ctx.rank), k):
            got = [group.index_of(g) for g in normalizer(subset, group)]
            assert got == _walk_normalizer(subset, group), subset


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(8)"])
def test_conjugation_table_matches_multiplication(name):
    # _conjugate reads s x s off the step and inverse tables: against the
    # product s x s for every x and s, then against the normal form of the
    # word u^-1 x u for seeded words u of length 2..4
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    everything = range(len(group))
    for x, el in enumerate(group):
        assert group[group._inv[x]] == el.inverse()
    for s in range(ctx.rank):
        gen = ctx.generator(s)
        conjugates = group._conjugate(everything, (s,))
        assert [group[y] for y in conjugates] == [gen * el * gen for el in group]
    rng = random.Random(name)
    for _ in range(12):
        u = tuple(rng.randrange(ctx.rank) for _ in range(rng.randint(2, 4)))
        conjugates = group._conjugate(everything, u)
        for x, y in zip(everything, conjugates):
            assert group[y] == ctx.element(u[::-1] + group.word(x) + u), (u, x)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(8)"])
def test_conjugation_pass_matches_normal_forms(name):
    # pass_s[g] = g^-1 s g, against the normal form of the word g^-1 s g
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    for s in range(ctx.rank):
        pass_s = group._pass(s)
        for g, el in enumerate(group):
            assert group[pass_s[g]] == ctx.element(el.word[::-1] + (s,) + el.word)


def test_normalizers_keep_at_most_rank_passes():
    ctx = CoxeterContext.from_name("D5")
    group = enumerate_group(ctx)
    for k in range(ctx.rank + 1):
        for subset in combinations(range(ctx.rank), k):
            normalizer(subset, group)
    assert len(group._normalizer_memo) == 2 ** ctx.rank
    assert sorted(group._passes) == list(range(ctx.rank))
    assert all(len(d) == len(group) for d in group._passes.values())
    # the test class engine runs its own passes and keeps none on the group
    passes = dict(group._passes)
    class_centralizer(longest_element(ctx, {0, 1}), group)
    assert group._passes == passes


@pytest.mark.parametrize("name", ["H3", "B4", "D4", "F4"])
def test_prop2_class_engine_matches_brute_force(name):
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    subsets = [c for k in range(1, ctx.rank + 1) for c in combinations(range(ctx.rank), k)
               if is_minus_one_type(ctx, c)]
    assert subsets
    for subset in subsets:
        rho = longest_element(ctx, subset)
        assert class_centralizer(rho, group).words() == centralizer(rho, group).words(), subset
        assert verify_centralizer_is_normalizer(subset, group)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_view_membership_matches_words(name):
    # `in` walks the element's word and bisects the indices; the words of the
    # members are the independent oracle
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    sets = [normalizer(c, group) for k in range(ctx.rank + 1)
            for c in combinations(range(ctx.rank), k)]
    sets += [class_centralizer(w, group) for w in involutions(group)]
    sets += [members for members, _cert in involution_classes(group)]
    for members in sets:
        words = members.words()
        assert len(words) == len(members)
        for x in group:
            assert (x in members) == (x.word in words), x.word


def test_view_rejects_foreign_elements(group_of, context_of):
    group = group_of("A3")
    everything = normalizer((), group)
    assert len(everything) == len(group)
    foreign = context_of("B3").generator(0)
    assert foreign not in everything
    assert group.context.generator(0) in everything
    assert (0,) not in everything


def test_view_requires_strictly_increasing_indices(group_of):
    group = group_of("A3")
    assert list(ElementSet(group, [0, 3, 7]).indices) == [0, 3, 7]
    assert len(ElementSet(group, [])) == 0
    for bad in ([0, 0], [3, 1], [0, 2, 2, 5], [-1, 0], [0, len(group)],
                [True, 2], [0.5], [1.0]):
        with pytest.raises(ValueError):
            ElementSet(group, bad)


@pytest.mark.parametrize("name", ["H3", "B4"])
def test_index_of_walks_the_word(name):
    group = enumerate_group(CoxeterContext.from_name(name))
    for i, x in enumerate(group):
        assert group.index_of(x) == i


def test_classes_suite_reports_a_class_missing_its_longest_element(monkeypatch, capsys):
    # every certificate names the empty subset, so rho_I is the identity and
    # each class but the identity's misses it: a failure document, not a
    # traceback
    def empty_certificate(w):
        return InvolutionCertificate(frozenset(), w.context.identity(), ())

    monkeypatch.setattr(finite, "involution_certificate", empty_certificate)
    code = cli.main(["verify", "--type", "A3", "--suite", "classes", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["instances_checked"] == 3
    assert doc["failures"] == [
        {"instance": "1", "reason": "class misses its certificate's longest element"},
        {"instance": "1 3", "reason": "class misses its certificate's longest element"},
    ]


TABLE_GROUPS = ["H3", "B4", "A5", "D5", "F4", "I2(8)"]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_inverse_recurrence_matches_reversed_words(name):
    group = enumerate_group(CoxeterContext.from_name(name))
    assert group._inv == [group.walk(0, reversed(group.word(i))) for i in range(len(group))]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_words_are_distinct_shortlex_normal_forms(name):
    ctx = CoxeterContext.from_name(name)
    group = enumerate_group(ctx)
    words = [group.word(i) for i in range(len(group))]
    keys = [(len(w), w) for w in words]
    assert all(map(lt, keys, keys[1:]))  # strictly increasing: distinct and ShortLex
    for w in words:
        assert ctx.element(w).word == w


@pytest.mark.parametrize("name,bits", [("B4", 4), ("B4", 6), ("D5", 5), ("H3", 6), ("I2(8)", 6)])
def test_narrow_keys_raise_instead_of_returning_a_wrong_group(name, bits):
    # at these widths a coefficient (or rho itself) leaves the window in
    # which the next reflection is exact
    ctx = CoxeterContext.from_name(name)
    with pytest.raises(ArithmeticError):
        finite._bfs(ctx, ctx.order, bits)


def test_enumeration_widens_keys_until_the_guard_holds(monkeypatch):
    ctx = CoxeterContext.from_name("B4")
    want = finite._bfs(ctx, ctx.order, 32)
    widths = []
    bfs = finite._bfs

    def recording_bfs(ctx, order, bits):
        widths.append(bits)
        return bfs(ctx, order, bits)

    monkeypatch.setattr(finite, "_KEY_BITS", 4)
    monkeypatch.setattr(finite, "_bfs", recording_bfs)
    group = enumerate_group(ctx)
    assert widths == [4, 8]
    assert (group._parent, group._last, group._steps) == want


def test_large_dihedral_group_needs_wide_keys():
    # I2(101) lives at field degree 50, where orbit coefficients pass 2^32
    ctx = CoxeterContext.from_name("I2(101)")
    with pytest.raises(ArithmeticError):
        finite._bfs(ctx, ctx.order, 32)
    group = enumerate_group(ctx)
    assert len(group) == 202
    words = [group.word(i) for i in range(len(group))]
    assert words[1:4] == [(0,), (1,), (0, 1)]
    assert len(set(words)) == 202 and max(map(len, words)) == 101


def test_classes_suite_counts_involutions_from_the_inverse_table(monkeypatch):
    # one element is built per class, for its certificate; none for the count
    def no_involutions(group):
        raise AssertionError("involutions() was called")

    built = []
    getitem = finite.FiniteGroup.__getitem__

    def counting_getitem(self, i):
        built.append(i)
        return getitem(self, i)

    monkeypatch.setattr(finite, "involutions", no_involutions)
    monkeypatch.setattr(finite.FiniteGroup, "__getitem__", counting_getitem)
    group = enumerate_group(CoxeterContext.from_name("B4"))
    checked, failures = finite.verify_suite("classes", group)
    assert (checked, failures) == (9, [])
    assert len(built) == 9


class _Unscannable(list):
    """An inverse table that can be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("the inverse table was scanned")


def test_involutions_are_listed_once_per_group():
    # the certificate table, involutions(), the class search and the classes
    # suite's count all read the one list, not the inverse table again
    group = enumerate_group(CoxeterContext.from_name("B4"))
    listed = group._involutions
    assert listed == [x for x in range(len(group)) if group._inv[x] == x]
    assert len(listed) == 76
    group._inv = _Unscannable(group._inv)
    assert [group.index_of(w) for w in involutions(group)] == listed
    assert list(group._certificates) == listed
    assert sorted(x for members in finite._involution_orbits(group) for x in members) == listed
    assert finite.verify_suite("classes", group) == (9, [])
    assert group._involutions is listed


def test_verify_suite_refuses_an_unknown_name(group_of):
    with pytest.raises(ValueError, match="^unknown suite 'bogus', expected one of "
                                         "prop1, prop2, main, classes$"):
        finite.verify_suite("bogus", group_of("A2"))


def test_classes_suite_builds_no_conjugation_table(monkeypatch):
    # the class search visits involutions only, reading s i s = (i s)^-1 s:
    # no conjugation pass over W, and no index set conjugated by a word
    def no_conjugation(self, *args):
        raise AssertionError("a conjugation over W was run")

    monkeypatch.setattr(finite.FiniteGroup, "_pass", no_conjugation)
    monkeypatch.setattr(finite.FiniteGroup, "_conjugate", no_conjugation)
    group = enumerate_group(CoxeterContext.from_name("D5"))
    assert finite.verify_suite("classes", group) == (6, [])
    assert not group._passes


@pytest.mark.parametrize("suite", finite.SUITES)
def test_verify_frees_its_group_by_reference_counting(monkeypatch, capsys, suite):
    refs = []

    def watched_enumerate(ctx, cap):
        group = enumerate_group(ctx, cap)
        refs.append(weakref.ref(group))
        return group

    monkeypatch.setattr(cli, "enumerate_group", watched_enumerate)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(["verify", "--type", "B4", "--suite", suite, "--json"]) == 0
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("system", ["B4", "H3"])
def test_context_is_freed_by_reference_counting(system):
    # no context attribute (memo, identity, generators) holds a GroupElement,
    # which would point back at the context and leave it to the cycle collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = CoxeterContext.from_name(system)
        group = enumerate_group(ctx)
        for suite in ("main", "classes"):
            assert finite.verify_suite(suite, group)[1] == []
        w = longest_element(ctx, {0, 1})
        assert involution_certificate(w).verify(w)
        assert ctx.identity() * ctx.generator(0) == ctx.generator(0)
        ref = weakref.ref(ctx)
        del ctx, group, w
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
