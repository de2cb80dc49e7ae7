"""Brute-force oracles on finite Coxeter groups.

Full enumeration is a ShortLex breadth-first search over right multiplication
by generators; it never multiplies or peels, because the first time it reaches
an element it already holds that element's normal form.  The result, a
FiniteGroup, lists the elements in ShortLex order and alone carries the step
table (index, generator) -> index, after which centralizers, normalizers,
conjugacy orbits and set-wise identity checks are pure index walks:
multiplying by a known element costs one table lookup per letter of its word.  In particular the involutions are the g with walk(g, word(g)) at
the identity, found with no normal form.  Sorted indices are ShortLex order,
so the plain ElementSets the oracles return need no sort key.

These oracles exist to verify, by exhaustion, that a conjugation certificate
(I, u) really does describe the centralizer of an involution:
Z_W(w) = u^-1 N_W(W_I) u, and that Z_W(rho_I) = N_W(W_I) for every
(-1)-type subset I.

Two centralizers compute the same set.  `centralizer` tests g w = w g for
every g, two walks over all of W per involution; it is the oracle the tests,
the prop2 suite and the CLI's brute_force_match field use.  `class_centralizer`
makes one pass over W per conjugacy class: g -> g w g^-1 has the cosets
t_c Z_W(w) as fibres, so Z_W(c) = t_c Z_W(w) t_c^-1 for every member c, at
|Z_W(w)| walks each.  The main suite uses it, because it brings E6 from one
pass per involution (892) to one per class (5).  Neither uses the certificate
or the normalizer, so the main check stays independent of what it checks.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .group import CoxeterContext, GroupElement, word_to_string
from .involution import (
    InvolutionCertificate,
    involution_certificate,
    is_finite_parabolic,
    is_minus_one_type,
    longest_element,
)

DEFAULT_ENUMERATION_CAP = 2_000_000


class EnumerationCapExceeded(RuntimeError):
    """The group has more elements than the cap (possibly infinitely many)."""

    def __init__(self, cap: int):
        super().__init__(f"group enumeration exceeded cap of {cap} elements")
        self.cap = cap


class InfiniteGroupError(EnumerationCapExceeded):
    """The group is infinite: its diagram is not a finite type, so no element is built."""


class ElementSet:
    """A duplicate-free collection of group elements keyed by normal-form word.

    The oracles return centralizers, normalizers and conjugacy classes as
    plain ElementSets, members in ShortLex order; only a FiniteGroup walks.
    """

    def __init__(self, context: CoxeterContext, elements):
        self.context = context
        self.elements = tuple(elements)
        self._index = {el.word: i for i, el in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element):
        if not isinstance(element, GroupElement) or element.context is not self.context:
            return False
        return element.word in self._index

    def words(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._index)

    def index_of(self, element: GroupElement) -> int:
        if element.context is not self.context:
            raise ValueError("element from a different context")
        try:
            return self._index[element.word]
        except KeyError:
            raise ValueError(f"element {element!r} not in this set") from None


class FiniteGroup(ElementSet):
    """The whole group from enumerate_group: index order is ShortLex order, and
    the step table gives the index of elements[i] * s."""

    def __init__(self, context: CoxeterContext, elements, steps):
        super().__init__(context, elements)
        self._steps = steps
        self._inverse_idx = None
        self._normalizer_memo: dict[frozenset, ElementSet] = {}
        # member index -> (Z_W(rep) as indices, transversal c -> t_c), one
        # shared pair per conjugacy class that class_centralizer has met
        self._class_memo: dict[int, tuple[list[int], dict[int, int]]] = {}

    def walk(self, start: int, word) -> int:
        """Index of elements[start] * (product of the word), by table lookups."""
        steps = self._steps
        for s in word:
            start = steps[start][s]
        return start

    def inverse_index(self, i: int) -> int:
        if self._inverse_idx is None:
            inv = [0] * len(self.elements)
            for j, el in enumerate(self.elements):
                inv[j] = self.walk(0, el.word[::-1])
            self._inverse_idx = inv
        return self._inverse_idx[i]


def enumerate_group(ctx: CoxeterContext, cap: int = DEFAULT_ENUMERATION_CAP) -> FiniteGroup:
    """All elements of a finite group by ShortLex BFS from the identity.

    Invariant: index order is ShortLex order.  Elements are expanded in index
    order by generators in increasing order, so layer k+1 is appended in
    (parent index, letter) order, which is ShortLex if layer k is.  So the
    first pair (g, s) that reaches a new element h = g*s has the
    ShortLex-least word word(g) + (s,) among all ways to reach h from the
    previous layer, which is the normal form of h (a prefix of a normal form
    is a normal form).  New elements therefore take word(g) + (s,) as is,
    and are recognised by their orbit key.  Raises EnumerationCapExceeded as
    soon as more than `cap` elements appear, and its subclass
    InfiniteGroupError before building any element when the diagram is not
    of finite type.
    """
    if not is_finite_parabolic(ctx, range(ctx.rank)):
        raise InfiniteGroupError(cap)
    n = ctx.rank
    identity = ctx.identity()
    elements = [identity]
    index = {identity.orbit_key(): 0}
    steps: list[list] = [[None] * n]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        g = elements[i]
        row = steps[i]
        for s in range(n):
            if row[s] is not None:
                continue
            h = g.successor(s)
            key = h.orbit_key()
            j = index.get(key)
            if j is None:
                if len(elements) >= cap:
                    raise EnumerationCapExceeded(cap)
                j = len(elements)
                index[key] = j
                elements.append(h)
                steps.append([None] * n)
                queue.append(j)
            row[s] = j
            steps[j][s] = i  # (g s) s = g
    return FiniteGroup(ctx, elements, steps)


def involutions(group: FiniteGroup) -> list[GroupElement]:
    """The g in the group with g g = 1, identity included, in ShortLex order."""
    return [el for i, el in enumerate(group.elements) if group.walk(i, el.word) == 0]


def centralizer(w: GroupElement, group: FiniteGroup) -> ElementSet:
    """All g in the group with g w = w g, in ShortLex order."""
    k = group.index_of(w)
    word_w = w.word
    members = [
        el
        for i, el in enumerate(group.elements)
        if group.walk(i, word_w) == group.walk(k, el.word)
    ]
    return ElementSet(group.context, members)


def class_centralizer(w: GroupElement, group: FiniteGroup) -> ElementSet:
    """Z_W(w) as t_c Z_W(rep) t_c^-1, from one pass over W per conjugacy class.

    The first member of a class asked for becomes its rep.  Its pass walks
    c = g rep g^-1 for every g in index order: the fibre c == rep is
    Z_W(rep), and the first g seen for each c is t_c, the ShortLex-least
    element with t_c rep t_c^-1 = c.  Only that pair is kept, under every
    member's index; each later member c costs |Z_W(rep)| walks.  Same set as
    `centralizer`, in ShortLex order.
    """
    k = group.index_of(w)
    memo = group._class_memo
    found = memo.get(k)
    if found is None:
        steps = group._steps
        word_w = w.word
        z: list[int] = []
        transversal: dict[int, int] = {}
        for i, g in enumerate(group.elements):
            c = i
            for s in word_w:
                c = steps[c][s]
            for s in reversed(g.word):
                c = steps[c][s]
            if c == k:
                z.append(i)
            if c not in transversal:
                transversal[c] = i
        if len(z) * len(transversal) != len(group):
            raise AssertionError("|Z_W(w)| x |class of w| != |W|")
        found = (z, transversal)
        for c in transversal:
            memo[c] = found
    z, transversal = found
    t = transversal[k]
    t_inv_word = group.elements[t].word[::-1]
    members = sorted(
        group.walk(group.walk(t, group.elements[i].word), t_inv_word) for i in z
    )
    return ElementSet(group.context, (group.elements[i] for i in members))


def normalizer(subset, group: FiniteGroup) -> ElementSet:
    """All g with g s g^-1 in the standard parabolic on `subset`, for every s there.

    Membership in the parabolic is tested on the normal form: an element lies
    in W_I iff its ShortLex word uses only letters of I.  Built once per subset.
    """
    subset = frozenset(subset)
    memo = group._normalizer_memo
    found = memo.get(subset)
    if found is not None:
        return found
    ctx = group.context
    if not is_finite_parabolic(ctx, subset):
        raise ValueError("normalizer oracle requires a finite parabolic")
    members = []
    for i, el in enumerate(group.elements):
        inv_i = group.inverse_index(i)
        inv_word = group.elements[inv_i].word
        ok = True
        for s in subset:
            j = group.walk(group._steps[i][s], inv_word)
            if not set(group.elements[j].word) <= subset:
                ok = False
                break
        if ok:
            members.append(el)
    memo[subset] = found = ElementSet(ctx, members)
    return found


def verify_centralizer_is_normalizer(subset, group: FiniteGroup) -> bool:
    """Set equality Z_W(rho_I) = N_W(W_I) for a (-1)-type subset I."""
    rho = longest_element(group.context, subset)
    return centralizer(rho, group).words() == normalizer(subset, group).words()


def conjugated_normalizer(cert: InvolutionCertificate, group: FiniteGroup) -> ElementSet:
    """u^-1 N_W(W_I) u for the certificate (I, u), by index walks, in ShortLex order."""
    u_word = cert.conjugator.word
    uinv_idx = group.inverse_index(group.index_of(cert.conjugator))
    members = sorted(
        group.walk(group.walk(uinv_idx, g.word), u_word)
        for g in normalizer(cert.subset, group)
    )
    return ElementSet(group.context, (group.elements[i] for i in members))


def verify_centralizer_certificate(w: GroupElement, group: FiniteGroup) -> bool:
    """Set equality Z_W(w) = u^-1 N_W(W_I) u for the certificate (I, u) of w.

    Z_W(w) comes from `class_centralizer`, one pass over W per conjugacy
    class, not from the brute-force `centralizer`, which passes over W for
    every involution; the two give the same set, which the tests check on
    every involution of several groups.  Neither reads the certificate.
    """
    cert = involution_certificate(w)
    return conjugated_normalizer(cert, group).words() == class_centralizer(w, group).words()


def involution_classes(group: FiniteGroup) -> list[tuple[ElementSet, InvolutionCertificate]]:
    """Conjugacy classes of involutions (identity included), with certificates.

    Classes are orbits under conjugation by generators; each is listed with the
    certificate of its ShortLex-least (so minimal-length) representative, and
    is checked to contain the longest element named by that certificate.
    Classes come back sorted by their representative, members in ShortLex order.
    """
    ctx = group.context
    unassigned = {group.index_of(el) for el in involutions(group)}
    gen_idx = [group._steps[0][s] for s in range(ctx.rank)]
    out = []
    while unassigned:
        rep = min(unassigned)
        orbit = {rep}
        frontier = [rep]
        while frontier:
            i = frontier.pop()
            word_i = group.elements[i].word
            for s, si in enumerate(gen_idx):
                j = group._steps[group.walk(si, word_i)][s]  # s g s
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        cert = involution_certificate(group.elements[rep])
        rho_idx = group.index_of(longest_element(ctx, cert.subset))
        if rho_idx not in orbit:
            raise AssertionError("class does not contain its certificate's longest element")
        out.append((ElementSet(ctx, (group.elements[i] for i in sorted(orbit))), cert))
    return out


def _suite_prop1(group):
    failures = []
    members = involutions(group)
    for el in members:
        cert = involution_certificate(el)
        if not cert.verify(el):
            failures.append({"instance": word_to_string(el.word),
                             "reason": "certificate failed verification"})
    return len(members), failures


def _suite_prop2(group):
    ctx = group.context
    failures = []
    # by size, then lexicographically: the order failures are reported in
    subsets = [c for k in range(ctx.rank + 1) for c in combinations(range(ctx.rank), k)
               if is_minus_one_type(ctx, c)]
    for subset in subsets:
        if not verify_centralizer_is_normalizer(subset, group):
            failures.append({"instance": [s + 1 for s in subset],
                             "reason": "centralizer of longest element != normalizer"})
    return len(subsets), failures


def _suite_main(group):
    failures = []
    members = involutions(group)
    for el in members:
        if not verify_centralizer_certificate(el, group):
            failures.append({"instance": word_to_string(el.word),
                             "reason": "centralizer != conjugated normalizer"})
    return len(members), failures


def _suite_classes(group):
    failures = []
    classes = involution_classes(group)
    seen = set()
    for members, cert in classes:
        words = members.words()
        if words & seen:
            failures.append({"instance": word_to_string(members.elements[0].word),
                             "reason": "classes overlap"})
        seen |= words
        rho = longest_element(group.context, cert.subset)
        if rho not in members:
            failures.append({"instance": word_to_string(members.elements[0].word),
                             "reason": "class misses its certificate's longest element"})
    if sum(len(c) for c, _ in classes) != len(involutions(group)):
        failures.append({"instance": "partition", "reason": "classes do not cover all involutions"})
    return len(classes), failures


_SUITE_RUNNERS = {
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "main": _suite_main,
    "classes": _suite_classes,
}
SUITES = tuple(_SUITE_RUNNERS)


def verify_suite(name: str, group: FiniteGroup) -> tuple[int, list[dict]]:
    """(instances_checked, failures) of the suite `name`, one of SUITES, over the group.

    prop1: every involution's certificate verifies.  prop2: Z_W(rho_I) =
    N_W(W_I) for every (-1)-type I, Z_W from the brute-force `centralizer`.
    main: Z_W(w) = u^-1 N_W(W_I) u for every involution w, Z_W from
    `class_centralizer`.  classes: the involution classes partition the
    involutions and each holds its certificate's rho_I.  Failures name
    instances 1-based.
    """
    return _SUITE_RUNNERS[name](group)
