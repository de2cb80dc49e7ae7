"""Finite Coxeter groups: enumeration, and the oracles that verify certificates.

Full enumeration is a ShortLex breadth-first search over right multiplication
by generators.  It reads |W| from the catalog first (CoxeterContext.order),
so a group over the cap is refused before the search starts.  It builds no
GroupElement: each element is one packed int, its orbit vector x^-1(rho),
kept exact by an overflow guard that widens the key when it trips (see
_bfs), and the search keeps the keys of the layer it is filling only.  The
result, a FiniteGroup, numbers the elements in ShortLex order and keeps
three index tables: steps[x][s], the index of x s, and parent[x], last[x]
with x = parent[x] last[x], so that x's word is read back along the
parents.  Words and GroupElements (`group[i]`) are built on demand and not
kept.  Two more tables are derived once per group, on first use:

* inv[x], the index of x^-1, by first-letter and suffix recurrences along
  the parents, checked to be an involutive permutation;
* each involution's certificate (I, steps), the descent of
  `involution_certificate` read off the step and inverse tables in one pass
  in index order: the least right descent s with s x s != x gives x the
  entry of the shorter s x s with s put in front.

Conjugates are read off these tables: s x s = (x^-1 s)^-1 s is the four
lookups steps[inv[steps[inv[x]][s]]][s], three for an involution x (x^-1 = x).

A set of elements is an ElementSet: a view holding the FiniteGroup and the
strictly increasing indices of its members.  Sorted indices are ShortLex
order, so a view needs no sort key, and no word dict is kept, for a view or
for W: an element's index is its word walked through the step table.  Past
that lookup, no oracle but the brute-force `centralizer` walks a word.  The
involutions are the x with inv[x] = x, listed once per group.  The
conjugation pass of a generator s runs along the BFS tree,
d[g] = g^-1 s g = t d[parent[g]] t with t = last[g], three lookups a slot as
every conjugate of s is an involution.  `normalizer` keeps x iff d_s[x] lies
in W_I for every s in I.

These oracles exist to verify, by exhaustion, that a conjugation certificate
(I, u) really does describe the centralizer of an involution:
Z_W(w) = u^-1 N_W(W_I) u (the main suite).  Once the certificate's walk
gives u w u^-1 = rho_I, conjugation by u maps Z_W(w) onto Z_W(rho_I), so the
identity for w is Z_W(rho_I) = N_W(W_I) for I, the prop2 suite's.
`verify_centralizer_is_normalizer` decides that once per subset: every
member of N_W(W_I) commutes with rho_I, and |N_W(W_I)| |class of rho_I| =
|W|.  main checks only each involution's certificate before reading it.
The tests check the verdict against the set equality of an independent
class engine, and the certificate table against the descent.
prop1 runs the orbit-vector descent itself on every involution.
The brute-force `centralizer`, which tests g w = w g for every g, is kept as
the oracle of the tests and of the CLI's brute_force_match field.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations, islice
from operator import index, lt

from .group import CoxeterContext, GroupElement, word_to_string
from .involution import (
    InvolutionCertificate,
    _checked_parabolic,
    _parabolic,
    involution_certificate,
    is_minus_one_type,
    longest_element,
)

DEFAULT_ENUMERATION_CAP = 2_000_000

_KEY_BITS = 32  # bits per coefficient of a packed orbit key, doubled while the guard trips


class EnumerationCapExceeded(RuntimeError):
    """The group has more elements than the cap (possibly infinitely many)."""

    def __init__(self, cap: int):
        super().__init__(f"group enumeration exceeded cap of {cap} elements")
        self.cap = cap


class InfiniteGroupError(EnumerationCapExceeded):
    """The group is infinite: its diagram is not a finite type, so no element is built."""


class _KeyOverflow(ArithmeticError):
    """A packed orbit key could overflow its coefficient width at the next reflection."""


class ElementSet:
    """A view of a set of group elements: a FiniteGroup and the strictly
    increasing indices of the members, which is ShortLex order.

    The oracles return centralizers, normalizers and conjugacy classes as
    views; no word dict is kept.  Membership walks the element's word through
    the group's step table and bisects the indices.  Only the FiniteGroup has
    tables.
    """

    __slots__ = ("group", "indices")

    def __init__(self, group: FiniteGroup, indices):
        indices = list(indices)
        if indices and not ({*map(type, indices)} == {int} and 0 <= indices[0]
                            and indices[-1] < len(group)
                            and all(map(lt, indices, islice(indices, 1, None)))):
            raise ValueError("indices must be strictly increasing ints within the group")
        self.group = group
        self.indices = indices

    @classmethod
    def _trusted(cls, group: FiniteGroup, indices: list[int]) -> ElementSet:
        """A view over a list that is strictly increasing ints within the group
        as built: an oracle's filter over the indices in order, a sorted set
        of indices, or the normalizer memo's list."""
        view = cls.__new__(cls)
        view.group, view.indices = group, indices
        return view

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return map(self.group.__getitem__, self.indices)

    def __contains__(self, element):
        if not isinstance(element, GroupElement) or element.context is not self.group.context:
            return False
        k = self.group.walk(0, element.word)
        i = bisect_left(self.indices, k)
        return i < len(self.indices) and self.indices[i] == k

    def words(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(self.group.word, self.indices))


class FiniteGroup:
    """The whole group from enumerate_group, as index tables in ShortLex order.

    steps[x][s] is the index of x s, and x = parent[x] last[x], so `word(x)`
    follows the parents.  `group[i]` builds GroupElement(context, word(i))
    on demand, its orbit vector walked lazily.  The inverse table
    (from the first-letter and suffix recurrences) is derived on first use
    and kept, as are the list of involutions, the generators' conjugation
    passes and each involution's certificate and class size; the memos hold
    one normalizer index list and one verdict Z_W(rho_I) = N_W(W_I) per
    parabolic subset.  Nothing held here refers back to the group, so it is
    freed by reference counting.
    """

    def __init__(self, context: CoxeterContext, parent: list[int], last: list,
                 steps: list[tuple[int, ...]]):
        self.context = context
        self._parent, self._last, self._steps = parent, last, steps
        # subset -> N_W(W_I) as an ascending index list, shared by every view of it
        self._normalizer_memo: dict[frozenset, list[int]] = {}
        # generator -> its conjugation pass, at most rank lists of |W| slots
        self._passes: dict[int, list[int]] = {}
        # subset -> whether Z_W(rho_I) = N_W(W_I), read by prop2 and main
        self._verdicts: dict[frozenset, bool] = {}

    def __len__(self):
        return len(self._steps)

    def __getitem__(self, i: int) -> GroupElement:
        """Element i, built on demand; negative indices count from the end."""
        n = len(self)
        if not -n <= index(i) < n:
            raise IndexError(f"element index {i} out of range for a group of {n} elements")
        return GroupElement(self.context, self.word(i % n))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def word(self, i: int) -> tuple[int, ...]:
        """The ShortLex word of element i, read back along the parents."""
        parent, last = self._parent, self._last
        out = []
        while i:
            out.append(last[i])
            i = parent[i]
        return tuple(reversed(out))

    def words(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(self.word, range(len(self))))

    def index_of(self, element: GroupElement) -> int:
        """The index of an element of this group's context: its word walked from the identity."""
        if element.context is not self.context:
            raise ValueError("element from a different context")
        return self.walk(0, element.word)

    def walk(self, start: int, word) -> int:
        """Index of group[start] * (product of the word), by table lookups."""
        steps = self._steps
        for s in word:
            start = steps[start][s]
        return start

    @cached_property
    def _inv(self) -> list[int]:
        """inv[x], the index of x^-1, in one pass along the parents, with no walk.

        Write x = f y with f the first letter of x's word.  Then x^-1 = y^-1 f,
        and for x = p s (p = parent[x], s = last[x]) of length 2 or more,
        first[x] = first[p], suffix[x] = y = steps[suffix[p]][s] and
        inv[x] = steps[inv[y]][first[x]]; y is shorter, so inv[y] is known.
        A generator is its own inverse.

        Checked to be an involutive permutation: every conjugation reads it,
        and the certificate table and the class sizes rest on the involutions
        it marks, so a wrong inverse must fail here instead of agreeing with
        itself.
        """
        steps, parent, last = self._steps, self._parent, self._last
        first, suffix, inv = [0] * len(steps), [0] * len(steps), list(range(len(steps)))
        for x in range(1, len(steps)):
            p, s = parent[x], last[x]
            if p:
                f = first[x] = first[p]
                y = suffix[x] = steps[suffix[p]][s]
                inv[x] = steps[inv[y]][f]
            else:
                first[x] = s
        if any(inv[j] != i for i, j in enumerate(inv)):
            raise AssertionError("inverse table is not an involution")
        return inv

    @cached_property
    def _involutions(self) -> list[int]:
        """The indices x with inv[x] = x, identity included, ascending."""
        return [i for i, j in enumerate(self._inv) if i == j]

    def _pass(self, s: int) -> list[int]:
        """d[g], the index of g^-1 s g for the generator s, kept: d[g] = t d[p] t
        for g = p t along the BFS tree.  d[p] is a conjugate of s, so an
        involution, and t x t = (x t)^-1 t for x = x^-1 is three lookups."""
        d = self._passes.get(s)
        if d is None:
            steps, inv = self._steps, self._inv
            d = self._passes[s] = [steps[0][s]]
            for p, t in zip(islice(self._parent, 1, None), islice(self._last, 1, None)):
                d.append(steps[inv[steps[d[p]][t]]][t])
        return d

    @cached_property
    def _certificates(self) -> dict[int, tuple[frozenset, tuple[int, ...]]]:
        """Involution index -> (I, steps), the certificate of `involution_certificate`
        read off the tables, in one pass over the involutions in index order.

        D(x) = {s : x s < x}: index order is ShortLex, so graded by length.
        The descent conjugates x by the least s in D(x) with s x s != x, and
        s x s = (x s)^-1 s is three lookups.  That conjugate is two shorter,
        so its entry is already made and x's is (its I, (s,) + its steps).
        If every s in D(x) fixes x, the entry is (D(x), ()).  No check is made
        here that x is rho_I or that I is of (-1)-type:
        verify_centralizer_certificate checks both.
        """
        steps, inv = self._steps, self._inv
        certs = {}
        for x in self._involutions:
            row = steps[x]
            for s, t in enumerate(row):
                if t < x:
                    c = steps[inv[t]][s]
                    if c != x:
                        shorter = certs.get(c)
                        if shorter is None:
                            raise AssertionError(f"the conjugate of involution {x} by "
                                                 f"generator {s} is not a shorter involution")
                        certs[x] = (shorter[0], (s,) + shorter[1])
                        break
            else:
                certs[x] = (frozenset(s for s, t in enumerate(row) if t < x), ())
        return certs

    @cached_property
    def _class_sizes(self) -> dict[int, int]:
        """Involution index -> the size of its conjugacy class, from one orbit search."""
        return {i: len(members) for members in _involution_orbits(self) for i in members}

    def _conjugate(self, indices, word) -> list[int]:
        """The indices of u^-1 x u for x in `indices`, u the product of the word.

        u^-1 x u = s_m..s_1 x s_1..s_m: four table lookups per letter and member.
        """
        steps, inv = self._steps, self._inv
        for s in word:
            indices = [steps[inv[steps[inv[x]][s]]][s] for x in indices]
        return indices


def _bfs(ctx: CoxeterContext, order: int, bits: int):
    """(parent, last, steps) of the whole group by ShortLex BFS on packed keys.

    The orbit vector x^-1(rho), n*d int coefficients c_k, is packed into the
    key sum (c_k + 2^(B-1)) 2^(B k), B = bits.  The reflection by s adds
    x_j C[s][j] for each coefficient x_j of block s, C[s][j] (`columns`)
    being that source's packed column, read off the reflection of a unit
    vector: its Cartan entries into the neighbour blocks, and -2 on the
    source itself.  A digit reads back as ((key >> B k) & mask) - 2^(B-1),
    exactly while every |c_k| < 2^(B-1).  The guard keeps it so.  With E
    (`reach`) the largest sum of |entry| over one coefficient's row of the
    columns of one reflection, each new key is checked once, by one mask
    comparison, to have every coefficient in [-W, W), where W = 2^w and
    W (1 + E) <= 2^(B-2); then the next reflection is exact.  Otherwise
    _KeyOverflow, an ArithmeticError, is raised.

    An edge (x, s) with x s shorter than x is filled when x s, one layer up,
    is expanded.  So an edge still empty when x is expanded leads to the
    next layer, and the key dict holds that layer alone.  A layer's step
    rows become tuples once it is expanded.
    """
    n, d = ctx.rank, ctx._degree
    off, mask = 1 << (bits - 1), (1 << bits) - 1
    columns, reach = [], 0
    for s in range(n):
        deltas = []  # what the reflection by s adds per unit of source j
        for j in range(s * d, s * d + d):
            v = [0] * (n * d)
            v[j] = 1
            ctx._reflect_weights(v, (s,))
            v[j] -= 1
            deltas.append(v)
        reach = max(reach, *(sum(abs(v[k]) for v in deltas) for k in range(n * d)))
        columns.append([(bits * (s * d + j), sum(c << (bits * k) for k, c in enumerate(v)))
                        for j, v in enumerate(deltas)])
    single = d == 1 and [pairs[0] for pairs in columns]
    # each digit plus W has its bits from w + 1 up equal to those of 2^(B-1)
    # iff its coefficient lies in [-W, W); rho's coefficients 0 and 1 need w >= 1
    w = bits - 2 - reach.bit_length()
    if w < 1:
        raise _KeyOverflow(f"{bits}-bit keys cannot hold rho and one reflection")
    ones = sum(1 << (bits * k) for k in range(n * d))
    shift_in, window, inside = (1 << w) * ones, (mask >> (w + 1)) * ones, (off >> (w + 1)) * ones

    layer = [sum((off + (k % d == 0)) << (bits * k) for k in range(n * d))]  # rho
    steps: list = [[None] * n]
    parent, last = [0], [None]
    first = 0
    while layer:
        keys: dict[int, int] = {}  # the next layer only: key -> index
        get = keys.get
        for i, key in enumerate(layer, first):
            row = steps[i]
            for s, j in enumerate(row):
                if j is not None:  # a shorter neighbour, filled from the layer above
                    continue
                if single:
                    shift, column = single[s]
                    new = key + (((key >> shift) & mask) - off) * column
                else:
                    new = key
                    for shift, column in columns[s]:
                        new += (((key >> shift) & mask) - off) * column
                j = get(new)
                if j is None:
                    if ((new + shift_in) >> (w + 1)) & window != inside:
                        raise _KeyOverflow(f"a coefficient outgrew {bits}-bit keys")
                    j = keys[new] = len(steps)
                    steps.append([None] * n)
                    parent.append(i)
                    last.append(s)
                row[s] = j
                steps[j][s] = i  # (g s) s = g
        end = first + len(layer)
        steps[first:end] = map(tuple, steps[first:end])
        first, layer = end, list(keys)
        if len(steps) > order:
            break
    if len(steps) != order:
        raise AssertionError(f"enumerated {len(steps)} elements, the catalog order is {order}")
    return parent, last, steps


def enumerate_group(ctx: CoxeterContext, cap: int = DEFAULT_ENUMERATION_CAP) -> FiniteGroup:
    """All elements of a finite group by ShortLex BFS from the identity.

    Invariant: index order is ShortLex order.  Elements are expanded in index
    order by generators in increasing order, so layer k+1 is appended in
    (parent index, letter) order, which is ShortLex if layer k is.  So the
    first pair (g, s) that reaches a new element h = g*s has the
    ShortLex-least word word(g) + (s,) among all ways to reach h from the
    previous layer, which is the normal form of h (a prefix of a normal form
    is a normal form).  New elements therefore take parent g and last letter
    s as is, and are recognised by their packed orbit key.

    |W| is read from the catalog first (CoxeterContext.order), so nothing is
    built for a group that is refused: InfiniteGroupError when the diagram is
    not of finite type, EnumerationCapExceeded when |W| > cap.  The BFS must
    then reach exactly |W| elements.  The key width starts at _KEY_BITS and
    doubles while the overflow guard trips, as it does where coefficients
    grow large (I2(m) at a high field degree).
    """
    order = ctx.order
    if order is None:
        raise InfiniteGroupError(cap)
    if order > cap:
        raise EnumerationCapExceeded(cap)
    bits = _KEY_BITS
    while True:
        try:
            return FiniteGroup(ctx, *_bfs(ctx, order, bits))
        except _KeyOverflow:
            bits *= 2


def involutions(group: FiniteGroup) -> list[GroupElement]:
    """The g in the group with g g = 1, identity included, in ShortLex order."""
    return [group[i] for i in group._involutions]


def centralizer(w: GroupElement, group: FiniteGroup) -> ElementSet:
    """All g in the group with g w = w g, by brute force.

    w g comes along the BFS tree, as w p s for g = p s, and g w from a walk
    of w's word from g; neither reads the inverse table.
    """
    k = group.index_of(w)
    word_w = w.word
    steps, walk = group._steps, group.walk
    wg = [k]
    for p, s in zip(islice(group._parent, 1, None), islice(group._last, 1, None)):
        wg.append(steps[wg[p]][s])
    return ElementSet._trusted(group, [g for g, x in enumerate(wg) if walk(g, word_w) == x])


def normalizer(subset, group: FiniteGroup) -> ElementSet:
    """N_W(W_I): all x with x^-1 s x in the standard parabolic W_I for every s in I.

    That is the definition: then x^-1 W_I x lies in W_I and has its size, so
    it is W_I.  W_I is marked by a BFS from the identity over the steps in
    I, and each generator's conjugation pass d_s[x] = x^-1 s x filters the
    indices in turn, which stay ascending, so in ShortLex order.  The memo
    keeps the index list; every call checks the subset and returns a view over it.
    """
    subset = frozenset(subset)
    gens = group.context._checked_subset(subset)  # before the memo: {True} == {1}
    memo = group._normalizer_memo
    members = memo.get(subset)
    if members is not None:
        return ElementSet._trusted(group, members)
    steps = group._steps
    inside, frontier = bytearray(len(steps)), [0]
    inside[0] = 1
    for x in frontier:
        for y in map(steps[x].__getitem__, gens):
            if not inside[y]:
                inside[y] = 1
                frontier.append(y)
    members = range(len(steps))
    for s in gens:
        d = group._pass(s)
        members = [x for x in members if inside[d[x]]]
    members = memo[subset] = list(members)  # a range when I is empty
    return ElementSet._trusted(group, members)


def conjugated_normalizer(cert: InvolutionCertificate, group: FiniteGroup) -> ElementSet:
    """u^-1 N_W(W_I) u for the certificate (I, u), by `FiniteGroup._conjugate`."""
    members = normalizer(cert.subset, group).indices
    return ElementSet(group, sorted(group._conjugate(members, cert.conjugator.word)))


def verify_centralizer_is_normalizer(subset, group: FiniteGroup) -> bool:
    """Z_W(rho_I) = N_W(W_I), by the member check and orders, decided once per subset.

    X is the members of `normalizer(I)`, or the simple generators when
    N_W(W_I) is W: then rho_I is central iff it commutes with S, where every
    member would cost |W| 2 l(rho_I) lookups.  Two checks, each of which can
    fail on its own, make the verdict exact:

    * every x in X commutes with rho_I, so N_W(W_I) lies in Z_W(rho_I);
    * |N_W(W_I)| |class of rho_I| = |W|, and |Z_W(rho_I)| = |W| / |class of
      rho_I| by orbit-stabilizer, so the inclusion is an equality.

    x rho_I is walk(x, rho_I), and rho_I x = inv[walk(inv[x], rho_I^-1)],
    as (rho_I x)^-1 = x^-1 rho_I^-1: lookups only, and no member's word is
    read.  The class sizes come from one orbit search over the involutions
    per group.  The verdict is kept on the group for the subset, where the
    prop2 suite and every involution that main certifies to I read it; the
    subset is checked before the memo is read.
    """
    key = frozenset(subset)
    rho_word = _checked_parabolic(group.context, key)[0]
    verdict = group._verdicts.get(key)
    if verdict is None:
        members = normalizer(key, group).indices
        order = len(members)
        if order == len(group):
            members = group._steps[0]
        walk, inv, back = group.walk, group._inv, rho_word[::-1]
        verdict = group._verdicts[key] = (
            order * group._class_sizes[walk(0, rho_word)] == len(group)
            and all(walk(x, rho_word) == inv[walk(inv[x], back)] for x in members))
    return verdict


def verify_centralizer_certificate(w: GroupElement, group: FiniteGroup) -> bool:
    """Z_W(w) = u^-1 N_W(W_I) u for the certificate (I, u) of w.

    (I, u) is read off the group's certificate table (FiniteGroup._certificates),
    not by the orbit-vector descent; u is the table's steps reversed.  The
    entry is checked, not trusted: I must be of (-1)-type, and u w u^-1,
    walked from the unreduced word, must be the index of rho_I, taken from
    the subset memo.  Then the identity for w is the subset's:

    * u w u^-1 = rho_I, so g commutes with w iff u g u^-1 commutes with
      rho_I, and conjugation by u maps Z_W(w) onto Z_W(rho_I):
      Z_W(w) = u^-1 Z_W(rho_I) u;
    * so Z_W(w) = u^-1 N_W(W_I) u iff Z_W(rho_I) = N_W(W_I), which
      `verify_centralizer_is_normalizer` decides by the member check and
      orders, once per subset for every involution certified to it.

    A non-involution raises ValueError.
    """
    k = group.index_of(w)
    cert = group._certificates.get(k)
    if cert is None:
        raise ValueError(f"not an involution: '{word_to_string(w.word)}'")
    subset, steps = cert
    entry = _parabolic(group.context, subset)
    if entry is None or not entry[2]:
        return False
    walk = group.walk
    if walk(0, steps[::-1] + w.word + steps) != walk(0, entry[0]):
        return False
    return verify_centralizer_is_normalizer(subset, group)


def _involution_orbits(group: FiniteGroup) -> list[list[int]]:
    """The conjugacy classes of involutions (identity included) as sorted index
    lists, in the order of their least members.

    Classes are orbits under conjugation by generators.  The search visits
    involutions only, and for an involution i, s i s = (i s)^-1 s is three
    lookups in the step and inverse tables, and no conjugation pass is run.
    """
    steps, inv = group._steps, group._inv
    unassigned = set(group._involutions)
    out = []
    while unassigned:
        rep = min(unassigned)
        orbit = {rep}
        frontier = [rep]
        while frontier:
            i = frontier.pop()
            for s, t in enumerate(steps[i]):
                j = steps[inv[t]][s]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        out.append(sorted(orbit))
    return out


def involution_classes(group: FiniteGroup) -> list[tuple[ElementSet, InvolutionCertificate]]:
    """Conjugacy classes of involutions (identity included), with certificates.

    The classes come from one orbit search over the involutions
    (`_involution_orbits`).  Each is listed with the certificate of its
    ShortLex-least (so minimal-length) representative, and classes come back
    sorted by their representative.  That each class holds the longest
    element its certificate names is checked by the `classes` suite, not here.
    """
    return [(ElementSet._trusted(group, members), involution_certificate(group[members[0]]))
            for members in _involution_orbits(group)]


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
        instance = word_to_string(group.word(members.indices[0]))
        if not seen.isdisjoint(members.indices):
            failures.append({"instance": instance, "reason": "classes overlap"})
        seen.update(members.indices)
        if longest_element(group.context, cert.subset) not in members:
            failures.append({"instance": instance,
                             "reason": "class misses its certificate's longest element"})
    if sum(len(c) for c, _ in classes) != len(group._involutions):
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
    N_W(W_I) for every (-1)-type I, by the member check and orders
    (`verify_centralizer_is_normalizer`).  main: Z_W(w) = u^-1 N_W(W_I) u
    for every involution w, (I, u) read off the certificate table and
    checked to give u w u^-1 = rho_I, the rest read from prop2's verdict
    for I, decided once per subset (`verify_centralizer_certificate`).
    classes: the involution classes partition the involutions and each
    holds its certificate's rho_I.  Failures name instances 1-based; an
    unknown name raises ValueError.
    """
    runner = _SUITE_RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITES)}")
    return runner(group)
