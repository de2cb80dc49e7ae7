"""The class engine: Z_W(w) for any element w of a FiniteGroup, one conjugation
pass over W per conjugacy class, as the tests' independent oracle.

It reads only the enumeration's tables (_steps, _parent, _last) and the
inverse table _inv, and runs its own passes and conjugations, so a fault in
FiniteGroup._pass, in `normalizer` or in FiniteGroup._conjugate cannot make it
agree with what it checks.  Its memo is held per group in a
WeakKeyDictionary: a collected group's id can be reused by the next group.
"""

import weakref
from itertools import islice

from coxcent import ElementSet

# group -> {member index -> (Z_W(rep) as indices, transversal c -> g with
# g^-1 rep g = c)}, one shared pair per conjugacy class met so far
_MEMOS = weakref.WeakKeyDictionary()


def class_memo(group) -> dict:
    """The group's memo, empty until class_centralizer is first asked about it."""
    return _MEMOS.setdefault(group, {})


def conjugation_pass(group, k: int) -> list[int]:
    """d[g], the index of g^-1 k g, with d[g] = s d[p] s for g = p s along the
    BFS tree.  d[p] need not be an involution, so s x s = (x^-1 s)^-1 s is
    four lookups in the step and inverse tables."""
    steps, inv = group._steps, group._inv
    d = [k]
    for p, s in zip(islice(group._parent, 1, None), islice(group._last, 1, None)):
        d.append(steps[inv[steps[inv[d[p]]][s]]][s])
    return d


def conjugate(group, indices, word) -> list[int]:
    """The indices of u^-1 x u for x in `indices`, u the product of the word,
    one letter at a time: s x s as in conjugation_pass."""
    steps, inv = group._steps, group._inv
    for s in word:
        indices = [steps[inv[steps[inv[x]][s]]][s] for x in indices]
    return indices


def class_centralizer(w, group) -> ElementSet:
    """Z_W(w) from the class engine, one pass over W per conjugacy class.

    The first member of a class asked for becomes its rep, and its
    conjugation pass gives d[g] = g^-1 rep g for every g.  The fibre
    d == rep is Z_W(rep), and the first g in index order with d[g] = c
    is kept as c's transversal element.  Only that pair is kept, under every
    member's index; a later member c costs |Z_W(rep)| lookups per letter of
    its transversal element g, as Z_W(c) = g^-1 Z_W(rep) g.  Same set as the
    brute-force `centralizer`.
    """
    k = group.index_of(w)
    memo = class_memo(group)
    found = memo.get(k)
    if found is None:
        d = conjugation_pass(group, k)
        z = [g for g, c in enumerate(d) if c == k]
        # later keys overwrite earlier ones, so walking d backwards leaves
        # the first g for each c
        transversal = dict(zip(reversed(d), range(len(d) - 1, -1, -1)))
        if len(z) * len(transversal) != len(group):
            raise AssertionError("|Z_W(w)| x |class of w| != |W|")
        found = (z, transversal)
        for c in transversal:
            memo[c] = found
    z, transversal = found
    return ElementSet(group, sorted(conjugate(group, z, group.word(transversal[k]))))
