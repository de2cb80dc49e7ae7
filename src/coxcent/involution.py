"""Conjugating an involution onto the longest element of a full-negation parabolic.

For an involution w, the right descent set D(w) = {s : w * alpha_s negative}
always contains the set of negated simples N(w) = {s : w * alpha_s = -alpha_s}.
When the two coincide, w is itself the longest element of the standard
parabolic on N(w), and that parabolic is of (-1)-type (its longest element
negates every one of its simple roots).  Otherwise, conjugating by any
s in D(w) \\ N(w) shortens w by exactly 2, so iterating produces a certificate
(I, u) with u w u^-1 = rho_I and (W_I, I) of (-1)-type.  The step generator is
always the least available index, which makes runs reproducible; no canonicity
of the resulting subset I is claimed.

Every group identity here (w^2 = 1, u w u^-1 = rho_I, s x s = x) is decided
by exact equality of orbit vectors x^-1(rho), and the descent runs on the
unreduced word s_k..s_1 w s_1..s_k: no conjugate is normalised, only the
conjugator handed back, and no root is walked.  For s in D(x), x s x^-1 is
the reflection in x(alpha_s) (Humphreys 1990, Reflection Groups and Coxeter
Groups, 5.7), so s is in N(x) exactly when s x s = x.

Whether W_I is finite, its longest element rho_I and whether (W_I, I) is of
(-1)-type are decided once per subset and context, into one memo entry
(_parabolic), the only thing the subset queries and the certificate read.

The certificate is what reduces a centralizer Z_W(w) to a conjugated parabolic
normalizer: Z_W(w) = u^-1 N_W(W_I) u (verified on finite groups in .finite).
"""

from __future__ import annotations

from collections import namedtuple

from . import catalog
from .group import CoxeterContext, GroupElement, word_to_string


def is_involution(w: GroupElement) -> bool:
    """Whether w^2 = 1, i.e. w^-1 = w, by orbit-vector equality."""
    return w.context._orbit_key(w.word[::-1]) == w.orbit_key()


def negated_simples(w: GroupElement) -> frozenset[int]:
    """Generators s with w(alpha_s) = -alpha_s: the right descents with s w s = w."""
    ctx, key, word = w.context, w.orbit_key(), w.word
    return frozenset(s for s in w.right_descents() if ctx._orbit_key((s,) + word + (s,)) == key)


def is_finite_parabolic(ctx: CoxeterContext, subset) -> bool:
    """Whether the standard parabolic on the given generators is finite.

    Every parabolic of a finite W is finite, and W's own finiteness is read
    once per context (CoxeterContext.order).  Only in an infinite W is each
    connected component of the restricted diagram matched against the
    finite-type catalog, not by positive-definiteness; the catalog
    comparison is exact and label-based.
    """
    gens = ctx._checked_subset(subset)
    return ctx.order is not None or catalog.is_finite_diagram(ctx.matrix, gens)


def _parabolic(ctx: CoxeterContext, key: frozenset):
    """The subset's memo entry, decided once per context: None if W_I is infinite,
    else (word, orbit_key, minus_one) of rho_I, minus_one whether rho_I negates
    every simple root of I.  The descent reads its own descent sets here
    unchecked; a subset from the public edge comes through _checked_parabolic."""
    memo = ctx._longest_memo
    if key not in memo:
        rho = ctx.greedy_longest(key) if is_finite_parabolic(ctx, key) else None
        memo[key] = None if rho is None else (
            rho.word, rho.orbit_key(), negated_simples(rho) >= key)
    return memo[key]


def _checked_parabolic(ctx: CoxeterContext, subset):
    """_parabolic of a subset from the public edge, each generator checked before
    the memo is read, as frozenset({True}) == frozenset({1})."""
    key = frozenset(subset)
    ctx._checked_word(key)
    return _parabolic(ctx, key)


def longest_element(ctx: CoxeterContext, subset) -> GroupElement:
    """Longest element of a finite standard parabolic; rejects infinite ones."""
    key = frozenset(subset)
    entry = _checked_parabolic(ctx, key)
    if entry is None:
        raise ValueError(f"infinite parabolic subgroup on {sorted(s + 1 for s in key)}")
    return GroupElement(ctx, entry[0], entry[1])


def is_minus_one_type(ctx: CoxeterContext, subset) -> bool:
    """Whether W_I is finite with rho_I negating every simple root of I."""
    entry = _checked_parabolic(ctx, subset)
    return entry is not None and entry[2]


class InvolutionCertificate(namedtuple("InvolutionCertificate", ("subset", "conjugator", "steps"))):
    """A pair (I, u) with u w u^-1 the longest element of the (-1)-type parabolic on I.

    subset is I, a frozenset of generators; conjugator is u, a GroupElement.
    `steps` records the conjugating generators in the order they were applied;
    u is their product in reverse order, so len(u.word) <= len(steps) and each
    step shortened the running conjugate by exactly 2.  An immutable named
    tuple: collections is imported anyway, where dataclasses would pull in
    inspect and ast, about 1 MB of resident memory for every process.
    """

    __slots__ = ()

    def target(self) -> GroupElement:
        return longest_element(self.conjugator.context, self.subset)

    def checks(self, w: GroupElement) -> dict[str, bool]:
        """Both certificate properties against w, each decided on its own:
        minus_one_type, W_I finite with rho_I negating each simple root of I,
        and conjugation_exact, u w u^-1 = rho_I, by comparing the orbit vectors
        of the word u + w + u^-1 and of rho_I (False when W_I is infinite)."""
        ctx = self.conjugator.context
        if w.context is not ctx:
            raise ValueError("element from a different context")
        u = self.conjugator.word
        entry = _checked_parabolic(ctx, self.subset)  # None: an infinite W_I has no rho_I
        exact = entry is not None and ctx._orbit_key(u + w.word + u[::-1]) == entry[1]
        return {"minus_one_type": entry is not None and entry[2], "conjugation_exact": exact}

    def verify(self, w: GroupElement) -> bool:
        """Whether w is of the certificate's context and every check holds."""
        return w.context is self.conjugator.context and all(self.checks(w).values())


def involution_certificate(w: GroupElement) -> InvolutionCertificate:
    """Descend an involution to a parabolic longest element, returning (I, u).

    Iterative: while the descent set D strictly contains the negated simples
    N, conjugate by the least generator in D \\ N (each such conjugation
    shortens the element by exactly 2); when they coincide the element *is*
    the longest element of the (-1)-type parabolic on that set.  The number of
    steps is therefore at most length(w)/2.  Rejects non-involutions, and
    accepts the identity (empty subset, trivial conjugator).

    The running conjugate x is kept as the unreduced word s_k..s_1 w s_1..s_k
    and its orbit vector v = x^-1(rho); D is read from the signs of v.
    Stop test: every s in D has v_s = -1, D is of (-1)-type and v is the
    orbit vector of rho_D.  It holds exactly when D = N.  If D = N, then
    x = rho_D with D of (-1)-type, so each v_s, the height of
    x(alpha_s) = -alpha_s, is -1, and v = rho_D^-1(rho).  Conversely, v equal
    to that vector means x = rho_D (rho has a trivial stabiliser), which
    negates every simple root of D, so D <= N <= D.  Step choice: for s in D
    ascending, s x s = x exactly when s is in N, so the first s whose walk of
    s x s differs from v is min(D \\ N), and that walk is the next v.

    The stop test also decides w^2 = 1, with no walk of its own: x = rho_D is
    an involution and w = c x c^-1 for c = s_1..s_k, so w is one too.  An
    involution passes it within length(w)/2 steps and a non-involution never
    does, so the loop is capped there.  Only at the cap, or if D = N fails the
    stop test (which the argument above rules out), is w*w normalised: a
    non-involution raises ValueError, an involution an AssertionError.

    A conjugation changes the length by at most 2, so reaching rho_I with
    length(rho_I) = length(w) - 2k proves that every step shortened by 2.
    """
    ctx = w.context
    steps = []
    word, orbit = w.word, w.orbit_key()
    while True:
        descents, screened = ctx.screened_descents(orbit)
        entry = _parabolic(ctx, descents) if screened else None
        if entry and entry[2] and orbit == entry[1]:
            break
        if len(steps) >= w.length // 2:
            _reject(w, "descent did not reach a parabolic longest element within length/2 steps")
        for s in sorted(descents):
            key = ctx._orbit_key((s,) + word + (s,))
            if key != orbit:
                break
        else:
            _reject(w, "descents all negated, yet the conjugate is not their longest element")
        steps.append(s)
        word, orbit = (s,) + word + (s,), key
    if len(entry[0]) != w.length - 2 * len(steps):
        raise AssertionError("descent did not reach the parabolic longest element by 2 per step")
    return InvolutionCertificate(
        subset=descents, conjugator=ctx.element(steps[::-1]), steps=tuple(steps)
    )


def _reject(w: GroupElement, failure: str):
    """Raise ValueError if w is not an involution, else AssertionError(failure)."""
    square = w * w
    if not square.is_identity:
        raise ValueError(
            f"not an involution: square has normal form '{word_to_string(square.word)}'"
        )
    raise AssertionError(failure)
