"""Coxeter system computations: root action, ShortLex words, descents, inversions.

Conventions.  Generators are 0-based ints internally (1-based only in I/O).
The group acts through a Cartan matrix (CoxeterContext.action_coeff, chosen
there with the smallest field that holds it): integers for labels 2, 3, 4, 6
and infinity, so most systems live over Q; only other labels bring in a field
Q(theta) of degree d >= 2.  A root is its coordinate vector over the
simple-root basis; every root hit by group elements from the basis is
entirely nonnegative or entirely nonpositive.

Flat layout.  Every Cartan entry and rho are algebraic integers, so every
coordinate of an orbit vector or of a root column has plain-int coefficients
in the power basis 1, theta, ..., theta^(d-1).  Inside this module such a
vector is one flat sequence of n*d ints, coordinate t at v[t*d:(t+1)*d]; at
d = 1 that is just the int coordinates.  A reflection is one pass over a
precomputed integer table of the context, with no scalar object built.  The
public edge (Root, action_coeff, act, column, reflect, inversion_set) hands
out AlgebraicScalar coordinates at d >= 2 and plain ints at d = 1.  Every
sign of a flat coordinate, Root.is_positive's included, is read through
CoxeterContext._coord_sign, which at d >= 2 hands the coordinate's int slice
to FieldContext.sign, the one exact sign path; the tables come from
FieldContext.multiples.  AlgebraicScalar is named only at the public edge
(_flat, _root).

A group element is its ShortLex reduced word plus, once asked for, the vector
w^-1(rho) in weight coordinates, where rho = (1, ..., 1).  Coordinate t of
w(rho) is the height of the root w^-1(alpha_t), so it is negative exactly when
t is a left descent of w; likewise the negative coordinates of w^-1(rho) are
the right descents.  A simple reflection changes only coordinate s and the
coordinates of the neighbours of s.  Only this module reads these vectors.

Every normal form comes from one routine: build w(rho) from any word for w,
then peel the least negative coordinate (the least left descent) one letter
at a time.  No reflection automaton is used; the only primitive is the exact
sign of a coordinate, read lazily so that a rescan after one peel step only
evaluates the coordinates that step changed.

Group identities need no normal form.  rho lies in the open fundamental
chamber, so x = y iff x^-1(rho) = y^-1(rho), compared coefficient by
coefficient; CoxeterContext.represents and the descent helpers
(screened_descents, least_unnegated_descent, descent_sets) work on arbitrary,
unreduced words this way.

Elements are immutable values apart from the cached vector, which is filled
in at most once with a value that depends only on the word; operations are
pure functions of their inputs, safe to share between threads.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalar import AlgebraicScalar, FieldContext

INFINITE_BOND = 0  # external encoding of m_st = infinity

# 2cos(pi/k) for the k where it is rational: the bond orders of labels 1 to 4 and 6
_RATIONAL_TWO_COS = {1: -2, 2: 0, 3: 1}


def _bond_order(m: int) -> int:
    """The k whose 2cos(pi/k) label m needs: 4cos^2(pi/m) is 2cos(pi/m)^2 for odd m,
    and 2 + 2cos(pi/k) with k = m/2 for even m."""
    return m if m % 2 else m // 2


class MixedSignRootError(ArithmeticError):
    """A vector that should be a root had both positive and negative coordinates."""


def validate_coxeter_matrix(matrix) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(row) for row in matrix)
    n = len(rows)
    if n == 0:
        raise ValueError("empty Coxeter matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for j, m in enumerate(row):
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValueError(f"entry ({i},{j}) must be an integer, got {m!r}")
    for i, row in enumerate(rows):
        if row[i] != 1:
            raise ValueError(f"diagonal entry ({i},{i}) must be 1")
        for j in range(n):
            if i == j:
                continue
            m = row[j]
            if m != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
            if m != INFINITE_BOND and m < 2:
                raise ValueError(f"invalid label {m} at ({i},{j}); use 0 for infinity")
    return rows


def word_from_string(text: str) -> tuple[int, ...]:
    """Parse whitespace-separated 1-based generator indices to a 0-based word."""
    out = []
    for token in text.split():
        if not token.isdigit() or int(token) < 1:
            raise ValueError(f"bad generator index {token!r}")
        out.append(int(token) - 1)
    return tuple(out)


def word_to_string(word) -> str:
    return " ".join(str(s + 1) for s in word)


class Root:
    """A coordinate vector over the simple-root basis."""

    __slots__ = ("context", "coords")

    def __init__(self, context: "CoxeterContext", coords: tuple):
        self.context = context
        self.coords = coords

    def is_positive(self) -> bool:
        """True for a positive root, False for a negative one.

        Raises MixedSignRootError if the coordinates mix signs (or all vanish),
        which signals an arithmetic bug rather than a property of the input.
        """
        ctx = self.context
        v = ctx._flat(self.coords)
        den = lcm(*[c.denominator for c in v])  # a positive scale: same signs, int coefficients
        v = [c.numerator * (den // c.denominator) for c in v]
        pos = neg = False
        for t in range(len(self.coords)):
            s = ctx._coord_sign(v, t)
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
        if pos == neg:  # both present, or no nonzero coordinate at all
            raise MixedSignRootError(f"not a root: {self.coords}")
        return pos

    def __neg__(self):
        return Root(self.context, tuple(-c for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, Root):
            return NotImplemented
        return self.context is other.context and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Root({', '.join(map(repr, self.coords))})"


class CoxeterContext:
    """A Coxeter system: matrix, scalar field, and the Cartan matrix that realizes it.

    action_coeff[s][t] is the Cartan entry a_st, with s(alpha_t) = alpha_t + a_st*alpha_s.
    On roots the reflection acts by (s*g)_t = g_t for t != s and
    (s*g)_s = -g_s + sum_t a_st*g_t; on weight coordinates, the contragredient,
    by (s*v)_s = -v_s and (s*v)_t = v_t + a_st*v_s, with the same index.

    Any entries with a_st*a_ts = 4cos^2(pi/m_st), 4 for m_st = infinity, and
    a_st = 0 iff a_ts = 0, give a faithful realization with the same Tits cone
    (Vinberg 1971), so words, descents and certificates do not depend on the
    choice.  The one taken is the smallest exact one: labels 2, 3, 4, 6 and
    infinity take the integer pairs (0, 0), (1, 1), (2, 1), (3, 1) and (2, 2);
    any other odd m takes 2cos(pi/m) on both sides, any other even m takes
    2 + 2cos(2pi/m) for s < t and 1 for s > t.  The field is Q(2cos(pi/N)), N
    the lcm over those other labels of m (odd) or m/2 (even), and N = 1 when
    there are none.  At field degree 1 every entry is a plain int; at degree
    2 and up action_coeff and Root coordinates are AlgebraicScalar values.

    Inside the module every vector is flat (see the module docstring), and
    each generator s has two integer tables, built here from the d x d
    matrices M_st of multiplication by a_st, column j holding a_st*theta^j.
    _weight_table[s] adds a_st*v_s into each neighbour coordinate t: one entry
    (s*d + j, pairs) per source coefficient j that some M_st uses, pairs
    holding (t*d + k, M_st[k][j]); a source that is zero is skipped at walk
    time.  At d = 1 it is just the (t, a_st) pairs of the one source v[s].
    _root_table[s] groups the root reflection the same way: one entry per
    source t*d + j of a neighbour block, pairs (s*d + k, -M_st[k][j]).  Both
    walks make the table pass, then negate block s.

    Immutable and shareable apart from two memos keyed by generator subset,
    which only ever gain entries: _longest_memo (involution.longest_element),
    holding (word, orbit_key) pairs, and _minus_one_memo
    (involution.is_minus_one_type); and _order, read from the catalog at most
    once (`order`).  No attribute holds a GroupElement, which points back at
    its context, so a context that falls out of use is freed by reference
    counting, with no wait for the cycle collector.
    """

    def __init__(self, matrix):
        self.matrix = validate_coxeter_matrix(matrix)
        self.rank = n = len(self.matrix)
        order = 1
        for row in self.matrix:
            for m in row:
                k = _bond_order(m)
                if m != INFINITE_BOND and k not in _RATIONAL_TWO_COS:
                    order = order * k // gcd(order, k)
        field = self.field = FieldContext(order)
        self._degree = d = field.degree
        scalar = int if d == 1 else field.rational
        coeff = []
        neighbors = []
        for s in range(n):
            row = []
            nbr = []
            for t in range(n):
                m = self.matrix[s][t]
                if m == INFINITE_BOND:
                    a = scalar(2)
                elif m == 2:
                    a = scalar(0)
                else:  # the diagonal label 1 gives a_ss = 2cos(pi) = -2, unused
                    k = _bond_order(m)
                    c = _RATIONAL_TWO_COS.get(k)
                    c = field.two_cos(k) if c is None else scalar(c)
                    a = c if m % 2 else (2 + c if s < t else scalar(1))
                row.append(a)
                if t != s and m != 2:
                    nbr.append(t)
            coeff.append(tuple(row))
            neighbors.append(tuple(nbr))
        self.action_coeff = tuple(coeff)
        self.neighbors = tuple(neighbors)

        if d == 1:  # one coefficient per coordinate; weights keep the (t, a_st) pairs of v[s]
            self._weight_table = tuple(
                tuple((t, coeff[s][t]) for t in neighbors[s]) for s in range(n)
            )
            self._root_table = tuple(
                tuple((t, ((s, -coeff[s][t]),)) for t in neighbors[s]) for s in range(n)
            )
        else:
            columns = {(s, t): list(field.multiples(coeff[s][t].coeffs))
                       for s in range(n) for t in neighbors[s]}
            self._weight_table = tuple(
                tuple((s * d + j, pairs) for j in range(d)
                      if (pairs := tuple((t * d + k, c) for t in neighbors[s]
                                         for k, c in enumerate(columns[s, t][j]) if c)))
                for s in range(n)
            )
            self._root_table = tuple(
                tuple((t * d + j, pairs) for t in neighbors[s] for j in range(d)
                      if (pairs := tuple((s * d + k, -c)
                                         for k, c in enumerate(columns[s, t][j]) if c)))
                for s in range(n)
            )

        unit = (1,) + (0,) * (d - 1)
        self._rho = unit * n
        self._simple_roots = tuple(
            (0,) * (s * d) + unit + (0,) * ((n - 1 - s) * d) for s in range(n)
        )
        self._longest_memo: dict[frozenset, tuple[tuple, tuple]] = {}
        self._minus_one_memo: dict[frozenset, bool] = {}
        self._order = ...  # not read from the catalog yet

    @property
    def order(self) -> int | None:
        """|W| by catalog.group_order, None when W is infinite; classified once per context."""
        if self._order is ...:
            from .catalog import group_order

            self._order = group_order(self.matrix)
        return self._order

    @classmethod
    def from_name(cls, name: str) -> "CoxeterContext":
        from .catalog import matrix_for_name

        return cls(matrix_for_name(name))

    # --- flat vectors: weights, updated in place ---

    def _reflect_weights(self, v: list, letters) -> None:
        """Apply the simple reflections of `letters` to the weights v, first letter first."""
        table = self._weight_table
        if self._degree == 1:  # the one source v[s], as (t, a_st) pairs
            for s in letters:
                x = v[s]
                for t, a in table[s]:
                    v[t] = v[t] + a * x
                v[s] = -x
        else:
            self._walk(v, letters, table)

    def _walk(self, v: list, letters, table) -> None:
        """For each letter s: add the groups of table[s] into v, then negate block s."""
        d = self._degree
        for s in letters:
            for src, pairs in table[s]:
                x = v[src]
                if x:
                    for tgt, c in pairs:
                        v[tgt] = v[tgt] + c * x
            for k in range(s * d, s * d + d):
                v[k] = -v[k]

    def _coord_sign(self, v, t: int) -> int:
        """Exact sign of coordinate t of a flat vector."""
        d = self._degree
        if d == 1:
            x = v[t]
            return (x > 0) - (x < 0)
        return self.field.sign(v[t * d : t * d + d])

    def _negative_coords(self, v) -> frozenset[int]:
        return frozenset(t for t in range(self.rank) if self._coord_sign(v, t) < 0)

    def _is_minus_one(self, v, t: int) -> bool:
        """Whether coordinate t of a flat vector is exactly -1."""
        d = self._degree
        b = t * d
        return v[b] == -1 and not any(v[b + 1 : b + d])

    def _orbit(self, word) -> list:
        """w(rho) for w the product of the word (letters act right to left)."""
        v = list(self._rho)
        self._reflect_weights(v, reversed(word))
        return v

    def _peel(self, v: list) -> "GroupElement":
        """The element w with w(rho) = v, its ShortLex word read off by peeling.

        The least negative coordinate of v is the least left descent s of w, the
        first letter of its ShortLex word; v then becomes s(v), the vector of s*w.
        """
        n = self.rank
        neighbors = self.neighbors
        signs = [None] * n  # sign of coordinate t, None until read or after it changed
        word = []
        while True:
            for s in range(n):
                sign = signs[s]
                if sign is None:
                    sign = signs[s] = self._coord_sign(v, s)
                if sign < 0:
                    break
            else:
                return GroupElement(self, tuple(word))
            word.append(s)
            self._reflect_weights(v, (s,))
            signs[s] = 1
            for t in neighbors[s]:
                signs[t] = None

    def _normal_form(self, word) -> "GroupElement":
        return self._peel(self._orbit(word))

    # --- roots: flat inside, Root with scalar coordinates at the edge ---

    def _act(self, word, g) -> list:
        """w(gamma), flat, for gamma flat and w the product of the word."""
        g = list(g)
        self._walk(g, reversed(word), self._root_table)
        return g

    def _flat(self, coords) -> list:
        """Root coordinates, numbers or scalars of this field, as one flat list."""
        out = []
        for c in coords:
            if not isinstance(c, AlgebraicScalar):
                c = self.field.rational(c)
            elif c.field is not self.field:
                raise ValueError("scalars from different field contexts")
            out.extend(c.coeffs)
        return out

    def _root(self, g) -> Root:
        """The Root of a flat vector, with AlgebraicScalar coordinates at d >= 2."""
        d = self._degree
        if d == 1:
            return Root(self, tuple(g))
        field = self.field
        return Root(self, tuple(
            AlgebraicScalar(field, tuple(g[b : b + d])) for b in range(0, len(g), d)
        ))

    # --- public construction ---

    def identity(self) -> "GroupElement":
        return GroupElement(self, (), self._rho)

    def generator(self, s: int) -> "GroupElement":
        return self.element((s,))

    def simple_root(self, s: int) -> Root:
        return self._root(self._simple_roots[s])

    def element(self, word) -> "GroupElement":
        """ShortLex normal form of an arbitrary generator sequence."""
        word = tuple(word)
        n = self.rank
        for s in word:
            if not 0 <= s < n:
                raise ValueError(f"generator index {s} out of range 0..{n - 1}")
        return self._normal_form(word)

    def represents(self, word, element: "GroupElement") -> bool:
        """Whether the product of an arbitrary word is `element`, decided with no sign read.

        rho lies in the open fundamental chamber, so its stabiliser is trivial
        and x = y iff x^-1(rho) = y^-1(rho): an exact comparison of coefficient
        tuples.  The word need not be reduced and is never normalised.
        """
        if element.context is not self:
            raise ValueError("element from a different context")
        return self.orbit_key(word) == element.orbit_key()

    def orbit_key(self, word) -> tuple:
        """x^-1(rho), flat, for x the product of an arbitrary word: x's GroupElement.orbit_key()."""
        return tuple(self._orbit(word[::-1]))

    # --- descents of unreduced words; `orbit` is always x^-1(rho) ---

    def screened_descents(self, orbit) -> tuple[frozenset[int], bool]:
        """(D, screen): D the right descents of x, read as the signs of x^-1(rho),
        and whether every s in D has coordinate exactly -1.

        Coordinate s of x^-1(rho) is the height of x(alpha_s), so s can be a
        negated simple (x(alpha_s) = -alpha_s) only if it is -1: the screen is
        necessary for D = N, with no column read.
        """
        descents = self._negative_coords(orbit)
        return descents, all(self._is_minus_one(orbit, s) for s in descents)

    def _negates(self, word, orbit, s: int) -> bool:
        """Whether x(alpha_s) = -alpha_s; the column is walked only past the height screen."""
        if not self._is_minus_one(orbit, s):
            return False
        alpha = self._simple_roots[s]
        return self._act(word, alpha) == [-c for c in alpha]

    def least_unnegated_descent(self, word, orbit, descents) -> int | None:
        """min(D \\ N) for x the product of the word, or None when D = N.

        Goes through D in ascending order and stops at the first s with
        x(alpha_s) != -alpha_s, so a column is computed only for the members
        of N before it, and for s itself when its coordinate is -1.
        """
        return next((s for s in sorted(descents) if not self._negates(word, orbit, s)), None)

    def descent_sets(self, word, orbit=None) -> tuple[frozenset[int], frozenset[int]]:
        """(D, N) for x the product of an arbitrary word, which is never normalised.

        D is the right descent set of x; N holds the s in D with
        x(alpha_s) = -alpha_s exactly, each column computed only past the
        height screen of screened_descents.  Pass `orbit` = x^-1(rho) when it
        is already known (GroupElement.orbit_key()).
        """
        v = self.orbit_key(word) if orbit is None else orbit
        descents = self._negative_coords(v)
        return descents, frozenset(s for s in descents if self._negates(word, v, s))

    def greedy_longest(self, subset) -> "GroupElement":
        """Longest element of the standard parabolic on `subset`, which must be finite.

        Left-multiplies the identity by generators of the subset that are not
        yet left descents until none is left; the result does not depend on
        the choices, and the climb ends holding w(rho), so one peel gives the
        word.  Never returns on an infinite parabolic: callers check finiteness
        first (involution.longest_element does).
        """
        gens = sorted(subset)
        v = list(self._rho)
        while True:
            s = next((t for t in gens if self._coord_sign(v, t) > 0), None)
            if s is None:
                return self._peel(v)
            self._reflect_weights(v, (s,))

    def reflect(self, s: int, root: Root) -> Root:
        """Apply the simple reflection s to a root (involutive)."""
        if root.context is not self:
            raise ValueError("root from a different context")
        return self._root(self._act((s,), self._flat(root.coords)))

    def __repr__(self):
        return f"CoxeterContext(rank {self.rank}, field {self.field!r})"


class GroupElement:
    """A group element: its ShortLex reduced word, plus w^-1(rho) once asked for.

    Equal iff the words are equal.  Elements come from CoxeterContext, whose
    peeling makes the word the normal form, and from the index tables of
    finite.FiniteGroup, whose BFS reads the normal forms off its tree.
    """

    __slots__ = ("context", "word", "_inv_rho")

    def __init__(self, context, word, inv_rho=None):
        self.context = context
        self.word = word
        self._inv_rho = inv_rho

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    @property
    def matrix(self):
        """Row-major matrix of the action; column t is w * alpha_t."""
        return tuple(zip(*(self.column(t).coords for t in range(self.context.rank))))

    def column(self, t: int) -> Root:
        ctx = self.context
        return ctx._root(ctx._act(self.word, ctx._simple_roots[t]))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        ctx = self.context
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.context is not ctx:
            raise ValueError("elements from different contexts")
        return ctx._normal_form(self.word + other.word)

    def inverse(self) -> "GroupElement":
        return self.context._normal_form(self.word[::-1])

    def orbit_key(self) -> tuple:
        """A hashable key, equal for two elements of one context iff they are equal."""
        v = self._inv_rho
        if v is None:
            v = self._inv_rho = self.context.orbit_key(self.word)
        return v

    def act(self, root: Root) -> Root:
        """Image of a root under this element's action on the representation space."""
        ctx = self.context
        if not isinstance(root, Root) or root.context is not ctx:
            raise ValueError("root from a different context")
        return ctx._root(ctx._act(self.word, ctx._flat(root.coords)))

    def right_descents(self) -> frozenset[int]:
        """Generators s with length(w s) < length(w), i.e. w * alpha_s negative."""
        return self.context._negative_coords(self.orbit_key())

    def left_descents(self) -> frozenset[int]:
        ctx = self.context
        return ctx._negative_coords(ctx._orbit(self.word))

    def inversion_set(self) -> frozenset[Root]:
        """The positive roots this element sends negative; size equals the length.

        Read off the reduced word s_1 ... s_k: the inversions are
        s_k ... s_{j+1} * alpha_{s_j} for j = k .. 1.
        """
        ctx = self.context
        word = self.word
        roots = frozenset(
            ctx._root(ctx._act(word[j + 1 :][::-1], ctx._simple_roots[s]))
            for j, s in enumerate(word)
        )
        if len(roots) != len(word):
            raise ArithmeticError("inversion multiset collapsed")
        return roots

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.context is other.context and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"GroupElement('{word_to_string(self.word)}')"
