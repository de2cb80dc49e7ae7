"""Catalog of finite Coxeter diagrams and of the named systems the CLI accepts.

The same builders serve two purposes: expanding type names (A5, B3, I2(7),
Atilde2, ...) into Coxeter matrices, and certifying finite-type recognition.
Recognition classifies a connected edge-labeled diagram, produces an explicit
vertex ordering, and then checks that the reordered matrix literally equals
the catalog matrix of the identified type, so the classifier can never drift
from the catalog.

Finite types: A_n (n>=1), B_n (n>=2), D_n (n>=4), E6, E7, E8, F4, H3, H4,
I2(m) for finite m.  Label 0 encodes an infinite bond throughout.
"""

from __future__ import annotations

import re
from math import factorial

INFINITE = 0


def _empty(rank: int) -> list[list[int]]:
    return [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]


def _with_edges(rank: int, edges) -> tuple[tuple[int, ...], ...]:
    m = _empty(rank)
    for i, j, label in edges:
        m[i][j] = m[j][i] = label
    return tuple(tuple(row) for row in m)


def _chain_edges(rank: int):
    return [(i, i + 1, 3) for i in range(rank - 1)]


def catalog_matrix(family: str, param: int) -> tuple[tuple[int, ...], ...]:
    """Coxeter matrix of an irreducible finite type, 0-based vertices."""
    if family == "A":
        if param < 1:
            raise ValueError("A_n needs n >= 1")
        return _with_edges(param, _chain_edges(param))
    if family == "B":
        if param < 2:
            raise ValueError("B_n needs n >= 2")
        edges = _chain_edges(param)
        edges[-1] = (param - 2, param - 1, 4)
        return _with_edges(param, edges)
    if family == "D":
        if param < 4:
            raise ValueError("D_n needs n >= 4")
        edges = _chain_edges(param - 1)
        edges.append((param - 3, param - 1, 3))
        return _with_edges(param, edges)
    if family == "E":
        if param not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = [(0, 2, 3), (1, 3, 3)] + [(i, i + 1, 3) for i in range(2, param - 1)]
        return _with_edges(param, edges)
    if family == "F":
        if param != 4:
            raise ValueError("only F4 exists")
        return _with_edges(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)])
    if family == "H":
        if param not in (3, 4):
            raise ValueError("H_n needs n in {3, 4}")
        edges = _chain_edges(param)
        edges[0] = (0, 1, 5)
        return _with_edges(param, edges)
    if family == "I2":
        if param < 2:
            raise ValueError("I2(m) needs m >= 2")
        return _with_edges(2, [(0, 1, param)])
    raise ValueError(f"unknown catalog family {family!r}")


_NAME_RE = re.compile(r"^(Atilde|A|B|D|E|F|H)(\d+)$|^I2\((\d+)\)$")

# the largest rank a name may ask for: A2000 builds in about 3 s, and the
# context's n^2 tables grow past the memory of a small machine soon after
MAX_NAMED_RANK = 2_000


def matrix_for_name(name: str) -> tuple[tuple[int, ...], ...]:
    """Expand a system name (A<n>, B<n>, D<n>, E6|E7|E8, F4, H3|H4, I2(<m>), Atilde<n>)."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unrecognized system name {name!r}")
    family = m.group(1)
    if family is None:
        return catalog_matrix("I2", int(m.group(3)))
    n = int(m.group(2))
    rank = n + 1 if family == "Atilde" else n
    if rank > MAX_NAMED_RANK:
        raise ValueError(f"{name.strip()} has rank {rank}, over the limit of {MAX_NAMED_RANK}")
    if family == "Atilde":
        if n < 1:
            raise ValueError("Atilde<n> needs n >= 1")
        if n == 1:
            return _with_edges(2, [(0, 1, INFINITE)])
        edges = _chain_edges(n + 1) + [(0, n, 3)]
        return _with_edges(n + 1, edges)
    return catalog_matrix(family, n)


def diagram_components(matrix, vertices) -> list[list[int]]:
    """Connected components of the diagram restricted to the given vertices."""
    remaining = set(vertices)
    components = []
    while remaining:
        seed = min(remaining)
        comp, frontier = {seed}, [seed]
        while frontier:
            v = frontier.pop()
            for u in remaining - comp:
                if matrix[v][u] != 2:
                    comp.add(u)
                    frontier.append(u)
        components.append(sorted(comp))
        remaining -= comp
    return components


def identify_component(matrix, vertices) -> tuple[str, int] | None:
    """Classify one connected subdiagram against the finite-type catalog.

    Returns (family, parameter) or None if the component is not of finite
    type.  The identification is certified: the classified ordering is checked
    entry-by-entry against the catalog matrix before returning.
    """
    found = _classify(matrix, list(vertices))
    if found is None:
        return None
    family, param, order = found
    reference = catalog_matrix(family, param)
    for i, vi in enumerate(order):
        for j, vj in enumerate(order):
            if matrix[vi][vj] != reference[i][j]:
                raise AssertionError(
                    f"classifier bug: component {vertices} mislabeled as {family}{param}"
                )
    return family, param


def _classify(matrix, verts):
    k = len(verts)
    if k == 1:
        return ("A", 1, verts)
    labels = {}
    adj = {v: [] for v in verts}
    for a in range(k):
        for b in range(a + 1, k):
            m = matrix[verts[a]][verts[b]]
            if m != 2:
                if m == INFINITE:
                    return None
                va, vb = verts[a], verts[b]
                adj[va].append(vb)
                adj[vb].append(va)
                labels[(va, vb)] = labels[(vb, va)] = m
    if len(labels) // 2 != k - 1:
        return None  # a cycle (or disconnected, which the caller rules out)

    if k == 2:
        (m,) = set(labels.values())
        return ("I2", m, verts)

    branch = [v for v in verts if len(adj[v]) >= 3]
    if branch:
        if len(branch) > 1 or len(adj[branch[0]]) != 3 or any(m != 3 for m in labels.values()):
            return None
        center = branch[0]
        arms = []
        for first in sorted(adj[center]):
            arm, prev, cur = [first], center, first
            while True:
                nxts = [u for u in adj[cur] if u != prev]
                if not nxts:
                    break
                prev, cur = cur, nxts[0]
                arm.append(cur)
            arms.append(arm)
        arms.sort(key=len)
        l1, l2, l3 = (len(a) for a in arms)
        if (l1, l2) == (1, 1):
            # D_k: long arm from its tip down to the center, then the two tips
            order = arms[2][::-1] + [center] + [arms[0][0], arms[1][0]]
            return ("D", k, order)
        if l1 == 1 and l2 == 2 and l3 in (2, 3, 4):
            # E6/E7/E8: positions (0,2) = middle-length arm, 1 = short arm tip
            order = [arms[1][1], arms[0][0], arms[1][0], center] + arms[2]
            return ("E", k, order)
        return None

    # path: order the vertices from one endpoint
    start = min(v for v in verts if len(adj[v]) == 1)
    order, prev = [start], None
    while len(order) < k:
        nxts = [u for u in adj[order[-1]] if u != prev]
        prev = order[-1]
        order.append(nxts[0])
    edge_labels = [labels[(order[i], order[i + 1])] for i in range(k - 1)]
    big = [(i, m) for i, m in enumerate(edge_labels) if m != 3]
    if not big:
        return ("A", k, order)
    if len(big) > 1:
        return None
    pos, m = big[0]
    if pos > (k - 2) - pos:  # normalize the heavy edge toward the front
        order.reverse()
        pos = (k - 2) - pos
    if m == 4:
        if pos == 0:
            return ("B", k, order[::-1])  # catalog B_n carries the 4 on the last edge
        if k == 4 and pos == 1:
            return ("F", 4, order)
        return None
    if m == 5 and pos == 0 and k in (3, 4):
        return ("H", k, order)
    return None


def is_finite_diagram(matrix, subset) -> bool:
    """True iff every connected component of the subdiagram is a catalog type."""
    return all(
        identify_component(matrix, comp) is not None
        for comp in diagram_components(matrix, subset)
    )


_EXCEPTIONAL_ORDERS = {("E", 6): 51_840, ("E", 7): 2_903_040, ("E", 8): 696_729_600,
                       ("F", 4): 1_152, ("H", 3): 120, ("H", 4): 14_400}


def _component_order(family: str, n: int) -> int:
    if family == "A":
        return factorial(n + 1)
    if family == "B":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    if family == "I2":
        return 2 * n
    return _EXCEPTIONAL_ORDERS[family, n]


def group_order(matrix) -> int | None:
    """|W| for a Coxeter matrix of finite type, None if some component is not finite.

    The product over the connected components of their classical orders:
    (n+1)! for A_n, 2^n n! for B_n, 2^(n-1) n! for D_n, 2m for I2(m), and
    the table above for E6, E7, E8, F4, H3 and H4.
    """
    order = 1
    for comp in diagram_components(matrix, range(len(matrix))):
        found = identify_component(matrix, comp)
        if found is None:
            return None
        order *= _component_order(*found)
    return order
