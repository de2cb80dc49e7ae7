"""Named diagram construction and finite-type recognition."""

import random
from time import perf_counter

import pytest

from coxcent import CoxeterContext, enumerate_group
from coxcent.catalog import (
    MAX_NAMED_RANK,
    catalog_matrix,
    diagram_components,
    group_order,
    identify_component,
    is_finite_diagram,
    matrix_for_name,
)


def test_named_matrices_spotcheck():
    a3 = matrix_for_name("A3")
    assert a3 == ((1, 3, 2), (3, 1, 3), (2, 3, 1))
    b3 = matrix_for_name("B3")
    assert b3[1][2] == 4 and b3[0][1] == 3
    f4 = matrix_for_name("F4")
    assert [f4[i][i + 1] for i in range(3)] == [3, 4, 3]
    h3 = matrix_for_name("H3")
    assert h3[0][1] == 5 and h3[1][2] == 3
    i27 = matrix_for_name("I2(7)")
    assert i27 == ((1, 7), (7, 1))
    at2 = matrix_for_name("Atilde2")
    assert at2 == ((1, 3, 3), (3, 1, 3), (3, 3, 1))
    at1 = matrix_for_name("Atilde1")
    assert at1 == ((1, 0), (0, 1))
    d5 = matrix_for_name("D5")
    assert d5[2][3] == 3 and d5[2][4] == 3 and d5[3][4] == 2
    e8 = matrix_for_name("E8")
    assert sum(row.count(3) for row in e8) == 14  # 7 edges, both directions


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "E5", "E9", "F5", "H5", "I2(x)", "Q3", "Atilde0"])
def test_bad_names_rejected(bad):
    with pytest.raises(ValueError):
        matrix_for_name(bad)


@pytest.mark.parametrize("name", [f"A{MAX_NAMED_RANK + 1}", f"B{MAX_NAMED_RANK + 1}",
                                  f"Atilde{MAX_NAMED_RANK}", "A10000000000"])
def test_names_over_the_rank_limit_rejected_before_building(name):
    start = perf_counter()
    with pytest.raises(ValueError, match="rank"):
        matrix_for_name(name)
    assert perf_counter() - start < 0.5


def test_names_with_leading_zeros_and_small_ranks_accepted():
    assert matrix_for_name("E06") == matrix_for_name("E6")
    assert matrix_for_name("A03") == catalog_matrix("A", 3)
    assert len(matrix_for_name("A60")) == 60
    assert len(matrix_for_name("Atilde60")) == 61


@pytest.mark.parametrize(
    "family,param",
    [("A", 1), ("A", 2), ("A", 7), ("B", 2), ("B", 5), ("D", 4), ("D", 7),
     ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3), ("H", 4), ("I2", 5), ("I2", 12)],
)
def test_recognition_roundtrip(family, param):
    m = catalog_matrix(family, param)
    got = identify_component(m, range(len(m)))
    # rank-2 catalog members canonicalize to the dihedral family
    if (family, param) in (("A", 2), ("B", 2)):
        assert got == ("I2", {"A": 3, "B": 4}[family])
    else:
        assert got == (family, param)


def test_recognition_is_permutation_invariant():
    rng = random.Random(99)
    for name, expected in [("B4", ("B", 4)), ("D5", ("D", 5)), ("E7", ("E", 7)),
                           ("F4", ("F", 4)), ("H4", ("H", 4)), ("A6", ("A", 6))]:
        m = matrix_for_name(name)
        n = len(m)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = tuple(tuple(m[perm[i]][perm[j]] for j in range(n)) for i in range(n))
            assert identify_component(shuffled, range(n)) == expected


def test_not_finite_diagrams():
    at2 = matrix_for_name("Atilde2")  # 3-cycle
    assert identify_component(at2, range(3)) is None
    assert not is_finite_diagram(at2, range(3))
    # infinite bond
    assert not is_finite_diagram(((1, 0), (0, 1)), (0, 1))
    # two heavy edges (affine C-like chain)
    chain = ((1, 4, 2), (4, 1, 4), (2, 4, 1))
    assert not is_finite_diagram(chain, range(3))
    # heavy edge meeting a branch vertex
    star = ((1, 3, 3, 3), (3, 1, 2, 2), (3, 2, 1, 2), (3, 2, 2, 1))
    assert identify_component(star, range(4)) == ("D", 4)
    star_heavy = ((1, 3, 3, 4), (3, 1, 2, 2), (3, 2, 1, 2), (4, 2, 2, 1))
    assert identify_component(star_heavy, range(4)) is None
    # degree-4 vertex (affine D4)
    dt4 = ((1, 3, 3, 3, 3), (3, 1, 2, 2, 2), (3, 2, 1, 2, 2), (3, 2, 2, 1, 2), (3, 2, 2, 2, 1))
    assert identify_component(dt4, range(5)) is None
    # label 6 on a rank-3 path (affine G2)
    g2t = ((1, 6, 2), (6, 1, 3), (2, 3, 1))
    assert identify_component(g2t, range(3)) is None
    # H5 does not exist
    h5 = tuple(tuple(5 if {i, j} == {0, 1} else (1 if i == j else (3 if abs(i - j) == 1 else 2))
                     for j in range(5)) for i in range(5))
    assert identify_component(h5, range(5)) is None


def test_components_and_subsets():
    a5 = matrix_for_name("A5")
    assert diagram_components(a5, [0, 2, 4]) == [[0], [2], [4]]
    assert diagram_components(a5, [0, 1, 3, 4]) == [[0, 1], [3, 4]]
    assert is_finite_diagram(a5, [0, 1, 3])
    assert is_finite_diagram(a5, [])
    # subset of an infinite diagram can be finite
    at2 = matrix_for_name("Atilde2")
    assert is_finite_diagram(at2, [0, 1])
    assert not is_finite_diagram(at2, [0, 1, 2])


def test_full_catalog_subsets_of_f4():
    f4 = matrix_for_name("F4")
    # {2,3} is the B2 middle, {1,2,3} and {2,3,4} are B3 copies
    assert identify_component(f4, [1, 2]) == ("I2", 4)
    assert identify_component(f4, [0, 1, 2]) == ("B", 3)
    assert identify_component(f4, [1, 2, 3]) == ("B", 3)


@pytest.mark.parametrize("name", ["A1", "A2", "A6", "B2", "B3", "B5", "D4", "D5", "E6",
                                  "F4", "H3", "H4", "I2(5)", "I2(12)", "A2xB2", "A1xA1xI2(7)"])
def test_group_order_matches_enumeration(name):
    # one or more systems of every catalog family; reducible ones are the
    # product of their components
    blocks = [matrix_for_name(part) for part in name.split("x")]
    rank = sum(len(b) for b in blocks)
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[offset + i][offset:offset + len(b)] = row
        offset += len(b)
    assert group_order(m) == len(enumerate_group(CoxeterContext(m)))


def test_group_order_of_e7_e8_is_the_product_of_degrees():
    # too large to enumerate here: |W| is the product of the degrees of the
    # basic invariants, exponents + 1
    degrees = {"E7": (2, 6, 8, 10, 12, 14, 18), "E8": (2, 8, 12, 14, 18, 20, 24, 30)}
    for name, ds in degrees.items():
        product = 1
        for d in ds:
            product *= d
        assert group_order(matrix_for_name(name)) == product


def test_group_order_of_infinite_types_is_none():
    assert group_order(matrix_for_name("Atilde2")) is None
    assert group_order(matrix_for_name("Atilde1")) is None
    # a finite factor does not make the product finite
    assert group_order([[1, 3, 2], [3, 1, 2], [2, 2, 1]]) == 12
    assert group_order([[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]) is None
