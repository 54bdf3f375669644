"""Group construction, conjugation combinatorics, and descriptor tests."""

import math

import pytest

from peterweyl.errors import PreconditionError
from peterweyl.groups import (
    Group,
    cyclic,
    diagonal_conjugation_orbits,
    dihedral,
    from_descriptor,
    parse_group,
    product,
    symmetric,
)
from peterweyl.hopf import AlgebraElement, Functional, TensorElement
from peterweyl.reps import K0Element, character_table

from _modules import trivial_rep


# ---------------------------------------------------------------------------
# construction and orders
# ---------------------------------------------------------------------------

def test_family_orders():
    for n in range(1, 6):
        assert symmetric(n).order == math.factorial(n)
    for n in range(1, 9):
        assert dihedral(n).order == 2 * n
    for n in range(1, 13):
        assert cyclic(n).order == n
    assert product(symmetric(3), cyclic(2)).order == 12
    assert product(cyclic(2), cyclic(2)).order == 4


def test_size_bounds_enforced():
    with pytest.raises(PreconditionError):
        symmetric(6)
    with pytest.raises(PreconditionError):
        dihedral(9)
    with pytest.raises(PreconditionError):
        cyclic(13)
    with pytest.raises(PreconditionError):
        product(symmetric(5), cyclic(2))


def test_identity_and_inverses():
    for g in (symmetric(4), dihedral(5), cyclic(9),
              product(cyclic(2), dihedral(3))):
        for i in range(g.order):
            assert g.mul(0, i) == i == g.mul(i, 0)
            assert g.mul(i, g.inverse(i)) == 0
            assert g.mul(g.inverse(i), i) == 0


def test_associativity_exhaustive_small():
    for g in (symmetric(3), dihedral(4), cyclic(6),
              product(cyclic(2), cyclic(2))):
        n = g.order
        for a in range(n):
            for b in range(n):
                ab = g.mul(a, b)
                for c in range(n):
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_abelian_families():
    for g in (cyclic(8), product(cyclic(2), cyclic(6))):
        for a in range(g.order):
            for b in range(g.order):
                assert g.mul(a, b) == g.mul(b, a)
    s3 = symmetric(3)
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in range(6) for b in range(6))


# ---------------------------------------------------------------------------
# element names
# ---------------------------------------------------------------------------

def test_cyclic_names_use_powers():
    assert cyclic(4).elements == ("e", "x", "x^2", "x^3")


def test_symmetric_names_start_from_generators():
    s3 = symmetric(3)
    assert s3.elements[0] == "e"
    assert "s1" in s3.elements and "s2" in s3.elements
    assert len(set(s3.elements)) == 6


def test_product_renames_colliding_generators():
    g = product(cyclic(2), cyclic(2))
    names = {name for _, name in g.generators}
    assert names == {"x", "x'"}
    assert len(set(g.elements)) == 4


def test_product_with_a_custom_table_factor():
    table = from_descriptor({"kind": "table", "table": [[0, 1], [1, 0]]})
    g = product(table, cyclic(2))
    assert g.order == 4
    assert len(g.gens) == 2
    assert len(set(g.elements)) == 4


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

def test_class_counts_match_partition_numbers():
    # classes of S_n are indexed by partitions of n
    partitions = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7}
    for n, p in partitions.items():
        assert len(symmetric(n).conjugacy_classes()) == p


def test_class_counts_dihedral_formula():
    # n odd: (n+3)/2 classes; n even: n/2 + 3
    for n in range(1, 9):
        expect = (n + 3) // 2 if n % 2 else n // 2 + 3
        assert len(dihedral(n).conjugacy_classes()) == expect


def test_trivial_and_cyclic_classes():
    assert len(cyclic(1).conjugacy_classes()) == 1
    assert len(cyclic(7).conjugacy_classes()) == 7


def test_class_equation():
    for g in (symmetric(4), dihedral(4), product(symmetric(3), cyclic(2))):
        classes = g.conjugacy_classes()
        sizes = [len(c) for c in classes]
        assert sum(sizes) == g.order
        assert all(g.order % s == 0 for s in sizes)
        seen = sorted(i for c in classes for i in c)
        assert seen == list(range(g.order))
        for c in classes:
            members = set(c)
            for x in c:
                for h in range(g.order):
                    assert g.conjugate(h, x) in members


def test_centralizer_sizes_d4():
    d4 = dihedral(4)
    sizes = sorted(d4.centralizer_size(i) for i in range(8))
    assert sizes == [4, 4, 4, 4, 4, 4, 8, 8]


def _element_order(g, i: int) -> int:
    k, cur = 1, i
    while cur != 0:
        cur = g.table[cur][i]
        k += 1
    return k


def test_element_orders():
    s3 = symmetric(3)
    orders = sorted(_element_order(s3, i) for i in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    assert _element_order(cyclic(12), 1) == 12


# ---------------------------------------------------------------------------
# diagonal conjugation orbits
# ---------------------------------------------------------------------------

def test_diagonal_orbit_counts():
    assert len(diagonal_conjugation_orbits(cyclic(1))) == 1
    assert len(diagonal_conjugation_orbits(symmetric(3))) == 11
    assert len(diagonal_conjugation_orbits(dihedral(4))) == 28
    assert len(diagonal_conjugation_orbits(product(cyclic(2), cyclic(2)))) == 16


def test_diagonal_orbits_partition_and_closure():
    for g in (symmetric(3), dihedral(3)):
        orbits = diagonal_conjugation_orbits(g)
        n = g.order
        all_pairs = sorted(p for o in orbits for p in o)
        assert all_pairs == [(a, b) for a in range(n) for b in range(n)]
        for o in orbits:
            members = set(o)
            for a, b in o:
                for c in range(n):
                    assert (g.conjugate(c, a), g.conjugate(c, b)) in members


def test_abelian_diagonal_orbits_are_singletons():
    g = cyclic(6)
    orbits = diagonal_conjugation_orbits(g)
    assert len(orbits) == 36
    assert all(len(o) == 1 for o in orbits)


# ---------------------------------------------------------------------------
# descriptors, tokens, custom tables
# ---------------------------------------------------------------------------

def test_descriptor_round_trip_and_cache():
    for g in (symmetric(4), dihedral(6), cyclic(5),
              product(cyclic(3), dihedral(2))):
        back = from_descriptor(g.descriptor)
        assert back is g  # family constructors are cached
        assert back == g


def test_parse_group_tokens():
    assert parse_group("S3").order == 6
    assert parse_group("D4").order == 8
    assert parse_group("Z5").order == 5
    g = parse_group("Z2xZ2")
    assert g.order == 4
    assert g.descriptor["kind"] == "product"
    assert parse_group("Z2xZ2xZ3").order == 12
    for bad in ("Q8", "S", "3", "Z2x", "k4"):
        with pytest.raises(PreconditionError):
            parse_group(bad)


def test_custom_table_group():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = from_descriptor({"kind": "table", "table": klein})
    assert g.order == 4
    assert len(g.conjugacy_classes()) == 4
    assert g.elements[0] == "e"


def test_bad_tables_rejected():
    with pytest.raises(PreconditionError):
        Group("ragged", [[0, 1], [1]])
    with pytest.raises(PreconditionError):
        Group("not latin", [[0, 1], [1, 1]])
    with pytest.raises(PreconditionError):
        Group("no identity", [[1, 0], [0, 1]])
    # an order-5 loop with identity that fails associativity:
    # (1*1)*2 = 2 but 1*(1*2) = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(PreconditionError):
        Group("loop", loop)


def test_large_non_associative_table_rejected():
    # Z120 with the intercalate at rows 21, 81 and columns 13, 73 swapped:
    # still a latin square with identity 0, but no longer associative
    n = 120
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r in (21, 81):
        table[r][13], table[r][73] = table[r][73], table[r][13]
    with pytest.raises(PreconditionError):
        Group("swapped", table)


def test_custom_table_generating_set_is_greedy():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert from_descriptor({"kind": "table", "table": klein}).gens == (1, 2)
    assert symmetric(3).gens == tuple(gi for gi, _ in symmetric(3).generators)
    assert cyclic(1).gens == ()


def test_equal_loads_hash_equal():
    desc = {"kind": "table", "table": [list(r) for r in symmetric(3).table]}
    a, b = from_descriptor(desc), from_descriptor(desc)
    assert a is not b and a == b
    pairs = [
        (AlgebraElement.basis(a, 1), AlgebraElement.basis(b, 1)),
        (TensorElement(a, 2, {(0, 1): 1}), TensorElement(b, 2, {(0, 1): 1})),
        (Functional.delta(a, 1), Functional.delta(b, 1)),
        (trivial_rep(a), trivial_rep(b)),
        (K0Element(a, {"triv": 1}), K0Element(b, {"triv": 1})),
    ]
    for x, y in pairs:
        assert x == y
        assert len({x, y}) == 1


def test_groups_equal_by_descriptor_key():
    desc = {"kind": "table", "table": [list(r) for r in symmetric(3).table]}
    a, b = from_descriptor(desc), from_descriptor(desc)
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    z4 = [list(r) for r in cyclic(4).table]
    assert from_descriptor({"kind": "table", "table": klein}) != \
        from_descriptor({"kind": "table", "table": z4})
    assert symmetric(3) != cyclic(6) and symmetric(3) != dihedral(3)
    # the constructors are memoized, so equal inputs give the same object
    assert parse_group("S3xZ2") is product(symmetric(3), cyclic(2))
    assert from_descriptor(dihedral(4).descriptor) is dihedral(4)
    g = dihedral(5)
    twin = Group(g.name, g.table, generators=g.generators,
                 descriptor=g.descriptor)
    character_table(g)
    hits = character_table.cache_info().hits
    assert character_table(twin) is character_table(g)
    assert character_table.cache_info().hits == hits + 2


def test_family_descriptor_size_must_be_an_int():
    for n in (True, 2.0, "2", None):
        with pytest.raises(PreconditionError):
            from_descriptor({"kind": "cyclic", "n": n})
    assert from_descriptor({"kind": "cyclic", "n": 1}).key == \
        '{"kind": "cyclic", "n": 1}'
