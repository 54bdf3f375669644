"""Module layer: irreducibles, characters, decomposition, cocycle extensions.

Dimension claims are checked against an independently coded hook length
formula, and decomposition against the regular and natural permutation
modules, whose multiplicities are classical."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from peterweyl import reps as reps_module
from peterweyl.errors import (
    InternalError,
    PreconditionError,
    RealizabilityError,
)
from peterweyl.exact.linalg import Matrix
from peterweyl.exact.scalars import Cyclotomic
from peterweyl.groups import (
    Group,
    cyclic,
    dihedral,
    from_descriptor,
    parse_group,
    product,
    symmetric,
)
from peterweyl.hopf import Functional
from peterweyl.pw import character_structure_constants
from peterweyl.reps import (
    K0Element,
    Rep,
    _tensor_constituents,
    character_table,
    decompose,
    decompose_character,
    irreps,
)

from _modules import (
    coboundary,
    cocycle_check,
    direct_sum,
    end_dim,
    extension_by_cocycle,
    hom_dim,
    reference_decompose_character,
    trivial_rep,
    zero_cocycle,
)

F = Fraction


def by_label(group):
    return {v.label: v for v in irreps(group)}


def regular_rep(group):
    n = group.order
    mats = []
    for a in range(n):
        rows = [[F(0)] * n for _ in range(n)]
        for h in range(n):
            rows[group.mul(a, h)][h] = F(1)
        mats.append(Matrix(rows))
    return Rep(group, mats, "reg")


# independent dimension oracle for symmetric groups

def all_partitions(n):
    out = []

    def rec(rem, cap, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rem, cap), 0, -1):
            rec(rem - p, p, acc + [p])

    rec(n, n, [])
    return out


def hook_length_dim(shape):
    n = sum(shape)
    conj = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    prod = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            prod *= (row_len - c) + (conj[c] - r) - 1
    assert factorial(n) % prod == 0
    return factorial(n) // prod


# ---------------------------------------------------------------------------
# construction and the representation law
# ---------------------------------------------------------------------------

def test_s3_irreps_dims_and_labels():
    reps = by_label(symmetric(3))
    assert set(reps) == {"triv", "sgn", "std"}
    assert reps["triv"].dim == 1
    assert reps["sgn"].dim == 1
    assert reps["std"].dim == 2


def test_d4_irreps_dims_and_labels():
    reps = by_label(dihedral(4))
    assert set(reps) == {"triv", "sgn", "alt", "altsgn", "rho1"}
    assert sorted(v.dim for v in reps.values()) == [1, 1, 1, 1, 2]


def test_symmetric_dims_match_hook_lengths():
    for n in (1, 2, 3, 4, 5):
        got = sorted(v.dim for v in irreps(symmetric(n)))
        want = sorted(hook_length_dim(s) for s in all_partitions(n))
        assert got == want


def test_sum_of_squared_dims_is_group_order():
    for grp in (symmetric(3), symmetric(4), dihedral(4), dihedral(5),
                dihedral(6), cyclic(5), parse_group("Z2xZ2"),
                parse_group("S3xZ2")):
        assert sum(v.dim ** 2 for v in irreps(grp)) == grp.order


def test_rep_law_exhaustive():
    for grp in (symmetric(3), dihedral(4)):
        for v in irreps(grp):
            for g in range(grp.order):
                for h in range(grp.order):
                    assert v.matrix(g) * v.matrix(h) == v.matrix(grp.mul(g, h))


def test_identity_acts_as_identity():
    for v in irreps(dihedral(5)):
        assert v.matrix(0) == Matrix.identity(v.dim)


def test_bad_generator_matrices_rejected():
    g = symmetric(3)
    gi1 = g.generators[0][0]
    gi2 = g.generators[1][0]
    bad = {gi1: Matrix([[F(2)]]), gi2: Matrix([[F(2)]])}
    with pytest.raises(PreconditionError):
        Rep.from_generators(g, bad, "bad")
    with pytest.raises(PreconditionError):
        Rep.from_generators(g, {gi1: Matrix([[F(1)]])}, "missing")


def test_trivial_rep():
    g = dihedral(4)
    t = trivial_rep(g)
    assert t.dim == 1 and all(t.matrix(i) == Matrix.identity(1)
                              for i in range(g.order))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_of_standard_rep_frozen():
    # elements in lexicographic permutation order:
    # e, (12)_pos, (01)_pos, 3-cycle, 3-cycle, (02)_pos
    chi = by_label(symmetric(3))["std"].character()
    assert tuple(chi.values) == (F(2), F(0), F(0), F(-1), F(-1), F(0))


def test_characters_are_class_functions():
    for grp in (symmetric(4), dihedral(5)):
        for v in irreps(grp):
            chi = v.character()
            for g in range(grp.order):
                for h in range(grp.order):
                    assert chi(grp.conjugate(g, h)) == chi(h)


def test_character_orthogonality():
    for grp in (symmetric(3), symmetric(4), dihedral(4), dihedral(5),
                cyclic(5), parse_group("Z2xZ2")):
        reps = irreps(grp)
        for v in reps:
            for w in reps:
                acc = None
                for g in range(grp.order):
                    t = v.character()(g) * w.character()(grp.inverse(g))
                    acc = t if acc is None else acc + t
                want = grp.order if v.label == w.label else 0
                assert acc == want


def test_tensor_character_is_pointwise_product():
    reps = by_label(symmetric(3))
    t = reps["std"].tensor(reps["std"])
    assert tuple(t.character().values) == (F(4), F(0), F(0), F(1), F(1), F(0))
    for g in range(6):
        assert t.character()(g) == reps["std"].character()(g) ** 2


# ---------------------------------------------------------------------------
# decomposition and the Grothendieck ring
# ---------------------------------------------------------------------------

def test_std_tensor_std_decomposes():
    g = symmetric(3)
    reps = by_label(g)
    got = decompose(reps["std"].tensor(reps["std"]))
    assert got == K0Element(g, {"triv": 1, "sgn": 1, "std": 1})


def test_regular_module_multiplicities_are_dimensions():
    for grp in (symmetric(3), dihedral(4)):
        got = decompose(regular_rep(grp))
        want = K0Element(grp, {v.label: v.dim for v in irreps(grp)})
        assert got == want


def test_natural_permutation_module_of_s3():
    # rebuild the action on three points from scratch and decompose it:
    # the three-point module is trivial plus standard
    g = symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    mats = []
    for p in perms:
        rows = [[F(0)] * 3 for _ in range(3)]
        for j in range(3):
            rows[p[j]][j] = F(1)
        mats.append(Matrix(rows))
    natural = Rep(g, mats, "points")
    assert tuple(natural.character().values) \
        == (F(3), F(1), F(1), F(0), F(0), F(1))
    assert decompose(natural) == K0Element(g, {"triv": 1, "std": 1})


def test_schur_orthogonality_of_homs():
    # Z1 and S1 have an empty generating set: every map intertwines
    for grp in (symmetric(3), cyclic(1), symmetric(1)):
        reps = irreps(grp)
        for v in reps:
            for w in reps:
                assert hom_dim(v, w) == (1 if v.label == w.label else 0)
    triv = irreps(cyclic(1))[0]
    assert hom_dim(direct_sum(triv, triv), triv) == 2


def test_end_dim_of_double_standard():
    std = by_label(symmetric(3))["std"]
    assert end_dim(std) == 1
    assert end_dim(direct_sum(std, std)) == 4
    assert hom_dim(std, direct_sum(std, std)) == 2


def test_all_irreps_are_split_simple():
    for grp in (symmetric(3), dihedral(4), cyclic(5), parse_group("Z2xZ2")):
        for v in irreps(grp):
            assert end_dim(v) == 1


def test_pairwise_non_isomorphic():
    for grp in (symmetric(3), dihedral(4)):
        reps = irreps(grp)
        for v, w in itertools.combinations(reps, 2):
            assert v.character() != w.character()


def test_k0_ring_structure_constants():
    for grp in (symmetric(3), dihedral(4)):
        reps = irreps(grp)
        labels = [v.label for v in reps]
        n = {}
        for v in reps:
            for w in reps:
                n[v.label, w.label] = decompose(v.tensor(w)).multiplicities
        # symmetry and nonnegative integrality
        for a in labels:
            for b in labels:
                assert n[a, b] == n[b, a]
                assert all(isinstance(m, int) and m >= 0
                           for m in n[a, b].values())
        # associativity of the induced product on classes
        for a, b, c in itertools.product(labels, repeat=3):
            for m in labels:
                left = sum(n[a, b].get(k, 0) * n[k, c].get(m, 0)
                           for k in labels)
                right = sum(n[b, c].get(k, 0) * n[a, k].get(m, 0)
                            for k in labels)
                assert left == right


def test_k0_element_api():
    g = symmetric(3)
    x = K0Element(g, {"triv": 1, "std": 0})
    y = K0Element(g, {"std": 2})
    assert x["triv"] == 1 and x["std"] == 0
    assert x + y == K0Element(g, {"triv": 1, "std": 2})
    assert repr(x + y) == "std + std + triv" or repr(x + y) == "2*std + triv"


def test_k0_element_rejects_a_non_integral_multiplicity():
    g = symmetric(3)
    with pytest.raises(PreconditionError):
        K0Element(g, {"std": Fraction(1, 2), "sgn": Fraction(5, 2)})
    # integral Fractions become ints, negative integers stay legal, and
    # halves that sum to an integer are accepted
    x = K0Element(g, {"std": Fraction(4, 2), "sgn": -3})
    assert x.terms == {"std": 2, "sgn": -3}
    assert all(type(m) is int for m in x.terms.values())
    assert K0Element(g, [("std", Fraction(1, 2)), ("std", Fraction(1, 2))]) \
        == K0Element(g, {"std": 1})


# ---------------------------------------------------------------------------
# field choices
# ---------------------------------------------------------------------------

def test_cyclic_character_values():
    g = cyclic(5)
    reps = irreps(g)
    assert [v.label for v in reps] == ["chi0", "chi1", "chi2", "chi3", "chi4"]
    for k in range(5):
        for j in range(5):
            want = Cyclotomic.zeta(5, (k * j) % 5)
            assert reps[k].character()(j) == want


def test_cyclic_rational_demotions():
    reps = irreps(cyclic(4))
    assert reps[0].character()(1) == F(1)
    assert reps[2].character()(1) == F(-1)
    assert reps[1].character()(1) == Cyclotomic.zeta(4, 1)


def test_dihedral_two_dimensional_forms():
    d4 = by_label(dihedral(4))["rho1"]
    r = dihedral(4).generators[0][0]
    s = dihedral(4).generators[1][0]
    assert d4.matrix(r) == Matrix([[F(0), F(-1)], [F(1), F(0)]])
    assert d4.matrix(s) == Matrix([[F(1), F(0)], [F(0), F(-1)]])
    # D5 needs the fifth cyclotomic field; the rotation trace is the
    # golden-ratio root zeta + zeta^4
    d5 = by_label(dihedral(5))["rho1"]
    r5 = dihedral(5).generators[0][0]
    assert d5.matrix(r5).trace() \
        == Cyclotomic.zeta(5, 1) + Cyclotomic.zeta(5, 4)
    # D6 splits rationally
    for v in irreps(dihedral(6)):
        for m in v.matrices:
            assert all(isinstance(x, Fraction) for row in m.rows for x in row)


def test_klein_four_product_irreps():
    g = parse_group("Z2xZ2")
    reps = irreps(g)
    assert [v.label for v in reps] \
        == ["chi0*chi0", "chi0*chi1", "chi1*chi0", "chi1*chi1"]
    for v in reps:
        assert v.dim == 1
        assert all(m.rows[0][0] in (F(1), F(-1)) for m in v.matrices)


def test_character_table_is_the_characters_of_the_irreps():
    tokens = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S2", "S3", "S4",
              "D3", "D4", "D5", "D6", "Z2xZ2xZ2")
    for token in tokens:
        grp = parse_group(token)
        table = character_table(grp)
        assert list(table) == [(v.label, v.character()) for v in irreps(grp)]
        assert len(table) == len(grp.conjugacy_classes())


def test_character_table_of_a_custom_table_is_unavailable():
    grp = symmetric(3)
    copy = from_descriptor({"kind": "table",
                            "table": [list(row) for row in grp.table]})
    with pytest.raises(PreconditionError):
        irreps(copy)
    with pytest.raises(PreconditionError):
        character_table(copy)


def test_equal_groups_share_one_cache_entry():
    grp = dihedral(4)
    twin = Group(grp.name, grp.table, generators=grp.generators,
                 descriptor=grp.descriptor)
    assert twin is not grp
    assert irreps(twin) is irreps(grp)
    assert character_table(twin) is character_table(grp)


def test_tensor_constituents_match_the_structure_constants():
    # pairing with the characters and solving on the character basis must
    # name the same constituents of V (x) W with the same multiplicities;
    # S5 is there for its constituents of multiplicity 2
    for token in ("S3", "D4", "Z4", "S4", "S5"):
        grp = parse_group(token)
        labels = [label for label, _ in character_table(grp)]
        consts = character_structure_constants(grp)
        table = _tensor_constituents(grp)
        assert list(table) == [(i, j) for i in range(len(labels))
                               for j in range(i, len(labels))]
        for (i, j), parts in table.items():
            assert [k for k, _ in parts] == sorted(k for k, _ in parts)
            assert all(type(m) is int and m > 0 for _, m in parts)
            for a, b in ((i, j), (j, i)):
                assert {labels[k]: m for k, m in parts} \
                    == consts[labels[a], labels[b]]


def test_tensor_constituents_must_rebuild_the_product(monkeypatch):
    grp = parse_group("S3")
    real = reps_module.decompose_character

    def dropping(group, chi):
        terms = dict(real(group, chi).multiplicities)
        del terms[min(terms)]
        return K0Element(group, terms)

    _tensor_constituents.cache_clear()
    monkeypatch.setattr(reps_module, "decompose_character", dropping)
    with pytest.raises(InternalError):
        _tensor_constituents(grp)


@pytest.mark.parametrize("token", ["S3", "D4", "D5", "Z4", "Z3xS3", "S4",
                                   "S5"])
def test_decompose_character_pairs_by_class(token):
    # one product per class gives the multiplicities of the pairing over
    # every element: for each product of two irreducible characters, and
    # in a nonabelian group, for a functional that is no class function
    # but has the same sum over each class
    grp = parse_group(token)
    chars = [chi for _, chi in character_table(grp)]
    functionals = [chars[i] * chars[j] for i in range(len(chars))
                   for j in range(i, len(chars))]
    for cls in grp.conjugacy_classes():
        if len(cls) > 1:
            shifted = list(functionals[-1].values)
            shifted[cls[0]] += 1
            shifted[cls[1]] -= 1
            functionals.append(Functional(grp, shifted))
            break
    for chi in functionals:
        assert decompose_character(grp, chi) \
            == reference_decompose_character(grp, chi)


def test_realizability_errors():
    with pytest.raises(RealizabilityError) as e:
        irreps(product(cyclic(3), cyclic(5)))
    assert "15" in str(e.value)


def test_not_split_detected():
    # the rational rotation of order three: irreducible over Q but its
    # endomorphism algebra is the quadratic field Q(zeta_3)
    g = cyclic(3)
    m = Matrix([[F(0), F(-1)], [F(1), F(-1)]])
    v = Rep.from_generators(g, {1: m}, "rot")
    assert end_dim(v) == 2


# ---------------------------------------------------------------------------
# extensions by cocycles
# ---------------------------------------------------------------------------

def test_zero_cocycle_gives_direct_sum():
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    ext = extension_by_cocycle(v, w, zero_cocycle(v, w))
    assert ext.matrices == direct_sum(v, w).matrices


def test_coboundary_is_cocycle_and_splits():
    rng = random.Random(502)
    reps = by_label(symmetric(3))
    for va, wa in (("std", "triv"), ("triv", "std"), ("std", "sgn"),
                   ("std", "std")):
        v, w = reps[va], reps[wa]
        phi = Matrix([[F(rng.randint(-3, 3)) for _ in range(w.dim)]
                      for _ in range(v.dim)])
        rho = coboundary(v, w, phi)
        assert cocycle_check(v, w, rho)
        ext = extension_by_cocycle(v, w, rho)
        assert ext.character() == direct_sum(v, w).character()
        assert decompose(ext) == decompose(v) + decompose(w)


def test_cocycles_form_a_linear_space():
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["std"]
    r1 = coboundary(v, w, Matrix([[F(1), F(2)], [F(0), F(1)]]))
    r2 = coboundary(v, w, Matrix([[F(0), F(1)], [F(1), F(3)]]))
    both = tuple(a + b for a, b in zip(r1, r2))
    assert cocycle_check(v, w, both)


def test_non_cocycle_rejected():
    reps = by_label(symmetric(3))
    t = reps["triv"]
    ones = tuple(Matrix([[F(1)]]) for _ in range(6))
    assert not cocycle_check(t, t, ones)
    with pytest.raises(ValueError):
        extension_by_cocycle(t, t, ones)
    # Z1 has no generators, so rho(e) = 0 is the whole check there
    z1 = trivial_rep(cyclic(1))
    assert cocycle_check(z1, z1, (Matrix([[F(0)]]),))
    assert not cocycle_check(z1, z1, (Matrix([[F(1)]]),))


def test_cocycle_check_agrees_with_all_pairs():
    # the all-pairs identity is the reference for the generator-based check
    grp = symmetric(3)
    reps = by_label(grp)
    v, w = reps["std"], reps["sgn"]
    rng = random.Random(41)

    def all_pairs(rho):
        return all(rho[grp.mul(g, h)]
                   == rho[g] * w.matrices[h] + v.matrices[g] * rho[h]
                   for g in range(6) for h in range(6))

    good = coboundary(v, w, Matrix([[F(1)], [F(2)]]))
    cases = [good]
    for _ in range(10):
        bad = list(good)
        g = rng.randrange(6)
        bad[g] = bad[g] + Matrix([[F(rng.randint(-3, 3))], [F(1)]])
        cases.append(tuple(bad))
    for rho in cases:
        assert cocycle_check(v, w, rho) == all_pairs(rho)


def test_submodule_block_structure():
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    rho = coboundary(v, w, Matrix([[F(1)], [F(2)]]))
    ext = extension_by_cocycle(v, w, rho)
    for g in range(6):
        m = ext.matrix(g)
        # V sits inside as the first block of coordinates
        assert m.rows[2][0] == 0 and m.rows[2][1] == 0
        assert Matrix([r[:2] for r in m.rows[:2]]) == v.matrix(g)
        assert m.rows[2][2] == w.matrix(g).rows[0][0]

