"""Group algebra tests: Hopf axioms, actions, orbit sums, invariants, JSON."""

import itertools
import random
from fractions import Fraction

import pytest

from peterweyl.errors import DimensionError, PreconditionError
from peterweyl.exact.scalars import Cyclotomic
from peterweyl.groups import cyclic, dihedral, product, symmetric
from peterweyl.hopf import (
    ACTIONS,
    AlgebraElement,
    Functional,
    TensorElement,
    act,
    action_invariant_subspace,
    apply_antipode,
    apply_counit,
    apply_delta,
    center_subspace,
    class_indicator_subspace,
    conjugation_invariant_subspace,
    contract,
    convolve,
    embed,
    multiply_adjacent,
    orbit_sum,
    pair,
    permute_slots,
    tensor,
    tensor_from_json,
    tensor_to_json,
    to_algebra,
)

from _gen import rand_frac


def F(a, b=1):
    return Fraction(a, b)


S3 = symmetric(3)
D4 = dihedral(4)
V4 = product(cyclic(2), cyclic(2))

# permutation indices in S3 (elements are sorted tuples)
PERMS = sorted(itertools.permutations(range(3)))
S1 = PERMS.index((1, 0, 2))  # swap of the first two points
S2 = PERMS.index((0, 2, 1))  # swap of the last two points
CYCLE = PERMS.index((1, 2, 0))  # the 3-cycle sending 0->1->2->0


def rand_algebra(rng, group, nterms=3, height=6):
    terms = {}
    for _ in range(nterms):
        terms[rng.randrange(group.order)] = rand_frac(rng, height)
    return AlgebraElement(group, terms)


def rand_tensor(rng, group, arity=2, nterms=3, height=6):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randrange(group.order) for _ in range(arity))
        terms[key] = rand_frac(rng, height)
    return TensorElement(group, arity, terms)


def rand_functional(rng, group, height=6):
    return Functional(group, [rand_frac(rng, height)
                              for _ in range(group.order)])


# ---------------------------------------------------------------------------
# algebra structure
# ---------------------------------------------------------------------------

def test_basis_multiplication_matches_table():
    for i in range(S3.order):
        for j in range(S3.order):
            prod = AlgebraElement.basis(S3, i) * AlgebraElement.basis(S3, j)
            assert prod == AlgebraElement.basis(S3, S3.mul(i, j))


def test_group_inverse_gives_identity():
    for g in (S3, D4, V4):
        for i in range(g.order):
            x = AlgebraElement.basis(g, i)
            assert x * x.antipode() == AlgebraElement.one(g)


def test_transposition_idempotent_splitting():
    # (1 + s1)(1 - s1) = 0 because s1 squares to the identity
    one = AlgebraElement.one(S3)
    s1 = AlgebraElement.basis(S3, S1)
    assert (one + s1) * (one - s1) == AlgebraElement.zero(S3)
    # while (1 + s1)/2 is idempotent
    e = (one + s1) * F(1, 2)
    assert e * e == e


def test_algebra_axioms_random_sweep():
    rng = random.Random(401)
    one = AlgebraElement.one(S3)
    for _ in range(150):
        x, y, z = (rand_algebra(rng, S3) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert one * x == x == x * one
        assert x + y == y + x
        s = rand_frac(rng, 5)
        assert (x * s) * y == (x * y) * s


def test_algebra_with_cyclotomic_coefficients():
    i = Cyclotomic.zeta(4)
    x = AlgebraElement(S3, {0: i, S1: 1})
    y = x * x
    # (i + s1)^2 = i^2 + 2 i s1 + 1 = (i^2 + 1) + 2 i s1 = 2 i s1
    assert y == AlgebraElement(S3, {S1: 2 * i})


def test_mismatched_groups_rejected():
    with pytest.raises(PreconditionError):
        AlgebraElement.one(S3) + AlgebraElement.one(D4)
    with pytest.raises(PreconditionError):
        AlgebraElement.one(S3) * AlgebraElement.one(D4)


# ---------------------------------------------------------------------------
# Hopf axioms, exhaustively on the group basis
# ---------------------------------------------------------------------------

HOPF_TEST_GROUPS = (S3, D4, V4, cyclic(6))


def test_coassociativity():
    for g in HOPF_TEST_GROUPS:
        for i in range(g.order):
            d = AlgebraElement.basis(g, i).delta()
            assert apply_delta(d, 0) == apply_delta(d, 1)


def test_counit_law():
    for g in HOPF_TEST_GROUPS:
        for i in range(g.order):
            x = AlgebraElement.basis(g, i)
            d = x.delta()
            for slot in (0, 1):
                assert to_algebra(apply_counit(d, slot)) == x


def test_antipode_law():
    for g in HOPF_TEST_GROUPS:
        one = TensorElement.unit(g, 1)
        for i in range(g.order):
            d = AlgebraElement.basis(g, i).delta()
            for slot in (0, 1):
                assert multiply_adjacent(apply_antipode(d, slot), 0) == one


def test_antipode_squares_to_identity():
    rng = random.Random(402)
    for g in HOPF_TEST_GROUPS:
        for _ in range(20):
            x = rand_algebra(rng, g)
            assert x.antipode().antipode() == x
    # a specific value: the 3-cycle maps to its inverse
    assert (AlgebraElement.basis(S3, CYCLE).antipode()
            == AlgebraElement.basis(S3, S3.inverse(CYCLE)))
    assert S3.mul(CYCLE, S3.inverse(CYCLE)) == 0


def test_antipode_is_an_antihomomorphism():
    rng = random.Random(403)
    for _ in range(60):
        x, y = rand_algebra(rng, D4), rand_algebra(rng, D4)
        assert (x * y).antipode() == y.antipode() * x.antipode()


def test_counit_values():
    g = D4
    total = AlgebraElement(g, {i: 1 for i in range(g.order)})
    assert total.counit() == g.order
    assert AlgebraElement.one(g).counit() == 1
    assert AlgebraElement.one(g).delta() == TensorElement.unit(g, 2)


def test_counit_is_an_algebra_map():
    rng = random.Random(404)
    for _ in range(60):
        x, y = rand_algebra(rng, S3), rand_algebra(rng, S3)
        assert (x * y).counit() == x.counit() * y.counit()


def test_delta_is_an_algebra_map():
    rng = random.Random(405)
    for _ in range(40):
        x, y = rand_algebra(rng, S3), rand_algebra(rng, S3)
        assert (x * y).delta() == x.delta() * y.delta()


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def test_tensor_componentwise_multiplication():
    rng = random.Random(406)
    def e(g):
        return AlgebraElement.basis(S3, g)

    for i, j, k, l in [(rng.randrange(6) for _ in range(4)) for _ in range(20)]:
        lhs = tensor(e(i), e(j)) * tensor(e(k), e(l))
        rhs = tensor(e(S3.mul(i, k)), e(S3.mul(j, l)))
        assert lhs == rhs


def test_tensor_of_sums_expands():
    a = AlgebraElement(S3, {0: 1, S1: 2})
    b = AlgebraElement(S3, {S2: F(1, 3)})
    t = tensor(a, b)
    assert t == TensorElement(S3, 2, {(0, S2): F(1, 3), (S1, S2): F(2, 3)})


def test_permute_slots_swaps_factors():
    a = AlgebraElement(S3, {S1: 1, CYCLE: 2})
    b = AlgebraElement(S3, {0: 1, S2: F(1, 2)})
    assert permute_slots(tensor(a, b), (1, 0)) == tensor(b, a)
    with pytest.raises(DimensionError):
        permute_slots(tensor(a, b), (0, 0))


def test_embed_places_identity_elsewhere():
    p = tensor(AlgebraElement.basis(S3, S1), AlgebraElement.basis(S3, S2))
    e = embed(p, 5, (0, 4))
    assert e == TensorElement(S3, 5, {(S1, 0, 0, 0, S2): 1})
    f = embed(p, 5, (2, 4))
    assert f == TensorElement(S3, 5, {(0, 0, S1, 0, S2): 1})


def test_multiply_adjacent_contracts_slots():
    t = TensorElement(S3, 3, {(S1, S2, CYCLE): F(2)})
    m = multiply_adjacent(t, 0)
    assert m == TensorElement(S3, 2, {(S3.mul(S1, S2), CYCLE): F(2)})
    m = multiply_adjacent(t, 1)
    assert m == TensorElement(S3, 2, {(S1, S3.mul(S2, CYCLE)): F(2)})


def test_contract_pairs_one_slot():
    xi = Functional.delta(S3, S1)
    t = tensor(AlgebraElement(S3, {S1: F(3)}), AlgebraElement.basis(S3, S2))
    out = contract(t, xi, 0)
    assert to_algebra(out) == AlgebraElement(S3, {S2: F(3)})
    assert contract(tensor(AlgebraElement.basis(S3, S1)), xi, 0) == 1


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_ad_is_conjugation():
    s1 = AlgebraElement.basis(S3, S1)
    s2 = AlgebraElement.basis(S3, S2)
    expect = S3.mul(S3.mul(S1, S2), S3.inverse(S1))
    assert act("ad", s1, s2) == AlgebraElement.basis(S3, expect)
    assert act("ad", s1, AlgebraElement.one(S3)) == AlgebraElement.one(S3)


def test_action_composition_laws():
    rng = random.Random(407)
    grp = D4
    for action in ACTIONS:
        for target_maker in (rand_algebra,
                             lambda r, g: rand_tensor(r, g, 2),
                             rand_functional):
            for _ in range(10):
                g1 = AlgebraElement.basis(grp, rng.randrange(grp.order))
                g2 = AlgebraElement.basis(grp, rng.randrange(grp.order))
                b = target_maker(rng, grp)
                through_product = act(action, g1 * g2, b)
                if action in ("ad", "diamond", "left"):
                    nested = act(action, g1, act(action, g2, b))
                else:
                    nested = act(action, g2, act(action, g1, b))
                assert through_product == nested, action
                assert act(action, AlgebraElement.basis(grp, 0), b) == b


def test_action_linearity_in_h():
    rng = random.Random(408)
    for action in ACTIONS:
        for _ in range(10):
            h1, h2 = rand_algebra(rng, S3), rand_algebra(rng, S3)
            b = rand_algebra(rng, S3)
            assert (act(action, h1 + h2, b)
                    == act(action, h1, b) + act(action, h2, b))


def test_diamond_agrees_with_ad_when_antipode_is_involutive():
    rng = random.Random(409)
    for g in (S3, D4):
        for _ in range(15):
            h = rand_algebra(rng, g)
            b = rand_algebra(rng, g)
            assert act("diamond", h, b) == act("ad", h, b)
            xi = rand_functional(rng, g)
            assert act("diamond", h, xi) == act("ad", h, xi)


def test_diamond_on_functionals_is_coconjugation():
    for g in range(S3.order):
        for h in range(S3.order):
            xi = Functional.delta(S3, h)
            out = act("diamond", AlgebraElement.basis(S3, g), xi)
            # (g . xi)(b) = xi(g^{-1} b g) = 1 iff b = g h g^{-1}
            assert out == Functional.delta(S3, S3.conjugate(g, h))


def test_diamond_fixes_invariant_functionals_through_counit():
    # on an invariant functional the diamond action factors through the counit
    rng = random.Random(410)
    for grp in (S3, D4):
        classes = grp.conjugacy_classes()
        values = [None] * grp.order
        for cls in classes:
            c = rand_frac(rng, 5)
            for i in cls:
                values[i] = c
        xi = Functional(grp, values)
        for _ in range(10):
            h = rand_algebra(rng, grp)
            assert act("diamond", h, xi) == xi * h.counit()


def test_left_right_action_on_functionals():
    for g in range(S3.order):
        eg = AlgebraElement.basis(S3, g)
        for h in range(S3.order):
            # (g . delta_h)(b) = delta_h(b g), supported at b = h g^{-1}
            out = act("left", eg, Functional.delta(S3, h))
            assert out == Functional.delta(S3, S3.mul(h, S3.inverse(g)))
            # (g . delta_h)(b) = delta_h(g b), supported at b = g^{-1} h
            out = act("right", eg, Functional.delta(S3, h))
            assert out == Functional.delta(S3, S3.mul(S3.inverse(g), h))


def test_unknown_action_rejected():
    with pytest.raises(PreconditionError):
        act("coadjoint", AlgebraElement.one(S3), AlgebraElement.one(S3))


# ---------------------------------------------------------------------------
# orbit sums
# ---------------------------------------------------------------------------

def test_orbit_sum_of_unit():
    for g in (S3, D4, V4):
        assert (orbit_sum(TensorElement.unit(g, 2))
                == TensorElement.unit(g, 2) * g.order)


def test_orbit_sum_of_transposition_tensor_one():
    # the conjugation orbit of s1 is all three transpositions, each reached
    # from two of the six group elements
    x = tensor(AlgebraElement.basis(S3, S1), AlgebraElement.basis(S3, 0))
    got = orbit_sum(x)
    # the elements of order 2: not the identity, squaring to it
    transpositions = [i for i in range(1, 6) if S3.table[i][i] == 0]
    assert len(transpositions) == 3
    expect = TensorElement(S3, 2, {(t, 0): 2 for t in transpositions})
    assert got == expect


def test_orbit_sum_commutes_with_delta():
    rng = random.Random(411)
    for _ in range(20):
        x = rand_tensor(rng, D4, 2, nterms=4)
        y = orbit_sum(x)
        for g in range(D4.order):
            dg = AlgebraElement.basis(D4, g).delta()
            assert dg * y == y * dg
        for g in range(D4.order):
            assert act("ad", AlgebraElement.basis(D4, g), y) == y


# ---------------------------------------------------------------------------
# convolution and pairing
# ---------------------------------------------------------------------------

def test_convolution_unit_and_pointwise_rule():
    rng = random.Random(412)
    eps = Functional.counit(S3)
    for _ in range(20):
        xi = rand_functional(rng, S3)
        assert convolve(eps, xi) == xi
        assert convolve(xi, eps) == xi
    for g in range(S3.order):
        for h in range(S3.order):
            out = convolve(Functional.delta(S3, g), Functional.delta(S3, h))
            if g == h:
                assert out == Functional.delta(S3, g)
            else:
                assert not out


def test_convolution_associative_commutative_for_group_algebras():
    rng = random.Random(413)
    for _ in range(30):
        a, b, c = (rand_functional(rng, D4) for _ in range(3))
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, b) == convolve(b, a)


def test_pair_reads_off_coefficients():
    x = AlgebraElement(S3, {S1: F(5, 7), CYCLE: F(-2)})
    assert pair(Functional.delta(S3, S1), x) == F(5, 7)
    assert pair(Functional.delta(S3, CYCLE), x) == F(-2)
    assert pair(Functional.delta(S3, 0), x) == 0
    assert pair(Functional.counit(S3), x) == x.counit()


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------

INV_TEST_GROUPS = (S3, D4, V4, cyclic(5), cyclic(1), symmetric(1))


def test_center_equals_all_invariant_routes():
    for g in INV_TEST_GROUPS:
        z = center_subspace(g)
        assert z == conjugation_invariant_subspace(g)
        assert z == action_invariant_subspace(g, "ad")
        assert z == action_invariant_subspace(g, "diamond")
        assert z == action_invariant_subspace(g, "ad_star")
        assert z == class_indicator_subspace(g)
        assert z.dim == len(g.conjugacy_classes())


def test_class_sums_are_central():
    for g in INV_TEST_GROUPS:
        for cls in g.conjugacy_classes():
            x = AlgebraElement(g, {i: 1 for i in cls})
            for j in range(g.order):
                y = AlgebraElement.basis(g, j)
                assert x * y == y * x


def test_dual_invariants_are_class_functionals():
    for g in INV_TEST_GROUPS:
        inv = action_invariant_subspace(g, "diamond", target="dual")
        assert inv == class_indicator_subspace(g)
        assert inv.dim == len(g.conjugacy_classes())


def test_invariant_functionals_closed_under_convolution():
    rng = random.Random(414)
    for grp in (S3, D4):
        inv = action_invariant_subspace(grp, "diamond", target="dual")
        basis = [Functional(grp, v) for v in inv.basis]
        for _ in range(20):
            a = Functional.zero(grp)
            b = Functional.zero(grp)
            for f in basis:
                a = a + f * rand_frac(rng, 5)
                b = b + f * rand_frac(rng, 5)
            assert inv.contains(list(convolve(a, b).values))


def test_trivial_group_invariants():
    g = cyclic(1)
    assert center_subspace(g).dim == 1
    assert class_indicator_subspace(g).dim == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tensor_json_frozen_form():
    x = tensor(AlgebraElement.basis(S3, S1), AlgebraElement.basis(S3, 0))
    obj = tensor_to_json(x)
    assert obj == {"group": {"kind": "symmetric", "n": 3},
                   "arity": 2,
                   "terms": [[S1, 0, "1/1"]]}
    assert tensor_from_json(obj) == x


def test_tensor_json_round_trip_sweep():
    rng = random.Random(415)
    for grp in (S3, V4):
        for arity in (1, 2, 3):
            for _ in range(20):
                x = rand_tensor(rng, grp, arity, nterms=4)
                assert tensor_from_json(tensor_to_json(x)) == x


def test_tensor_json_cyclotomic_coefficients():
    z = Cyclotomic.zeta(8)
    x = TensorElement(V4, 2, {(1, 2): z, (0, 0): z ** 2 - 1})
    back = tensor_from_json(tensor_to_json(x))
    assert back == x
