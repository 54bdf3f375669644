"""Coefficient subspaces, characters, and the decomposition of the dual.

The structure constants of character convolution are compared against the
tensor multiplicities computed by the wholly independent character-pairing
route in the module layer."""

import itertools
import random
from fractions import Fraction

import pytest

from peterweyl.errors import DimensionError
from peterweyl.exact.linalg import Matrix, Subspace
from peterweyl.exact.scalars import scalar_to_str
from peterweyl.groups import cyclic, dihedral, parse_group, symmetric
from peterweyl.hopf import (
    AlgebraElement,
    Functional,
    act,
    class_indicator_subspace,
    convolve,
)
from peterweyl.reps import Rep, decompose, irreps
from peterweyl.pw import (
    PWComponent,
    beta,
    character_structure_constants,
    component,
    direct_sum_decomposition,
    product_component_check,
    z,
    z_multiplicative_check,
)

from _modules import (
    coboundary,
    direct_sum,
    extension_by_cocycle,
    zero_cocycle,
)

F = Fraction


def by_label(group):
    return {v.label: v for v in irreps(group)}


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_of_trivial_is_counit():
    g = symmetric(3)
    t = by_label(g)["triv"]
    assert beta(t, [1], [1]) == Functional.counit(g)


def test_beta_of_sign_is_sign_functional():
    g = symmetric(3)
    s = by_label(g)["sgn"]
    # elements: e, two transpositions, two 3-cycles, one transposition
    assert tuple(beta(s, [1], [1]).values) \
        == (F(1), F(-1), F(-1), F(1), F(1), F(-1))


def test_beta_reads_matrix_entries():
    g = symmetric(3)
    v = by_label(g)["std"]
    for i in range(2):
        for j in range(2):
            e_i = [1 if k == i else 0 for k in range(2)]
            f_j = [1 if k == j else 0 for k in range(2)]
            fun = beta(v, e_i, f_j)
            for a in range(6):
                assert fun(a) == v.matrix(a).rows[j][i]


def test_beta_dimension_mismatch():
    v = by_label(symmetric(3))["std"]
    with pytest.raises(DimensionError):
        beta(v, [1], [1, 0])


def _transpose(m: Matrix) -> Matrix:
    return Matrix([list(c) for c in zip(*m.rows)])


def test_beta_is_a_bimodule_homomorphism():
    g = symmetric(3)
    v = by_label(g)["std"]
    rng = random.Random(601)
    for _ in range(20):
        h = rng.randrange(6)
        vec = [F(rng.randint(-3, 3)) for _ in range(2)]
        fvec = [F(rng.randint(-3, 3)) for _ in range(2)]
        base = beta(v, vec, fvec)
        hh = AlgebraElement.basis(g, h)
        left = beta(v, v.matrix(h).apply(vec), fvec)
        assert left == act("left", hh, base)
        right = beta(v, vec, _transpose(v.matrix(h)).apply(fvec))
        assert right == act("right", hh, base)


def test_beta_bilinear():
    g = dihedral(4)
    v = by_label(g)["rho1"]
    rng = random.Random(602)
    for _ in range(10):
        a = [F(rng.randint(-3, 3)) for _ in range(2)]
        b = [F(rng.randint(-3, 3)) for _ in range(2)]
        f = [F(rng.randint(-3, 3)) for _ in range(2)]
        s = F(rng.randint(-3, 3))
        lhs = beta(v, [x + s * y for x, y in zip(a, b)], f)
        assert lhs == beta(v, a, f) + beta(v, b, f) * s


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_component_of_trivial():
    g = symmetric(3)
    c = component(by_label(g)["triv"])
    assert c.dim == 1
    assert c.subspace == Subspace(6, [[F(1)] * 6])


def test_component_of_standard_has_dim_four():
    assert component(by_label(symmetric(3))["std"]).dim == 4


def test_component_dims_are_squares_for_simples():
    for grp in (symmetric(3), dihedral(4), cyclic(5), parse_group("Z2xZ2")):
        for v in irreps(grp):
            assert component(v).dim == v.dim ** 2


def test_component_ignores_multiplicity():
    v = by_label(symmetric(3))["std"]
    assert component(direct_sum(v, v)) == component(v)


def test_component_of_extension_is_sum_of_components():
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    rho = coboundary(v, w, Matrix([[F(2)], [F(-1)]]))
    ext = extension_by_cocycle(v, w, rho)
    assert component(ext).subspace \
        == component(v).subspace.sum(component(w).subspace)


def coefficient_span(v):
    """The defining span: beta(v, e_i, f_j) over all pairs of unit vectors."""
    units = [[F(int(i == k)) for k in range(v.dim)] for i in range(v.dim)]
    return Subspace(v.group.order, [beta(v, e, f).values
                                    for e in units for f in units])


def test_component_is_the_span_of_all_matrix_coefficients():
    # component reads only the character; the d^2 functionals beta(e_i, f_j)
    # are the definition it must reproduce
    modules = []
    for grp in (symmetric(3), dihedral(4), symmetric(4), cyclic(5),
                parse_group("Z2xZ2xZ2")):
        modules.extend(irreps(grp))
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    rho = coboundary(v, w, Matrix([[F(2)], [F(-1)]]))
    modules += [v.tensor(v), v.tensor(w), direct_sum(v, v),
                extension_by_cocycle(v, w, rho)]
    d4 = by_label(dihedral(4))
    modules.append(d4["rho1"].tensor(d4["alt"]))
    # irreducible over Q with End = Q(zeta_3): no Burnside, block of dim 2
    rot = Rep.from_generators(cyclic(3),
                              {1: Matrix([[F(0), F(-1)], [F(1), F(-1)]])},
                              "rot")
    modules.append(rot)
    for m in modules:
        assert component(m).subspace == coefficient_span(m), m.label
    assert component(rot).dim == 2


def test_distinct_simples_have_independent_components():
    for grp in (symmetric(3), dihedral(4)):
        comps = [component(v) for v in irreps(grp)]
        for a, b in itertools.combinations(comps, 2):
            assert a.subspace != b.subspace
            assert a.subspace.intersect(b.subspace).dim == 0


def test_pairing_block_of_submodule_against_quotient_dual_vanishes():
    # inside an extension the submodule block pairs to zero against the
    # dual coordinates of the quotient block, cocycle or not
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    rho = coboundary(v, w, Matrix([[F(1)], [F(3)]]))
    ext = extension_by_cocycle(v, w, rho)
    for i in range(v.dim):
        vec = [F(1) if k == i else F(0) for k in range(3)]
        fvec = [F(0), F(0), F(1)]
        assert not beta(ext, vec, fvec)


def test_pw_component_requires_character_inside():
    g = symmetric(3)
    with pytest.raises(Exception):
        PWComponent("bogus", Subspace(6, [[1, 0, 0, 0, 0, 0]]),
                    Functional.counit(g))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_z_of_trivial_is_counit():
    g = symmetric(3)
    assert z(by_label(g)["triv"]) == Functional.counit(g)


def test_z_of_standard_frozen():
    # delta-basis vector ordered by element index; on classes this reads
    # 2 at the identity, 0 at transpositions, -1 at three-cycles
    vals = z(by_label(symmetric(3))["std"]).values
    assert tuple(vals) == (F(2), F(0), F(0), F(-1), F(-1), F(0))


def test_z_at_identity_is_dimension():
    for grp in (symmetric(3), dihedral(4), cyclic(5)):
        for v in irreps(grp):
            assert z(v)(0) == v.dim


def test_z_are_class_functions():
    for grp in (symmetric(3), dihedral(4), cyclic(5)):
        ind = class_indicator_subspace(grp)
        for v in irreps(grp):
            assert ind.contains(list(z(v).values))


def test_z_invariant_under_adjoint_action_on_dual():
    g = dihedral(4)
    for v in irreps(g):
        zi = z(v)
        for h in range(g.order):
            assert act("ad", AlgebraElement.basis(g, h), zi) == zi


def test_z_additive_over_extensions():
    reps = by_label(symmetric(3))
    v, w = reps["std"], reps["sgn"]
    for rho in (zero_cocycle(v, w),
                coboundary(v, w, Matrix([[F(1)], [F(2)]]))):
        ext = extension_by_cocycle(v, w, rho)
        assert z(ext) == z(v) + z(w)
    with pytest.raises(ValueError):
        extension_by_cocycle(v, w, tuple(Matrix([[F(1)], [F(1)]])
                                         for _ in range(6)))


def test_z_multiplicative_for_all_pairs():
    for grp in (symmetric(3), dihedral(4)):
        for v in irreps(grp):
            for w in irreps(grp):
                assert z_multiplicative_check(v, w)


def test_z_product_decomposes_like_tensor():
    reps = by_label(symmetric(3))
    zs = {k: z(v) for k, v in reps.items()}
    assert convolve(zs["std"], zs["std"]) \
        == zs["triv"] + zs["sgn"] + zs["std"]


def test_characters_of_simples_are_independent():
    for grp in (symmetric(3), dihedral(4), cyclic(5)):
        reps = irreps(grp)
        span = Subspace(grp.order, [list(z(v).values) for v in reps])
        assert span.dim == len(reps)


def test_convolution_structure_constants_match_tensor_multiplicities():
    for grp in (symmetric(3), dihedral(4)):
        consts = character_structure_constants(grp)
        for v in irreps(grp):
            for w in irreps(grp):
                want = decompose(v.tensor(w)).multiplicities
                got = consts[v.label, w.label]
                assert got == {k: F(m) for k, m in want.items()}


# ---------------------------------------------------------------------------
# products of components and the full decomposition
# ---------------------------------------------------------------------------

def test_product_component_check_all_s3_pairs():
    reps = irreps(symmetric(3))
    for v in reps:
        for w in reps:
            assert product_component_check(v, w)


def test_product_component_check_d4_spot_pairs():
    reps = by_label(dihedral(4))
    for a, b in (("triv", "rho1"), ("rho1", "rho1"), ("sgn", "alt"),
                 ("alt", "rho1")):
        assert product_component_check(reps[a], reps[b])


def test_direct_sum_decomposition():
    for grp in (symmetric(3), dihedral(4), cyclic(5), parse_group("Z2xZ2")):
        assert direct_sum_decomposition(grp)


def test_component_sum_closed_under_convolution():
    g = symmetric(3)
    comps = [component(v) for v in irreps(g)]
    total = Subspace(g.order, [])
    for c in comps:
        total = total.sum(c.subspace)
    rng = random.Random(603)
    for _ in range(15):
        a = [F(rng.randint(-3, 3)) for _ in range(6)]
        b = [F(rng.randint(-3, 3)) for _ in range(6)]
        prod = convolve(Functional(g, a), Functional(g, b))
        assert total.contains(list(prod.values))


# ---------------------------------------------------------------------------
# report: per-simple dimensions, characters and the product table
# ---------------------------------------------------------------------------

def test_component_report_s3():
    g = symmetric(3)
    reps = by_label(g)
    assert g.order == 6
    assert g.descriptor == {"kind": "symmetric", "n": 3}
    assert component(reps["triv"]).dim == 1
    assert component(reps["std"]).dim == 4
    assert [scalar_to_str(x) for x in component(reps["std"]).z.values] \
        == ["2/1", "0/1", "0/1", "-1/1", "-1/1", "0/1"]
    std, sgn = reps["std"], reps["sgn"]
    assert decompose(std.tensor(std)).multiplicities \
        == {"sgn": 1, "std": 1, "triv": 1}
    assert decompose(sgn.tensor(sgn)).multiplicities == {"triv": 1}
    assert direct_sum_decomposition(g) is True


def test_component_report_cyclotomic_group():
    reps = by_label(cyclic(5))
    assert scalar_to_str(component(reps["chi1"]).z.values[1]) \
        == "[0/1,1/1,0/1,0/1]@zeta(5)"
    assert decompose(reps["chi1"].tensor(reps["chi4"])).multiplicities \
        == {"chi0": 1}
