"""Tests for the coordinate basis, the constraint system, and the search.

The orbit-sum basis is cross-counted against a plain linear-algebra kernel
inside the library itself; tests here add a third route (hand counts),
check that known constructions satisfy the assembled equations, and pin
the search outcomes with fixed seeds.
"""

import math
import random
from fractions import Fraction as F

import pytest

from _modules import reference_constraints
from peterweyl import search as search_module
from peterweyl.errors import (
    InternalError,
    PreconditionError,
    StrategyError,
)
from peterweyl.exact.polysys import Poly
from peterweyl.groups import (
    cyclic,
    dihedral,
    parse_group,
    symmetric,
)
from peterweyl.hopf import AlgebraElement, TensorElement
from peterweyl.search import (
    ABasis,
    SearchOutcome,
    a_basis,
    assemble_constraints,
    full_verify,
    search,
    _symbolic_transfer_determinant,
    _violates,
)
from peterweyl.transfer import (
    bicharacter_r,
    in_a,
    p_from_r,
    phi_rank,
    regular_p,
    s3_family,
    unit_p,
)


# ---------------------------------------------------------------------------
# the coordinate basis
# ---------------------------------------------------------------------------

def _coords_of(basis: ABasis, t: TensorElement):
    """Coordinates of an invariant tensor; constant on every orbit."""
    if t.group != basis.group or t.arity != 2:
        raise PreconditionError(
            "coordinates need a two-slot tensor over the same group")
    coords = []
    for orbit in basis.orbits:
        c = t.terms.get(orbit[0], F(0))
        for pair in orbit:
            if t.terms.get(pair, F(0)) != c:
                raise PreconditionError(
                    "tensor is not constant on the conjugation orbit "
                    "of %s" % (orbit[0],))
        coords.append(c)
    return tuple(coords)


def test_basis_sizes_match_hand_counts():
    assert len(a_basis(symmetric(3))) == 11
    assert len(a_basis(dihedral(4))) == 28
    assert len(a_basis(parse_group("Z2xZ2"))) == 16
    assert len(a_basis(cyclic(1))) == 1
    assert len(a_basis(symmetric(1))) == 1
    # abelian groups: conjugation is trivial, so all of G x G survives
    assert len(a_basis(cyclic(5))) == 25


def test_basis_elements_commute_with_the_diagonal():
    for grp in (symmetric(3), dihedral(4)):
        for b in a_basis(grp).elements:
            assert in_a(b)


def test_coordinates_roundtrip():
    basis = a_basis(symmetric(3))
    rng = random.Random(907)
    for _ in range(5):
        coords = tuple(F(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(len(basis)))
        assert _coords_of(basis, basis.to_tensor(coords)) == coords


def test_coordinates_reject_non_invariant_tensors():
    grp = symmetric(3)
    basis = a_basis(grp)
    lop = TensorElement(grp, 2, {(1, 2): F(1)})
    with pytest.raises(PreconditionError):
        _coords_of(basis, lop)
    with pytest.raises(PreconditionError):
        _coords_of(basis, TensorElement.unit(cyclic(6), 2))


def test_family_tensors_have_orbit_constant_coordinates():
    basis = a_basis(symmetric(3))
    coords = _coords_of(basis, s3_family(F(1), F(1)).tensor)
    assert basis.to_tensor(coords) == s3_family(F(1), F(1)).tensor


# ---------------------------------------------------------------------------
# the constraint system
# ---------------------------------------------------------------------------

def test_system_shapes():
    assert assemble_constraints(symmetric(3)).nvars == 11
    assert assemble_constraints(dihedral(4)).nvars == 28


def test_trivial_group_system_is_solved_by_one():
    system = assemble_constraints(cyclic(1))
    assert system.satisfied_by([F(1)])
    assert not system.satisfied_by([F(2)])


def test_family_points_satisfy_the_system():
    basis = a_basis(symmetric(3))
    system = assemble_constraints(symmetric(3))
    for pt in ((1, 1), (5, 7)):
        coords = _coords_of(basis, s3_family(F(pt[0]), F(pt[1])).tensor)
        assert system.satisfied_by(list(coords))


def test_perturbing_one_coordinate_violates_an_equation():
    basis = a_basis(symmetric(3))
    system = assemble_constraints(symmetric(3))
    coords = list(_coords_of(basis, s3_family(F(1), F(1)).tensor))
    coords[3] = coords[3] + F(1, 5)
    assert system.first_violated(coords) is not None


def _bicharacter_coords(grp):
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    return list(_coords_of(a_basis(grp), cand.tensor))


def _random_point(rng, grp):
    return [F(rng.randint(-20, 20), rng.randint(1, 20))
            for _ in range(len(a_basis(grp)))]


def _as_pairs(point):
    """(numerator, denominator) pairs; a non-rational coordinate is (x, 1)."""
    return [(x.numerator, x.denominator) if isinstance(x, F) else (x, 1)
            for x in point]


def test_fast_filter_agrees_with_the_system():
    # the filter must reject a point exactly when the system fails there;
    # cases are (group, point, expected verdict or None)
    rng = random.Random(53)
    d4 = dihedral(4)
    basis = a_basis(d4)
    points = [_random_point(rng, d4) for _ in range(50)]
    points.append(list(_coords_of(basis, unit_p(d4).tensor)))
    points.append([F(0)] * len(basis))
    # denominators 1..20 in turn, so the point clears with lcm(1..20)
    wide = [rng.randint(-3, 3) + F(rng.choice((-1, 1)), 1 + i % 20)
            for i in range(len(basis))]
    assert math.lcm(*(x.denominator for x in wide)) == math.lcm(
        *range(1, 21))
    points.append(wide)
    cases = [(d4, pt, None) for pt in points]
    s3 = symmetric(3)
    for lam, mu in ((1, 1), (2, 3)):
        coords = _coords_of(a_basis(s3), s3_family(F(lam), F(mu)).tensor)
        cases.append((s3, list(coords), True))
    d6 = dihedral(6)
    cases.extend((d6, _random_point(rng, d6), None) for _ in range(10))
    for grp in (cyclic(3), cyclic(4)):
        cases.append((grp, _bicharacter_coords(grp), True))
        cases.extend((grp, _random_point(rng, grp), False)
                     for _ in range(10))
    seen = set()
    for grp, pt, expected in cases:
        satisfied = assemble_constraints(grp).satisfied_by(pt)
        assert _violates(grp, _as_pairs(pt)) == (not satisfied)
        assert expected in (None, satisfied)
        seen.add(satisfied)
    assert seen == {True, False}


@pytest.mark.parametrize("token", ["Z1", "Z2xZ2", "Z3", "Z4", "Z5", "S3",
                                   "D4"])
def test_row_assembly_matches_the_algebra_element_reference(token):
    grp = parse_group(token)
    got = assemble_constraints(grp)
    want = reference_constraints(grp)
    assert got.names == want.names
    assert len(got.polys) == len(want.polys)
    for p, q in zip(got.polys, want.polys):
        assert ([(m, type(c), c) for m, c in p.terms.items()]
                == [(m, type(c), c) for m, c in q.terms.items()])


def test_regular_candidate_fails_the_system():
    basis = a_basis(symmetric(3))
    system = assemble_constraints(symmetric(3))
    coords = _coords_of(basis, regular_p(symmetric(3)).tensor)
    assert not system.satisfied_by(list(coords))


def test_bicharacter_candidates_satisfy_their_systems():
    for name in ("Z5", "Z2xZ2", "Z4"):
        grp = parse_group(name)
        system = assemble_constraints(grp)
        assert system.satisfied_by(_bicharacter_coords(grp))


def test_unit_tensor_satisfies_every_system():
    for grp in (symmetric(3), dihedral(4)):
        basis = a_basis(grp)
        system = assemble_constraints(grp)
        assert system.satisfied_by(
            list(_coords_of(basis, unit_p(grp).tensor)))


def s3_family_slice_check() -> bool:
    """The two-parameter family satisfies the system identically.

    Its orbit coordinates are affine in the two parameters, so substituting
    coordinate polynomials into every equation must give the zero
    polynomial; this proves satisfaction for all parameter values at once.
    """
    grp = symmetric(3)
    basis = a_basis(grp)
    system = assemble_constraints(grp)
    base = _coords_of(basis, s3_family(F(0), F(0)).tensor)
    at10 = _coords_of(basis, s3_family(F(1), F(0)).tensor)
    at01 = _coords_of(basis, s3_family(F(0), F(1)).tensor)
    lam = Poly.variable(0, 2)
    mu = Poly.variable(1, 2)
    sym_coords = []
    for b, p10, p01 in zip(base, at10, at01):
        sym_coords.append(Poly.constant(2, b) + lam * (p10 - b)
                          + mu * (p01 - b))
    for p in system.polys:
        value = p.evaluate(sym_coords)
        if isinstance(value, Poly):
            if value:
                return False
        elif value != 0:
            return False
    return True


def test_family_slice_satisfies_the_system_identically():
    assert s3_family_slice_check()


def test_symbolic_determinant_on_the_two_element_group():
    grp = cyclic(2)
    basis = a_basis(grp)
    det = _symbolic_transfer_determinant(grp, basis)
    x = [Poly.variable(i, 4) for i in range(4)]
    # orbits sort as (0,0), (0,1), (1,0), (1,1); transfer matrix entries
    # are M[r][c] = coordinate of the orbit containing (c, r)
    assert det == x[0] * x[3] - x[1] * x[2]


def test_symbolic_determinant_tracks_the_rank():
    grp = parse_group("Z2xZ2")
    basis = a_basis(grp)
    det = _symbolic_transfer_determinant(grp, basis)
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    full = det.evaluate(list(_coords_of(basis, cand.tensor)))
    assert full != 0
    degenerate = det.evaluate(list(_coords_of(basis, unit_p(grp).tensor)))
    assert degenerate == 0


# ---------------------------------------------------------------------------
# search strategies
# ---------------------------------------------------------------------------

def test_verify_only_accepts_a_family_point():
    out = search(symmetric(3), "verify_only",
                 candidate=s3_family(F(1), F(1)))
    assert out.verdict == "SolutionsFound"
    assert len(out.candidates) == 1
    assert full_verify(out.candidates[0])[0]


def test_verify_only_rejects_with_named_predicates():
    s3 = symmetric(3)
    out = search(s3, "verify_only", candidate=regular_p(s3))
    assert out.verdict == "NoneFoundBounded"
    assert "character multiplicativity" in out.log[0]
    out = search(s3, "verify_only", candidate=unit_p(s3))
    assert out.verdict == "NoneFoundBounded"
    assert "bijectivity" in out.log[0]


def test_random_sampling_finds_the_structured_solutions():
    out = search(symmetric(3), "random_sampling", count=50, seed=3)
    assert out.verdict == "SolutionsFound"
    assert len(out.candidates) == 2
    for cand in out.candidates:
        assert full_verify(cand)[0]
        assert phi_rank(cand) == 6

    out = search(parse_group("Z2xZ2"), "random_sampling", count=100, seed=17)
    assert out.verdict == "SolutionsFound"
    assert [c.note for c in out.candidates] == ["bicharacter"]


def test_random_sampling_on_the_eight_element_dihedral_group():
    out = search(dihedral(4), "random_sampling", count=2000, seed=7)
    assert out.verdict == "NoneFoundBounded"
    assert out.survivors == 0
    assert out.candidates == ()
    assert out.samples == 2000


def test_random_sampling_without_survivors_builds_no_polynomial_system():
    assemble_constraints.cache_clear()
    out = search(dihedral(4), "random_sampling", count=200, seed=11)
    assert out.survivors == 0
    assert assemble_constraints.cache_info().currsize == 0


def test_a_survivor_the_system_rejects_is_an_internal_error(monkeypatch):
    # force the filter to pass every draw: the first one is no solution
    monkeypatch.setattr(search_module, "_violates", lambda group, point: False)
    with pytest.raises(InternalError,
                       match="fast filter and polynomial system disagree"):
        search(dihedral(4), "random_sampling", count=1, seed=11)


def test_random_sampling_is_deterministic_in_the_seed():
    a = search(dihedral(4), "random_sampling", count=200, seed=11)
    b = search(dihedral(4), "random_sampling", count=200, seed=11)
    assert a.to_json() == b.to_json()


def test_outcome_json_shape():
    out = search(symmetric(3), "verify_only",
                 candidate=s3_family(F(2), F(3)))
    doc = out.to_json()
    assert doc["verdict"] == "SolutionsFound"
    assert doc["samples"] == 1 and doc["survivors"] == 1
    assert doc["candidates"][0]["note"] == "s3-family(2/1,3/1)"
    assert "seconds" not in doc


def test_groebner_on_the_two_element_group():
    out = search(cyclic(2), "groebner", degree_cap=6, step_cap=500)
    assert out.verdict == "NoneFoundBounded"
    assert any("t*det" in line for line in out.log)
    assert any("basis" in line for line in out.log)


def test_groebner_on_a_larger_group_stays_honest():
    out = search(symmetric(3), "groebner", degree_cap=3, step_cap=20)
    assert out.verdict == "NoneFoundBounded"
    assert any("side condition" in line for line in out.log)
    assert any("unknown" in line for line in out.log)
    assert out.certificate is None


def test_strategy_validation():
    s3 = symmetric(3)
    with pytest.raises(StrategyError):
        search(s3, "anneal")
    with pytest.raises(StrategyError):
        search(s3, "random_sampling", count=0)
    with pytest.raises(StrategyError):
        search(s3, "random_sampling", count=10, seed="x")
    with pytest.raises(StrategyError):
        search(s3, "verify_only")
    with pytest.raises(StrategyError):
        search(s3, "verify_only", candidate=unit_p(cyclic(4)))
    with pytest.raises(StrategyError):
        search(s3, "groebner", step_cap=-1)


def test_outcomes_are_immutable_and_validated():
    out = SearchOutcome("NoneFoundBounded")
    with pytest.raises(AttributeError):
        out.verdict = "SolutionsFound"
    with pytest.raises(InternalError):
        SearchOutcome("Maybe")
