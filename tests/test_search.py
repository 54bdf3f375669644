"""Tests for the coordinate basis, the constraint system, and the search.

The orbit-sum basis is cross-counted against a plain linear-algebra kernel
inside the library itself; tests here add a third route (hand counts),
check that known constructions satisfy the assembled equations, and pin
the search outcomes with fixed seeds.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from _modules import reference_constraints, reference_random_sampling
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
    _draw_blocks,
    _modp_alive,
    _modp_tables,
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


def _kept_then_exact(grp, pairs):
    """Whether a draw passes the filter modulo p and then `_violates`."""
    nums = np.array([[a for a, _ in pairs]], dtype=np.int64)
    dens = np.array([[b for _, b in pairs]], dtype=np.int64)
    return len(_modp_alive(grp, nums, dens)) == 1 and not _violates(grp,
                                                                    pairs)


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
        pairs = _as_pairs(pt)
        assert _violates(grp, pairs) == (not satisfied)
        if all(type(a) is int for a, _ in pairs):
            # the filter modulo p in front of `_violates` keeps the verdict
            assert _kept_then_exact(grp, pairs) == satisfied
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
    # force both filters to pass every draw: the first one is no solution
    monkeypatch.setattr(search_module, "_modp_alive",
                        lambda group, nums, dens: range(len(nums)))
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


@pytest.mark.parametrize("argument", ["count", "seed", "degree_cap",
                                      "step_cap"])
def test_bool_arguments_are_rejected(argument):
    # a bool is an int to isinstance; count=True once gave "samples": true
    s3 = symmetric(3)
    for strategy in ("random_sampling", "groebner"):
        kwargs = {"count": 1, argument: True}
        with pytest.raises(StrategyError, match="not a bool"):
            search(s3, strategy, **kwargs)


def test_outcomes_are_immutable_and_validated():
    out = SearchOutcome("NoneFoundBounded")
    with pytest.raises(AttributeError):
        out.verdict = "SolutionsFound"
    with pytest.raises(InternalError):
        SearchOutcome("Maybe")


# ---------------------------------------------------------------------------
# the draws in blocks and the filter modulo a prime
# ---------------------------------------------------------------------------

_BLOCK = search_module._BLOCK


def _randint_draws(rng, d, count):
    return [[(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(d)]
            for _ in range(count)]


def _block_draws(blocks):
    return [list(zip(nums, dens)) for a, b in blocks
            for nums, dens in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("d", [1, 11, 44])
@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000])
def test_draw_blocks_follow_randint(d, count):
    for seed in (1, 4, 17):
        blocks = list(_draw_blocks(random.Random(seed), d, count))
        assert [a.shape for a, _ in blocks] == [
            (min(_BLOCK, count - start), d)
            for start in range(0, count, _BLOCK)]
        assert _block_draws(blocks) == _randint_draws(
            random.Random(seed), d, count)


class _RejectingWords(random.Random):
    """A generator whose 32-bit words randint mostly rejects.

    Three words in four get the top six bits 63.  getrandbits keeps
    CPython's contract, so randint reads the same words as the blocks, and
    the blocks run short of words and must ask for more.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.words = random.Random(seed)

    def word(self):
        w = self.words.getrandbits(32)
        return w | 0xFC000000 if w % 4 else w

    def getrandbits(self, k):
        if k <= 32:
            return self.word() >> (32 - k)
        return sum(self.word() << 32 * i for i in range(-(-k // 32)))


def test_draw_blocks_ask_again_when_the_words_run_short():
    for d, count in ((1, 3), (11, _BLOCK + 1), (44, 300)):
        assert _block_draws(_draw_blocks(_RejectingWords(2), d, count)) == (
            _randint_draws(_RejectingWords(2), d, count))


def _seeded_blocks(grp, seed, count):
    return list(_draw_blocks(random.Random(seed), len(a_basis(grp)), count))


@pytest.mark.parametrize("token", ["Z1", "Z2xZ2", "S3", "D4", "D6", "S4"])
def test_modp_filter_and_violates_agree_with_the_system(token):
    grp = parse_group(token)
    # S4's rows reach 12, the largest entry of the tested tables
    index, _ = _modp_tables(grp)
    assert all(grp.table[a][index[a, g]] == g
               for a in range(grp.order) for g in range(grp.order))
    system = assemble_constraints(grp)
    seen = set()
    for nums, dens in _seeded_blocks(grp, 3, 2 * _BLOCK + 5):
        draws = [list(zip(a, b)) for a, b in zip(nums.tolist(),
                                                 dens.tolist())]
        kept = set(_modp_alive(grp, nums, dens).tolist())
        for i, pairs in enumerate(draws[:20]):
            satisfied = system.satisfied_by([F(a, b) for a, b in pairs])
            assert (i in kept and not _violates(grp, pairs)) == satisfied
            assert _kept_then_exact(grp, pairs) == satisfied
            seen.add(satisfied)
        # no draw here passes modulo p alone
        assert kept == {i for i, pairs in enumerate(draws)
                        if not _violates(grp, pairs)}
    assert False in seen


def test_modp_filter_keeps_known_solutions():
    z1 = cyclic(1)
    solutions = [list(zip(a, b)) for nums, dens in _seeded_blocks(z1, 5, 300)
                 for a, b in zip(nums.tolist(), dens.tolist())
                 if assemble_constraints(z1).satisfied_by(
                     [F(x, y) for x, y in zip(a, b)])]
    assert len(solutions) == 15
    s3 = symmetric(3)
    for lam, mu in ((1, 1), (2, 3), (-3, 5)):
        coords = _coords_of(a_basis(s3), s3_family(F(lam), F(mu)).tensor)
        assert assemble_constraints(s3).satisfied_by(list(coords))
        solutions.append(_as_pairs(coords))
    for pairs in solutions:
        grp = z1 if len(pairs) == 1 else s3
        assert _kept_then_exact(grp, pairs)


def test_modp_convolution_is_exact_at_the_largest_residues(monkeypatch):
    # one coordinate x = 1 whose images are -1 at every g: each residue of
    # the combinations is p - D, so each of the six products of a sum is
    # near 2^62, and (left * right)[g] = 6 D^2 = D (n L)[g] for L = 6
    s3 = symmetric(3)
    index, _ = _modp_tables(s3)
    minus = np.full((1, 6), -1, dtype=np.int64)
    for ell, kept in ((6, [0]), (7, [])):
        ls = np.full((1, 6), ell, dtype=np.int64)
        monkeypatch.setattr(search_module, "_modp_tables",
                            lambda grp: (index, ((minus, minus, ls),)))
        ones = np.ones((1, 1), dtype=np.int64)
        assert _modp_alive(s3, ones, ones).tolist() == kept


@pytest.mark.parametrize("token", ["Z3", "Z4"])
def test_cyclotomic_tables_skip_the_modp_filter(token):
    grp = parse_group(token)
    assert _modp_tables(grp) is None
    nums, dens = _seeded_blocks(grp, 1, 30)[0]
    assert _modp_alive(grp, nums, dens).tolist() == list(range(30))


def test_a_table_past_the_column_bound_skips_the_modp_filter(monkeypatch):
    d4 = dihedral(4)
    want = search(d4, "random_sampling", count=_BLOCK + 1, seed=2).to_json()
    _modp_tables.cache_clear()
    monkeypatch.setattr(search_module, "_COLUMN_BOUND", 2)
    try:
        assert _modp_tables(d4) is None
        got = search(d4, "random_sampling", count=_BLOCK + 1, seed=2)
    finally:
        _modp_tables.cache_clear()
    assert got.to_json() == want


@pytest.mark.parametrize("token", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "S3",
                                   "D4", "D5", "D6"])
def test_random_sampling_matches_the_per_draw_reference(token):
    grp = parse_group(token)
    for seed, count in ((1, _BLOCK - 1), (4, _BLOCK + 1), (5, 2 * _BLOCK)):
        got = search(grp, "random_sampling", count=count, seed=seed)
        want = reference_random_sampling(grp, count, seed)
        assert got.to_json() == want.to_json()


def test_random_sampling_survivors_match_the_per_draw_reference():
    out = search(cyclic(1), "random_sampling", count=300, seed=5)
    assert (out.survivors, len(out.candidates)) == (15, 12)
    assert out.to_json() == reference_random_sampling(
        cyclic(1), 300, 5).to_json()
