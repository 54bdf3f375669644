"""Tests for the transfer map, its membership predicates, and candidates.

Independent oracles used here:

* admissibility is re-checked against the brute-force centralizer condition
  quantified over every group element, not just generators;
* the linear system behind the factorization solver is re-assembled column
  by column in a separate routine to validate infeasibility certificates,
  and solved over scalar rows as the reference for its integer assembly;
* block decompositions are compared against character arithmetic done by
  hand (frozen dictionaries);
* the bicharacter R-matrix, which the library reads off the character
  table, is rebuilt here from roots of unity, factor by factor;
* for abelian groups, the solvability of the factorization system is
  decided in the basis of idempotents, where it splits into one scalar
  equation per pair of characters.
"""

import hashlib
import random
import time
from fractions import Fraction as F
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peterweyl.errors import (
    InternalError,
    MembershipError,
    PreconditionError,
    RealizabilityError,
)
from peterweyl import transfer
from peterweyl.exact import linalg
from peterweyl.exact.linalg import Infeasible, Subspace
from peterweyl.exact.scalars import Cyclotomic
from peterweyl.groups import (
    cyclic,
    dihedral,
    from_descriptor,
    parse_group,
    symmetric,
)
from peterweyl.hopf import (
    AlgebraElement,
    Functional,
    TensorElement,
    act,
    tensor_to_json,
    action_invariant_subspace,
    center_subspace,
    class_indicator_subspace,
    conjugation_invariant_subspace,
    convolve,
    tensor,
)
from peterweyl.transfer import (
    PCandidate,
    bicharacter_r,
    center_image_check,
    check_t,
    check_t_normalized,
    equivariance_check,
    grouplike_check,
    in_a,
    in_a_conditions,
    in_m,
    in_m0,
    t_from_r,
    membership_report,
    mock_pw_decomposition,
    p_from_r,
    phi,
    phi_matrix,
    phi_rank,
    r_failures,
    regular_p,
    s3_family,
    solve_t,
    unit_p,
)

from _modules import (
    reference_modp_echelon,
    reference_multiplicativity,
    reference_solve_t,
)


def random_two_tensor(grp, rng, terms=6):
    """A random sparse two-slot tensor with small rational coefficients."""
    out = {}
    for _ in range(terms):
        key = (rng.randrange(grp.order), rng.randrange(grp.order))
        out[key] = F(rng.randint(-4, 4), rng.randint(1, 4))
    return TensorElement(grp, 2, out)


def centralizer_condition_all_elements(t):
    """Brute-force admissibility: commute with g (x) g for every g."""
    grp = t.group
    for g in range(grp.order):
        gg = tensor(AlgebraElement.basis(grp, g), AlgebraElement.basis(grp, g))
        if t * gg != gg * t:
            return False
    return True


def perturbed_family_point():
    """A family member plus a term that breaks admissibility."""
    grp = symmetric(3)
    bump = TensorElement(grp, 2, {(grp.generators[0][0], 0): F(1, 7)})
    return PCandidate(s3_family(F(1), F(1)).tensor + bump, "perturbed")


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------

def test_regular_candidate_transfers_delta_to_inverse():
    grp = symmetric(3)
    p = regular_p(grp)
    for g in range(grp.order):
        assert phi(p, Functional.delta(grp, g)) \
            == AlgebraElement.basis(grp, grp.inverse(g))


def test_phi_is_linear_in_the_functional():
    grp = dihedral(4)
    p = regular_p(grp)
    rng = random.Random(811)
    for _ in range(5):
        xi = Functional(grp, [F(rng.randint(-3, 3)) for _ in range(grp.order)])
        eta = Functional(grp, [F(rng.randint(-3, 3))
                               for _ in range(grp.order)])
        assert phi(p, xi + eta) == phi(p, xi) + phi(p, eta)
        assert phi(p, xi * F(5, 3)) == phi(p, xi) * F(5, 3)


def test_phi_matrix_columns_are_the_delta_images():
    grp = symmetric(3)
    p = s3_family(F(2), F(3))
    m = phi_matrix(p)
    for g in range(grp.order):
        col = phi(p, Functional.delta(grp, g)).to_vector()
        assert [m.rows[r][g] for r in range(grp.order)] == col


def test_unit_candidate_has_rank_one():
    grp = symmetric(3)
    assert phi_rank(unit_p(grp)) == 1


def test_family_rank_depends_on_both_parameters():
    expected = {(1, 1): 6, (2, 3): 6, (5, 7): 6, (0, 1): 5, (1, 0): 4}
    for (lam, mu), rank in expected.items():
        assert phi_rank(s3_family(F(lam), F(mu))) == rank


def test_phi_rejects_mismatched_groups():
    with pytest.raises(PreconditionError):
        phi(unit_p(symmetric(3)), Functional.delta(cyclic(6), 0))


def test_candidates_have_exactly_two_slots():
    with pytest.raises(PreconditionError):
        PCandidate(TensorElement.unit(symmetric(3), 3))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_structured_candidates_are_admissible():
    grp = symmetric(3)
    assert in_a(unit_p(grp))
    assert in_a(regular_p(grp))
    assert in_a(regular_p(dihedral(4)))
    for pt in [(1, 1), (2, 3), (5, 7), (0, 1), (1, 0)]:
        assert in_a(s3_family(F(pt[0]), F(pt[1])))


def test_admissibility_conditions_agree_on_random_tensors():
    rng = random.Random(821)
    for grp in (symmetric(3), dihedral(4)):
        for _ in range(50):
            conds = in_a_conditions(random_two_tensor(grp, rng))
            assert conds[0] == conds[1] == conds[2]


def test_admissibility_matches_the_all_elements_centralizer():
    rng = random.Random(823)
    grp = symmetric(3)
    cands = [random_two_tensor(grp, rng) for _ in range(10)]
    cands += [unit_p(grp).tensor, regular_p(grp).tensor,
              s3_family(F(1), F(1)).tensor]
    for t in cands:
        assert in_a(t) == centralizer_condition_all_elements(t)


def test_perturbed_family_member_is_not_admissible():
    assert not in_a(perturbed_family_point())


def test_custom_table_copy_agrees_with_the_family():
    # a table descriptor lists no generators; its generating set is chosen
    # from the table, so the generator-based predicates still see all of G
    grp = symmetric(3)
    copy = from_descriptor({"kind": "table",
                            "table": [list(row) for row in grp.table]})
    s1 = grp.generators[0][0]
    for t in (tensor(AlgebraElement.one(grp), AlgebraElement.basis(grp, s1)),
              s3_family(F(1), F(1)).tensor):
        twin = TensorElement(copy, 2, t.terms)
        assert in_a_conditions(twin) == in_a_conditions(t)
        admissible = in_a(t)
        assert in_a(twin) == admissible
        if admissible:
            assert center_image_check(twin) == center_image_check(t)


def test_admissible_transfer_is_equivariant():
    assert equivariance_check(s3_family(F(1), F(1)))
    assert equivariance_check(regular_p(dihedral(4)))


def test_class_functions_land_in_the_center():
    assert center_image_check(s3_family(F(1), F(1)))
    assert center_image_check(unit_p(dihedral(4)))


def test_equivariance_requires_admissibility():
    with pytest.raises(PreconditionError):
        equivariance_check(perturbed_family_point())
    with pytest.raises(PreconditionError):
        center_image_check(perturbed_family_point())


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

def test_family_point_is_multiplicative():
    ok, witnesses = in_m(s3_family(F(1), F(1)))
    assert ok and witnesses == ()


def test_regular_candidate_fails_at_the_sign_sign_pair():
    p = regular_p(symmetric(3))
    ok, witnesses = in_m(p)
    assert not ok
    assert witnesses == (("sgn", "sgn"),)
    assert not in_m0(p)


def test_regular_candidate_on_s4_fails_only_at_the_sign_pair():
    rep = membership_report(regular_p(symmetric(4))).to_json()
    assert rep["M"] is False
    assert rep["M_witnesses"] == [["sgn", "sgn"]]
    assert rep["M0"] is False
    assert rep["rank"] == 24
    assert rep["center_image"] is True


def test_regular_candidate_on_d6_witnesses_are_frozen():
    ok, witnesses = in_m(regular_p(dihedral(6)))
    assert not ok
    assert witnesses == (("sgn", "sgn"), ("alt", "alt"),
                         ("altsgn", "altsgn"), ("rho1", "rho1"))


def test_family_points_are_character_multiplicative():
    for pt in [(1, 1), (2, 3), (5, 7), (0, 1), (1, 0)]:
        assert in_m0(s3_family(F(pt[0]), F(pt[1])))


def test_perturbed_member_is_not_character_multiplicative():
    assert not in_m0(perturbed_family_point())


def test_unit_candidate_is_character_multiplicative():
    assert in_m0(unit_p(symmetric(3)))
    ok, witnesses = in_m(unit_p(symmetric(3)))
    assert ok and witnesses == ()


def _oracle_candidates():
    points = [(F(3, 2), F(-7, 3)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)),
              (F(-2, 3), F(-2))]
    yield from (s3_family(lam, mu) for lam, mu in points)
    for token in ("S3", "D4", "D6", "Z3xS3", "Z2xZ2xZ2", "Z4", "S4"):
        grp = parse_group(token)
        yield unit_p(grp)
        yield regular_p(grp)


def _agrees_with_the_convolution_targets(cand):
    witnesses, blocks, m0 = reference_multiplicativity(cand)
    assert transfer._multiplicativity(cand.tensor) == (witnesses, blocks)
    assert in_m0(cand) == m0
    return witnesses, m0


def test_constituent_targets_agree_with_the_convolution_targets():
    verdicts = [_agrees_with_the_convolution_targets(cand)
                for cand in _oracle_candidates()]
    # the list reaches witnesses, several at once, and both M0 verdicts
    assert max(len(w) for w, _ in verdicts) > 1
    assert {m0 for _, m0 in verdicts} == {False, True}


def test_character_multiplicativity_counts_repeated_constituents():
    # phi of the unit tensor sends z_U to dim U, so M0 holds only if the
    # left side counts each constituent with its multiplicity, which is 2
    # for p311 in p32 (x) p311 on S5
    assert in_m0(unit_p(symmetric(5)))


@settings(max_examples=15)
@given(st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 5))] * 2),
       st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5),
                             st.builds(F, st.integers(1, 9),
                                       st.integers(1, 9))))
def test_constituent_targets_agree_on_family_draws(point, bump):
    # a bump term moves a point off the family, where M0 mostly fails
    cand = s3_family(*point)
    if bump is not None:
        a, b, c = bump
        cand = PCandidate(cand.tensor + TensorElement(
            cand.group, 2, {(a, b): c}), "perturbed")
    _agrees_with_the_convolution_targets(cand)


# ---------------------------------------------------------------------------
# the factorization tensor
# ---------------------------------------------------------------------------

def test_unit_candidate_factorization_roundtrip():
    grp = symmetric(3)
    p = unit_p(grp)
    t4 = solve_t(p)
    assert isinstance(t4, TensorElement)
    assert check_t(p, t4)
    assert check_t_normalized(t4)


def _column_of_t_system(grp, coeffs, col):
    """Independent assembly of one column of the factorization system."""
    t1, t2, t3, t4 = col
    n = grp.order
    mul = grp.mul
    out = {}
    for (p1, p2), c in coeffs.items():
        g1 = mul(t1, mul(p1, t2))
        for (q1, q2), d in coeffs.items():
            g2 = mul(t3, mul(q1, t4))
            g3 = mul(p2, q2)
            r = (g1 * n + g2) * n + g3
            out[r] = out.get(r, F(0)) + c * d
    return out


def test_family_point_has_no_factorization_tensor():
    grp = symmetric(3)
    p = s3_family(F(1), F(1))
    res = solve_t(p)
    assert isinstance(res, Infeasible)
    y = res.certificate
    n = grp.order
    coeffs = p.tensor.terms
    dot_b = F(0)
    for (a, c2), coeff in coeffs.items():
        dot_b += y[(a * n + a) * n + c2] * coeff
    assert dot_b == 1
    rng = random.Random(829)
    for _ in range(40):
        col = tuple(rng.randrange(n) for _ in range(4))
        entries = _column_of_t_system(grp, coeffs, col)
        assert sum(y[r] * v for r, v in entries.items()) == 0


def test_v4_bicharacter_has_a_factorization_tensor():
    grp = parse_group("Z2xZ2")
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    t4 = solve_t(cand)
    assert isinstance(t4, TensorElement)
    assert check_t(cand, t4)


# sha256 pins of two solve_t answers, so that a change to the exact solver
# that alters a certificate or a T cannot pass unnoticed

def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_s3_family_certificate_is_pinned():
    res = solve_t(s3_family(F(3, 2), F(-7, 3)))
    assert isinstance(res, Infeasible)
    assert sum(1 for y in res.certificate if y) == 12
    assert _sha256(",".join(str(y) for y in res.certificate)) == (
        "acdd2f2cdc3c7d66833dee14dced14d45ea75f19dbc0f29b296633cde72521a3")


def test_s3_family_system_is_eliminated_modulo_one_prime(monkeypatch):
    # the certificate's entries are small integers, so the candidate tried
    # after the first prime already verifies
    modp_echelon = linalg._modp_echelon
    primes = []

    def recording(M, p):
        primes.append(p)
        return modp_echelon(M, p)

    monkeypatch.setattr(linalg, "_modp_echelon", recording)
    assert isinstance(solve_t(s3_family(F(3, 2), F(-7, 3))), Infeasible)
    assert primes == [next(linalg._primes31())]


def test_s3_family_modp_elimination_matches_one_pivot_at_a_time(monkeypatch):
    # the 216 x 1513 tracked system spans many panels and column chunks;
    # the blocked elimination leaves every entry the reference leaves
    modp_echelon = linalg._modp_echelon
    seen = []

    def recording(M, p):
        start = M.copy()
        pivots = modp_echelon(M, p)
        seen.append((start, p, pivots, M.copy()))
        return pivots

    monkeypatch.setattr(linalg, "_modp_echelon", recording)
    solve_t(s3_family(F(3, 2), F(-7, 3)))
    [(start, p, pivots, result)] = seen
    assert start.shape == (216, 1513)
    assert reference_modp_echelon(start, p) == pivots
    assert np.array_equal(start, result)


def test_v4_bicharacter_t_is_pinned():
    grp = parse_group("Z2xZ2")
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    t4 = solve_t(cand)
    terms = sorted((k, str(v)) for k, v in t4.terms.items())
    assert _sha256(repr(terms)) == (
        "355ce715b59bc644a1ece77df5eded3d1fcacbeab6382bf544b7bfa7e29032e5")


def _bicharacter_candidate(grp):
    return p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))


# the T of each bicharacter, a cyclotomic answer, pinned as the Z2xZ2 one is
_BICHARACTER_T_SHA256 = {
    "Z7": "748dcc118a438e8f44116f9dc2435f6efd120349f894a6d1a3ac2293aecd4999",
    "Z3xZ3":
        "a9d6727021e5bcb70521d73b039e6a87ab229059d1ca3858a507c0fb6c8d6654",
}


@pytest.mark.parametrize("token", ["Z7", "Z3xZ3"])
def test_larger_bicharacters_have_a_factorization_tensor(token):
    t0 = time.monotonic()
    cand = _bicharacter_candidate(parse_group(token))
    t4 = solve_t(cand)
    assert isinstance(t4, TensorElement)
    assert check_t(cand, t4)
    # the runtime budget of acceptance criterion 02
    assert time.monotonic() - t0 < 60
    terms = sorted((k, str(v)) for k, v in t4.terms.items())
    assert _sha256(repr(terms)) == _BICHARACTER_T_SHA256[token]


def test_solve_t_keeps_only_the_distinct_columns(monkeypatch):
    # a column depends only on the two slot maps x -> a x b, so an abelian
    # group needs |G|^2 columns, the unit candidate one per pair of
    # products, and the S3 family all |G|^4
    widths = []

    def recording(A, b):
        widths.append(len(A[0]))
        return linalg.solve_linear(A, b)

    monkeypatch.setattr(transfer, "solve_linear", recording)
    cases = [(_bicharacter_candidate(parse_group(token)), n * n)
             for token, n in (("Z3", 3), ("Z4", 4), ("Z2xZ2", 4))]
    cases += [(unit_p(symmetric(3)), 36), (s3_family(F(1), F(1)), 1296)]
    for cand, width in cases:
        solve_t(cand)
        assert widths.pop() == width


def _assert_same_answer(got, want):
    """Equal answers, down to the printed value of every entry."""
    assert type(got) is type(want)
    if isinstance(got, Infeasible):
        assert [str(y) for y in got.certificate] == [
            str(y) for y in want.certificate]
    else:
        assert sorted((k, str(v)) for k, v in got.terms.items()) == sorted(
            (k, str(v)) for k, v in want.terms.items())


def _small_fractions():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _rational_t_candidates(draw):
    """S3-family points, its degenerate points, the unit and regular
    candidates of S3 and D4, and scaled Z2xZ2 bicharacter candidates."""
    kind = draw(st.sampled_from(["s3", "degenerate", "unit-regular",
                                 "bicharacter"]))
    if kind == "s3":
        return s3_family(draw(_small_fractions()), draw(_small_fractions()))
    if kind == "degenerate":
        return s3_family(*draw(st.sampled_from([(F(0), F(1)),
                                                (F(1), F(0))])))
    if kind == "unit-regular":
        make = draw(st.sampled_from([unit_p, regular_p]))
        return make(parse_group(draw(st.sampled_from(["S3", "D4"]))))
    grp = parse_group("Z2xZ2")
    scale = draw(st.builds(F, st.integers(1, 9) | st.integers(-9, -1),
                           st.integers(1, 9)))
    g = draw(st.integers(0, grp.order - 1))
    terms = _bicharacter_candidate(grp).tensor.terms
    return PCandidate(TensorElement(grp, 2, {
        (grp.mul(a, g), b): v * scale for (a, b), v in terms.items()}),
        "scaled-bicharacter")


def _recording_solve_linear(monkeypatch):
    """Record the type of A of every solve_linear call of solve_t."""
    kinds = []

    def recording(A, b):
        kinds.append(type(A))
        return linalg.solve_linear(A, b)

    monkeypatch.setattr(transfer, "solve_linear", recording)
    return kinds


@settings(max_examples=30)
@given(_rational_t_candidates())
def test_integer_assembly_matches_the_scalar_rows(cand):
    got = solve_t(cand)
    want = reference_solve_t(cand)
    _assert_same_answer(got, want)
    if not isinstance(got, Infeasible):
        assert check_t(cand, got)


def test_rational_systems_are_assembled_as_int64_arrays(monkeypatch):
    kinds = _recording_solve_linear(monkeypatch)
    for cand in (s3_family(F(3, 2), F(-7, 3)), regular_p(symmetric(3)),
                 _bicharacter_candidate(parse_group("Z2xZ2"))):
        solve_t(cand)
    assert kinds == [np.ndarray] * 3
    solve_t(_bicharacter_candidate(parse_group("Z3")))
    assert kinds[-1] is list


def test_solve_t_falls_back_to_scalar_rows_past_int64(monkeypatch):
    # the cleared coefficients of this point need more than 63 bits
    cand = s3_family(F(10**20, 3), F(-7, 10**19))
    kinds = _recording_solve_linear(monkeypatch)
    res = solve_t(cand)
    assert kinds == [list]
    assert isinstance(res, Infeasible)
    _assert_same_answer(res, reference_solve_t(cand))


def _no_exact_route(rows, b):
    raise AssertionError("a rational system took the exact route")


def test_integer_assembly_answer_does_not_depend_on_the_primes(monkeypatch):
    # a stream that starts at a later window gives other primes; the
    # answers, the Z2xZ2 pin and the S3-family pin must not change
    grp = parse_group("Z2xZ2")
    cands = [unit_p(symmetric(3)), _bicharacter_candidate(grp),
             PCandidate(TensorElement(grp, 2, {(0, 1): F(3, 2),
                                               (2, 3): F(-5, 7)}), "sparse"),
             s3_family(F(3, 2), F(-7, 3))]
    want = [solve_t(cand) for cand in cands]
    monkeypatch.setattr(linalg, "_solve_exact", _no_exact_route)
    monkeypatch.setattr(linalg, "_primes31", lambda: chain.from_iterable(
        map(linalg._prime_window, range(3, 12))))
    kinds = _recording_solve_linear(monkeypatch)
    got = [solve_t(cand) for cand in cands]
    assert kinds == [np.ndarray] * 4
    assert isinstance(got[2], Infeasible)
    for g, w in zip(got, want):
        _assert_same_answer(g, w)
    terms = sorted((k, str(v)) for k, v in got[1].terms.items())
    assert _sha256(repr(terms)) == (
        "355ce715b59bc644a1ece77df5eded3d1fcacbeab6382bf544b7bfa7e29032e5")
    assert _sha256(",".join(str(y) for y in got[3].certificate)) == (
        "acdd2f2cdc3c7d66833dee14dced14d45ea75f19dbc0f29b296633cde72521a3")


def _fourier_feasible(grp, coeffs):
    """Decide the factorization system of an abelian group independently.

    With characters chi_a(g) built from roots of unity, g is the sum of
    chi_a(g) e_a over the idempotents e_a, so P-hat(a, c), the sum of
    P(g, h) chi_a(g) chi_c(h), is P's coefficient at e_a (x) e_c.  In this
    basis the equation for T reads t_ab P-hat(a, c) P-hat(b, c) =
    P-hat(ab, c) for every c, with one unknown t_ab per pair (a, b).
    """
    chi, n = _roots_of_unity_bichar(grp.descriptor)
    hat = {(a, c): sum(v * chi[a, g] * chi[c, h]
                       for (g, h), v in coeffs.items())
           for a in range(n) for c in range(n)}
    for a in range(n):
        for b in range(n):
            ratio = None
            for c in range(n):
                lhs, rhs = hat[a, c] * hat[b, c], hat[grp.mul(a, b), c]
                if lhs == 0:
                    if rhs != 0:
                        return False
                elif ratio is None:
                    ratio = rhs / lhs
                elif rhs != ratio * lhs:
                    return False
    return True


def _nonzero_fractions():
    return st.builds(F, st.integers(1, 5) | st.integers(-5, -1),
                     st.integers(1, 4))


@st.composite
def _abelian_candidates(draw):
    """A random sparse P, or a rational scaling of the bicharacter P
    times g (x) 1, over Z2xZ2 (rational) or Z3 (Q(zeta3))."""
    grp = parse_group(draw(st.sampled_from(["Z2xZ2", "Z3"])))
    n = grp.order
    if draw(st.booleans()):
        scale = draw(_nonzero_fractions())
        g = draw(st.integers(0, n - 1))
        terms = _bicharacter_candidate(grp).tensor.terms
        coeffs = {(grp.mul(a, g), b): v * scale for (a, b), v in terms.items()}
    else:
        keys = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             min_size=1, max_size=4, unique=True))
        coeffs = {key: draw(_nonzero_fractions()) for key in keys}
    return grp, coeffs


def _check_against_fourier(grp, coeffs):
    p = TensorElement(grp, 2, coeffs)
    res = solve_t(p)
    assert isinstance(res, Infeasible) != _fourier_feasible(grp, coeffs)
    if not isinstance(res, Infeasible):
        assert check_t(p, res)
    return not isinstance(res, Infeasible)


@given(_abelian_candidates())
def test_solve_t_agrees_with_the_fourier_oracle(drawn):
    _check_against_fourier(*drawn)


def test_fourier_oracle_sees_both_verdicts():
    # g (x) 1 has a factorization tensor and g (x) h with h != 1 has none,
    # so the property test above meets both verdicts
    for token in ("Z2xZ2", "Z3"):
        grp = parse_group(token)
        assert _check_against_fourier(grp, {(1, 0): F(3)})
        assert not _check_against_fourier(grp, {(0, 1): F(3)})
        assert _check_against_fourier(
            grp, dict(_bicharacter_candidate(grp).tensor.terms))


def test_proof_formula_tensor_passes_both_checks():
    grp = cyclic(5)
    r = bicharacter_r(grp)
    unit2 = TensorElement.unit(grp, 2)
    cand = p_from_r(unit2, r, AlgebraElement.one(grp))
    t4 = t_from_r(unit2)
    assert check_t(cand, t4)
    assert check_t_normalized(t4)
    cand2 = p_from_r(r, r, AlgebraElement.one(grp))
    t4b = t_from_r(r)
    assert check_t(cand2, t4b)
    assert check_t_normalized(t4b)


def phi_mult_identity_check(p, t4: TensorElement, xi: Functional,
                            eta: Functional) -> bool:
    """phi(xi.eta) = sum over T of phi(t2 > xi < t1) phi(t4 > eta < t3)."""
    grp = p.group
    lhs = phi(p, convolve(xi, eta))
    rhs = AlgebraElement.zero(grp)
    for (t1, t2, t3, t4i), coeff in t4.terms.items():
        xi_mod = act("left", AlgebraElement.basis(grp, t2),
                     act("right", AlgebraElement.basis(grp, t1), xi))
        eta_mod = act("left", AlgebraElement.basis(grp, t4i),
                      act("right", AlgebraElement.basis(grp, t3), eta))
        rhs = rhs + (phi(p, xi_mod) * phi(p, eta_mod)) * coeff
    return lhs == rhs


def test_factorization_drives_multiplicativity_of_phi():
    grp = cyclic(5)
    r = bicharacter_r(grp)
    cand = p_from_r(r, r, AlgebraElement.one(grp))
    t4 = t_from_r(r)
    rng = random.Random(839)
    for _ in range(20):
        xi = Functional(grp, [F(rng.randint(-3, 3)) for _ in range(5)])
        eta = Functional(grp, [F(rng.randint(-3, 3)) for _ in range(5)])
        assert phi_mult_identity_check(cand, t4, xi, eta)


def test_wrong_factorization_tensor_is_rejected():
    grp = cyclic(5)
    r = bicharacter_r(grp)
    cand = p_from_r(TensorElement.unit(grp, 2), r, AlgebraElement.one(grp))
    bad = t_from_r(bicharacter_r(grp)) * F(2)
    assert not check_t(cand, bad)
    assert not check_t_normalized(TensorElement.unit(grp, 4) * F(2))
    with pytest.raises(PreconditionError):
        check_t(cand, TensorElement.unit(grp, 3))


# ---------------------------------------------------------------------------
# candidates from pairs
# ---------------------------------------------------------------------------

def test_bicharacter_pairs_satisfy_the_axioms():
    for name in ("Z2", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ4"):
        grp = parse_group(name)
        r = bicharacter_r(grp)
        assert r_failures(TensorElement.unit(grp, 2), r) == ()
        assert not r_failures(r, r)


def test_v4_bicharacter_values_are_frozen_signs():
    grp = parse_group("Z2xZ2")
    r = bicharacter_r(grp)
    quarter = F(1, 4)
    for a in range(4):
        for b in range(4):
            a1, a2 = divmod(a, 2)
            b1, b2 = divmod(b, 2)
            sign = -1 if (a1 * b1 + a2 * b2) % 2 else 1
            assert r.terms[(a, b)] == quarter * sign


def _roots_of_unity_bichar(descriptor):
    """zeta^(ab) on a cyclic group, multiplied factor by factor on a product."""
    if descriptor["kind"] == "cyclic":
        n = descriptor["n"]
        out = {}
        for a in range(n):
            for b in range(n):
                if n == 1:
                    val = F(1)
                elif n == 2:
                    val = F(1) if (a * b) % 2 == 0 else F(-1)
                else:
                    zk = Cyclotomic.zeta(n, (a * b) % n)
                    val = zk.as_fraction() if zk.is_rational else zk
                out[a, b] = val
        return out, n
    ta, na = _roots_of_unity_bichar(descriptor["factors"][0])
    tb, nb = _roots_of_unity_bichar(descriptor["factors"][1])
    out = {}
    for (a1, b1), va in ta.items():
        for (a2, b2), vb in tb.items():
            out[a1 * nb + a2, b1 * nb + b2] = va * vb
    return out, na * nb


def test_bicharacter_is_the_character_table():
    tokens = ["Z%d" % n for n in range(1, 13)] + [
        "Z2xZ2", "Z2xZ3", "Z3xZ2", "Z2xZ2xZ2", "Z3xZ3", "Z4xZ2", "Z2xZ4",
        "Z2xZ6", "Z4xZ4", "Z5xZ2", "Z2xZ2xZ3"]
    for token in tokens:
        grp = parse_group(token)
        table, n = _roots_of_unity_bichar(grp.descriptor)
        want = TensorElement(grp, 2, {k: v * F(1, n)
                                      for k, v in table.items()})
        r = bicharacter_r(grp)
        assert r == want, token
        assert tensor_to_json(r) == tensor_to_json(want), token


def test_bicharacter_needs_cyclic_factors():
    for token in ("S2", "S3", "D2", "D1xZ2", "Z2xS2"):
        with pytest.raises(PreconditionError) as e:
            bicharacter_r(parse_group(token))
        assert str(e.value) == ("bicharacters are built for cyclic groups "
                                "and their products")
    # factors over different cyclotomic fields have no common character table
    with pytest.raises(RealizabilityError):
        bicharacter_r(parse_group("Z3xZ4"))


def test_z5_bicharacter_entry_is_a_root_of_unity():
    r = bicharacter_r(cyclic(5))
    assert r.terms[(1, 1)] == Cyclotomic.zeta(5, 1) * F(1, 5)
    assert r.terms[(2, 3)] == Cyclotomic.zeta(5, 1) * F(1, 5)
    assert r.terms[(0, 3)] == F(1, 5)


def test_broken_pair_reports_the_failed_axiom():
    grp = cyclic(5)
    r = bicharacter_r(grp)
    broken = r + TensorElement(grp, 2, {(1, 2): F(1, 3)})
    fails = r_failures(TensorElement.unit(grp, 2), broken)
    assert fails and any("coproduct" in f for f in fails)
    with pytest.raises(MembershipError):
        p_from_r(TensorElement.unit(grp, 2), broken, AlgebraElement.one(grp))


def test_grouplike_check_behaviour():
    grp = symmetric(3)
    assert grouplike_check(AlgebraElement.one(grp))
    assert not grouplike_check(AlgebraElement.basis(grp, grp.generators[0][0]))
    z6 = cyclic(6)
    assert grouplike_check(AlgebraElement.basis(z6, 2))
    two = AlgebraElement.one(z6) + AlgebraElement.basis(z6, 1)
    assert not grouplike_check(two)


def test_pair_construction_requires_a_grouplike():
    grp = cyclic(5)
    r = bicharacter_r(grp)
    bad = AlgebraElement.one(grp) * F(2)
    with pytest.raises(MembershipError):
        p_from_r(TensorElement.unit(grp, 2), r, bad)


def test_bicharacter_pair_candidates_are_bijective():
    for name, order in (("Z4", 4), ("Z5", 5), ("Z2xZ2", 4)):
        grp = parse_group(name)
        cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                        AlgebraElement.one(grp))
        assert phi_rank(cand) == order


def test_bicharacter_needs_an_abelian_group():
    with pytest.raises(PreconditionError):
        bicharacter_r(symmetric(3))


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------

def test_family_block_decomposition_is_frozen():
    rep = mock_pw_decomposition(s3_family(F(1), F(1)))
    assert rep["order"] == 6
    assert [b["label"] for b in rep["blocks"]] == ["triv", "std", "sgn"]
    assert rep["dims"] == [1, 4, 1]
    assert rep["direct"] is True
    assert rep["c_rank"] == 3
    assert rep["center_dim"] == 3
    assert rep["c_spans_center"] is True


def test_block_adjoint_characters_match_the_tensor_square():
    rep = mock_pw_decomposition(s3_family(F(2), F(3)))
    by_label = {b["label"]: b["ad_type"] for b in rep["blocks"]}
    assert by_label["triv"] == {"triv": 1}
    assert by_label["sgn"] == {"triv": 1}
    assert by_label["std"] == {"sgn": 1, "std": 1, "triv": 1}


def test_decomposition_requires_each_hypothesis():
    with pytest.raises(PreconditionError):
        mock_pw_decomposition(perturbed_family_point())
    with pytest.raises(PreconditionError):
        mock_pw_decomposition(regular_p(symmetric(3)))
    with pytest.raises(PreconditionError):
        mock_pw_decomposition(s3_family(F(1), F(0)))


def test_bicharacter_decomposition_has_line_blocks():
    grp = cyclic(5)
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    rep = mock_pw_decomposition(cand)
    assert rep["dims"] == [1, 1, 1, 1, 1]
    assert rep["direct"] is True
    assert rep["c_spans_center"] is True


def test_v4_decomposition_has_line_blocks():
    grp = parse_group("Z2xZ2")
    cand = p_from_r(TensorElement.unit(grp, 2), bicharacter_r(grp),
                    AlgebraElement.one(grp))
    rep = mock_pw_decomposition(cand)
    assert rep["dims"] == [1, 1, 1, 1]
    assert rep["direct"] is True and rep["c_spans_center"] is True


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_for_a_family_point():
    rep = membership_report(s3_family(F(1), F(1)))
    assert rep.to_json() == {
        "A": True,
        "A_conditions": [True, True, True],
        "M": True,
        "M_witnesses": [],
        "M0": True,
        "rank": 6,
        "center_image": True,
    }


def test_report_for_the_regular_candidate():
    rep = membership_report(regular_p(symmetric(3)))
    assert rep.admissible is True
    assert rep.multiplicative is False
    assert rep.witnesses == (("sgn", "sgn"),)
    assert rep.character_multiplicative is False
    assert rep.rank == 6
    assert rep.center_image is True


def test_report_for_a_non_admissible_tensor():
    rep = membership_report(perturbed_family_point())
    assert rep.admissible is False
    assert rep.center_image is False


# ---------------------------------------------------------------------------
# invariant-subspace chains
# ---------------------------------------------------------------------------

def test_adjoint_and_diamond_invariants_coincide():
    for grp in (symmetric(3), dihedral(4)):
        ad_inv = action_invariant_subspace(grp, "ad")
        diamond_inv = action_invariant_subspace(grp, "diamond", "dual")
        assert ad_inv == center_subspace(grp)
        assert diamond_inv == class_indicator_subspace(grp)


def test_center_equals_conjugation_invariants():
    for grp in (symmetric(3), dihedral(4), cyclic(6)):
        center = center_subspace(grp)
        assert center == conjugation_invariant_subspace(grp)
        assert center == action_invariant_subspace(grp, "ad")
        assert center == class_indicator_subspace(grp)


# ---------------------------------------------------------------------------
# the family itself
# ---------------------------------------------------------------------------

def test_family_is_affine_in_its_parameters():
    base = s3_family(F(0), F(0)).tensor
    dlam = s3_family(F(1), F(0)).tensor - base
    dmu = s3_family(F(0), F(1)).tensor - base
    rng = random.Random(841)
    for _ in range(6):
        lam = F(rng.randint(-9, 9), rng.randint(1, 5))
        mu = F(rng.randint(-9, 9), rng.randint(1, 5))
        assert s3_family(lam, mu).tensor == base + dlam * lam + dmu * mu


def test_family_counit_normalization():
    grp = symmetric(3)
    for pt in [(4, 9), (1, 1), (0, 0)]:
        p = s3_family(F(pt[0]), F(pt[1])).tensor
        # the all-ones functional is the unit for convolution; it must map
        # to the algebra unit
        assert phi(p, Functional.counit(grp)) == AlgebraElement.one(grp)
        # pairing the second slot with the counit also recovers the unit
        slot_sums = {}
        for (a, b), c in p.terms.items():
            slot_sums[a] = slot_sums.get(a, F(0)) + c
        assert {a: c for a, c in slot_sums.items() if c} == {0: F(1)}


def test_candidate_equality_ignores_the_note():
    a = s3_family(F(1), F(1))
    b = PCandidate(s3_family(F(1), F(1)).tensor, "other note")
    assert a == b
    assert a != regular_p(symmetric(3))
