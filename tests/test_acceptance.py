"""End-to-end acceptance gate: eleven criteria, one verdict line each.

Every comparison here is exact bit equality (rationals, cyclotomics, or
rational functions); the only numeric thresholds are runtime budgets.
Each test prints and records a single "criterion NN: PASS/FAIL" line,
emitted in the terminal summary by the conftest hook even when all
tests pass.
"""

import random
import time
from fractions import Fraction as F

from conftest import record_criterion

from peterweyl.exact.linalg import Infeasible, Subspace
from peterweyl.groups import (
    diagonal_conjugation_orbits,
    dihedral,
    parse_group,
    symmetric,
)
from peterweyl.hopf import (
    AlgebraElement,
    Functional,
    TensorElement,
    action_invariant_subspace,
    apply_antipode,
    apply_counit,
    apply_delta,
    center_subspace,
    class_indicator_subspace,
    conjugation_invariant_subspace,
    multiply_adjacent,
    to_algebra,
)
from peterweyl.pw import (
    character_structure_constants,
    direct_sum_decomposition,
    product_component_check,
    z,
    z_multiplicative_check,
)
from peterweyl.reps import decompose, decompose_character, irreps
from peterweyl.search import a_basis, search
from peterweyl.transfer import (
    bicharacter_r,
    center_image_check,
    check_t,
    check_t_normalized,
    equivariance_check,
    in_a,
    in_a_conditions,
    in_m0,
    t_from_r,
    mock_pw_decomposition,
    p_from_r,
    phi_rank,
    s3_family,
    solve_t,
)
from peterweyl.uqsl2 import (
    UqElement,
    c_q,
    central_commutant_solve,
    joseph_component_check,
)

for _k in range(1, 12):
    record_criterion(_k, "FAIL (did not complete)")


def _finish(num: int, ok: bool, t0=None, budget=None):
    elapsed = None if t0 is None else time.monotonic() - t0
    within = budget is None or (elapsed is not None and elapsed < budget)
    verdict = "PASS" if (ok and within) else "FAIL"
    if elapsed is not None and budget is not None:
        verdict += " (%.1fs of %ds)" % (elapsed, budget)
    record_criterion(num, verdict)
    print("criterion %02d: %s" % (num, verdict))
    assert ok, "criterion %d checks failed" % num
    assert within, "criterion %d exceeded its runtime budget" % num


def test_criterion_01_family_membership_and_ranks():
    t0 = time.monotonic()
    ok = True
    for lam, mu, full in ((1, 1, True), (2, 3, True), (5, 7, True),
                          (0, 1, False), (1, 0, False)):
        p = s3_family(F(lam), F(mu))
        ok = ok and in_a(p) and in_m0(p)
        rank = phi_rank(p)
        ok = ok and (rank == 6 if full else rank < 6)
    _finish(1, ok, t0, budget=5)


def test_criterion_02_family_has_no_factorization_tensor():
    t0 = time.monotonic()
    ok = True
    for lam, mu in ((1, 1), (2, 3)):
        res = solve_t(s3_family(F(lam), F(mu)))
        # the system is 216 x 1296: one equation per group triple, one
        # unknown per group quadruple; the certificate is a row vector
        ok = ok and isinstance(res, Infeasible)
        ok = ok and len(res.certificate) == 216
    _finish(2, ok, t0, budget=60)


def test_criterion_03_components_multiply_like_modules():
    t0 = time.monotonic()
    ok = True
    for grp in (symmetric(3), dihedral(4)):
        simples = irreps(grp)
        for v in simples:
            for w in simples:
                ok = ok and product_component_check(v, w)
                ok = ok and z_multiplicative_check(v, w)
        ok = ok and direct_sum_decomposition(grp)
    _finish(3, ok, t0, budget=10)


def test_criterion_04_structure_constants_are_tensor_multiplicities():
    t0 = time.monotonic()
    ok = True
    for grp in (symmetric(3), dihedral(4), symmetric(4)):
        simples = irreps(grp)
        chars = Subspace(grp.order, [list(z(v).values) for v in simples])
        ok = ok and chars.dim == len(simples)
        constants = character_structure_constants(grp)
        for v in simples:
            for w in simples:
                expected = decompose(v.tensor(w)).multiplicities
                ok = ok and constants[v.label, w.label] == expected
    _finish(4, ok, t0, budget=30)


def test_criterion_05_transfer_is_equivariant_into_the_center():
    p = s3_family(F(1), F(1))
    # every generator against every delta functional, then all class
    # functions into the center
    ok = equivariance_check(p)
    ok = ok and len(symmetric(3).conjugacy_classes()) == 3
    ok = ok and center_image_check(p)
    _finish(5, ok)


def test_criterion_06_membership_conditions_agree():
    rng = random.Random(6571)
    ok = True
    for grp in (symmetric(3), dihedral(4)):
        for _ in range(50):
            terms = {}
            for _ in range(6):
                key = (rng.randrange(grp.order), rng.randrange(grp.order))
                terms[key] = F(rng.randint(-4, 4), rng.randint(1, 4))
            conds = in_a_conditions(TensorElement(grp, 2, terms))
            ok = ok and conds[0] == conds[1] == conds[2]
        center = center_subspace(grp)
        ok = ok and center == conjugation_invariant_subspace(grp)
        ok = ok and center == action_invariant_subspace(grp, "ad")
        ok = ok and (action_invariant_subspace(grp, "diamond", "dual")
                     == class_indicator_subspace(grp))
    _finish(6, ok)


def test_criterion_07_bicharacter_pair_and_proof_formula():
    grp = parse_group("Z5")
    r = bicharacter_r(grp)
    cand = p_from_r(r, r, AlgebraElement.one(grp))
    ok = in_a(cand) and in_m0(cand)
    t4 = t_from_r(r)
    ok = ok and check_t(cand, t4)
    ok = ok and check_t_normalized(t4)
    _finish(7, ok)


def test_criterion_08_block_decomposition_of_the_group_algebra():
    grp = symmetric(3)
    # mock_pw_decomposition raises internally if a block fails to be
    # stable under the adjoint action, so returning at all certifies it
    result = mock_pw_decomposition(s3_family(F(1), F(1)))
    ok = sorted(result["dims"]) == [1, 1, 4]
    ok = ok and result["direct"] is True
    ok = ok and result["c_spans_center"] is True
    ok = ok and result["c_rank"] == result["center_dim"] == 3
    by_label = {v.label: v for v in irreps(grp)}
    for block in result["blocks"]:
        v = by_label[block["label"]]
        chi = z(v)
        squared = Functional(grp, [chi(g) * chi(grp.inverse(g))
                                   for g in range(grp.order)])
        expected = decompose_character(grp, squared).multiplicities
        ok = ok and block["ad_type"] == expected
    _finish(8, ok)


def test_criterion_09_search_verdicts():
    out_d4 = search(dihedral(4), "random_sampling", count=10_000, seed=7)
    ok = out_d4.verdict == "NoneFoundBounded"
    ok = ok and out_d4.survivors == 0
    ok = ok and not out_d4.candidates
    out_v4 = search(parse_group("Z2xZ2"), "random_sampling", count=1000)
    ok = ok and out_v4.verdict == "SolutionsFound"
    _finish(9, ok)


def test_criterion_10_quantized_central_elements():
    t0 = time.monotonic()
    gens = [UqElement.e(), UqElement.f(), UqElement.k()]
    ok = c_q(0) == UqElement.one()
    for n in range(5):
        cn = c_q(n)
        ok = ok and all(cn * g == g * cn for g in gens)
    ok = ok and c_q(1) * c_q(1) == c_q(2) + c_q(0)
    ok = ok and c_q(1) * c_q(2) == c_q(3) + c_q(1)
    basis = central_commutant_solve(1)
    keys = sorted({key for x in list(basis) + [c_q(1)] for key in x.terms})
    from peterweyl.exact.linalg import solve_linear
    from peterweyl.exact.scalars import RatFun

    zero = RatFun.of(0)
    rows = [[x.terms.get(key, zero) for x in basis] for key in keys]
    rhs = [c_q(1).terms.get(key, zero) for key in keys]
    ok = ok and hasattr(solve_linear(rows, rhs), "particular")
    elems = [c_q(n) for n in range(5)]
    all_keys = sorted({key for x in elems for key in x.terms})
    vectors = [[x.terms.get(key, zero) for key in all_keys] for x in elems]
    ok = ok and Subspace(len(all_keys), vectors).dim == 5
    for n in range(4):
        ok = ok and joseph_component_check(n)["highest_to_lowest_unit"]
    _finish(10, ok, t0, budget=60)


def test_criterion_11_property_suites_exhaustive():
    ok = True
    for grp in (symmetric(3), dihedral(4)):
        one = TensorElement.unit(grp, 1)
        for i in range(grp.order):
            x = AlgebraElement.basis(grp, i)
            d = x.delta()
            for slot in (0, 1):
                ok = ok and multiply_adjacent(apply_antipode(d, slot), 0) == one
                ok = ok and to_algebra(apply_counit(d, slot)) == x
            ok = ok and apply_delta(d, 0) == apply_delta(d, 1)
        simples = irreps(grp)
        for v in simples:
            for g in range(grp.order):
                for h in range(grp.order):
                    ok = ok and (v.matrix(g) * v.matrix(h)
                                 == v.matrix(grp.mul(g, h)))
        for v in simples:
            for w in simples:
                acc = None
                for g in range(grp.order):
                    term = z(v)(g) * z(w)(grp.inverse(g))
                    acc = term if acc is None else acc + term
                expected = grp.order if v.label == w.label else 0
                ok = ok and acc == expected
        counted = len(diagonal_conjugation_orbits(grp))
        ok = ok and counted == len(a_basis(grp))
        ok = ok and counted == {6: 11, 8: 28}[grp.order]
    _finish(11, ok)
