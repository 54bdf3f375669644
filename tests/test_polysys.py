"""Polynomial system tests: ordering, reduction, Buchberger, point filters."""

import itertools
import random
from fractions import Fraction

import pytest

from peterweyl.errors import DimensionError
from peterweyl.exact.linalg import Infeasible, solve_linear
from peterweyl.exact.polysys import (
    Poly,
    PolySystem,
    _degrevlex_key,
    buchberger,
    reduce_poly,
)

from _gen import rand_frac


def F(a, b=1):
    return Fraction(a, b)


def xvar(i, nvars):
    return Poly.variable(i, nvars)


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------

def test_degrevlex_on_degree_two_monomials():
    # with x > y > z the classical order is
    # x^2 > xy > y^2 > xz > yz > z^2
    x2, xy, y2 = (2, 0, 0), (1, 1, 0), (0, 2, 0)
    xz, yz, z2 = (1, 0, 1), (0, 1, 1), (0, 0, 2)
    expected = [x2, xy, y2, xz, yz, z2]
    shuffled = list(expected)
    random.Random(301).shuffle(shuffled)
    assert sorted(shuffled, key=_degrevlex_key, reverse=True) == expected


def test_degrevlex_degree_dominates():
    assert _degrevlex_key((0, 0, 3)) > _degrevlex_key((1, 1, 0))
    assert _degrevlex_key((1, 0, 0)) > _degrevlex_key((0, 1, 0))


def test_leading_term():
    x, y = xvar(0, 2), xvar(1, 2)
    p = x * y + y ** 3 + 1
    mono, coef = p.leading()
    assert mono == (0, 3) and coef == 1
    p = 2 * x ** 2 + 3 * x * y
    assert p.leading() == ((2, 0), F(2))


# ---------------------------------------------------------------------------
# arithmetic and evaluation
# ---------------------------------------------------------------------------

def test_poly_arithmetic_basics():
    x, y = xvar(0, 2), xvar(1, 2)
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p - p == Poly(2)
    assert not (p - p)
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert p.total_degree() == 2
    with pytest.raises(DimensionError):
        x + xvar(0, 3)


def test_constant_polynomials_hash_as_their_scalars():
    for p, c in ((Poly.constant(2, 3), F(3)), (Poly(2), 0),
                 (Poly.constant(1, F(-1, 2)), F(-1, 2))):
        assert p == c
        assert hash(p) == hash(c)
        assert len({p, c}) == 1


def test_poly_evaluate_at_scalars():
    x, y = xvar(0, 2), xvar(1, 2)
    p = x ** 2 * y - 3 * y + F(1, 2)
    assert p.evaluate([F(2), F(3)]) == 4 * 3 - 9 + F(1, 2)
    assert Poly(2).evaluate([F(1), F(1)]) == 0
    assert Poly.constant(2, F(7)).evaluate([F(0), F(0)]) == 7


def test_poly_evaluate_substitutes_polynomials():
    # composing with polynomials in a different variable count
    x, y = xvar(0, 2), xvar(1, 2)
    s, t, u = xvar(0, 3), xvar(1, 3), xvar(2, 3)
    p = x * y + y ** 2
    composed = p.evaluate([s + t, u])
    assert composed == (s + t) * u + u ** 2
    assert Poly(2).evaluate([s, t]) == Poly(3)


def test_poly_evaluation_ring_homomorphism_sweep():
    rng = random.Random(302)
    for _ in range(200):
        terms_p = {(rng.randint(0, 2), rng.randint(0, 2)): rand_frac(rng, 5)
                   for _ in range(rng.randint(0, 4))}
        terms_q = {(rng.randint(0, 2), rng.randint(0, 2)): rand_frac(rng, 5)
                   for _ in range(rng.randint(0, 4))}
        p, q = Poly(2, terms_p), Poly(2, terms_q)
        point = [rand_frac(rng, 5), rand_frac(rng, 5)]
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_poly_single_step_example():
    x, y = xvar(0, 2), xvar(1, 2)
    assert reduce_poly(x ** 2, [x + y]) == y ** 2
    assert reduce_poly(x * y - 1, [x + y]) == -(y ** 2) - 1
    assert reduce_poly(y ** 5, [x + y]) == y ** 5


def test_reduce_poly_is_idempotent_and_linear():
    rng = random.Random(303)
    x, y = xvar(0, 2), xvar(1, 2)
    basis = [x ** 2 + y, x * y - 1]
    for _ in range(100):
        p = Poly(2, {(rng.randint(0, 3), rng.randint(0, 3)): rand_frac(rng, 5)
                     for _ in range(rng.randint(0, 5))})
        q = Poly(2, {(rng.randint(0, 3), rng.randint(0, 3)): rand_frac(rng, 5)
                     for _ in range(rng.randint(0, 5))})
        rp, rq = reduce_poly(p, basis), reduce_poly(q, basis)
        assert reduce_poly(rp, basis) == rp
        assert reduce_poly(p + q, basis) == reduce_poly(rp + rq, basis)


# ---------------------------------------------------------------------------
# Buchberger completion: a worked example with membership certificates
# ---------------------------------------------------------------------------

def test_buchberger_worked_example():
    # f1 = xy - 1, f2 = x + y, f3 = x^2 + y^2 + 2
    x, y = xvar(0, 2), xvar(1, 2)
    f1, f2, f3 = x * y - 1, x + y, x ** 2 + y ** 2 + 2
    # hand-checked identities showing the expected basis lies in the ideal:
    #   y^2 + 1 = f3 + f1 - x*f2
    #   x^2 + 1 = -f1 + x*f2
    assert f3 + f1 - x * f2 == y ** 2 + 1
    assert -f1 + x * f2 == x ** 2 + 1
    res = buchberger([f1, f2, f3])
    assert res.status == "basis"
    assert set(res.basis) == {x + y, y ** 2 + 1}
    # the generators must reduce to zero against their own completed basis
    for f in (f1, f2, f3):
        assert reduce_poly(f, list(res.basis)).is_zero()


def test_buchberger_two_generator_example():
    # leading terms x^2 y and x y^2; the completed reduced basis is
    # {x - y, y^3 - 1}, checked by substituting x = y into x^2 y
    x, y = xvar(0, 2), xvar(1, 2)
    res = buchberger([x ** 2 * y - 1, x * y ** 2 - 1])
    assert res.status == "basis"
    assert set(res.basis) == {x - y, y ** 3 - 1}


def test_buchberger_detects_infeasible_pair():
    x = xvar(0, 1)
    res = buchberger([x ** 2 + 1, x + 1])
    assert res.status == "proved_infeasible"
    assert list(res.basis) == [Poly.constant(1, 1)]


def test_buchberger_constant_input_short_circuits():
    x = xvar(0, 1)
    res = buchberger([x, Poly.constant(1, F(5))])
    assert res.status == "proved_infeasible"
    assert res.steps == 0


def test_buchberger_caps_yield_unknown():
    x, y = xvar(0, 2), xvar(1, 2)
    gens = [x ** 2 * y - 1, x * y ** 2 - 1]
    res = buchberger(gens, step_cap=0)
    assert res.status == "unknown"
    assert res.basis  # a partial, interreduced basis is still returned
    res = buchberger(gens, degree_cap=0)
    assert res.status == "unknown"


def test_buchberger_empty_and_zero_inputs():
    assert buchberger([]).status == "basis"
    assert buchberger([Poly(2), Poly(2)]).basis == ()


def test_buchberger_deterministic_under_permutation():
    x, y = xvar(0, 2), xvar(1, 2)
    gens = [x * y - 1, x + y, x ** 2 + y ** 2 + 2]
    results = set()
    for perm in itertools.permutations(gens):
        res = buchberger(list(perm))
        assert res.status == "basis"
        results.add(tuple(res.basis))
    assert len(results) == 1


def test_buchberger_agrees_with_linear_solver():
    # affine-linear systems: infeasibility and unique solutions must match
    # what exact Gauss-Jordan elimination reports
    rng = random.Random(304)
    n = 3
    seen_infeasible = seen_unique = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        polys = []
        for row, bi in zip(rows, b):
            p = Poly.constant(n, -bi)
            for i, c in enumerate(row):
                p = p + c * xvar(i, n)
            polys.append(p)
        res = buchberger(polys)
        lin = solve_linear(rows, b)
        if isinstance(lin, Infeasible):
            seen_infeasible += 1
            assert res.status == "proved_infeasible"
        else:
            assert res.status == "basis"
            point = list(lin.particular)
            for g in res.basis:
                assert g.evaluate(point) == 0
            if not lin.nullspace:
                seen_unique += 1
                expect = {xvar(i, n) - Poly.constant(n, point[i])
                          for i in range(n)}
                assert set(res.basis) == expect
    assert seen_infeasible > 0 and seen_unique > 0


# ---------------------------------------------------------------------------
# PolySystem point filtering
# ---------------------------------------------------------------------------

def test_polysystem_orders_equations_cheapest_first():
    x, y = xvar(0, 2), xvar(1, 2)
    dense = x ** 2 + x * y + y ** 2 + x + y + 1
    sparse = x - 1
    sys = PolySystem(("x", "y"), [dense, sparse])
    assert len(sys.polys[0].terms) <= len(sys.polys[1].terms)
    assert sys.nvars == 2


def test_polysystem_first_violated():
    x, y = xvar(0, 2), xvar(1, 2)
    sys = PolySystem(("x", "y"), [x - 1, y ** 2 - 4])
    assert sys.satisfied_by([F(1), F(2)])
    assert sys.satisfied_by([F(1), F(-2)])
    assert not sys.satisfied_by([F(1), F(1)])
    assert sys.first_violated([F(1), F(2)]) is None
    # the violated index refers to the system's own (sorted) equation list
    bad = sys.first_violated([F(0), F(2)])
    assert bad is not None and sys.polys[bad].evaluate([F(0), F(2)]) != 0


def test_polysystem_arity_mismatch():
    x = xvar(0, 1)
    with pytest.raises(DimensionError):
        PolySystem(("x", "y"), [x])


# ---------------------------------------------------------------------------
# non-rational coefficients
# ---------------------------------------------------------------------------

def test_cyclotomic_coefficients_are_supported():
    from peterweyl.exact.scalars import Cyclotomic

    z = Cyclotomic.zeta(5, 1)
    x = xvar(0, 1)
    p = x * z + 1
    assert p.evaluate([F(0)]) == 1
    # evaluating at a cyclotomic point stays inside the extension
    assert p.evaluate([z]) == z * z + 1
    q = p * z
    assert q.terms[(1,)] == z * z


def test_buchberger_normalizes_cyclotomic_leading_coefficients():
    from peterweyl.exact.scalars import Cyclotomic

    z = Cyclotomic.zeta(4, 1)
    x, y = xvar(0, 2), xvar(1, 2)
    # y = -z x and y = -x together force x = y = 0
    res = buchberger([x * z + y, x + y])
    assert res.status == "basis"
    assert sorted(res.basis, key=repr) == sorted([x, y], key=repr)


def test_mixed_extension_coefficients_are_rejected():
    from peterweyl.errors import VariantError
    from peterweyl.exact.scalars import Cyclotomic

    x = xvar(0, 1)
    p = x * Cyclotomic.zeta(5, 1)
    q = x * Cyclotomic.zeta(4, 1)
    with pytest.raises(VariantError):
        p + q
