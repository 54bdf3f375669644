"""Polynomial system tests: ordering, reduction, Buchberger, point filters."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peterweyl.errors import DimensionError
from peterweyl.exact.linalg import Infeasible, nullspace, solve_linear
from peterweyl.exact.polysys import (
    Poly,
    PolySystem,
    _degrevlex_key,
    _mono_lcm,
    buchberger,
    reduce_poly,
)
from peterweyl.exact.scalars import Cyclotomic, scalar_to_str
from peterweyl.groups import parse_group
from peterweyl.search import _groebner_polys

from _gen import rand_frac
from _modules import reference_reduce_poly, reference_spoly


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


@st.composite
def _polys(draw, nvars=None, min_terms=0, max_degree=3, max_terms=4):
    """A polynomial with small integer coefficients in nvars variables
    (2 or 3 if not given) and of total degree at most max_degree."""
    if nvars is None:
        nvars = draw(st.integers(2, 3))
    mono = st.lists(st.integers(0, max_degree), min_size=nvars,
                    max_size=nvars).filter(lambda m: sum(m) <= max_degree)
    coef = st.integers(-3, 3).filter(bool).map(Fraction)
    terms = draw(st.lists(st.tuples(mono.map(tuple), coef),
                          min_size=min_terms, max_size=max_terms,
                          unique_by=lambda t: t[0]))
    return Poly(nvars, terms)


@given(_polys())
def test_leading_term_is_memoized_without_changing_the_poly(p):
    fresh = Poly(p.nvars, p.terms)
    if p:
        mono = max(p.terms, key=_degrevlex_key)
        assert p.leading() == (mono, p.terms[mono])
        assert p.leading() == (mono, p.terms[mono])
    # fresh never computed its leading term
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    with pytest.raises(AttributeError):
        p.x = 1
    with pytest.raises(AttributeError):
        p._lead = ((0,) * p.nvars, F(1))


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


def test_reduce_poly_rejects_divisors_in_another_variable_count():
    x, y = xvar(0, 2), xvar(1, 2)
    t = xvar(0, 1)
    # no division happens in the first case, and in the last the divisor
    # is zero; each still mixes polynomials of two variable counts
    for f, basis in ((y, [t + 1]), (x * y, [t]), (x, [x + y, t]),
                     (x, [Poly(1)])):
        with pytest.raises(DimensionError, match="variable count mismatch"):
            reduce_poly(f, basis)


@st.composite
def _coefficients(draw, n):
    """A nonzero rational, or for n = 3 or 4 also an element of Q(zeta_n)
    with a small common denominator."""
    if n is not None and not draw(st.integers(0, 3)):
        # a rational value held in the field, such as a leading 1
        return Cyclotomic.of(n, draw(st.sampled_from([1, -1, 2])))
    den = draw(st.integers(1, 3))
    if n is None or draw(st.booleans()):
        return Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), den)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=n)
                  .filter(any))
    return Cyclotomic(n, [Fraction(c, den) for c in coeffs])


@st.composite
def _field_polys(draw, nvars, n, min_terms=0, max_terms=4):
    mono = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    terms = draw(st.lists(st.tuples(mono.map(tuple), _coefficients(n)),
                          min_size=min_terms, max_size=max_terms,
                          unique_by=lambda t: t[0]))
    return Poly(nvars, terms)


@st.composite
def _divisions(draw):
    """(f, divisors) over Q, Q(zeta_3) or Q(zeta_4): the divisors need not
    be monic, may be zero and rarely form a Groebner basis, and f may be
    zero or already reduced."""
    nvars = draw(st.integers(1, 3))
    n = draw(st.sampled_from([None, 3, 4]))
    basis = draw(st.lists(_field_polys(nvars, n, max_terms=3),
                          min_size=1, max_size=4))
    f = draw(_field_polys(nvars, n, max_terms=4))
    # multiples of the divisors make long divisions likely
    for g in basis:
        if draw(st.booleans()):
            f = f + g * draw(_field_polys(nvars, n, min_terms=1,
                                          max_terms=2))
    if not draw(st.integers(0, 3)):
        f = reference_reduce_poly(f, basis)
    return f, basis


def _terms(p):
    """The terms of p in order, each coefficient as its canonical string,
    which tells a rational apart from the same value in Q(zeta_n)."""
    return [(m, scalar_to_str(c)) for m, c in p.terms.items()]


@given(_divisions())
def test_reduce_poly_matches_the_reference_division(case):
    f, basis = case
    assert _terms(reduce_poly(f, basis)) == _terms(
        reference_reduce_poly(f, basis))


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
    assert res.basis  # the partial basis, not interreduced, is returned
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
            if not nullspace(rows, n):
                seen_unique += 1
                expect = {xvar(i, n) - Poly.constant(n, point[i])
                          for i in range(n)}
                assert set(res.basis) == expect
    assert seen_infeasible > 0 and seen_unique > 0


# ---------------------------------------------------------------------------
# Buchberger against the pair scan it replaced
# ---------------------------------------------------------------------------

def _lead_uncached(p):
    mono = max(p.terms, key=_degrevlex_key)
    return mono, p.terms[mono]


def _oracle_interreduce(basis):
    """The reduced basis by the reference division: each element is reduced
    by the others until none changes, made monic, and sorted."""
    out = [g * (1 / _lead_uncached(g)[1]) for g in basis]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(out):
            rest = out[:i] + out[i + 1:]
            r = reference_reduce_poly(g, rest) if rest else g
            if r != g:
                changed = True
                if r:
                    out[i] = r * (1 / _lead_uncached(r)[1])
                else:
                    out.pop(i)
                    break
    out.sort(key=lambda g: (_degrevlex_key(_lead_uncached(g)[0]),
                            sorted(g.terms.items())))
    return out


def _oracle_buchberger(polys, degree_cap=None, step_cap=None):
    """(status, basis, steps) of the completion as it selected pairs before
    the heap: a min over the set of pending pairs by (lcm degree, (i, j)),
    with every leading term recomputed where it is read, and every
    S-polynomial and normal form built by the reference division."""
    basis = [p * (1 / _lead_uncached(p)[1]) for p in polys if p]
    if not basis:
        return "basis", (), 0
    nvars = basis[0].nvars
    one = (0,) * nvars
    if any(_lead_uncached(g)[0] == one for g in basis):
        return "proved_infeasible", (Poly.constant(nvars, 1),), 0
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    steps = 0
    while pairs:
        key = min(pairs, key=lambda ij: (
            sum(_mono_lcm(_lead_uncached(basis[ij[0]])[0],
                          _lead_uncached(basis[ij[1]])[0])), ij))
        pairs.discard(key)
        i, j = key
        mi, mj = _lead_uncached(basis[i])[0], _lead_uncached(basis[j])[0]
        if _mono_lcm(mi, mj) == tuple(a + b for a, b in zip(mi, mj)):
            continue
        steps += 1
        if step_cap is not None and steps > step_cap:
            return "unknown", tuple(basis), steps
        r = reference_reduce_poly(reference_spoly(basis[i], basis[j]), basis)
        if not r:
            continue
        if _lead_uncached(r)[0] == one:
            return "proved_infeasible", (Poly.constant(nvars, 1),), steps
        if degree_cap is not None and r.total_degree() > degree_cap:
            return "unknown", tuple(basis), steps
        basis.append(r * (1 / _lead_uncached(r)[1]))
        k = len(basis) - 1
        pairs.update((k, t) for t in range(k))
    return "basis", tuple(_oracle_interreduce(basis)), steps


@st.composite
def _small_systems(draw):
    nvars = draw(st.integers(2, 3))
    polys = draw(st.lists(_polys(nvars=nvars, min_terms=2), min_size=2,
                          max_size=4))
    degree_cap = draw(st.one_of(st.none(), st.integers(1, 4)))
    step_cap = draw(st.one_of(st.none(), st.integers(0, 6)))
    return polys, degree_cap, step_cap


def _assert_matches_oracle(res, oracle):
    """Status, steps and basis agree, each basis polynomial term by term in
    order; a capped basis is compared as returned, not interreduced."""
    status, basis, steps = oracle
    assert (res.status, res.steps) == (status, steps)
    assert [_terms(g) for g in res.basis] == [_terms(g) for g in basis]


@given(_small_systems())
def test_buchberger_matches_the_pair_scan_oracle(system):
    polys, degree_cap, step_cap = system
    res = buchberger(polys, degree_cap=degree_cap, step_cap=step_cap)
    _assert_matches_oracle(res, _oracle_buchberger(
        polys, degree_cap=degree_cap, step_cap=step_cap))


@st.composite
def _cyclotomic_systems(draw):
    n = draw(st.sampled_from([3, 4]))
    polys = draw(st.lists(_field_polys(2, n, max_terms=3), min_size=2,
                          max_size=3))
    degree_cap = draw(st.one_of(st.none(), st.integers(1, 3)))
    step_cap = draw(st.integers(0, 4))
    return polys, degree_cap, step_cap


@given(_cyclotomic_systems())
def test_buchberger_matches_the_oracle_over_cyclotomic_fields(system):
    # coefficients mix rationals, elements of Q(zeta_n) and rationals
    # held in Q(zeta_n); the comparison tells those apart
    polys, degree_cap, step_cap = system
    res = buchberger(polys, degree_cap=degree_cap, step_cap=step_cap)
    _assert_matches_oracle(res, _oracle_buchberger(
        polys, degree_cap=degree_cap, step_cap=step_cap))


def _assert_capped_search_matches_oracle(token):
    # the caps of the benchmark's capped searches (the 21st step hits the
    # step cap)
    polys, _ = _groebner_polys(parse_group(token))
    res = buchberger(polys, degree_cap=2, step_cap=20)
    assert (res.status, res.steps) == ("unknown", 21)
    _assert_matches_oracle(res, _oracle_buchberger(
        polys, degree_cap=2, step_cap=20))


def test_buchberger_matches_the_oracle_on_the_s3_system():
    _assert_capped_search_matches_oracle("S3")


def test_buchberger_matches_the_oracle_on_the_z3_system():
    # the system of the groebner strategy on Z3, over Q(zeta_3); no
    # benchmark workload completes it
    _assert_capped_search_matches_oracle("Z3")


# sha256 of the whole GroebnerResult (status, steps and each basis
# polynomial's terms in order) of the groebner strategy's systems at
# --degree-cap 2 --step-cap 20: the two capped searches of the benchmark's
# search workload, and Z3's system over Q(zeta_3)
CAPPED_COMPLETIONS = {
    "Z2xZ2":
        "b62ff37236d6ee59fac8d12bb33ddc0a735d61bcfd2c519564c824fff8357904",
    "S3": "1be09b31be4d544979bceb84ce438720374cb23d04224d50c1aac060e2f67a49",
    "Z3": "5929c0f16527bf77b20ad4e226fff0927b501c28219078d1e9dcf91c470c9a5d",
}


@pytest.mark.parametrize("token", list(CAPPED_COMPLETIONS))
def test_capped_completions_are_pinned(token):
    polys, _ = _groebner_polys(parse_group(token))
    res = buchberger(polys, degree_cap=2, step_cap=20)
    doc = [res.status, res.steps,
           [[[list(m), scalar_to_str(c)] for m, c in g.terms.items()]
            for g in res.basis]]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == CAPPED_COMPLETIONS[token]


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
