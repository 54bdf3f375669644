"""Scalar field tests: axioms, known values, serialization, variant rules."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peterweyl.errors import (
    DimensionError,
    ParseError,
    PreconditionError,
    VariantError,
)
from peterweyl.exact.polysys import Poly
from peterweyl.exact.scalars import (
    Cyclotomic,
    RatFun,
    _common,
    _igcd,
    _same_key,
    as_scalar,
    collect,
    cyclotomic_polynomial,
    promote_like,
    scalar_from_str,
    scalar_to_str,
    unify,
    variant_name,
)
from peterweyl.groups import cyclic, symmetric
from peterweyl.hopf import AlgebraElement, TensorElement
from peterweyl.reps import K0Element
from peterweyl.uqsl2 import UqElement, UqTensor

from _gen import rand_cyclo, rand_frac, rand_ratfun, rand_scalar


def F(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# cyclotomic polynomials: values checked against the classical table
# ---------------------------------------------------------------------------

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_table():
    for n, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(n) == tuple(Fraction(c) for c in coeffs)


def test_cyclotomic_polynomial_degree_is_euler_phi():
    # phi(n) computed independently from the definition
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    for n in range(1, 20):
        assert len(cyclotomic_polynomial(n)) - 1 == phi(n)


def test_cyclotomic_polynomial_product_recovers_x_n_minus_1():
    # prod_{d | n} Phi_d(x) = x^n - 1, multiplied out with Fractions
    for n in (6, 8, 12):
        prod = (Fraction(1),)
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = tuple(out)
        expect = [Fraction(0)] * (n + 1)
        expect[0], expect[n] = Fraction(-1), Fraction(1)
        assert list(prod) == expect


# ---------------------------------------------------------------------------
# roots of unity: identities provable by hand
# ---------------------------------------------------------------------------

def test_zeta_power_cycle():
    for n in (2, 3, 4, 5, 8, 12):
        z = Cyclotomic.zeta(n)
        assert z ** n == 1
        assert z ** (n + 3) == z ** 3
        assert z.inverse() == Cyclotomic.zeta(n, n - 1)


def test_zeta_sum_vanishes():
    for n in (2, 3, 4, 5, 8, 12):
        total = Cyclotomic.of(n, 0)
        for k in range(n):
            total = total + Cyclotomic.zeta(n, k)
        assert total == 0


def test_zeta4_squares_to_minus_one():
    i = Cyclotomic.zeta(4)
    assert i * i == -1
    assert i ** 2 == Cyclotomic.of(4, -1)


def test_zeta12_satisfies_its_minimal_polynomial():
    z = Cyclotomic.zeta(12)
    assert z ** 4 - z ** 2 + 1 == 0
    # zeta12^4 = zeta12^2 - 1, i.e. a primitive cube root of unity
    w = z ** 4
    assert w == z ** 2 - 1
    assert w ** 3 == 1
    assert w != 1


def test_zeta5_golden_ratio_relation():
    # u = zeta + zeta^4 = 2 cos(72 degrees) satisfies u^2 + u - 1 = 0
    z = Cyclotomic.zeta(5)
    u = z + z ** 4
    assert u ** 2 + u - 1 == 0
    assert (z + z ** 4) * (z ** 2 + z ** 3) == -1


def test_cyclotomic_rational_detection():
    z = Cyclotomic.zeta(8)
    assert not z.is_rational
    assert (z ** 4).is_rational
    assert (z ** 4).as_fraction() == -1
    assert (z * z.inverse()).as_fraction() == 1
    with pytest.raises(VariantError):
        z.as_fraction()


# ---------------------------------------------------------------------------
# rational functions in v
# ---------------------------------------------------------------------------

def test_ratfun_constructor_normalizes():
    # (2v + 2) / (4v + 4) = 1/2
    r = RatFun((2, 2), (4, 4))
    assert r.is_rational and r.as_fraction() == F(1, 2)
    # denominator made monic: (v + 1) / (2v) = (1/2 v + 1/2) / v
    r = RatFun((1, 1), (0, 2))
    assert r.num == (F(1, 2), F(1, 2))
    assert r.den == (F(0), F(1))


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun((1,), (0,))


def test_ratfun_quantum_integer_identity():
    # [2] = (q^2 - q^-2) / (q - q^-1) = q + q^-1 with q = v^2
    v = RatFun.gen()
    q = v * v
    two = (q ** 2 - q ** -2) / (q - q ** -1)
    assert two == q + q ** -1
    # [3] = q^2 + 1 + q^-2
    three = (q ** 3 - q ** -3) / (q - q ** -1)
    assert three == q ** 2 + 1 + q ** -2


def test_ratfun_difference_of_squares():
    v = RatFun.gen()
    assert (v ** 2 - 1) / (v - 1) == v + 1
    assert (v - 1) * (v + 1) == v ** 2 - 1


# ---------------------------------------------------------------------------
# RatFun normal form against a Euclid-over-Fraction reference
# ---------------------------------------------------------------------------
#
# The reference is the textbook route over Fraction coefficients, with its
# own dense polynomial helpers below: Euclid's algorithm over Q, exact
# division by the monic gcd, then a monic denominator.  Shared factors are
# multiplied in on purpose so that the gcd is rarely trivial.

def _ptrim(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _psub(a, b):
    return _padd(a, tuple(-c for c in b))


def _pmul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    """Quotient and remainder of a by a nonzero b over Q."""
    a, b = _ptrim(a), _ptrim(b)
    r = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 1)
    for k in range(len(a) - len(b), -1, -1):
        coef = q[k] = r[k + len(b) - 1] / b[-1]
        for i, cb in enumerate(b):
            r[i + k] -= coef * cb
    return _ptrim(q), _ptrim(r)


def _poly_of(cs):
    return _ptrim([Fraction(c) for c in cs])


def _ref_gcd(a, b):
    a, b = _poly_of(a), _poly_of(b)
    while any(b):
        a, b = b, _pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _ref_normal(num, den):
    num, den = _poly_of(num), _poly_of(den)
    if not any(num):
        return (F(0),), (F(1),)
    g = _ref_gcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


_coef = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))
_poly = st.lists(_coef, min_size=1, max_size=4)
_nonzero_poly = _poly.filter(any)
_laurent_den = st.builds(
    lambda k, c: (0,) * k + (c,), st.integers(0, 4), _coef.filter(bool))
_any_den = st.one_of(_laurent_den, _nonzero_poly)


@st.composite
def _ratfun_parts(draw):
    num, den = draw(_poly), draw(_any_den)
    shared = _poly_of(draw(st.one_of(st.just((1,)), _any_den)))
    return _pmul(_poly_of(num), shared), _pmul(_poly_of(den), shared)


@given(_ratfun_parts())
def test_ratfun_normal_form_matches_euclid_reference(parts):
    num, den = parts
    x = RatFun(num, den)
    assert x.den[-1] == 1
    assert all(type(c) is Fraction for c in x.num + x.den)
    assert (x.num, x.den) == _ref_normal(num, den)
    back = scalar_from_str(scalar_to_str(x))
    assert back == x and hash(back) == hash(x)


@given(_ratfun_parts())
def test_ratfun_zero_operands(parts):
    x = RatFun(*parts)
    zero = RatFun.of(0)
    assert x + 0 is x and x - zero is x and zero + x == x
    assert x * 0 == 0 and 0 * x == 0
    assert 0 - x == -x
    assert x - x == 0


def _ppow(a, k):
    out = (F(1),)
    for _ in range(k):
        out = _pmul(out, a)
    return out


@given(_ratfun_parts(), _ratfun_parts(), st.integers(-3, 3))
def test_ratfun_arithmetic_matches_fraction_reference(p, q, k):
    (a, b), (c, d) = p, q
    x, y = RatFun(a, b), RatFun(c, d)
    cases = [(x + y, _padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d)),
             (x - y, _psub(_pmul(a, d), _pmul(c, b)), _pmul(b, d)),
             (x * y, _pmul(a, c), _pmul(b, d)),
             (-x, tuple(-t for t in a), b)]
    if y:
        cases += [(x / y, _pmul(a, d), _pmul(b, c)), (y.inverse(), d, c)]
    if k >= 0:
        cases.append((x ** k, _ppow(a, k), _ppow(b, k)))
    elif x:
        cases.append((x ** k, _ppow(b, -k), _ppow(a, -k)))
    for got, num, den in cases:
        assert (got.num, got.den) == _ref_normal(num, den)
        # the stored integer pair: content 1, positive leading denominator
        assert all(type(t) is int for t in got._n + got._d)
        assert gcd(*got._n, *got._d) == 1 and got._d[-1] > 0
    assert (x == y) is (_ref_normal(a, b) == _ref_normal(c, d))


@given(_ratfun_parts(), _ratfun_parts(), st.integers(-30, 30).filter(bool))
def test_equal_ratfuns_compare_and_hash_equal(p, q, scale):
    (a, b), (c, d) = p, q
    x, y = RatFun(a, b), RatFun(c, d)
    num, den = _pmul(a, c), _pmul(b, d)
    scale *= lcm(*(t.denominator for t in num + den))
    products = [x * y, y * x, RatFun(num, den),
                RatFun([int(t * scale) for t in num],
                       [int(t * scale) for t in den]),
                scalar_from_str(scalar_to_str(x * y))]
    if y:
        products.append(x * y * y / y)
    if x and y:
        products.append((x.inverse() * y.inverse()).inverse())
    for u in products:
        for w in products:
            assert u == w and hash(u) == hash(w)
            assert scalar_to_str(u) == scalar_to_str(w)


def test_rational_ratfuns_compare_and_hash_as_fractions():
    c = F(3, 4)
    for x in (RatFun.of(c), RatFun((3,), (4,)), RatFun((F(3, 2),), (2,)),
              RatFun((0, 6), (0, 8)), RatFun((-3,), (-4,)),
              scalar_from_str("[3/4]/[1/1]@v"), RatFun.of(3) / 4,
              RatFun.gen() * c / RatFun.gen(), RatFun.of(F(4, 3)).inverse()):
        assert x == c and c == x and hash(x) == hash(c)
        assert x == RatFun.of(c) and hash(x) == hash(RatFun.of(c))
        assert x._n == (3,) and x._d == (4,)


# The primitive gcd over Z[v] (`_igcd`) is compared, made monic, against the
# Euclid-over-Q reference; inputs with Fraction coefficients are first cleared
# of their denominators, which changes the gcd only by a unit.

def _int_poly(cs):
    cs = _poly_of(cs)
    scale = lcm(*(c.denominator for c in cs))
    return [int(c * scale) for c in cs]


def _monic_igcd(a, b):
    g = _igcd(_int_poly(a), _int_poly(b))
    assert gcd(*g) == 1
    return tuple(F(c, g[-1]) for c in g)


@given(_poly, _poly)
def test_pgcd_matches_euclid_reference(a, b):
    if any(a) or any(b):
        assert _monic_igcd(a, b) == _ref_gcd(a, b)


def test_pgcd_edge_cases():
    # content alone differs: 2v + 2 against 4v + 4
    assert _monic_igcd((F(2), F(2)), (F(4), F(4))) == (F(1), F(1))
    assert _monic_igcd((F(1, 2), F(1, 3)), (F(3), F(2))) == (F(3, 2), F(1))
    assert _monic_igcd((F(3),), (F(1), F(0), F(1))) == (F(1),)
    assert _monic_igcd((F(5),), (F(-2, 7),)) == (F(1),)
    assert _monic_igcd((F(0),), (F(2), F(4))) == (F(1, 2), F(1))
    assert _monic_igcd((F(-3), F(0), F(3)), (F(0),)) == (F(-1), F(0), F(1))
    assert _monic_igcd((F(0),), (F(-5),)) == (F(1),)


# ---------------------------------------------------------------------------
# field axioms, swept with seeded randomness per variant
# ---------------------------------------------------------------------------

def _axiom_sweep(rng, draw, count):
    zero = draw(rng) * 0
    one = zero + 1
    for _ in range(count):
        a, b, c = draw(rng), draw(rng), draw(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if a != zero:
            assert a * (one / a) == one
            assert (b / a) * a == b


def test_field_axioms_rational():
    _axiom_sweep(random.Random(101), rand_frac, 10_000)


def test_field_axioms_cyclotomic_5():
    _axiom_sweep(random.Random(102), lambda r: rand_cyclo(r, 5), 2_000)


def test_field_axioms_cyclotomic_12():
    _axiom_sweep(random.Random(103), lambda r: rand_cyclo(r, 12), 2_000)


def test_field_axioms_ratfun():
    _axiom_sweep(random.Random(104), rand_ratfun, 2_000)


def test_power_consistency():
    rng = random.Random(105)
    for variant in ("rational", "cyclotomic(5)", "ratfun"):
        for _ in range(200):
            a = rand_scalar(rng, variant)
            acc = a * 0 + 1
            for k in range(5):
                assert a ** k == acc
                acc = acc * a
            if a != a * 0:
                assert a ** -2 == (a * a) ** -1
                assert a ** -3 * a ** 3 == a * 0 + 1


# ---------------------------------------------------------------------------
# serialization: frozen canonical strings and round trips
# ---------------------------------------------------------------------------

FROZEN_STRINGS = [
    (Fraction(3, 4), "3/4"),
    (Fraction(-2), "-2/1"),
    (Fraction(0), "0/1"),
    (Cyclotomic.zeta(5), "[0/1,1/1,0/1,0/1]@zeta(5)"),
    (Cyclotomic.of(4, Fraction(1, 2)), "[1/2,0/1]@zeta(4)"),
    (Cyclotomic.zeta(4) - 1, "[-1/1,1/1]@zeta(4)"),
    (RatFun.gen(), "[0/1,1/1]/[1/1]@v"),
    (RatFun.of(Fraction(-5, 3)), "[-5/3]/[1/1]@v"),
    ((1 + RatFun.gen()) / (1 - RatFun.gen()), "[-1/1,-1/1]/[-1/1,1/1]@v"),
]


def test_frozen_canonical_strings():
    for value, text in FROZEN_STRINGS:
        assert scalar_to_str(value) == text
        back = scalar_from_str(text)
        assert back == value
        assert variant_name(back) == variant_name(value)


def test_serialization_round_trip_sweep():
    rng = random.Random(106)
    for variant in ("rational", "cyclotomic(5)", "cyclotomic(8)", "ratfun"):
        for _ in range(500):
            s = rand_scalar(rng, variant)
            back = scalar_from_str(scalar_to_str(s))
            assert back == s
            assert variant_name(back) == variant_name(s)


BAD_STRINGS = [
    "1/0",
    "abc",
    "",
    "1.5",
    "[1/1,2/1]@zeta(0)",
    "[1/1,2/1]@zeta(x)",
    "[]@zeta(4)",
    "[1/1,2/1@v",
    "[1/1]/[0/1]@v",
    "[1/1][2/1]@v",
    "[1/[2]@v",
    "[1]/[2]/[3]@v",
    "[1/1,2/1]zeta(4)",
]


def test_malformed_strings_rejected():
    for text in BAD_STRINGS:
        with pytest.raises(ParseError):
            scalar_from_str(text)


# ---------------------------------------------------------------------------
# variant promotion rules
# ---------------------------------------------------------------------------

def test_variant_names():
    assert variant_name(Fraction(1, 2)) == "rational"
    assert variant_name(3) == "rational"
    assert variant_name(Cyclotomic.zeta(7)) == "cyclotomic(7)"
    assert variant_name(RatFun.gen()) == "ratfun"


def test_as_scalar_rejects_floats():
    with pytest.raises(VariantError):
        as_scalar(0.5)


def test_rationals_promote_into_extensions():
    z = Cyclotomic.zeta(5)
    assert z + F(1, 2) == F(1, 2) + z
    assert (z * 2) / 2 == z
    v = RatFun.gen()
    assert v + F(1, 3) == F(1, 3) + v
    assert promote_like(F(2), z) == Cyclotomic.of(5, 2)
    assert promote_like(F(2), v) == RatFun.of(2)
    assert promote_like(Cyclotomic.of(5, F(3, 2)), F(1)) == F(3, 2)


def test_extensions_never_mix():
    z5, z7, v = Cyclotomic.zeta(5), Cyclotomic.zeta(7), RatFun.gen()
    with pytest.raises(VariantError):
        z5 + z7
    with pytest.raises(VariantError):
        z5 * v
    with pytest.raises(VariantError):
        v - z5
    with pytest.raises(VariantError):
        unify([z5, z7])
    with pytest.raises(VariantError):
        unify([z5, v])
    with pytest.raises(VariantError):
        promote_like(z5, v)
    with pytest.raises(VariantError):
        promote_like(v, z5)
    with pytest.raises(VariantError):
        z5 == z7


def test_rational_valued_cyclotomics_compare_across_orders():
    a = Cyclotomic.of(5, F(3, 2))
    b = Cyclotomic.of(7, F(3, 2))
    assert a == b
    assert a == F(3, 2)
    assert a + Cyclotomic.of(7, 1) == F(5, 2)


def test_unify_promotes_to_common_variant():
    z = Cyclotomic.zeta(5)
    out = unify([F(1, 2), z, 3])
    assert all(isinstance(x, Cyclotomic) and x.n == 5 for x in out)
    assert out[0] == F(1, 2) and out[2] == 3
    v = RatFun.gen()
    out = unify([2, v])
    assert all(isinstance(x, RatFun) for x in out)
    out = unify([F(1, 2), 3])
    assert all(isinstance(x, Fraction) for x in out)


def test_collect_sums_repeated_keys_and_drops_zeros():
    z = Cyclotomic.zeta(3)
    pairs = [("a", 1), ("b", z), ("c", Fraction(1, 2)), ("b", -z),
             ("a", Fraction(1, 3)), ("c", 0)]
    got = collect(pairs)
    assert got == {"a": Fraction(4, 3), "c": Fraction(1, 2)}
    assert list(got) == ["a", "c"]
    assert collect({"x": 0, "y": 2}) == {"y": 2}
    assert collect(iter(pairs)) == got


def test_hash_consistent_with_equality():
    assert hash(Cyclotomic.of(5, F(3, 2))) == hash(F(3, 2))
    assert hash(RatFun.of(F(3, 2))) == hash(F(3, 2))
    z = Cyclotomic.zeta(8)
    assert hash(z ** 2 * z ** 2) == hash(Cyclotomic.of(8, -1))


def test_immutability():
    z = Cyclotomic.zeta(5)
    with pytest.raises(AttributeError):
        z.n = 7
    v = RatFun.gen()
    with pytest.raises(AttributeError):
        v.num = (Fraction(1),)


# ---------------------------------------------------------------------------
# one mixing rule across variants
# ---------------------------------------------------------------------------
#
# The rule, stated here independently of the package: a rational value
# (an int, a Fraction, or an extension element whose value is rational)
# goes into any variant; non-rational elements of two different fields
# never mix.

_ORDERS = (3, 4, 5, 7)
_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _cyclotomics(draw, orders=_ORDERS):
    n = draw(st.sampled_from(orders))
    d = len(cyclotomic_polynomial(n)) - 1
    coeffs = draw(st.lists(_small, min_size=d, max_size=d))
    if draw(st.booleans()):
        coeffs = coeffs[:1]
    return Cyclotomic(n, coeffs)


_ratfuns = st.one_of(st.builds(RatFun.of, _small),
                     st.builds(lambda parts: RatFun(*parts), _ratfun_parts()))
_mixed_scalars = st.one_of(_small, _cyclotomics(), _ratfuns)


def _value_is_rational(x):
    return isinstance(x, Fraction) or x.is_rational


def _clash(a, b):
    return (not _value_is_rational(a) and not _value_is_rational(b)
            and variant_name(a) != variant_name(b))


@given(_mixed_scalars, _mixed_scalars)
def test_mixed_sums_and_products_commute(a, b):
    if _clash(a, b):
        return
    for left, right in ((a + b, b + a), (a * b, b * a)):
        assert left == right
        assert scalar_to_str(left) == scalar_to_str(right)


@given(_mixed_scalars, _mixed_scalars)
def test_variant_error_exactly_when_non_rational_fields_differ(a, b):
    ops = (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a == b,
           lambda: b - a, lambda: unify([a, b]))
    for op in ops:
        if _clash(a, b):
            with pytest.raises(VariantError):
                op()
        else:
            op()


@given(_cyclotomics())
def test_cyclotomic_hash_is_that_of_its_fraction_view(x):
    # _key() skips the Fraction view when q is 1; the hash must not notice
    if x.is_rational:
        assert hash(x) == hash(x.as_fraction())
    else:
        assert hash(x) == hash((x.n, x.coeffs))


def test_cyclotomic_hash_for_both_denominators():
    z = Cyclotomic.zeta(5)
    whole, halves = z * 3 + 2, (z * 3 + 2) / 2
    assert (whole._q, halves._q) == (1, 2)
    for x in (whole, halves):
        assert hash(x) == hash((x.n, x.coeffs))
        assert _same_key(x, Cyclotomic(5, x.coeffs))
    assert not _same_key(whole, halves)
    for c in (F(3), F(3, 2), F(0)):
        assert hash(Cyclotomic.of(5, c)) == hash(c)


@given(_mixed_scalars, _mixed_scalars)
def test_equal_mixed_scalars_hash_equal(a, b):
    if _clash(a, b):
        return
    if a == b:
        assert hash(a) == hash(b)
    if _value_is_rational(a) or variant_name(a) == variant_name(b):
        c = promote_like(a, b)
        assert variant_name(c) == variant_name(b)
        assert c == a and a == c and hash(c) == hash(a)


@given(_mixed_scalars, _mixed_scalars)
def test_mixed_division_inverts_multiplication(a, b):
    if _clash(a, b) or not b:
        return
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(st.one_of(_cyclotomics(), _ratfuns), _small, st.booleans())
def test_equality_with_a_rational_agrees_with_promotion(x, c, same):
    # == with an int or Fraction skips promote_like; it must decide as
    # the promoted comparison does
    if same and x.is_rational:
        c = x.as_fraction()
    for other in (c, int(c)) if c.denominator == 1 else (c,):
        expect = _common(_same_key, x, other)
        assert (x == other) is expect and (other == x) is expect
        assert (x != other) is (not expect)


def test_rational_valued_extensions_mix_one_way():
    a, b = Cyclotomic.of(5, 2), Cyclotomic.of(7, 1)
    z5 = Cyclotomic.zeta(5)
    assert a + b == 3
    assert unify([a, b]) == [2, 1]
    assert promote_like(b, z5) == 1
    assert z5 + b == z5 + 1 == b + z5
    assert (z5 == b) is False
    assert RatFun.gen() + Cyclotomic.of(3, 2) == RatFun.gen() + 2


# ---------------------------------------------------------------------------
# Cyclotomic normal form and canonical strings
# ---------------------------------------------------------------------------

def _reduce_by_phi(n, coeffs):
    # x^d = -(Phi_n - x^d), applied from the top degree down
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    cs = [Fraction(c) for c in coeffs]
    for k in range(len(cs) - 1, d - 1, -1):
        top, cs[k] = cs[k], Fraction(0)
        for i in range(d):
            cs[k - d + i] -= top * phi[i]
    cs += [Fraction(0)] * d
    return tuple(cs[:d])


@given(st.sampled_from(_ORDERS + (1, 2, 8, 12)),
       st.lists(_small, min_size=1, max_size=16))
def test_cyclotomic_normal_form_is_the_remainder_mod_phi(n, coeffs):
    x = Cyclotomic(n, coeffs)
    d = len(cyclotomic_polynomial(n)) - 1
    assert len(x.coeffs) == d
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == _reduce_by_phi(n, coeffs)
    shifted = _pmul(_ptrim([Fraction(c) for c in coeffs]),
                    cyclotomic_polynomial(n))
    assert Cyclotomic(n, shifted) == 0
    assert x.is_rational == (not any(x.coeffs[1:]))


@given(_cyclotomics(_ORDERS + (8, 12)))
def test_cyclotomic_string_round_trip(x):
    text = scalar_to_str(x)
    back = scalar_from_str(text)
    assert back == x and hash(back) == hash(x)
    assert back.n == x.n and back.coeffs == x.coeffs
    assert scalar_to_str(back) == text


# Cyclotomic arithmetic against the Fraction reference: the product over Q
# of the raw coefficient lists, reduced by `_reduce_by_phi`.  A quotient
# or an inverse is checked through its product with the divisor, so the
# reference needs no inverse of its own.

_ARITH_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12)
_sparse_small = st.one_of(st.just(F(0)), _small)


@st.composite
def _cyclotomic_operands(draw):
    n = draw(st.sampled_from(_ARITH_ORDERS))
    d = len(cyclotomic_polynomial(n)) - 1
    coeffs = st.lists(_sparse_small, min_size=1, max_size=d + 2)
    return n, draw(coeffs), draw(coeffs)


def _assert_stored_form(x):
    # the stored triple (n, c, q): ints, q > 0, gcd(content(c), q) = 1
    c, q = x._c, x._q
    assert len(c) == len(x.coeffs)
    assert all(type(t) is int for t in c) and type(q) is int
    assert q > 0 and gcd(*c, q) == 1
    assert x.coeffs == tuple(F(t, q) for t in c)


@given(_cyclotomic_operands(), st.integers(-3, 3))
def test_cyclotomic_arithmetic_matches_fraction_reference(parts, k):
    n, a, b = parts
    x, y = Cyclotomic(n, a), Cyclotomic(n, b)

    def ref(cs):
        return _reduce_by_phi(n, cs)

    one, j = ref((1,)), abs(k)
    cases = [(x + y, ref(_padd(a, b))), (x - y, ref(_psub(a, b))),
             (x * y, ref(_pmul(a, b))), (-x, ref([-t for t in a])),
             (x ** j, ref(_ppow(a, j)))]
    if y:
        q, inv = x / y, y.inverse()
        cases += [(q, None), (inv, None)]
        assert ref(_pmul(q.coeffs, b)) == ref(a)
        assert ref(_pmul(inv.coeffs, b)) == one
    if x:
        cases.append((x ** -j, None))
        assert ref(_pmul((x ** -j).coeffs, _ppow(a, j))) == one
        assert x * x.inverse() == 1
    for got, expect in cases:
        assert got.n == n
        assert all(type(t) is Fraction for t in got.coeffs)
        if expect is not None:
            assert got.coeffs == expect
        _assert_stored_form(got)


@given(_cyclotomic_operands(), st.integers(-30, 30).filter(bool))
def test_equal_cyclotomics_compare_hash_and_print_equal(parts, scale):
    n, a, b = parts
    x, y = Cyclotomic(n, a), Cyclotomic(n, b)
    product = _pmul(_ptrim(a), _ptrim(b))
    scale *= lcm(*(t.denominator for t in product))
    values = [x * y, y * x, Cyclotomic(n, product),
              Cyclotomic(n, [int(t * scale) for t in product]) / scale,
              scalar_from_str(scalar_to_str(x * y))]
    if y:
        values.append(x * y * y / y)
    if x and y:
        values.append((x.inverse() * y.inverse()).inverse())
    for u in values:
        _assert_stored_form(u)
        for w in values:
            assert u == w and hash(u) == hash(w)
            assert scalar_to_str(u) == scalar_to_str(w)
            assert (u._c, u._q) == (w._c, w._q)


# ---------------------------------------------------------------------------
# the sparse types: one set of sums, negation, equality and hashing
# ---------------------------------------------------------------------------

_S3 = symmetric(3)
_FRACS = st.fractions(-3, 3, max_denominator=4)
_RATFUNS = st.tuples(_FRACS, _FRACS).map(RatFun)  # a + b v
_PBW = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))

# name: (constructor from terms, key strategy, coefficient strategy,
#        elements of other spaces with the error a sum with them raises)
_SPARSE = {
    "AlgebraElement": (
        lambda terms: AlgebraElement(_S3, terms), st.integers(0, 5), _FRACS,
        [(AlgebraElement.one(cyclic(6)), PreconditionError)]),
    "TensorElement": (
        lambda terms: TensorElement(_S3, 2, terms),
        st.tuples(st.integers(0, 5), st.integers(0, 5)), _FRACS,
        [(TensorElement.unit(cyclic(6), 2), PreconditionError),
         (TensorElement.unit(_S3, 3), DimensionError)]),
    "Poly": (
        lambda terms: Poly(2, terms),
        st.tuples(st.integers(0, 2), st.integers(0, 2)), _FRACS,
        [(Poly.variable(0, 3), DimensionError)]),
    "UqElement": (UqElement, _PBW, _RATFUNS, []),
    "UqTensor": (UqTensor, st.tuples(_PBW, _PBW), _RATFUNS, []),
    "K0Element": (
        lambda terms: K0Element(_S3, terms),
        st.sampled_from(("triv", "sgn", "std")), st.integers(-3, 3),
        [(K0Element(cyclic(6), {"triv": 1}), PreconditionError)]),
}


@pytest.mark.parametrize("name", sorted(_SPARSE))
@given(data=st.data())
def test_sparse_types_share_sums_equality_and_hashing(name, data):
    build, keys, coeffs, other_spaces = _SPARSE[name]
    terms = st.lists(st.tuples(keys, coeffs), max_size=4)
    x_terms = data.draw(terms)
    x, y = build(x_terms), build(data.draw(terms))
    again = build(x_terms[::-1])
    assert x == again and hash(x) == hash(again)
    assert hash(x + y) == hash(y + x)
    assert not (x - x)
    assert -(-x) == x
    assert x + y == y + x
    assert (x + y) - y == x
    for other, error in other_spaces:
        assert x != other
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(error):
                op(x, other)
    names = sorted(_SPARSE)
    foreign = [_SPARSE[names[(names.index(name) + 1) % len(names)]][0](())]
    if name != "Poly":
        foreign.append(1)  # only a polynomial lifts a scalar
    for f in foreign:
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(x, f)
            with pytest.raises(TypeError):
                op(f, x)
