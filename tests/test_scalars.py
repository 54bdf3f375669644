"""Scalar field tests: axioms, known values, serialization, variant rules."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peterweyl.errors import ParseError, VariantError
from peterweyl.exact.scalars import (
    Cyclotomic,
    RatFun,
    _common,
    _pdivmod,
    _pgcd,
    _pmul,
    _ptrim,
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
# The reference is the textbook route, built from the Fraction polynomial
# helpers that Cyclotomic uses: Euclid's algorithm over Q, exact division
# by the monic gcd, then a monic denominator.  Shared factors are
# multiplied in on purpose so that the gcd is rarely trivial.

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


@given(_poly, _poly)
def test_pgcd_matches_euclid_reference(a, b):
    if any(a) or any(b):
        assert _pgcd(_poly_of(a), _poly_of(b)) == _ref_gcd(a, b)


def test_pgcd_edge_cases():
    # content alone differs: 2v + 2 against 4v + 4
    assert _pgcd((F(2), F(2)), (F(4), F(4))) == (F(1), F(1))
    assert _pgcd((F(1, 2), F(1, 3)), (F(3), F(2))) == (F(3, 2), F(1))
    assert _pgcd((F(3),), (F(1), F(0), F(1))) == (F(1),)
    assert _pgcd((F(5),), (F(-2, 7),)) == (F(1),)
    assert _pgcd((F(0),), (F(2), F(4))) == (F(1, 2), F(1))
    assert _pgcd((F(-3), F(0), F(3)), (F(0),)) == (F(-1), F(0), F(1))


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
