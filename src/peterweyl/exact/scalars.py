"""Exact scalar fields.

Three variants are supported, and every computation in the package stays
inside one of them (no floating point anywhere):

* rationals, represented by ``fractions.Fraction`` (lowest terms, positive
  denominator);
* ``Cyclotomic``: elements of the cyclotomic field Q(zeta_n), stored on the
  power basis 1, zeta, ..., zeta^(d-1) of the n-th cyclotomic polynomial
  (d = deg Phi_n), with no subfield arithmetic;
* ``RatFun``: the rational function field Q(v) in a single variable v,
  stored as a coprime numerator/denominator pair with monic denominator.
  Normalisation takes one of two routes.  A denominator c*v^k (nearly
  every value the quantized enveloping algebra produces) shares at most a
  power of v with the numerator, which is cancelled directly; any other
  denominator is reduced by a gcd computed over Z[v] with primitive
  pseudo-remainders.  Both routes give the same normal form.

One rule mixes the variants, and ``promote_like`` is the one place it is
written: an int, a Fraction or a rational-valued element of either
extension goes into any variant, while a non-rational element goes only
into its own field, so non-rational elements of Q(v) and of distinct
Q(zeta_n) never mix (``VariantError``).  Every mixed operation, comparison
and ``unify`` works in the variant of its highest-ranked operand
(``_rank``), which does not depend on the order of the operands.

Canonical string forms (used by every serialized artifact):

* rational        ``"a/b"``
* cyclotomic      ``"[c0,c1,...]@zeta(n)"``, coefficients in rational form
* rational func.  ``"[n0,n1,...]/[d0,d1,...]@v"``, ascending coefficients
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ..errors import ParseError, VariantError

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over Fraction (ascending coefficients)
# ---------------------------------------------------------------------------

def _ptrim(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pdeg(cs):
    # degree of the zero polynomial is -1
    if len(cs) == 1 and cs[0] == 0:
        return -1
    return len(cs) - 1


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if _pdeg(a) < 0 or _pdeg(b) < 0:
        return (_F0,)
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return _ptrim(out)


def _pscale(a, s):
    if not s:
        return (_F0,)
    return _ptrim([c * s for c in a])


def _pdivmod(a, b):
    """Quotient and remainder of a by b; b must be nonzero."""
    db = _pdeg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    da = _pdeg(a)
    if da < db:
        return (_F0,), _ptrim(r)
    q = [_F0] * (da - db + 1)
    inv = 1 / b[-1]
    for k in range(da - db, -1, -1):
        coef = r[db + k] * inv
        if coef:
            q[k] = coef
            for i, cb in enumerate(b):
                r[i + k] -= coef * cb
    return _ptrim(q), _ptrim(r)


def _primitive(cs):
    """Coprime integer coefficients proportional to the nonzero polynomial cs."""
    scale = 1
    for c in cs:
        scale = lcm(scale, c.denominator)
    ints = [c.numerator * (scale // c.denominator) for c in cs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _pgcd(a, b):
    """Monic gcd over Q of two polynomials, not both zero.

    Euclid runs over Z[v] on primitive polynomials: each step takes a
    pseudo-remainder, scaling by the divisor's leading coefficient only
    when a quotient term would not be an integer, and keeps its primitive
    part, which keeps the coefficients small.
    """
    a, b = _ptrim(a), _ptrim(b)
    if _pdeg(b) > _pdeg(a):
        a, b = b, a
    if _pdeg(b) < 0:
        return tuple(c / a[-1] for c in a)
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r, lb, db = a, b[-1], len(b) - 1
        while len(r) > db:
            top = r[-1]
            if top % lb:
                r = [lb * c for c in r]
            else:
                top //= lb
            shift = len(r) - 1 - db
            for i in range(db):
                r[shift + i] -= top * b[i]
            r.pop()
            while r and not r[-1]:
                r.pop()
        if not r:
            return tuple(Fraction(c, lb) for c in b)
        a, b = b, _primitive(r)
    return (_F1,)


def _pxgcd(a, b):
    """Extended gcd: returns (g, u, w) with u*a + w*b = g, g monic."""
    r0, r1 = _ptrim(a), _ptrim(b)
    u0, u1 = (_F1,), (_F0,)
    w0, w1 = (_F0,), (_F1,)
    while _pdeg(r1) >= 0:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
        w0, w1 = w1, _psub(w0, _pmul(q, w1))
    if _pdeg(r0) >= 0 and r0[-1] != 1:
        s = 1 / r0[-1]
        r0, u0, w0 = _pscale(r0, s), _pscale(u0, s), _pscale(w0, s)
    return r0, u0, w0


# ---------------------------------------------------------------------------
# cyclotomic polynomials Phi_n (integer coefficients, computed by division)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, ascending, as Fractions."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [_F0] * (n + 1)
    num[0], num[n] = Fraction(-1), _F1
    poly = _ptrim(num)
    for d in range(1, n):
        if n % d == 0:
            q, r = _pdivmod(poly, cyclotomic_polynomial(d))
            if _pdeg(r) >= 0:
                raise AssertionError("cyclotomic division must be exact")
            poly = q
    return poly


def _fractions(cs):
    return _ptrim([c if isinstance(c, Fraction) else Fraction(c) for c in cs])


def _euler_phi(n: int) -> int:
    return _pdeg(cyclotomic_polynomial(n))


class _Extension:
    """What Cyclotomic and RatFun derive from their own field operations.

    A subclass gives +, -, * and ``inverse`` for two operands of its own
    field (any other pair goes through ``_common``), its field as
    ``_variant``, its normal form as ``_key()`` and, through
    ``_constant()``, the Fraction it equals or None.
    """

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def is_rational(self) -> bool:
        return self._constant() is not None

    def as_fraction(self) -> Fraction:
        c = self._constant()
        if c is None:
            raise VariantError("not a rational value: %s" % self)
        return c

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __rsub__(self, other):
        return _common(operator.sub, other, self)

    def __truediv__(self, other):
        return _common(_div, self, other)

    def __rtruediv__(self, other):
        return _common(_div, other, self)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = promote_like(1, self)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # what _common would decide, without promoting other
            return self._constant() == other
        return _common(_same_key, self, other)

    def __hash__(self):
        c = self._constant()
        return hash(self._key() if c is None else c)

    def __repr__(self):
        return scalar_to_str(self)


def _div(a, b):
    return a * b.inverse()


def _same_key(a, b):
    return a._key() == b._key()


class Cyclotomic(_Extension):
    """An element of Q(zeta_n) on the power basis of Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        d = _euler_phi(n)
        cs = _fractions(coeffs)
        if len(cs) > d:
            # reduce modulo Phi_n
            _, cs = _pdivmod(cs, cyclotomic_polynomial(n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", (cs + (_F0,) * d)[:d])

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        power %= n
        coeffs = [_F0] * (power + 1)
        coeffs[power] = _F1
        return Cyclotomic(n, coeffs)

    @staticmethod
    def of(n: int, value) -> "Cyclotomic":
        return Cyclotomic(n, (value,))

    @property
    def _variant(self):
        return (1, self.n)

    def _key(self):
        return (self.n, self.coeffs)

    def _constant(self):
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.add, self, other)
        return Cyclotomic(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.sub, self, other)
        return Cyclotomic(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.mul, self, other)
        return Cyclotomic(self.n, _pmul(_ptrim(self.coeffs), _ptrim(other.coeffs)))

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        g, u, _ = _pxgcd(_ptrim(self.coeffs), cyclotomic_polynomial(self.n))
        if _pdeg(g) != 0:
            raise AssertionError("Phi_n must be irreducible over Q")
        return Cyclotomic(self.n, _pscale(u, 1 / g[0]))


class RatFun(_Extension):
    """An element of Q(v): numerator/denominator, coprime, monic denominator.

    A denominator c*v^k (a Laurent polynomial, the usual case) shares only
    a power of v with the numerator, so normalising it strips that power
    and divides by c without a gcd.  Any other denominator is reduced by
    the gcd over Z[v] (``_pgcd``).
    """

    __slots__ = ("num", "den")

    _variant = (2, 0)

    def __init__(self, num, den=(1,)):
        num, den = _fractions(num), _fractions(den)
        if _pdeg(den) < 0:
            raise ZeroDivisionError("zero denominator")
        if _pdeg(num) < 0:
            num, den = (_F0,), (_F1,)
        elif not any(den[:-1]):
            j, k, lc = 0, len(den) - 1, den[-1]
            while j < k and not num[j]:
                j += 1
            num = num[j:] if lc == 1 else tuple(c / lc for c in num[j:])
            den = (_F0,) * (k - j) + (_F1,)
        else:
            g = _pgcd(num, den)
            if _pdeg(g) > 0:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lc = den[-1]
            if lc != 1:
                num, den = _pscale(num, 1 / lc), _pscale(den, 1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def gen() -> "RatFun":
        return RatFun((0, 1))

    @staticmethod
    def of(value) -> "RatFun":
        return RatFun((value,))

    def _key(self):
        return (self.num, self.den)

    def _constant(self):
        if len(self.num) == 1 and len(self.den) == 1:
            return self.num[0]
        return None

    def __bool__(self):
        return _pdeg(self.num) >= 0

    # RatFun is immutable, so an operand can be returned as the result.

    def __add__(self, other):
        if type(other) is not RatFun:
            return _common(operator.add, self, other)
        if not other:
            return self
        if not self:
            return other
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RatFun(num, _pmul(self.den, other.den))

    def __neg__(self):
        return RatFun(_pneg(self.num), self.den)

    def __sub__(self, other):
        if type(other) is not RatFun:
            return _common(operator.sub, self, other)
        if not other:
            return self
        if not self:
            return -other
        num = _psub(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RatFun(num, _pmul(self.den, other.den))

    def __mul__(self, other):
        if type(other) is not RatFun:
            return _common(operator.mul, self, other)
        if not self:
            return self
        if not other:
            return other
        return RatFun(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inverse(self) -> "RatFun":
        if not self:
            raise ZeroDivisionError("rational function division by zero")
        return RatFun(self.den, self.num)


# v with q = v^2 is the convention used by the quantized enveloping algebra.
V = RatFun.gen()


# ---------------------------------------------------------------------------
# variant handling and serialization
# ---------------------------------------------------------------------------

def as_scalar(x):
    """Normalize python ints to Fractions; pass exact scalars through."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, _Extension)):
        return x
    raise VariantError("unsupported scalar type %r" % type(x).__name__)


def variant_name(x) -> str:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return "rational"
    if isinstance(x, Cyclotomic):
        return "cyclotomic(%d)" % x.n
    return "ratfun"


def promote_like(x, exemplar):
    """Promote scalar x into the variant of exemplar.

    This is the one rule for mixing scalars: an int, a Fraction or a
    rational-valued element of either extension goes into any variant,
    while a non-rational element goes only into its own field.
    """
    x, exemplar = as_scalar(x), as_scalar(exemplar)
    if _variant_of(x) == _variant_of(exemplar):
        return x
    if not isinstance(x, Fraction):
        c = x._constant()
        if c is None:
            raise VariantError("cannot mix %s and %s scalars"
                               % (variant_name(x), variant_name(exemplar)))
        x = c
    if isinstance(exemplar, Cyclotomic):
        return Cyclotomic.of(exemplar.n, x)
    if isinstance(exemplar, RatFun):
        return RatFun.of(x)
    return x


def _variant_of(x):
    # (0, 0) for Q, (1, n) for Q(zeta_n), (2, 0) for Q(v)
    return x._variant if isinstance(x, _Extension) else (0, 0)


def _rank(x):
    """Order in which operands lend a mix their variant.

    A non-rational element outranks every rational value, so a mix that
    can be formed at all is formed in its one possible field; among
    rational values the order of ``_variant`` decides.  Either way the
    result does not depend on the order of the operands.
    """
    return (isinstance(x, _Extension) and x._constant() is None,
            _variant_of(x))


def _common(op, a, b):
    """op(a, b) in the common variant of a and b.

    NotImplemented when either is not a scalar.
    """
    if type(a) is type(b) and a._variant == b._variant:
        return op(a, b)
    if not (isinstance(a, _SCALARS) and isinstance(b, _SCALARS)):
        return NotImplemented
    exemplar = max(a, b, key=_rank)
    return op(promote_like(a, exemplar), promote_like(b, exemplar))


_SCALARS = (int, Fraction, _Extension)


def unify(values):
    """Promote a list of scalars to their common variant (``promote_like``)."""
    values = [as_scalar(v) for v in values]
    extensions = [v for v in values if not isinstance(v, Fraction)]
    if not extensions:
        return values
    exemplar = max(extensions, key=_rank)
    return [promote_like(v, exemplar) for v in values]


def collect(terms) -> dict:
    """Sum the coefficients of equal keys and drop the zero sums.

    ``terms`` is a mapping or an iterable of (key, coefficient) pairs; the
    keys of the result keep the order in which they first occur.  This is
    the one accumulator behind every sparse element of the package.
    """
    if hasattr(terms, "items"):
        terms = terms.items()
    out: dict = {}
    get = out.get
    for key, c in terms:
        s = get(key)
        out[key] = c if s is None else s + c
    return {key: c for key, c in out.items() if c}


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def _frac_parse(s: str) -> Fraction:
    try:
        if "/" in s:
            a, b = s.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("bad rational %r" % s) from e


def scalar_to_str(x) -> str:
    """Canonical string form; parse with scalar_from_str."""
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, Cyclotomic):
        body = ",".join(_frac_str(c) for c in x.coeffs)
        return "[%s]@zeta(%d)" % (body, x.n)
    body_n = ",".join(_frac_str(c) for c in x.num)
    body_d = ",".join(_frac_str(c) for c in x.den)
    return "[%s]/[%s]@v" % (body_n, body_d)


def _parse_list(s: str):
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("bad coefficient list %r" % s)
    inner = s[1:-1]
    if not inner:
        raise ParseError("empty coefficient list %r" % s)
    return [_frac_parse(t) for t in inner.split(",")]


def scalar_from_str(s: str):
    s = s.strip()
    if s.endswith("@v"):
        body = s[:-2]
        if "]/[" not in body:
            raise ParseError("bad ratfun %r" % s)
        i = body.index("]/[")
        num = _parse_list(body[: i + 1])
        den = _parse_list(body[i + 2:])
        if all(c == 0 for c in den):
            raise ParseError("zero denominator in %r" % s)
        return RatFun(num, den)
    if "@zeta(" in s:
        i = s.index("@zeta(")
        if not s.endswith(")"):
            raise ParseError("bad cyclotomic %r" % s)
        coeffs = _parse_list(s[:i])
        try:
            n = int(s[i + 6: -1])
        except ValueError as e:
            raise ParseError("bad cyclotomic order in %r" % s) from e
        if n < 1:
            raise ParseError("bad cyclotomic order in %r" % s)
        return Cyclotomic(n, coeffs)
    return _frac_parse(s)
