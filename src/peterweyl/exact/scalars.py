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

Rationals promote into either extension; the two extensions never mix, and
cyclotomic fields of different order never mix (``VariantError``).

Canonical string forms (used by every serialized artifact):

* rational        ``"a/b"``
* cyclotomic      ``"[c0,c1,...]@zeta(n)"``, coefficients in rational form
* rational func.  ``"[n0,n1,...]/[d0,d1,...]@v"``, ascending coefficients
"""

from __future__ import annotations

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


def _euler_phi(n: int) -> int:
    return _pdeg(cyclotomic_polynomial(n))


class Cyclotomic:
    """An element of Q(zeta_n) on the power basis of Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        d = _euler_phi(n)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            # reduce modulo Phi_n
            _, rem = _pdivmod(_ptrim(cs), cyclotomic_polynomial(n))
            cs = list(rem)
        cs += [_F0] * (d - len(cs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs[:d]))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        power %= n
        coeffs = [_F0] * (power + 1)
        coeffs[power] = _F1
        return Cyclotomic(n, coeffs)

    @staticmethod
    def of(n: int, value) -> "Cyclotomic":
        return Cyclotomic(n, [Fraction(value)])

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise VariantError("not a rational value: %s" % self)
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                if self.is_rational and other.is_rational:
                    return Cyclotomic.of(self.n, other.as_fraction())
                raise VariantError(
                    "cyclotomic orders differ: %d vs %d" % (self.n, other.n))
            return other
        if isinstance(other, RatFun):
            raise VariantError("cannot mix cyclotomic and ratfun scalars")
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.of(self.n, other)
        return None

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.n, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.n, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.n, _pmul(_ptrim(self.coeffs), _ptrim(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        g, u, _ = _pxgcd(_ptrim(self.coeffs), cyclotomic_polynomial(self.n))
        if _pdeg(g) != 0:
            raise AssertionError("Phi_n must be irreducible over Q")
        return Cyclotomic(self.n, _pscale(u, 1 / g[0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.of(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            if other.n == self.n:
                return self.coeffs == other.coeffs
            if self.is_rational and other.is_rational:
                return self.coeffs[0] == other.coeffs[0]
            raise VariantError(
                "cannot compare cyclotomic orders %d and %d" % (self.n, other.n))
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coeffs[0])
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return scalar_to_str(self)


def _fractions(cs):
    return _ptrim([c if isinstance(c, Fraction) else Fraction(c) for c in cs])


class RatFun:
    """An element of Q(v): numerator/denominator, coprime, monic denominator.

    A denominator c*v^k (a Laurent polynomial, the usual case) shares only
    a power of v with the numerator, so normalising it strips that power
    and divides by c without a gcd.  Any other denominator is reduced by
    the gcd over Z[v] (``_pgcd``).
    """

    __slots__ = ("num", "den")

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

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def gen() -> "RatFun":
        return RatFun((0, 1))

    @staticmethod
    def of(value) -> "RatFun":
        return RatFun((Fraction(value),))

    @property
    def is_rational(self) -> bool:
        return _pdeg(self.num) <= 0 and _pdeg(self.den) == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise VariantError("not a rational value: %s" % self)
        return self.num[0]

    def __bool__(self):
        return _pdeg(self.num) >= 0

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Cyclotomic):
            raise VariantError("cannot mix cyclotomic and ratfun scalars")
        if isinstance(other, (int, Fraction)):
            return RatFun.of(other)
        return None

    # RatFun is immutable, so an operand can be returned as the result.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            return self
        if not self:
            return o
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatFun(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            return self
        if not self:
            return -o
        num = _psub(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatFun(num, _pmul(self.den, o.den))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self:
            return self
        if not o:
            return o
        return RatFun(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if not self:
            raise ZeroDivisionError("rational function division by zero")
        return RatFun(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFun.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.num[0] == other
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.num[0] if self.num else _F0)
        return hash((self.num, self.den))

    def __repr__(self):
        return scalar_to_str(self)


# v with q = v^2 is the convention used by the quantized enveloping algebra.
V = RatFun.gen()


# ---------------------------------------------------------------------------
# variant handling and serialization
# ---------------------------------------------------------------------------

def as_scalar(x):
    """Normalize python ints to Fractions; pass exact scalars through."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, Cyclotomic, RatFun)):
        return x
    raise VariantError("unsupported scalar type %r" % type(x).__name__)


def variant_name(x) -> str:
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return "rational"
    if isinstance(x, Cyclotomic):
        return "cyclotomic(%d)" % x.n
    return "ratfun"


def unify(values):
    """Promote a list of scalars to a common variant.

    Rationals embed into whichever extension occurs; distinct extensions
    (or distinct cyclotomic orders) raise VariantError.
    """
    values = [as_scalar(v) for v in values]
    target = None
    for v in values:
        if isinstance(v, Cyclotomic):
            if isinstance(target, RatFun):
                raise VariantError("cannot mix cyclotomic and ratfun scalars")
            if isinstance(target, Cyclotomic) and target.n != v.n:
                raise VariantError(
                    "cyclotomic orders differ: %d vs %d" % (target.n, v.n))
            target = v
        elif isinstance(v, RatFun):
            if isinstance(target, Cyclotomic):
                raise VariantError("cannot mix cyclotomic and ratfun scalars")
            target = v
    if target is None:
        return values
    return [promote_like(v, target) for v in values]


def promote_like(x, exemplar):
    """Promote scalar x into the variant of exemplar."""
    x = as_scalar(x)
    if isinstance(exemplar, Fraction):
        if isinstance(x, Fraction):
            return x
        if x.is_rational:
            return x.as_fraction()
        raise VariantError("cannot demote %s to rational" % variant_name(x))
    if isinstance(exemplar, Cyclotomic):
        if isinstance(x, Fraction):
            return Cyclotomic.of(exemplar.n, x)
        if isinstance(x, Cyclotomic):
            if x.n == exemplar.n:
                return x
            if x.is_rational:
                return Cyclotomic.of(exemplar.n, x.as_fraction())
            raise VariantError(
                "cyclotomic orders differ: %d vs %d" % (x.n, exemplar.n))
        raise VariantError("cannot promote ratfun to cyclotomic")
    if isinstance(exemplar, RatFun):
        if isinstance(x, Fraction):
            return RatFun.of(x)
        if isinstance(x, RatFun):
            return x
        raise VariantError("cannot promote cyclotomic to ratfun")
    raise VariantError("unsupported exemplar %r" % type(exemplar).__name__)


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
