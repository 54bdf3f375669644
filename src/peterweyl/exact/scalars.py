"""Exact scalar fields.

Three variants are supported, and every computation in the package stays
inside one of them (no floating point anywhere):

* rationals, represented by ``fractions.Fraction`` (lowest terms, positive
  denominator);
* ``Cyclotomic``: the cyclotomic field Q(zeta_n), each element c/q
  stored as the normal form (n, c, q) on the power basis 1, zeta, ...,
  zeta^(d-1) of Phi_n (d = deg Phi_n): d int coefficients c, q > 0 and
  gcd(content(c), q) = 1, with no subfield arithmetic.  Phi_n is monic
  over Z, so products reduce modulo it in integers, and an inverse is
  taken by the norm, the product of the Galois conjugates;
* ``RatFun``: the rational function field Q(v) in a single variable v,
  stored as one pair (N, D) of integer polynomials, coprime in Q[v], with
  content 1 over both together and lead(D) > 0.  Normalisation takes one
  of two routes.  A denominator d*v^k (nearly every value the quantized
  enveloping algebra produces) shares at most a power of v with the
  numerator, which is stripped before the content is divided out, with
  no polynomial gcd; any other pair is divided exactly over Z by its
  primitive gcd over Z[v], computed with primitive pseudo-remainders.

Both extensions run on one dense integer polynomial kernel (``_imul``,
``_padd``, ``_idivmod``, ``_igcd``) and clear denominators with
``_clear``.  Their stored forms are normal forms, so equality within a
field compares them; ``coeffs``, ``num`` and ``den`` show them as
Fractions, over a monic denominator for ``RatFun``.

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

# ---------------------------------------------------------------------------
# dense univariate polynomials over Z (ascending int coefficients)
# ---------------------------------------------------------------------------

def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _imul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _iprimitive(cs):
    content = gcd(*cs)
    return [c // content for c in cs]


def _igcd(a, b):
    """Primitive gcd over Z[v] of two trimmed polynomials, not both zero.

    Euclid runs on primitive polynomials: each step takes a
    pseudo-remainder, scaling by the divisor's leading coefficient only
    when a quotient term would not be an integer, and keeps its primitive
    part, which keeps the coefficients small.
    """
    if len(b) > len(a):
        a, b = b, a
    if not (a[-1] and b[-1]):
        return _iprimitive(a if a[-1] else b)
    a, b = _iprimitive(a), _iprimitive(b)
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
            return b
        a, b = b, _iprimitive(r)
    return [1]


def _idivmod(a, b):
    """Quotient and remainder of a by a trimmed b over Z[v].

    The leading coefficient of b must divide every quotient term: b is
    monic, or b is primitive and divides a.  a has at least len(b) - 1
    coefficients, and the remainder has exactly len(b) - 1.
    """
    r, lb, db = list(a), b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] // lb
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return q, r[:db]


def _clear(values):
    """The integers D*x for x in values, and D, the lcm of their denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    D = lcm(*(den for _, den in ratios))
    return [num * (D // den) for num, den in ratios], D


# ---------------------------------------------------------------------------
# cyclotomic polynomials Phi_n (integer coefficients, computed by division)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, as ints."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, each division exact
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, r = _idivmod(poly, cyclotomic_polynomial(d))
            if any(r):
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


class Frozen:
    """An immutable value.

    A subclass lists its fields in ``__slots__`` and sets each one in its
    constructor through ``object.__setattr__``; setting one afterwards
    raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class _Extension(Frozen):
    """What Cyclotomic and RatFun derive from their own field operations.

    A subclass gives +, -, * and ``inverse`` for two operands of its own
    field (any other pair goes through ``_common``), its field as
    ``_variant``, its stored normal form as ``_form()``, which equality
    within the field compares, the Fraction view of that form as
    ``_key()``, which hashing and mixed comparisons read, and, through
    ``_constant()``, the Fraction it equals or None.
    """

    __slots__ = ()

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
        if type(other) is type(self) and other._variant == self._variant:
            return self._form() == other._form()
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
    """An element c/q of Q(zeta_n) on the power basis of Phi_n.

    It is stored as the normal form (n, c, q): c is a tuple of deg Phi_n
    ints, q > 0 and gcd(content(c), q) = 1, so its arithmetic runs over
    Python ints.  Phi_n is monic, so reduction modulo Phi_n stays in Z.
    The inverse is taken by the norm: the product y of the conjugates
    sigma_k(c), k a unit mod n other than 1, gives c*y = N(c), a nonzero
    int, so (c/q)^-1 = q*y/N(c).  ``coeffs`` shows the form as Fractions.
    """

    __slots__ = ("n", "_c", "_q")

    def __init__(self, n: int, coeffs):
        self._fill(n, *_clear(coeffs))

    @staticmethod
    def _reduced(n: int, c, q: int) -> "Cyclotomic":
        """The Cyclotomic c/q, for c ints on the powers of zeta_n, q != 0."""
        x = object.__new__(Cyclotomic)
        x._fill(n, c, q)
        return x

    def _fill(self, n, c, q):
        phi = cyclotomic_polynomial(n)
        d = len(phi) - 1
        if len(c) > d:
            c = _idivmod(c, phi)[1]
        g = gcd(*c, q)
        if q < 0:
            g = -g
        if g != 1:
            c = [t // g for t in c]
            q //= g
        c = tuple(c)
        if len(c) < d:
            c += (0,) * (d - len(c))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_q", q)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        power %= n
        c = [0] * (power + 1)
        c[power] = 1
        return Cyclotomic._reduced(n, c, 1)

    @staticmethod
    def of(n: int, value) -> "Cyclotomic":
        p, q = value.as_integer_ratio()
        return Cyclotomic._reduced(n, [p], q)

    @property
    def coeffs(self) -> tuple:
        q = self._q
        return tuple(Fraction(t, q) for t in self._c)

    @property
    def _variant(self):
        return (1, self.n)

    def _form(self):
        return (self.n, self._c, self._q)

    def _key(self):
        # hash(Fraction(k, 1)) == hash(k) and they compare equal, so the
        # ints stand in for the Fraction view when q is 1
        return (self.n, self._c if self._q == 1 else self.coeffs)

    def _constant(self):
        c = self._c
        return None if any(c[1:]) else Fraction(c[0], self._q)

    def __bool__(self) -> bool:
        return any(self._c)

    def _plus(self, c, q):
        # self + c/q for c on the same basis
        a, p = self._c, self._q
        if p == q:
            return Cyclotomic._reduced(self.n, _padd(a, c), p)
        return Cyclotomic._reduced(
            self.n, [x * q + y * p for x, y in zip(a, c)], p * q)

    def __add__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.add, self, other)
        return self._plus(other._c, other._q)

    def __neg__(self):
        return Cyclotomic._reduced(self.n, [-t for t in self._c], self._q)

    def __sub__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.sub, self, other)
        return self._plus([-t for t in other._c], other._q)

    def __mul__(self, other):
        if type(other) is not Cyclotomic or other.n != self.n:
            return _common(operator.mul, self, other)
        return Cyclotomic._reduced(self.n, _imul(self._c, other._c),
                                   self._q * other._q)

    def inverse(self) -> "Cyclotomic":
        n, c = self.n, self._c
        if not any(c):
            raise ZeroDivisionError("cyclotomic division by zero")
        phi = cyclotomic_polynomial(n)
        y = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                # sigma_k(c), on the powers 0 .. n-1 of zeta
                s = [0] * n
                for i, t in enumerate(c):
                    s[i * k % n] += t
                y = _idivmod(_imul(y, s), phi)[1]
        norm = _idivmod(_imul(c, y), phi)[1]
        if any(norm[1:]) or not norm[0]:
            raise AssertionError("the norm must be a nonzero rational")
        return Cyclotomic._reduced(n, [self._q * t for t in y], norm[0])


class RatFun(_Extension):
    """An element N/D of Q(v), stored as integer coefficient tuples (N, D).

    N and D are coprime in Q[v], all their coefficients together have
    content 1 and lead(D) > 0.  The constructor takes sequences of int
    or Fraction coefficients and clears the denominators with one lcm.
    A denominator d*v^k (a Laurent polynomial, the usual case) then loses
    the power of v it shares with N, and any other pair is divided by its
    primitive gcd over Z[v] (``_igcd``); dividing out the content
    finishes both routes.
    """

    __slots__ = ("_n", "_d")

    _variant = (2, 0)

    def __init__(self, num, den=(1,)):
        try:
            n = list(map(operator.index, num))
            d = list(map(operator.index, den))
        except TypeError:
            cs, _ = _clear((*num, *den))
            n, d = cs[:len(num)], cs[len(num):]
        while d and not d[-1]:
            d.pop()
        if not d:
            raise ZeroDivisionError("zero denominator")
        while n and not n[-1]:
            n.pop()
        if not n:
            n, d = [0], [1]
        elif d.count(0) == len(d) - 1:
            j, k = 0, len(d) - 1
            while j < k and not n[j]:
                j += 1
            if j:
                n, d = n[j:], d[j:]
        else:
            g = _igcd(n, d)
            if len(g) > 1:
                n, d = _idivmod(n, g)[0], _idivmod(d, g)[0]
        c = gcd(*n, *d)
        if d[-1] < 0:
            c = -c
        if c != 1:
            n, d = [x // c for x in n], [x // c for x in d]
        object.__setattr__(self, "_n", tuple(n))
        object.__setattr__(self, "_d", tuple(d))

    @staticmethod
    def _pair(n: tuple, d: tuple) -> "RatFun":
        """The RatFun of a pair that is already in normal form."""
        x = object.__new__(RatFun)
        object.__setattr__(x, "_n", n)
        object.__setattr__(x, "_d", d)
        return x

    @staticmethod
    def gen() -> "RatFun":
        return RatFun((0, 1))

    @staticmethod
    def of(value) -> "RatFun":
        p, q = value.as_integer_ratio()
        return RatFun._pair((p,), (q,))

    @property
    def num(self) -> tuple:
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._n)

    @property
    def den(self) -> tuple:
        lc = self._d[-1]
        return tuple(Fraction(c, lc) for c in self._d)

    def _key(self):
        return (self.num, self.den)

    def _constant(self):
        if len(self._n) == 1 and len(self._d) == 1:
            return Fraction(self._n[0], self._d[0])
        return None

    def __bool__(self):
        return bool(self._n[-1])

    def _form(self):
        return (self._n, self._d)

    # RatFun is immutable, so an operand can be returned as the result.

    def __add__(self, other):
        if type(other) is not RatFun:
            return _common(operator.add, self, other)
        a, b, c, d = self._n, self._d, other._n, other._d
        if not c[-1]:
            return self
        if not a[-1]:
            return other
        if b == d:
            return RatFun(_padd(a, c), b)
        return RatFun(_padd(_imul(a, d), _imul(c, b)), _imul(b, d))

    def __neg__(self):
        return RatFun._pair(tuple(-c for c in self._n), self._d)

    def __sub__(self, other):
        if type(other) is not RatFun:
            return _common(operator.sub, self, other)
        return self + -other

    def __mul__(self, other):
        if type(other) is not RatFun:
            return _common(operator.mul, self, other)
        if not self._n[-1]:
            return self
        if not other._n[-1]:
            return other
        return RatFun(_imul(self._n, other._n), _imul(self._d, other._d))

    def inverse(self) -> "RatFun":
        n, d = self._n, self._d
        if not n[-1]:
            raise ZeroDivisionError("rational function division by zero")
        if n[-1] < 0:
            return RatFun._pair(tuple(-c for c in d), tuple(-c for c in n))
        return RatFun._pair(d, n)


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
    if type(exemplar) is RatFun:
        # the usual case in Q(v), decided before any conversion
        if type(x) is RatFun:
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun.of(x)
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


class Terms(Frozen):
    """A sparse element: ``terms`` maps keys to nonzero coefficients.

    Sums, negation, scaling, equality and hashing are the same for every
    sparse type of the package and are written here.  A subclass gives

    * ``_space``: what two elements must share to be added or compared,
      such as a group key, a group key with a tensor arity, or a
      variable count;
    * ``_like(terms)``: a new element of the same space from a mapping or
      an iterable of (key, coefficient) pairs, summed by ``collect``;
    * ``_mismatch(other)``: raises the error for an element of the same
      type in another space;

    and its own ``__mul__``.  ``_operand`` decides which other values take
    part in a sum or a comparison: by default only elements of the same
    type, so any other operand gives NotImplemented.
    """

    __slots__ = ()

    def _operand(self, other):
        return other if isinstance(other, type(self)) else None

    def _same_space(self, other):
        if other._space != self._space:
            self._mismatch(other)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._same_space(other)
        return self._like([*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return -self + other

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def _scaled(self, s):
        return self._like({key: c * s for key, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._space == other._space and self.terms == other.terms

    def __hash__(self):
        return hash((self._space, tuple(sorted(self.terms.items()))))


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
