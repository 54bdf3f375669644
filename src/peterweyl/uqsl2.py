"""A PBW-truncated quantized enveloping algebra of sl2 over Q(v).

Elements are finite combinations of ordered monomials F^a K^b E^c with
a, c >= 0 and b any integer, coefficients in Q(v), and q = v^2.  Products
are rewritten into that normal form through the defining relations

    K E = q^2 E K,    K F = q^-2 F K,
    E F - F E = (K - K^-1) / (q - q^-1).

Weights are recorded as integer multiples of the fundamental weight, so
the n+1 dimensional simple module has weights n, n-2, ..., -n and K acts
on a weight-m vector by q^m.  The exponent b counts powers of K itself;
the group-like element attached to twice the weight m is then K^m, which
keeps every element of interest inside the integer-exponent algebra even
though single fundamental weights would need a square root of K.

The braiding data is a diagonal weight pairing together with a truncated
expansion sum_k c_k E^k (x) F^k.  The coefficient convention for c_k is
not hard-coded: a small sign/twist family is enumerated and the member
that intertwines the coproduct with its opposite on tensor products of
small modules is selected (ConventionError if none does).  Pairing the
two braiding legs against a module turns matrix coefficients of the
module into algebra elements; summing the diagonal ones yields, for each
module, a central element, and these satisfy the same product rule as
the modules' tensor decompositions.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    ConventionError,
    InternalError,
    PreconditionError,
    VariantError,
)
from .exact.linalg import Matrix, Subspace, nullspace
from .exact.scalars import (
    Frozen,
    RatFun,
    Terms,
    collect,
    promote_like,
    scalar_to_str,
)

_V = RatFun.gen()
_R1 = RatFun.of(1)
_R0 = RatFun.of(0)


@lru_cache(maxsize=None)
def qpow(m: int) -> RatFun:
    """q^m in Q(v), with q = v^2."""
    mono = (0,) * abs(2 * m) + (1,)
    return RatFun(mono) if m >= 0 else RatFun((1,), mono)


@lru_cache(maxsize=None)
def qint(k: int) -> RatFun:
    """The balanced q-integer [k] = (q^k - q^-k) / (q - q^-1)."""
    if k < 0:
        return -qint(-k)
    out = _R0
    for t in range(k):
        out = out + qpow(k - 1 - 2 * t)
    return out


@lru_cache(maxsize=None)
def qrange(lo: int, count: int) -> RatFun:
    """The product [lo][lo+1]...[lo+count-1] of q-integers."""
    out = _R1
    for t in range(lo, lo + count):
        out = out * qint(t)
    return out


def qfact(k: int) -> RatFun:
    """The q-factorial [k]! = [1][2]...[k]."""
    return qrange(1, k)


_QDIFF = qpow(1) - qpow(-1)


def _coeff(x) -> RatFun:
    return x if type(x) is RatFun else promote_like(x, _R1)


# ---------------------------------------------------------------------------
# normal-form rewriting
# ---------------------------------------------------------------------------
#
# An element in normal form is multiplied on the right by a monomial
# F^a K^b E^c.  F is appended one factor at a time: it walks past E^c with
# the commutator identity
#
#   E^c F = F E^c + [c] (q^-(c-1) K - q^(c-1) K^-1) E^(c-1) / (q - q^-1)
#
# and then past K^b, so one F step produces at most three monomials.  K^b
# then walks past each term's E^c0 in one step at the cost of q^-2b*c0, and
# E^c extends the monomial directly.


def _rmul_f(terms: dict) -> dict:
    pairs = []
    for (a, b, c), v in terms.items():
        pairs.append(((a + 1, b, c), v * qpow(-2 * b)))
        if c:
            w = v * qint(c) / _QDIFF
            pairs.append(((a, b + 1, c - 1), w * qpow(-(c - 1))))
            pairs.append(((a, b - 1, c - 1), -w * qpow(c - 1)))
    return collect(pairs)


class UqElement(Terms):
    """An element in PBW normal form: (a, b, c) -> coefficient of F^a K^b E^c.

    ``terms`` is a mapping or an iterable of ((a, b, c), coefficient)
    pairs; the coefficients of a repeated monomial are summed.
    """

    __slots__ = ("terms",)
    _space = None  # one space: any two elements add and compare

    def __init__(self, terms=()):
        clean: dict = {}
        for key, v in collect(terms).items():
            a, _, c = key
            if a < 0 or c < 0:
                raise PreconditionError("negative E or F exponent: %r" % (key,))
            clean[key] = _coeff(v)
        object.__setattr__(self, "terms", clean)

    def _like(self, terms) -> "UqElement":
        return UqElement(terms)

    @staticmethod
    def zero() -> "UqElement":
        return UqElement()

    @staticmethod
    def one() -> "UqElement":
        return UqElement({(0, 0, 0): 1})

    @staticmethod
    def monomial(a: int, b: int, c: int, coeff=1) -> "UqElement":
        return UqElement({(a, b, c): coeff})

    @staticmethod
    def e() -> "UqElement":
        return UqElement({(0, 0, 1): 1})

    @staticmethod
    def f() -> "UqElement":
        return UqElement({(1, 0, 0): 1})

    @staticmethod
    def k(power: int = 1) -> "UqElement":
        return UqElement({(0, power, 0): 1})

    def __mul__(self, other):
        if isinstance(other, UqElement):
            total = []
            for (a, b, c), d in other.terms.items():
                cur = self.terms
                for _ in range(a):
                    cur = _rmul_f(cur)
                total.extend(
                    ((a0, b0 + b, c0 + c),
                     (v * qpow(-2 * b * c0) if b and c0 else v) * d)
                    for (a0, b0, c0), v in cur.items())
            return UqElement(total)
        try:
            return self._scaled(_coeff(other))
        except VariantError:
            return NotImplemented

    __rmul__ = __mul__

    def counit(self) -> RatFun:
        """Coefficient sum over the K-power monomials (E, F both vanish)."""
        out = _R0
        for (a, b, c), v in self.terms.items():
            if a == 0 and c == 0:
                out = out + v
        return out

    def antipode(self) -> "UqElement":
        """Anti-homomorphic extension of S(E) = -E K^-1, S(F) = -K F, S(K) = K^-1."""
        return UqElement((key, v * c) for mono, v in self.terms.items()
                         for key, c in _antipode_monomial(*mono).terms.items())

    def delta(self) -> "UqTensor":
        """Coproduct, extended multiplicatively from the generator images."""
        return UqTensor((key, v * c) for mono, v in self.terms.items()
                        for key, c in _delta_monomial(*mono).terms.items())

    def to_json(self) -> dict:
        return {
            "%d,%d,%d" % key: scalar_to_str(self.terms[key])
            for key in sorted(self.terms)
        }

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            a, b, c = key
            word = ""
            if a:
                word += "F" if a == 1 else "F^%d" % a
            if b:
                word += "K" if b == 1 else "K^%d" % b
            if c:
                word += "E" if c == 1 else "E^%d" % c
            bits.append("(%s)%s" % (scalar_to_str(self.terms[key]), word or "1"))
        return " + ".join(bits)


class UqTensor(Terms):
    """A sum of pure tensors of PBW monomials in two slots.

    ``terms`` is a mapping or an iterable of ((m1, m2), coefficient) pairs;
    the coefficients of a repeated monomial pair are summed.
    """

    __slots__ = ("terms",)
    _space = None  # one space: any two elements add and compare

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", {
            key: _coeff(v) for key, v in collect(terms).items()})

    def _like(self, terms) -> "UqTensor":
        return UqTensor(terms)

    @staticmethod
    def unit() -> "UqTensor":
        return UqTensor({((0, 0, 0), (0, 0, 0)): 1})

    def __mul__(self, other):
        if isinstance(other, UqTensor):
            out = []
            for (m1, m2), u in self.terms.items():
                for (n1, n2), w in other.terms.items():
                    left = UqElement.monomial(*m1) * UqElement.monomial(*n1)
                    right = UqElement.monomial(*m2) * UqElement.monomial(*n2)
                    out.extend(((k1, k2), u * w * c1 * c2)
                               for k1, c1 in left.terms.items()
                               for k2, c2 in right.terms.items())
            return UqTensor(out)
        try:
            return self._scaled(_coeff(other))
        except VariantError:
            return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return "UqTensor(%d terms)" % len(self.terms)


@lru_cache(maxsize=None)
def _antipode_monomial(a: int, b: int, c: int) -> UqElement:
    """S(F^a K^b E^c) = S(E)^c K^-b S(F)^a, built once per monomial."""
    if a < 0 or c < 0:
        raise PreconditionError("negative E or F exponent: %r" % ((a, b, c),))
    se = -(UqElement.e() * UqElement.k(-1))
    sf = -(UqElement.k() * UqElement.f())
    m = UqElement.one()
    for _ in range(c):
        m = m * se
    m = m * UqElement.k(-b)
    for _ in range(a):
        m = m * sf
    return m


@lru_cache(maxsize=None)
def _delta_monomial(a: int, b: int, c: int) -> UqTensor:
    """Delta(F^a K^b E^c) = Delta(F)^a (K^b (x) K^b) Delta(E)^c, built once
    per monomial, with Delta(E) = 1 (x) E + E (x) K and
    Delta(F) = F (x) 1 + K^-1 (x) F.
    """
    if a < 0 or c < 0:
        raise PreconditionError("negative E or F exponent: %r" % ((a, b, c),))
    de = UqTensor({((0, 0, 0), (0, 0, 1)): 1, ((0, 0, 1), (0, 1, 0)): 1})
    df = UqTensor({((1, 0, 0), (0, 0, 0)): 1, ((0, -1, 0), (1, 0, 0)): 1})
    m = UqTensor.unit()
    for _ in range(a):
        m = m * df
    m = m * UqTensor({((0, b, 0), (0, b, 0)): 1})
    for _ in range(c):
        m = m * de
    return m


def adjoint(x: UqElement, y: UqElement) -> UqElement:
    """Adjoint action sum x_(1) y S(x_(2)) through the coproduct of x.

    Delta(x) and each S(x_(2)) are sums of the per-monomial images that
    _delta_monomial and _antipode_monomial build once per process.
    """
    out = UqElement.zero()
    for (m1, m2), cf in x.delta().terms.items():
        piece = UqElement.monomial(*m1) * y * UqElement.monomial(*m2).antipode()
        out = out + cf * piece
    return out


# ---------------------------------------------------------------------------
# simple modules
# ---------------------------------------------------------------------------
#
# A module matrix is never a product of generator matrices: act writes the
# image of each basis vector under a monomial in closed form, and the
# generator matrices are act(E), act(F) and act(K).


class UqModule(Frozen):
    """The n+1 dimensional simple module with weights n, n-2, ..., -n.

    Basis vectors are indexed 0..n from the highest weight down, with
    E v_i = [n-i+1] v_(i-1), F v_i = [i+1] v_(i+1), K v_i = q^(n-2i) v_i.
    """

    __slots__ = ("n", "dim", "weights", "mat_e", "mat_f", "mat_k")

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", n + 1)
        object.__setattr__(self, "weights", tuple(n - 2 * i for i in range(n + 1)))
        object.__setattr__(self, "mat_e", self.act(UqElement.e()))
        object.__setattr__(self, "mat_f", self.act(UqElement.f()))
        object.__setattr__(self, "mat_k", self.act(UqElement.k()))

    def act(self, x: UqElement) -> Matrix:
        """Matrix of x, one closed-form entry per monomial and basis vector.

        F^a K^b E^c sends v_i to
        [n-i+1]...[n-i+c] q^(b m_(i-c)) [i-c+1]...[i-c+a] v_(i-c+a)
        with m_j = n - 2j, and to 0 when i < c or i - c + a > n.
        """
        n, d = self.n, self.dim
        rows = [[_R0] * d for _ in range(d)]
        for (a, b, c), v in x.terms.items():
            for i in range(c, min(d, d - a + c)):
                j = i - c
                entry = (v * qrange(n - i + 1, c) * qpow(b * self.weights[j])
                         * qrange(j + 1, a))
                rows[j + a][i] = rows[j + a][i] + entry
        return Matrix(rows)

    def __repr__(self):
        return "UqModule(n=%d)" % self.n


def _weights_force_scalars(mat_e: Matrix, mat_k: Matrix) -> bool:
    """Does every matrix commuting with mat_k and mat_e have to be scalar?

    A diagonal mat_k with pairwise distinct entries leaves only diagonal
    matrices in its commutant, and a diagonal matrix commuting with mat_e
    is scalar once every superdiagonal entry of mat_e is nonzero.
    """
    d = mat_k.nrows
    diagonal = [mat_k[i, i] for i in range(d)]
    return (all(not mat_k[i, j] for i in range(d) for j in range(d) if i != j)
            and len(set(diagonal)) == d
            and all(mat_e[i, i + 1] for i in range(d - 1)))


@lru_cache(maxsize=None)
def module(n: int) -> UqModule:
    """Build the n+1 dimensional simple module and verify it is one."""
    if n < 0:
        raise PreconditionError("module label must be >= 0, got %d" % n)
    mod = UqModule(n)
    mat_e, mat_f, mat_k = mod.mat_e, mod.mat_f, mod.mat_k
    relation = mat_e * mat_f - mat_f * mat_e
    expected = (mat_k - mod.act(UqElement.k(-1))).scale(_R1 / _QDIFF)
    if relation != expected:
        raise InternalError("module matrices break the E,F commutator")
    if mat_k * mat_e != (mat_e * mat_k).scale(qpow(2)):
        raise InternalError("module matrices break the K,E relation")
    if not _weights_force_scalars(mat_e, mat_k):
        raise InternalError("module(%d) is not simple" % n)
    return mod


# ---------------------------------------------------------------------------
# braiding data
# ---------------------------------------------------------------------------
#
# The coproduct is stated once, in _delta_monomial.  Its matrices on a pair
# of modules, and those of the opposite coproduct, are read off the terms
# of delta() through act and built once per pair of labels.


def r0_pairing(mu_minus: int, mu_plus: int) -> RatFun:
    """Diagonal braiding scalar for a weight pair, as a power of v.

    Weights are integer multiples of the fundamental weight, whose self
    pairing is 1/2 under the normalization that the root pairs to 2 with
    itself; q to that half-integral pairing is the integral power
    v^(mu_minus * mu_plus).
    """
    return _V ** (mu_minus * mu_plus)


class ThetaExpansion(Frozen):
    """Truncated expansion sum_k c_k E^k (x) F^k with a selected convention."""

    __slots__ = ("order", "sign", "twist", "coeffs")

    def __init__(self, order: int, sign: int, twist: int):
        coeffs = []
        for kk in range(order + 1):
            c = _QDIFF ** kk / qfact(kk)
            if sign == -1 and kk % 2:
                c = -c
            c = c * qpow(twist * (kk * (kk - 1) // 2))
            coeffs.append(c)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __repr__(self):
        return "ThetaExpansion(order=%d, sign=%d, twist=%d)" % (
            self.order,
            self.sign,
            self.twist,
        )


def r_action(theta_exp: ThetaExpansion, mv: UqModule, mw: UqModule) -> Matrix:
    """Matrix of the braiding on mv (x) mw: weight scaling after the expansion."""
    dv, dw = mv.dim, mw.dim
    total = Matrix.zeros(dv * dw, dv * dw)
    for kk in range(min(theta_exp.order, mv.n, mw.n) + 1):
        block = mv.act(UqElement.monomial(0, 0, kk)).kron(
            mw.act(UqElement.monomial(kk, 0, 0)))
        total = total + block.scale(theta_exp.coeffs[kk])
    scaled = [
        [
            total[i, j] * r0_pairing(mv.weights[i // dw], mw.weights[i % dw])
            for j in range(dv * dw)
        ]
        for i in range(dv * dw)
    ]
    return Matrix(scaled)


@lru_cache(maxsize=None)
def _coproduct_actions(m: int, n: int) -> tuple:
    """(Delta(x), Delta^op(x)) on module(m) (x) module(n), for x = E, F, K.

    Both are read off x.delta() through act; the opposite coproduct swaps
    the two legs of every term.
    """
    mv, mw = module(m), module(n)
    zero = Matrix.zeros(mv.dim * mw.dim, mv.dim * mw.dim)
    out = []
    for x in (UqElement.e(), UqElement.f(), UqElement.k()):
        straight = flipped = zero
        for (m1, m2), cf in x.delta().terms.items():
            left, right = UqElement.monomial(*m1, cf), UqElement.monomial(*m2)
            straight = straight + mv.act(left).kron(mw.act(right))
            flipped = flipped + mv.act(right).kron(mw.act(left))
        out.append((straight, flipped))
    return tuple(out)


def _intertwines(theta_exp: ThetaExpansion, mv: UqModule, mw: UqModule) -> bool:
    rmat = r_action(theta_exp, mv, mw)
    return all(rmat * straight == flipped * rmat
               for straight, flipped in _coproduct_actions(mv.n, mw.n))


@lru_cache(maxsize=None)
def _convention() -> tuple:
    """(sign, twist) of the one family member that intertwines.

    The sign/twist family c_k = sign^k q^(twist k(k-1)/2) (q - q^-1)^k / [k]!
    is enumerated; the member turning the braiding into an intertwiner
    between the coproduct and its opposite is checked on the two smallest
    nontrivial module squares.
    """
    survivors = []
    for sign in (1, -1):
        for twist in (1, 0, -1):
            cand = ThetaExpansion(2, sign, twist)
            if _intertwines(cand, module(1), module(1)) and _intertwines(
                cand, module(2), module(2)
            ):
                survivors.append((sign, twist))
    if not survivors:
        raise ConventionError(
            "no sign/twist convention intertwines the coproducts"
        )
    if len(survivors) > 1:
        raise InternalError("convention selection is ambiguous: %r" % survivors)
    return survivors[0]


def theta(order: int) -> ThetaExpansion:
    """Truncated braiding expansion in the convention of _convention()."""
    if order < 0:
        raise PreconditionError("expansion order must be >= 0, got %d" % order)
    return ThetaExpansion(order, *_convention())


# ---------------------------------------------------------------------------
# transferred matrix coefficients and central elements
# ---------------------------------------------------------------------------


def transferred_coefficient(n: int, i: int, j: int) -> UqElement:
    """Algebra element carried by the (i, j) matrix coefficient of module(n).

    Both braiding legs are paired against the module with the group-like
    element K^-1 inserted: one leg of each braiding factor acts on the
    module while the diagonal weight part contributes a K-power equal to
    the weight it faces.  Writing m_i = n - 2i, the expansion indices k, l
    survive only when l - k = i - j, and such a pair contributes

      c_k c_l q^(-m_i) <F^k E^l v_i, f_j> q^(-k (m_i + 2l)) K^((m_i+m_j)/2 + l) E^k F^l

    which has an integer K-exponent because m_i and m_j share parity.
    """
    mod = module(n)
    theta_exp = theta(n)
    if not (0 <= i <= n and 0 <= j <= n):
        raise PreconditionError("basis indices out of range")
    mi, mj = mod.weights[i], mod.weights[j]
    out = UqElement.zero()
    for l in range(max(0, i - j), i + 1):
        # k lies in [0, j], and F^k E^l sends v_i to a nonzero multiple of v_j
        k = l - (i - j)
        # the [j, i] entry of act(F^k E^l), in act's closed form
        gamma = qrange(n - i + 1, l) * qrange(i - l + 1, k)
        coeff = (
            theta_exp.coeffs[k]
            * theta_exp.coeffs[l]
            * gamma
            * qpow(-mi)
            * qpow(-k * (mi + 2 * l))
        )
        term = UqElement.monomial(0, (mi + mj) // 2 + l, k, coeff)
        out = out + term * UqElement.monomial(l, 0, 0)
    return out


@lru_cache(maxsize=None)
def c_q(n: int) -> UqElement:
    """Central element attached to module(n): the transferred character.

    The diagonal matrix coefficients of the module are transferred into
    the algebra and summed; c_q(0) is the identity and the family obeys
    the same product rule as tensor products of the modules.
    """
    if n < 0:
        raise PreconditionError("module label must be >= 0, got %d" % n)
    out = UqElement.zero()
    for i in range(n + 1):
        out = out + transferred_coefficient(n, i, i)
    return out


def central_commutant_solve(deg: int):
    """Basis of the commutant of {E, F, K} in a bounded monomial span.

    The span is every monomial F^a K^b E^c with a, c, |b| <= deg.  K
    rescales F^a K^b E^c by q^(2(c - a)), so an element commutes with K
    exactly when it lives on the weight-zero monomials F^a K^b E^a; the
    solve runs over those alone.  Commutation against E and F is one
    linear system over Q(v), and the returned tuple of elements is its
    canonical nullspace basis.  This is an independent route to central
    elements: it never looks at modules or braiding data.
    """
    if deg < 0:
        raise PreconditionError("degree bound must be >= 0, got %d" % deg)
    monos = sorted(
        (a, b, a) for a in range(deg + 1) for b in range(-deg, deg + 1)
    )
    gens = [UqElement.e(), UqElement.f()]
    commutators = []
    row_keys: set = set()
    for mono in monos:
        x = UqElement.monomial(*mono)
        per = []
        for g in gens:
            comm = x * g - g * x
            per.append(comm)
            row_keys.update(comm.terms)
        commutators.append(per)
    keys = sorted(row_keys)
    rows = []
    for gi in range(len(gens)):
        for key in keys:
            rows.append([
                commutators[ci][gi].terms.get(key, _R0)
                for ci in range(len(monos))
            ])
    basis = []
    for vec in nullspace(rows, len(monos)):
        terms = {mono: vec[ci] for ci, mono in enumerate(monos)}
        basis.append(UqElement(terms))
    return tuple(basis)


# ---------------------------------------------------------------------------
# component checks
# ---------------------------------------------------------------------------


def _coordinates(elems):
    """Common monomial index and coordinate rows for a list of elements."""
    keys = sorted({key for x in elems for key in x.terms})
    rows = [[x.terms.get(key, _R0) for key in keys] for x in elems]
    return keys, rows


def in_span(elems, x: UqElement) -> bool:
    """Is x a linear combination of the given elements over Q(v)?"""
    keys, rows = _coordinates(list(elems) + [x])
    return Subspace(len(keys), rows[:-1]).contains(rows[-1])


def _ad_round(basis):
    """RREF basis of the span of basis, ad E(basis) and ad F(basis)."""
    grown = list(basis)
    gens = (UqElement.e(), UqElement.f())
    for x in basis:
        for g in gens:
            y = adjoint(g, x)
            if y:
                grown.append(y)
    keys, rows = _coordinates(grown)
    return [UqElement({keys[ci]: row[ci] for ci in range(len(keys))})
            for row in Subspace(len(keys), rows).basis]


def joseph_component_check(n: int) -> dict:
    """Verify the block of the algebra carried by module(n).

    Checks that the transferred highest-to-lowest matrix coefficient is a
    unit multiple of K^n, grows the adjoint orbit of K^n under words of
    length at most 2n in the generators, and reports whether that orbit
    spans the expected (n+1)^2 dimensional block containing c_q(n).

    Only ad E and ad F grow the orbit.  K^n has weight 0, so each round's
    span is spanned by weight vectors, and ad K only rescales those.
    """
    if n < 0:
        raise PreconditionError("module label must be >= 0, got %d" % n)
    corner = transferred_coefficient(n, 0, 0)
    unit_ok = set(corner.terms) == {(0, n, 0)}
    target = (n + 1) ** 2
    basis = [UqElement.monomial(0, n, 0)]
    dim = 1
    for _ in range(2 * n):
        basis = _ad_round(basis)
        if len(basis) == dim:
            break
        dim = len(basis)
        if dim > target:
            raise InternalError("adjoint orbit overshoots the block")
    return {
        "n": n,
        "highest_to_lowest_unit": unit_ok,
        "ad_orbit_dimension": dim,
        "expected_dimension": target,
        "spans_component": dim == target,
        "central_element_inside": in_span(basis, c_q(n)),
    }
