"""Multivariate polynomials over the exact scalars, with capped completion.

Coefficients may be rationals, cyclotomics, or rational functions; the
defaults and most uses are rational.  The monomial order is degree reverse
lexicographic throughout.  The completion is honest about its limits: it
returns one of

* ``"basis"``             a completed (reduced) Groebner basis,
* ``"proved_infeasible"`` the constant 1 entered the ideal, so the system
                          has no solution over any field extension,
* ``"unknown"``           a degree or step cap was hit first.

A cap can therefore never turn into a false claim in either direction.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DimensionError
from .scalars import Cyclotomic, RatFun, as_scalar, collect

_F0 = Fraction(0)
_F1 = Fraction(1)

_SCALAR_TYPES = (int, Fraction, Cyclotomic, RatFun)


def _degrevlex_key(mono):
    # sort key: larger key = larger monomial
    return (sum(mono), tuple(-e for e in reversed(mono)))


class Poly:
    """Polynomial in a fixed number of variables with exact coefficients.

    ``terms`` is a mapping or an iterable of (exponent tuple, coefficient)
    pairs; the coefficients of a repeated monomial are summed.
    """

    # _lead memoizes leading(); equality, hashing and repr never read it
    __slots__ = ("nvars", "terms", "_lead")

    def __init__(self, nvars: int, terms=()):
        clean = {}
        for mono, c in collect(terms).items():
            if len(mono) != nvars:
                raise DimensionError("monomial arity mismatch")
            clean[mono] = as_scalar(c)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: as_scalar(c)})

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        mono = [0] * nvars
        mono[i] = 1
        return Poly(nvars, {tuple(mono): _F1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading(self):
        """(monomial, coefficient) maximal in degrevlex."""
        if self._lead is None:
            mono = max(self.terms, key=_degrevlex_key)
            object.__setattr__(self, "_lead", (mono, self.terms[mono]))
        return self._lead

    def __add__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionError("variable count mismatch")
        return Poly(self.nvars, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            c = as_scalar(other)
            return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionError("variable count mismatch")
        return Poly(self.nvars, [
            (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes as one
        const = (0,) * self.nvars
        if self.terms.keys() <= {const}:
            return hash(self.terms.get(const, _F0))
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def evaluate(self, values):
        """Evaluate at scalars, or compose by substituting polynomials."""
        if len(values) != self.nvars:
            raise DimensionError("value count mismatch")
        if not self.terms:
            if values and isinstance(values[0], Poly):
                return Poly.constant(values[0].nvars, 0)
            return _F0
        acc = None
        for mono, c in sorted(self.terms.items(),
                              key=lambda kv: _degrevlex_key(kv[0])):
            term = None
            for i, e in enumerate(mono):
                if not e:
                    continue
                f = values[i] ** e if e > 1 else values[i]
                term = f if term is None else term * f
            term = c if term is None else term * c
            acc = term if acc is None else acc + term
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items(),
                              key=lambda kv: _degrevlex_key(kv[0]),
                              reverse=True):
            vars_ = "*".join(
                "x%d^%d" % (i, e) if e > 1 else "x%d" % i
                for i, e in enumerate(mono) if e)
            bits.append("%s%s" % (c, "*" + vars_ if vars_ else ""))
        return " + ".join(bits)


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul_poly(mono, coef, p: Poly) -> Poly:
    return Poly(p.nvars, {
        tuple(a + b for a, b in zip(mono, m)): coef * c
        for m, c in p.terms.items()})


def reduce_poly(f: Poly, basis) -> Poly:
    """Full normal form of f modulo the list basis (deterministic order)."""
    if not basis:
        return f
    remainder = {}
    work = Poly(f.nvars, f.terms)
    leads = [(*g.leading(), g) for g in basis if g]
    while work:
        mono, coef = work.leading()
        hit = None
        for lm, lc, g in leads:
            if _mono_divides(lm, mono):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[mono] = coef
            work = work - Poly(work.nvars, {mono: coef})
        else:
            lm, lc, g = hit
            work = work - _mono_mul_poly(_mono_div(mono, lm), coef / lc, g)
    return Poly(f.nvars, remainder)


def _spoly(f: Poly, g: Poly) -> Poly:
    mf, cf = f.leading()
    mg, cg = g.leading()
    L = _mono_lcm(mf, mg)
    return (_mono_mul_poly(_mono_div(L, mf), 1 / cf, f)
            - _mono_mul_poly(_mono_div(L, mg), 1 / cg, g))


class GroebnerResult:
    __slots__ = ("status", "basis", "steps")

    def __init__(self, status, basis, steps):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, *a):
        raise AttributeError("GroebnerResult is immutable")

    def __repr__(self):
        return "GroebnerResult(%s, %d polys, %d steps)" % (
            self.status, len(self.basis), self.steps)


def _interreduce(basis):
    out = [g * (1 / g.leading()[1]) for g in basis if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            g = out[i]
            rest = out[:i] + out[i + 1:]
            r = reduce_poly(g, rest) if rest else g
            if r != g:
                changed = True
                if r:
                    out[i] = r * (1 / r.leading()[1])
                else:
                    out.pop(i)
                    break
    out.sort(key=lambda g: (_degrevlex_key(g.leading()[0]),
                            sorted(g.terms.items())))
    return out


def buchberger(polys, degree_cap: int | None = None,
               step_cap: int | None = None) -> GroebnerResult:
    """Capped Buchberger completion; see the module docstring for statuses."""
    nvars = None
    basis = []
    for p in polys:
        if not isinstance(p, Poly):
            raise DimensionError("buchberger expects Poly inputs")
        if nvars is None:
            nvars = p.nvars
        elif p.nvars != nvars:
            raise DimensionError("variable count mismatch")
        if p:
            basis.append(p * (1 / p.leading()[1]))
    if not basis:
        return GroebnerResult("basis", [], 0)
    one = (0,) * nvars
    for g in basis:
        if g.leading()[0] == one:
            return GroebnerResult("proved_infeasible",
                                  [Poly.constant(nvars, 1)], 0)
    # imported here: its extension module would add 0.1 MB to the peak
    # memory of every command that never runs a completion
    import heapq

    # deterministic normal selection: smallest lcm degree first, then
    # the pair (i, j) with i > j; a basis element's leading monomial never
    # changes, so each pair's key is fixed when its second element joins
    leads = [g.leading()[0] for g in basis]
    pairs = [(sum(_mono_lcm(leads[i], leads[j])), i, j)
             for i in range(len(basis)) for j in range(i)]
    heapq.heapify(pairs)
    steps = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj = leads[i], leads[j]
        if _mono_lcm(mi, mj) == tuple(a + b for a, b in zip(mi, mj)):
            continue  # coprime leading monomials reduce to zero
        steps += 1
        if step_cap is not None and steps > step_cap:
            return GroebnerResult("unknown", _interreduce(basis), steps)
        r = reduce_poly(_spoly(basis[i], basis[j]), basis)
        if not r:
            continue
        if r.leading()[0] == one:
            return GroebnerResult("proved_infeasible",
                                  [Poly.constant(nvars, 1)], steps)
        if degree_cap is not None and r.total_degree() > degree_cap:
            return GroebnerResult("unknown", _interreduce(basis), steps)
        r = r * (1 / r.leading()[1])
        k = len(basis)
        basis.append(r)
        leads.append(r.leading()[0])
        for t in range(k):
            heapq.heappush(pairs, (sum(_mono_lcm(leads[k], leads[t])), k, t))
    return GroebnerResult("basis", _interreduce(basis), steps)


class PolySystem:
    """A named polynomial system over Q (one shared variable list)."""

    __slots__ = ("names", "polys")

    def __init__(self, names, polys):
        names = tuple(names)
        polys = tuple(polys)
        for p in polys:
            if p.nvars != len(names):
                raise DimensionError("system/polynomial variable mismatch")
        # cheap equations first, so point filtering can fail fast
        polys = tuple(sorted(polys, key=lambda p: (len(p.terms),
                                                   sorted(p.terms))))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "polys", polys)

    def __setattr__(self, *a):
        raise AttributeError("PolySystem is immutable")

    @property
    def nvars(self):
        return len(self.names)

    def first_violated(self, point):
        """Index of the first equation not vanishing at point, or None."""
        for i, p in enumerate(self.polys):
            if p.evaluate(point) != 0:
                return i
        return None

    def satisfied_by(self, point) -> bool:
        return self.first_violated(point) is None

    def __repr__(self):
        return "PolySystem(%d vars, %d equations)" % (self.nvars,
                                                      len(self.polys))
