"""Multivariate polynomials over the exact scalars, with capped completion.

Coefficients may be rationals, cyclotomics, or rational functions; the
defaults and most uses are rational.  The monomial order is degree reverse
lexicographic throughout.  The completion is honest about its limits: it
returns one of

* ``"basis"``             a completed Groebner basis, the only status whose
                          basis is reduced,
* ``"proved_infeasible"`` the constant 1 entered the ideal, so the system
                          has no solution over any field extension,
* ``"unknown"``           a degree or step cap was hit first; the basis is
                          the partial one the completion had reached, monic
                          but not interreduced.

A cap can therefore never turn into a false claim in either direction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub

from ..errors import DimensionError
from .scalars import Cyclotomic, Frozen, RatFun, Terms, as_scalar, collect

_F0 = Fraction(0)
_F1 = Fraction(1)

_SCALAR_TYPES = (int, Fraction, Cyclotomic, RatFun)


def _degrevlex_key(mono):
    # sort key: larger key = larger monomial
    return (sum(mono), tuple(-e for e in reversed(mono)))


class Poly(Terms):
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

    @property
    def _space(self):
        return self.nvars

    def _like(self, terms) -> "Poly":
        return Poly(self.nvars, terms)

    def _mismatch(self, other):
        raise DimensionError("variable count mismatch")

    def _operand(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, _SCALAR_TYPES):
            # a scalar takes part in sums and comparisons as a constant
            return Poly.constant(self.nvars, other)
        return None

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

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading(self):
        """(monomial, coefficient) maximal in degrevlex."""
        if self._lead is None:
            mono = max(self.terms, key=_degrevlex_key)
            object.__setattr__(self, "_lead", (mono, self.terms[mono]))
        return self._lead

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._scaled(as_scalar(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_space(other)
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

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes as one
        const = (0,) * self.nvars
        if self.terms.keys() <= {const}:
            return hash(self.terms.get(const, _F0))
        return super().__hash__()

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


def _mono_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])


# what _normal_form's work dict gives for a monomial not yet on its heap
_UNSEEN = object()


def _normal_form(work, leads) -> dict:
    """Reduce work, a dict {monomial: coefficient}, in place by the divisors
    leads, a list of (leading monomial, leading coefficient, terms); a
    leading coefficient None stands for 1.

    A heap pops the largest live monomial in degrevlex order.  The first
    divisor in list order whose leading monomial divides it has its other
    terms, scaled, subtracted straight into work; its leading term would
    cancel exactly, so it is never formed.  A sum that reaches zero stays
    in work as None, so every monomial is pushed once.  A monomial no
    divisor divides goes to the remainder, which is returned in
    descending order.
    """
    # imported here: its extension module would add 0.1 MB to the peak
    # memory of every command that never reduces a polynomial
    import heapq

    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    remainder = {}
    while heap:
        mono = pop(heap)[2]
        coef = work.pop(mono)
        if coef is None:
            continue
        for lm, lc, terms in leads:
            if all(map(le, lm, mono)):
                break
        else:
            remainder[mono] = coef
            continue
        # every monomial subtracted is below mono, so mono never returns
        q = coef if lc is None else coef / lc
        shift = tuple(map(sub, mono, lm))
        for m, c in terms.items():
            if m == lm:
                continue
            m = tuple(map(add, m, shift))
            t = q * c
            s = get(m, _UNSEEN)
            if s is _UNSEEN:
                work[m] = -t
                push(heap, (-sum(m), m[::-1], m))
            elif s is None:
                work[m] = -t
            else:
                work[m] = (s - t) or None
    return remainder


def reduce_poly(f: Poly, basis) -> Poly:
    """Full normal form of f modulo the list basis (deterministic order).

    Every divisor, zero ones included, must have f's variable count.
    """
    if any(g.nvars != f.nvars for g in basis):
        raise DimensionError("variable count mismatch")
    if not basis:
        return f
    leads = [(*g.leading(), g.terms) for g in basis if g]
    return Poly(f.nvars, _normal_form(dict(f.terms), leads))


def _spoly_terms(gi, gj) -> dict:
    """The S-polynomial of two monic divisors (leading monomial, None,
    terms) as a dict; the leading terms cancel and are never formed."""
    mi, _, ti = gi
    mj, _, tj = gj
    lcm = _mono_lcm(mi, mj)
    si, sj = tuple(map(sub, lcm, mi)), tuple(map(sub, lcm, mj))
    work = {tuple(map(add, m, si)): c for m, c in ti.items() if m != mi}
    get = work.get
    for m, c in tj.items():
        if m != mj:
            m = tuple(map(add, m, sj))
            s = get(m)
            work[m] = -c if s is None else (s - c) or None
    return work


def _monic(nvars, terms, lc) -> Poly:
    # scaling by a rational 1 would change no coefficient; an extension's 1
    # still lifts rational coefficients into its field
    if type(lc) is Fraction and lc == 1:
        return Poly(nvars, terms)
    s = 1 / lc
    return Poly(nvars, {m: c * s for m, c in terms.items()})


class GroebnerResult(Frozen):
    __slots__ = ("status", "basis", "steps")

    def __init__(self, status, basis, steps):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "steps", steps)

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
    """Capped Buchberger completion; see the module docstring for statuses.

    Only a ``"basis"`` result is interreduced: a capped run stops without
    reducing its partial basis.
    """
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
            basis.append(p)
    if not basis:
        return GroebnerResult("basis", [], 0)
    one = (0,) * nvars
    if any(p.leading()[0] == one for p in basis):
        return GroebnerResult("proved_infeasible",
                              [Poly.constant(nvars, 1)], 0)
    import heapq  # imported here, as in _normal_form

    # the divisors (leading monomial, None, terms), one per basis element,
    # read by every S-polynomial and normal form.  Their leading
    # coefficients are 1, so a quotient needs no division: a monic element
    # with an extension's 1 has all its coefficients in that field, which
    # the quotient's product with them reaches anyway
    leads = []
    for k, p in enumerate(basis):
        lead, lc = p.leading()
        basis[k] = g = _monic(nvars, p.terms, lc)
        leads.append((lead, None, g.terms))
    # deterministic normal selection: smallest lcm degree first, then
    # the pair (i, j) with i > j; a basis element's leading monomial never
    # changes, so each pair's key is fixed when its second element joins
    pairs = [(sum(_mono_lcm(leads[i][0], leads[j][0])), i, j)
             for i in range(len(basis)) for j in range(i)]
    heapq.heapify(pairs)
    steps = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj = leads[i][0], leads[j][0]
        if _mono_lcm(mi, mj) == tuple(map(add, mi, mj)):
            continue  # coprime leading monomials reduce to zero
        steps += 1
        if step_cap is not None and steps > step_cap:
            return GroebnerResult("unknown", basis, steps)
        r = _normal_form(_spoly_terms(leads[i], leads[j]), leads)
        if not r:
            continue
        # the remainder comes out in descending order, its lead first
        lead = next(iter(r))
        if lead == one:
            return GroebnerResult("proved_infeasible",
                                  [Poly.constant(nvars, 1)], steps)
        g = _monic(nvars, r, r[lead])
        if degree_cap is not None and g.total_degree() > degree_cap:
            return GroebnerResult("unknown", basis, steps)
        k = len(basis)
        basis.append(g)
        leads.append((lead, None, g.terms))
        for t in range(k):
            heapq.heappush(pairs, (sum(_mono_lcm(lead, leads[t][0])), k, t))
    return GroebnerResult("basis", _interreduce(basis), steps)


class PolySystem(Frozen):
    """A named polynomial system over Q (one shared variable list)."""

    __slots__ = ("names", "polys")

    def __init__(self, names, polys):
        names = tuple(names)
        polys = tuple(polys)
        for p in polys:
            if p.nvars != len(names):
                raise DimensionError("system/polynomial variable mismatch")
        # one canonical order, short equations first: buchberger's pairs,
        # and so the step counts that capped searches log, follow it
        polys = tuple(sorted(polys, key=lambda p: (len(p.terms),
                                                   sorted(p.terms))))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "polys", polys)

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
