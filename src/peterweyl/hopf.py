"""The group algebra H = kG as a Hopf algebra.

Elements of H, of tensor powers of H, and of the dual H* are all stored
sparsely (or densely for the dual, whose dimension is the group order) over
one exact scalar variant.  The comultiplication, counit, and antipode are the
standard ones for a group algebra:

    delta(g) = g (x) g,    counit(g) = 1,    antipode(g) = g^{-1},

so the antipode squares to the identity and every completed tensor product
collapses to the algebraic one (H is finite-dimensional).

Five module actions are provided uniformly through ``act``:

* ``ad``       h acts by conjugation  g . b = g b g^{-1}
* ``ad_star``  the reversed conjugation  g . b = g^{-1} b g
* ``left``     left regular action (on functionals: (g . f)(b) = f(b g))
* ``right``    right regular action (on functionals: (g . f)(b) = f(g b))
* ``diamond``  the antipode-twisted action  g . b = S^2(g) b S(g), which on
               functionals evaluates to (g . f)(h) = f(g^{-1} h g)

``diamond`` is computed from its defining formula through the antipode, not
rewritten to conjugation, so agreement with ``ad`` on group algebras is a
checkable fact rather than a definition.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimensionError, ParseError, PreconditionError
from .exact.linalg import Subspace, nullspace
from .exact.scalars import (
    Frozen,
    Terms,
    as_scalar,
    collect,
    scalar_from_str,
    scalar_to_str,
    unify,
)
from .groups import Group, from_descriptor

_F0 = Fraction(0)
_F1 = Fraction(1)


def _clean_terms(terms) -> dict:
    terms = collect(terms)
    return dict(zip(terms, unify(terms.values())))


class AlgebraElement(Terms):
    """A sparse element of kG: map from group-element index to scalar.

    ``terms`` is a mapping or an iterable of (index, coefficient) pairs;
    the coefficients of a repeated index are summed.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: Group, terms=()):
        terms = _clean_terms(terms)
        for i in terms:
            if not 0 <= i < group.order:
                raise PreconditionError("term index out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", terms)

    @property
    def _space(self):
        return self.group.key

    def _like(self, terms) -> "AlgebraElement":
        return AlgebraElement(self.group, terms)

    def _mismatch(self, other):
        raise PreconditionError("elements of different group algebras")

    @staticmethod
    def basis(group: Group, i: int, coeff=1) -> "AlgebraElement":
        return AlgebraElement(group, {i: coeff})

    @staticmethod
    def one(group: Group) -> "AlgebraElement":
        return AlgebraElement(group, {0: 1})

    @staticmethod
    def zero(group: Group) -> "AlgebraElement":
        return AlgebraElement(group, {})

    @staticmethod
    def of(x) -> "AlgebraElement":
        if isinstance(x, AlgebraElement):
            return x
        raise PreconditionError("cannot view %r as an algebra element" % (x,))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same_space(other)
            table = self.group.table
            return AlgebraElement(self.group, [
                (table[i][j], a * b)
                for i, a in self.terms.items()
                for j, b in other.terms.items()])
        return self._scaled(as_scalar(other))

    def __rmul__(self, other):
        return self * other

    # -- Hopf structure maps -------------------------------------------------

    def antipode(self) -> "AlgebraElement":
        inv = self.group.inv
        return AlgebraElement(self.group,
                              {inv[i]: c for i, c in self.terms.items()})

    def counit(self):
        acc = _F0
        for c in self.terms.values():
            acc = acc + c
        return acc

    def delta(self) -> "TensorElement":
        return TensorElement(self.group, 2,
                             {(i, i): c for i, c in self.terms.items()})

    # -- conversions -----------------------------------------------------------

    def to_vector(self):
        zero = _zero_like(self.terms.values())
        return [self.terms.get(i, zero) for i in range(self.group.order)]

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.group.elements
        bits = []
        for i in sorted(self.terms):
            c = self.terms[i]
            bits.append("%s*%s" % (scalar_to_str(c), names[i]))
        return " + ".join(bits)


def _zero_like(values):
    for v in values:
        return v * 0
    return _F0


class TensorElement(Terms):
    """A sparse element of H^(x)k: map from k-tuples of indices to scalars.

    ``terms`` is a mapping or an iterable of (index tuple, coefficient)
    pairs; the coefficients of a repeated tuple are summed.
    """

    __slots__ = ("group", "arity", "terms")

    def __init__(self, group: Group, arity: int, terms=()):
        if arity < 1:
            raise PreconditionError("tensor arity must be at least 1")
        terms = _clean_terms(terms)
        for key in terms:
            if len(key) != arity:
                raise DimensionError("tensor key arity mismatch")
            if any(not 0 <= i < group.order for i in key):
                raise PreconditionError("tensor index out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)

    @property
    def _space(self):
        return self.group.key, self.arity

    def _like(self, terms) -> "TensorElement":
        return TensorElement(self.group, self.arity, terms)

    def _mismatch(self, other):
        if self.group != other.group:
            raise PreconditionError("tensors over different group algebras")
        raise DimensionError("tensor arity mismatch")

    @staticmethod
    def unit(group: Group, arity: int) -> "TensorElement":
        return TensorElement(group, arity, {(0,) * arity: 1})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            self._same_space(other)
            table = self.group.table
            return TensorElement(self.group, self.arity, [
                (tuple(table[i][j] for i, j in zip(k1, k2)), a * b)
                for k1, a in self.terms.items()
                for k2, b in other.terms.items()])
        return self._scaled(as_scalar(other))

    def __rmul__(self, other):
        return self * other

    def to_vector(self):
        """Dense coordinates over all index tuples in lexicographic order."""
        zero = _zero_like(self.terms.values())
        n = self.group.order
        return [self.terms.get(key, zero)
                for key in itertools.product(range(n), repeat=self.arity)]

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.group.elements
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            bits.append("%s*(%s)" % (scalar_to_str(c),
                                     "(x)".join(names[i] for i in key)))
        return " + ".join(bits)


def tensor(*factors) -> TensorElement:
    """Outer tensor product of algebra elements."""
    factors = [AlgebraElement.of(f) for f in factors]
    if not factors:
        raise PreconditionError("tensor of zero factors")
    group = factors[0].group
    for f in factors[1:]:
        if group != f.group:
            raise PreconditionError("tensors over different group algebras")
    terms = {(): _F1}
    for f in factors:
        terms = {k + (i,): c * ci
                 for k, c in terms.items() for i, ci in f.terms.items()}
    return TensorElement(group, len(factors), terms)


def to_algebra(x: TensorElement) -> AlgebraElement:
    if x.arity != 1:
        raise DimensionError("only arity-1 tensors convert to algebra elements")
    return AlgebraElement(x.group, {k[0]: c for k, c in x.terms.items()})


# ---------------------------------------------------------------------------
# slot operations on tensors (everything a group-like basis makes cheap)
# ---------------------------------------------------------------------------

def remap(x: TensorElement, arity: int, key) -> TensorElement:
    """The tensor in ``arity`` slots with c at key(k) for each term c at k.

    Terms sent to one index tuple are summed, so every slot operation that
    a group-like basis makes cheap is one call.
    """
    return TensorElement(x.group, arity,
                         ((key(k), c) for k, c in x.terms.items()))


def apply_delta(x: TensorElement, slot: int) -> TensorElement:
    """Comultiply one slot: ... g ... becomes ... g g ... (arity grows by 1)."""
    if not 0 <= slot < x.arity:
        raise DimensionError("slot out of range")
    return remap(x, x.arity + 1,
                 lambda k: k[:slot] + (k[slot], k[slot]) + k[slot + 1:])


def apply_antipode(x: TensorElement, slot: int) -> TensorElement:
    if not 0 <= slot < x.arity:
        raise DimensionError("slot out of range")
    inv = x.group.inv
    return remap(x, x.arity,
                 lambda k: k[:slot] + (inv[k[slot]],) + k[slot + 1:])


def apply_counit(x: TensorElement, slot: int):
    """Apply the counit to one slot; drops to arity-1 (or a scalar at arity 1)."""
    if not 0 <= slot < x.arity:
        raise DimensionError("slot out of range")
    if x.arity == 1:
        acc = _F0
        for c in x.terms.values():
            acc = acc + c
        return acc
    return remap(x, x.arity - 1, lambda k: k[:slot] + k[slot + 1:])


def multiply_adjacent(x: TensorElement, slot: int) -> TensorElement:
    """Multiply slot and slot+1 together (arity drops by 1)."""
    if not 0 <= slot < x.arity - 1:
        raise DimensionError("slot out of range")
    table = x.group.table
    return remap(x, x.arity - 1, lambda k: k[:slot]
                 + (table[k[slot]][k[slot + 1]],) + k[slot + 2:])


def permute_slots(x: TensorElement, perm) -> TensorElement:
    """Reorder slots: entry i of the result is old slot perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(x.arity)):
        raise DimensionError("not a permutation of the slots")
    return remap(x, x.arity, lambda k: tuple(k[p] for p in perm))


def embed(x: TensorElement, arity: int, slots) -> TensorElement:
    """Place x into chosen slots of a larger tensor, identity elsewhere."""
    slots = tuple(slots)
    if len(slots) != x.arity or len(set(slots)) != x.arity:
        raise DimensionError("need one distinct target slot per factor")
    if any(not 0 <= s < arity for s in slots):
        raise DimensionError("slot out of range")

    def place(k):
        key = [0] * arity
        for s, i in zip(slots, k):
            key[s] = i
        return tuple(key)

    return remap(x, arity, place)


def contract(x: TensorElement, xi: "Functional", slot: int):
    """Pair one slot against a functional; arity drops by 1 (or to a scalar)."""
    if x.group != xi.group:
        raise PreconditionError("functional over a different group algebra")
    if not 0 <= slot < x.arity:
        raise DimensionError("slot out of range")
    if x.arity == 1:
        acc = _F0
        for k, c in x.terms.items():
            acc = acc + c * xi.values[k[0]]
        return acc
    return TensorElement(x.group, x.arity - 1, (
        (k[:slot] + k[slot + 1:], c * xi.values[k[slot]])
        for k, c in x.terms.items()))


# ---------------------------------------------------------------------------
# the dual H*
# ---------------------------------------------------------------------------

class Functional(Frozen):
    """An element of H* stored densely on the dual basis {delta_g}."""

    __slots__ = ("group", "values")

    def __init__(self, group: Group, values):
        values = unify([as_scalar(v) for v in values])
        if len(values) != group.order:
            raise DimensionError("functional needs one value per element")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", tuple(values))

    @staticmethod
    def delta(group: Group, i: int) -> "Functional":
        return Functional(group, [_F1 if j == i else _F0
                                  for j in range(group.order)])

    @staticmethod
    def counit(group: Group) -> "Functional":
        return Functional(group, [_F1] * group.order)

    @staticmethod
    def zero(group: Group) -> "Functional":
        return Functional(group, [_F0] * group.order)

    def __call__(self, x):
        if isinstance(x, int):
            return self.values[x]
        if isinstance(x, AlgebraElement):
            if self.group != x.group:
                raise PreconditionError("pairing across different groups")
            acc = _F0
            for i, c in x.terms.items():
                acc = acc + c * self.values[i]
            return acc
        raise PreconditionError("cannot pair with %r" % (x,))

    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        if self.group != other.group:
            raise PreconditionError("functionals over different groups")
        return Functional(self.group,
                          [a + b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return Functional(self.group, [-v for v in self.values])

    def __sub__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Functional):
            return convolve(self, other)
        s = as_scalar(other)
        return Functional(self.group, [v * s for v in self.values])

    def __rmul__(self, other):
        if isinstance(other, Functional):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return (self.group == other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __hash__(self):
        return hash((self.group.key, self.values))

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        names = self.group.elements
        bits = ["%s*d(%s)" % (scalar_to_str(v), names[i])
                for i, v in enumerate(self.values) if v]
        return " + ".join(bits) if bits else "0"


def convolve(xi: Functional, eta: Functional) -> Functional:
    """Convolution product on H*; for kG this is pointwise on the basis.

    (xi . eta)(g) = xi(g_(1)) eta(g_(2)) = xi(g) eta(g) since g is group-like.
    """
    if xi.group != eta.group:
        raise PreconditionError("functionals over different groups")
    return Functional(xi.group,
                      [a * b for a, b in zip(xi.values, eta.values)])


def pair(xi: Functional, x: AlgebraElement):
    return xi(x)


# ---------------------------------------------------------------------------
# the five actions
# ---------------------------------------------------------------------------

ACTIONS = ("ad", "ad_star", "diamond", "left", "right")


def _index_map(action: str, g: int, group: Group):
    """Where each basis element i of kG goes under the action of g."""
    table, inv, n = group.table, group.inv, group.order
    if action == "ad":
        return [table[table[g][i]][inv[g]] for i in range(n)]
    if action == "ad_star":
        return [table[table[inv[g]][i]][g] for i in range(n)]
    if action == "diamond":
        # S^2(g) b S(g), computed through the antipode
        s2, s1 = inv[inv[g]], inv[g]
        return [table[table[s2][i]][s1] for i in range(n)]
    if action == "left":
        return table[g]
    if action == "right":
        return [table[i][g] for i in range(n)]
    raise PreconditionError("unknown action %r" % action)


def _act_basis(action: str, g: int, b):
    """The action of the basis element g on b."""
    grp = b.group
    if isinstance(b, Functional):
        # (g . f)(x) = f(x'): the regular actions trade sides, and the
        # conjugation-type actions transpose to the action of S(g)
        if action in ("left", "right"):
            f = _index_map("right" if action == "left" else "left", g, grp)
        else:
            f = _index_map(action, grp.inv[g], grp)
        return Functional(grp, [b.values[j] for j in f])
    f = _index_map(action, g, grp)
    if isinstance(b, AlgebraElement):
        return AlgebraElement(grp, ((f[i], c) for i, c in b.terms.items()))
    return remap(b, b.arity, lambda k: tuple(f[i] for i in k))


def act(action: str, h, b):
    """Apply one of the five actions of h on b, extended linearly in h."""
    if action not in ACTIONS:
        raise PreconditionError("unknown action %r (expected one of %s)"
                                % (action, ", ".join(ACTIONS)))
    h = AlgebraElement.of(h)
    if isinstance(b, AlgebraElement):
        out = AlgebraElement.zero(b.group)
    elif isinstance(b, TensorElement):
        out = TensorElement(b.group, b.arity)
    elif isinstance(b, Functional):
        out = Functional.zero(b.group)
    else:
        raise PreconditionError("cannot act on %r" % (b,))
    if h.group != b.group:
        raise PreconditionError("action across different groups")
    for g, c in h.terms.items():
        out = out + _act_basis(action, g, b) * c
    return out


def orbit_sum(x: TensorElement) -> TensorElement:
    """[x]_G = sum over g of (g (x) g) x (g^{-1} (x) g^{-1})."""
    if x.arity != 2:
        raise DimensionError("orbit sums are defined for two tensor factors")
    grp = x.group
    return TensorElement(grp, 2, (
        ((grp.conjugate(g, a), grp.conjugate(g, b)), c)
        for g in range(grp.order) for (a, b), c in x.terms.items()))


# ---------------------------------------------------------------------------
# invariant subspaces (several independently assembled linear systems)
# ---------------------------------------------------------------------------

def center_subspace(g: Group) -> Subspace:
    """{x : a x = x a for every generator a}, by left/right tables.

    An x that commutes with the generators commutes with every product of
    them, so this is the centre of kG.
    """
    n = g.order
    rows = []
    for a in g.gens:
        for target in range(n):
            row = [_F0] * n
            for i in range(n):
                if g.table[a][i] == target:
                    row[i] = row[i] + _F1
                if g.table[i][a] == target:
                    row[i] = row[i] - _F1
            if any(row):
                rows.append(row)
    return Subspace(n, nullspace(rows, n))


def conjugation_invariant_subspace(g: Group) -> Subspace:
    """{x : a x a^{-1} = x for every generator a}, from the inverse table.

    Invariance under the generators gives invariance under every product
    of them, so this is the invariance under all of G.
    """
    n = g.order
    rows = []
    for a in g.gens:
        for i in range(n):
            j = g.conjugate(a, i)
            if j == i:
                continue
            row = [_F0] * n
            row[i], row[j] = _F1, -_F1
            rows.append(row)
    return Subspace(n, nullspace(rows, n))


def action_invariant_subspace(g: Group, action: str,
                              target: str = "algebra") -> Subspace:
    """Fixed points of the named action of the generators, via act itself.

    For each generator the matrix M of the action on the chosen space is
    assembled column by column (image of each basis vector), and the result
    is the joint nullspace of the matrices M - I.
    """
    if target not in ("algebra", "dual"):
        raise PreconditionError("unknown target %r" % target)
    if action not in ACTIONS:
        raise PreconditionError("unknown action %r" % action)
    n = g.order
    rows = []
    for gi in g.gens:
        m = [[_F0] * n for _ in range(n)]
        for bi in range(n):
            if target == "algebra":
                col = _act_basis(action, gi,
                                 AlgebraElement.basis(g, bi)).to_vector()
            else:
                col = _act_basis(action, gi, Functional.delta(g, bi)).values
            for r in range(n):
                m[r][bi] = col[r]
        for r in range(n):
            m[r][r] = m[r][r] - _F1
        rows.extend(r for r in m if any(r))
    return Subspace(n, nullspace(rows, n))


def class_indicator_subspace(g: Group) -> Subspace:
    """Span of the conjugacy-class indicator vectors.

    Read in H* these are the class indicator functionals; read in H (as
    coefficient vectors) they are the class sums, a basis of the center.
    Either way the subspace of k^N is the same, built directly from the
    class partition with no linear solving.
    """
    n = g.order
    vecs = []
    for cls in g.conjugacy_classes():
        v = [_F0] * n
        for i in cls:
            v[i] = _F1
        vecs.append(v)
    return Subspace(n, vecs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tensor_to_json(x: TensorElement) -> dict:
    terms = [[*key, scalar_to_str(c)] for key, c in sorted(x.terms.items())]
    return {"group": x.group.descriptor, "arity": x.arity, "terms": terms}


def tensor_from_json(obj: dict) -> TensorElement:
    group = from_descriptor(obj["group"])
    arity = obj["arity"]
    if type(arity) is not int:
        raise PreconditionError("tensor arity must be an integer")
    return TensorElement(group, arity, map(_term_from_json, obj["terms"]))


def _term_from_json(entry) -> tuple:
    """One serialized term [i1, ..., ik, "coefficient"] as (key, scalar)."""
    if not isinstance(entry, list) or len(entry) < 2:
        raise PreconditionError(
            "a tensor term lists at least one index and a coefficient")
    key, c = tuple(entry[:-1]), entry[-1]
    if any(type(i) is not int for i in key):
        raise PreconditionError("tensor indices must be integers")
    if not isinstance(c, str):
        raise ParseError("tensor coefficients must be strings")
    return key, scalar_from_str(c)
