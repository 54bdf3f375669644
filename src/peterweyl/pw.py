"""Matrix-coefficient subspaces of the dual algebra and their characters.

For a module V the map beta sends v (x) f to the functional
g -> <g acts on v, f>.  Its image is the coefficient subspace of V inside
the dual algebra; the image of the identity tensor is the character z_V.

The coefficient subspace is computed from z_V alone, as the span of its
translates g -> z_V(g h).  Both are {g -> tr(rho(g) b)}: the translates
with b in B = span rho(G), the coefficients with b in End V.  They agree
because the trace form of the semisimple algebra B is nondegenerate in
characteristic 0 (Curtis-Reiner, section 27); for a split simple V,
B = End V already by Burnside's theorem.

The decomposition machinery checks, entirely in exact arithmetic, that

* coefficient subspaces only see the isomorphism class (direct sums add
  nothing new),
* convolution multiplies coefficient subspaces the way tensor products
  multiply modules,
* the characters of the simples are a basis of the class functions, with
  convolution structure constants equal to the tensor multiplicities,
* over the whole list of simples the subspaces are independent and fill
  the dual algebra.
"""

from __future__ import annotations

from .errors import DimensionError, InternalError, PreconditionError
from .exact.linalg import Infeasible, Subspace, solve_linear
from .exact.scalars import Frozen
from .groups import Group
from .hopf import Functional, convolve
from .reps import Rep, irreps, pairing


def beta(v: Rep, vec, fvec) -> Functional:
    """The matrix-coefficient functional g -> <g acts on vec, fvec>."""
    vec = list(vec)
    fvec = list(fvec)
    if len(vec) != v.dim or len(fvec) != v.dim:
        raise DimensionError("coordinate length must match the module")
    grp = v.group
    return Functional(grp, [pairing(v.matrix(g).apply(vec), fvec)
                            for g in range(grp.order)])


def z(v: Rep) -> Functional:
    """The character functional z_V: the trace of the action."""
    return v.character()


class PWComponent(Frozen):
    """A coefficient subspace together with its character."""

    __slots__ = ("label", "subspace", "z")

    def __init__(self, label: str, subspace: Subspace, z_fun: Functional):
        if not subspace.contains(list(z_fun.values)):
            raise InternalError("the character must lie in its own component")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "z", z_fun)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def __eq__(self, other):
        if not isinstance(other, PWComponent):
            return NotImplemented
        return self.subspace == other.subspace

    def __repr__(self):
        return "PWComponent(%s, dim=%d)" % (self.label, self.dim)


def translate_span(chi: Functional) -> Subspace:
    """Span of the translates g -> chi(g h), one for each h in the group."""
    n, table = chi.group.order, chi.group.table
    return Subspace(n, [[chi.values[table[g][h]] for g in range(n)]
                        for h in range(n)])


def component(v: Rep) -> PWComponent:
    """Span of all matrix-coefficient functionals of V.

    Read off the character alone, as the span of its translates; the
    module docstring says why the two spans agree.
    """
    chi = z(v)
    return PWComponent(v.label, translate_span(chi), chi)


def z_multiplicative_check(v: Rep, w: Rep) -> bool:
    """Does convolution of characters match the tensor product character?"""
    return convolve(z(v), z(w)) == z(v.tensor(w))


def product_component_check(v: Rep, w: Rep) -> bool:
    """Is the convolution span of two components the tensor component?"""
    if v.group != w.group:
        raise PreconditionError("representations of different groups")
    grp = v.group
    cv = component(v)
    cw = component(w)
    products = []
    for a in cv.subspace.basis:
        for b in cw.subspace.basis:
            products.append(convolve(Functional(grp, a),
                                     Functional(grp, b)).values)
    return Subspace(grp.order, products) == component(v.tensor(w)).subspace


def direct_sum_decomposition(group: Group) -> bool:
    """Do the simple components independently fill the whole dual algebra?"""
    comps = [component(v).subspace for v in irreps(group)]
    total = Subspace(group.order, [row for c in comps for row in c.basis])
    return sum(c.dim for c in comps) == total.dim == group.order


def _coords_on(chars, target: Functional):
    """Solve for target as a combination of the given functionals."""
    rows = [[c.values[g] for c in chars] for g in range(len(target.values))]
    res = solve_linear(rows, list(target.values))
    if isinstance(res, Infeasible):
        raise InternalError("character product left the span of characters")
    return list(res.particular)


def character_structure_constants(group: Group) -> dict:
    """Coefficients of convolve(z_V, z_W) on the character basis.

    Returned as {(label_V, label_W): {label: coefficient}}; an InternalError
    is raised if some product fails to lie in the span of the characters.
    The numbers are checked against the tensor multiplicities by the tests.
    """
    simples = irreps(group)
    chars = [z(v) for v in simples]
    if Subspace(group.order, [c.values for c in chars]).dim != len(simples):
        raise InternalError("characters of the simples must be independent")
    out = {}
    for v, cv in zip(simples, chars):
        for w, cw in zip(simples, chars):
            coords = _coords_on(chars, convolve(cv, cw))
            out[v.label, w.label] = {
                simples[k].label: coords[k]
                for k in range(len(simples)) if coords[k]
            }
    return out

