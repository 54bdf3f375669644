"""Module maps, direct sums and cocycle extensions shared by the test
modules.

`intertwiners` solves for module maps by exact elimination, independently
of the characters the package decides isomorphism with, so the tests use
it as the oracle for Schur's lemma and for splitting.  The cocycle
helpers build non-split-looking modules whose characters must still add.
"""

from fractions import Fraction

from peterweyl.errors import PreconditionError
from peterweyl.exact.linalg import Matrix, nullspace
from peterweyl.groups import Group, same_group
from peterweyl.reps import Rep

_F0 = Fraction(0)


def trivial_rep(group: Group) -> Rep:
    return Rep(group, [Matrix.identity(1)] * group.order, "triv")


def direct_sum(v: Rep, w: Rep) -> Rep:
    """V (+) W, with block-diagonal matrices."""
    if not same_group(v.group, w.group):
        raise PreconditionError("representations of different groups")
    mats = []
    for a, b in zip(v.matrices, w.matrices):
        top = [list(r) + [_F0] * w.dim for r in a.rows]
        bot = [[_F0] * v.dim + list(r) for r in b.rows]
        mats.append(Matrix(top + bot))
    return Rep(v.group, mats, "%s(+)%s" % (v.label, w.label))


def intertwiners(v: Rep, w: Rep):
    """A basis of the space of module maps V -> W, by exact elimination.

    X intertwines exactly when w(g) X = X v(g) on the group generators;
    the nullspace of that linear system is returned as matrices.
    """
    if not same_group(v.group, w.group):
        raise PreconditionError("representations of different groups")
    unknowns = w.dim * v.dim
    rows = []
    for gi in v.group.gens:
        a = w.matrices[gi]
        b = v.matrices[gi]
        for r in range(w.dim):
            for c in range(v.dim):
                row = [_F0] * unknowns
                for k in range(w.dim):
                    row[k * v.dim + c] = row[k * v.dim + c] + a.rows[r][k]
                for k in range(v.dim):
                    row[r * v.dim + k] = row[r * v.dim + k] - b.rows[k][c]
                rows.append(row)
    out = []
    for vec in nullspace(rows, unknowns):
        out.append(Matrix([[vec[r * v.dim + c] for c in range(v.dim)]
                           for r in range(w.dim)]))
    return out


def hom_dim(v: Rep, w: Rep) -> int:
    return len(intertwiners(v, w))


def end_dim(v: Rep) -> int:
    """Dimension of the commutant End(V); equals 1 for split simples."""
    return hom_dim(v, v)


def cocycle_check(v: Rep, w: Rep, rho) -> bool:
    """Does rho satisfy rho(gh) = rho(g) w(h) + v(g) rho(h) for all g, h?

    Checked exactly as rho(e) = 0 and rho(gs) = rho(g) w(s) + v(g) rho(s)
    for every g and every generator s.  These imply the identity for all
    pairs by induction on the length of a generator word for h; rho(e) = 0
    is the case h = e, and the only check left when there are no
    generators.
    """
    grp = v.group
    rho = tuple(rho)
    if len(rho) != grp.order:
        raise PreconditionError("need one matrix per group element")
    for m in rho:
        if m.nrows != v.dim or m.ncols != w.dim:
            raise PreconditionError("cocycle matrices must map W to V")
    if rho[grp.identity] != Matrix.zeros(v.dim, w.dim):
        return False
    for g in range(grp.order):
        for s in grp.gens:
            lhs = rho[grp.mul(g, s)]
            rhs = rho[g] * w.matrices[s] + v.matrices[g] * rho[s]
            if lhs != rhs:
                return False
    return True


def coboundary(v: Rep, w: Rep, phi: Matrix):
    """The cocycle g -> phi w(g) - v(g) phi attached to a linear map phi."""
    if phi.nrows != v.dim or phi.ncols != w.dim:
        raise PreconditionError("phi must map W to V")
    return tuple(phi * w.matrices[g] - v.matrices[g] * phi
                 for g in range(v.group.order))


def zero_cocycle(v: Rep, w: Rep):
    return tuple(Matrix.zeros(v.dim, w.dim) for _ in range(v.group.order))


def extension_by_cocycle(v: Rep, w: Rep, rho) -> Rep:
    """The module V oplus_rho W: block upper triangular action.

    V embeds as a submodule, W is the quotient.  Raises ValueError when
    rho is not a cocycle.
    """
    if not same_group(v.group, w.group):
        raise PreconditionError("representations of different groups")
    if not cocycle_check(v, w, rho):
        raise ValueError("the given map violates the cocycle identity")
    rho = tuple(rho)
    mats = []
    for g in range(v.group.order):
        top = [list(a) + list(b)
               for a, b in zip(v.matrices[g].rows, rho[g].rows)]
        bot = [[_F0] * v.dim + list(r) for r in w.matrices[g].rows]
        mats.append(Matrix(top + bot))
    return Rep(v.group, mats, "%s(+_rho)%s" % (v.label, w.label))
