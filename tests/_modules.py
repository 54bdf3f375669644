"""Module maps, direct sums and cocycle extensions shared by the test
modules, and a reference assembly of the search system.

`intertwiners` solves for module maps by exact elimination, independently
of the characters the package decides isomorphism with, so the tests use
it as the oracle for Schur's lemma and for splitting.  The cocycle
helpers build non-split-looking modules whose characters must still add.
`reference_constraints` assembles the search system from algebra-element
products, the oracle for the row assembly of `search.assemble_constraints`.
`reference_solve_t` solves the factorization system over scalar rows, the
oracle for the integer array that `transfer.solve_t` assembles.
`reference_modp_echelon` eliminates modulo p one pivot at a time, the
oracle for the blocked elimination of `exact.linalg._modp_echelon`.
`reference_multiplicativity` builds each target of M from the translate
span of a convolved character and each left side of M0 from its image,
the oracle for the constituent table of `transfer._multiplicativity` and
`transfer.in_m0`.  `reference_decompose_character` pairs a functional
with each irreducible character over every element, the oracle for the
pairing by conjugacy class of `reps.decompose_character`.  `is_prime` is
a Miller-Rabin test, the oracle for the prime stream of
`exact.linalg._primes31`.  `reference_random_sampling` is the random
strategy with one `randint` pair per coordinate and `_violates` on every
draw, the oracle for the blocks and the filter modulo a prime of
`search.search`.  `reference_delta` and `reference_antipode` extend the
generator images one factor at a time for every term, the oracle for the
per-monomial memo behind `UqElement.delta` and `UqElement.antipode`.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from peterweyl.errors import InternalError, PreconditionError
from peterweyl.exact.linalg import Infeasible, Matrix, nullspace, solve_linear
from peterweyl.exact.polysys import Poly, PolySystem
from peterweyl.groups import Group
from peterweyl.hopf import (
    AlgebraElement,
    TensorElement,
    apply_delta,
    convolve,
    embed,
)
from peterweyl.reps import K0Element, Rep, _as_rational, character_table
from peterweyl.search import (
    SearchOutcome,
    _structured_candidates,
    _violates,
    a_basis,
    assemble_constraints,
    full_verify,
)
from peterweyl.transfer import (
    PCandidate,
    _distinct_maps,
    _image_block,
    _is_central,
    _tensor_of,
    phi,
)
from peterweyl.uqsl2 import UqElement, UqTensor

_F0 = Fraction(0)


def trivial_rep(group: Group) -> Rep:
    return Rep(group, [Matrix.identity(1)] * group.order, "triv")


def direct_sum(v: Rep, w: Rep) -> Rep:
    """V (+) W, with block-diagonal matrices."""
    if v.group != w.group:
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
    if v.group != w.group:
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
    if rho[0] != Matrix.zeros(v.dim, w.dim):
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
    if v.group != w.group:
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


def reference_constraints(group: Group) -> PolySystem:
    """The search system with every u_k w_l an `AlgebraElement` product.

    For each irrep pair (V, W) and each g, the equation is the
    g-coefficient of (sum x_k u_k)(sum x_l w_l) - sum x_k L_k, with
    u_k = phi(B_k, z_V), w_k = phi(B_k, z_W), L_k = phi(B_k, z_V z_W);
    the terms go into each `Poly` in the order (k, l), then L_k.
    """
    basis = a_basis(group)
    d = len(basis)
    linear = [tuple(1 if t == k else 0 for t in range(d)) for k in range(d)]
    table = character_table(group)
    images = [[phi(b, chi) for b in basis.elements] for _, chi in table]
    polys = []
    for i, (_, zv) in enumerate(table):
        for j in range(i, len(table)):
            zvw = convolve(zv, table[j][1])
            us, ws = images[i], images[j]
            ls = [phi(b, zvw) for b in basis.elements]
            equations = [[] for _ in range(group.order)]
            for k in range(d):
                for l in range(d):
                    mono = tuple(a + b for a, b in zip(linear[k], linear[l]))
                    for g, c in (us[k] * ws[l]).terms.items():
                        equations[g].append((mono, c))
                for g, c in ls[k].terms.items():
                    equations[g].append((linear[k], -c))
            for terms in equations:
                poly = Poly(d, terms)
                if poly:
                    polys.append(poly)
    return PolySystem(basis.names, polys)


def reference_solve_t(p):
    """`solve_t` with its system written entry by entry as scalar rows.

    The columns are those of `solve_t` (the first pair of each pair of
    distinct slot maps); each column holds every coefficient of
    Q = P_13 P_23 at its row, and the right-hand side is
    (Delta (x) 1)(P), both as the scalars they are, solved by
    `solve_linear` over the rows.
    """
    t = p.tensor
    grp = t.group
    n = grp.order
    q = (embed(t, 3, (0, 2)) * embed(t, 3, (1, 2))).terms
    left, right = (_distinct_maps(grp.table, sorted({key[s] for key in q}))
                   for s in (0, 1))
    cols = list(itertools.product(left, right))
    rows = [[_F0] * len(cols) for _ in range(n ** 3)]
    for col, ((_, f), (_, g)) in enumerate(cols):
        for (p1, q1, g3), c in q.items():
            rows[(f[p1] * n + g[q1]) * n + g3][col] = c
    b = [_F0] * (n ** 3)
    for (g1, g2, g3), c in apply_delta(t, 0).terms.items():
        b[(g1 * n + g2) * n + g3] = c
    res = solve_linear(rows, b)
    if isinstance(res, Infeasible):
        return res
    return TensorElement(grp, 4, {lp + rp: v for ((lp, _), (rp, _)), v
                                  in zip(cols, res.particular) if v})


def reference_modp_echelon(M, p):
    """`_modp_echelon` one pivot at a time: in-place forward elimination of
    an int64 matrix of residues mod p, each pivot row scaled to 1 and the
    rows below it cleared across their whole width; returns the pivots."""
    m, n = M.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = r + np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        prow = M[r, c:]
        prow *= pow(int(prow[0]), p - 2, p)
        prow %= p
        below = nz[1:]
        if below.size:
            M[below, c:] = (M[below, c:] - np.outer(M[below, c], prow)) % p
        pivots.append(c)
        r += 1
    return pivots


def reference_multiplicativity(p):
    """in_m's witnesses, the phi-image blocks and in_m0's verdict, with the
    target of each pair (V, W) the image of the translate span of
    z_V z_W, and the left side of M0 phi(z_V z_W) itself."""
    t = _tensor_of(p)
    grp = t.group
    labels, chars = zip(*character_table(grp))
    blocks = [_image_block(t, chi) for chi in chars]
    elements = [[AlgebraElement(grp, dict(enumerate(row)))
                 for row in block.basis] for block in blocks]
    k = len(chars)
    targets = {(i, j): _image_block(t, convolve(chars[i], chars[j]))
               for i in range(k) for j in range(i, k)}
    witnesses = []
    for i, j in itertools.product(range(k), repeat=2):
        target = targets[min(i, j), max(i, j)]
        if not all(target.contains((x * y).to_vector())
                   for x in elements[i] for y in elements[j]):
            witnesses.append((labels[i], labels[j]))
    imgs = [phi(t, chi) for chi in chars]
    m0 = (all(_is_central(img) for img in imgs)
          and all(phi(t, convolve(chars[i], chars[j])) == imgs[i] * imgs[j]
                  for i in range(k) for j in range(i, k)))
    return tuple(witnesses), blocks, m0


def reference_decompose_character(grp: Group, chi) -> K0Element:
    """Multiplicities of the irreducible characters in a functional, each
    the pairing (1/|G|) sum over g of chi(g) chi_w(g^-1)."""
    mult = {}
    for label, chi_w in character_table(grp):
        acc = sum((chi(g) * chi_w(grp.inverse(g)) for g in range(grp.order)),
                  _F0)
        m = _as_rational(acc) / grp.order
        if m.denominator != 1 or m < 0:
            raise PreconditionError("not a multiplicity: %s" % m)
        if m:
            mult[label] = int(m)
    return K0Element(grp, mult)


def reference_random_sampling(group: Group, count: int,
                              seed: int) -> SearchOutcome:
    """`search(group, "random_sampling", ...)` one draw at a time: d pairs
    (rng.randint(-20, 20), rng.randint(1, 20)) per draw, each draw through
    the exact `_violates`."""
    basis = a_basis(group)
    log = []
    candidates = []
    structured, slog = _structured_candidates(group)
    log.extend(slog)
    for cand in structured:
        ok, failed = full_verify(cand)
        if ok:
            candidates.append(cand)
        else:
            log.append("structured candidate %s failed %s"
                       % (cand.note, ", ".join(failed)))
    rng = random.Random(seed)
    survivors = 0
    for _ in range(count):
        draw = [(rng.randint(-20, 20), rng.randint(1, 20))
                for _ in range(len(basis))]
        if _violates(group, draw):
            continue
        survivors += 1
        point = [Fraction(a, b) for a, b in draw]
        if not assemble_constraints(group).satisfied_by(point):
            raise InternalError("fast filter and polynomial system disagree")
        cand = PCandidate(basis.to_tensor(point), "random draw")
        ok, failed = full_verify(cand)
        if ok:
            candidates.append(cand)
        else:
            log.append("random survivor failed " + ", ".join(failed))
    log.append("random stage: %d draws, %d survivors" % (count, survivors))
    verdict = "SolutionsFound" if candidates else "NoneFoundBounded"
    return SearchOutcome(verdict, candidates, samples=count,
                         survivors=survivors, log=log)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37, exact for
    n < 3.3 * 10^24."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_delta(x: UqElement) -> UqTensor:
    """Delta(x), each term F^a K^b E^c as Delta(F)^a (K^b (x) K^b) Delta(E)^c
    by UqTensor products, one generator at a time."""
    de = UqTensor({((0, 0, 0), (0, 0, 1)): 1, ((0, 0, 1), (0, 1, 0)): 1})
    df = UqTensor({((1, 0, 0), (0, 0, 0)): 1, ((0, -1, 0), (1, 0, 0)): 1})
    out = UqTensor()
    for (a, b, c), v in x.terms.items():
        m = UqTensor.unit()
        for _ in range(a):
            m = m * df
        m = m * UqTensor({((0, b, 0), (0, b, 0)): 1})
        for _ in range(c):
            m = m * de
        out = out + v * m
    return out


def reference_antipode(x: UqElement) -> UqElement:
    """S(x), each term F^a K^b E^c as S(E)^c K^-b S(F)^a by UqElement
    products, one generator at a time."""
    se = -(UqElement.e() * UqElement.k(-1))
    sf = -(UqElement.k() * UqElement.f())
    out = UqElement.zero()
    for (a, b, c), v in x.terms.items():
        m = UqElement.one()
        for _ in range(c):
            m = m * se
        m = m * UqElement.k(-b)
        for _ in range(a):
            m = m * sf
        out = out + v * m
    return out
