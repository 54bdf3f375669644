"""The transfer map from the dual algebra into the group algebra.

A two-slot tensor P induces the linear map xi -> (xi (x) 1)(P).  Three
families of exact predicates classify P:

* admissible: P (S^2 (x) 1)(Delta h) = (Delta h) P, equivalently either of
  two slotwise reformulations (the three are checked independently and must
  agree);
* multiplicative: images of coefficient subspaces multiply into the image
  of the tensor-product subspace, pair by pair;
* strongly multiplicative: on characters the map is an algebra
  homomorphism into the center.

A sufficient criterion for multiplicativity is the factorization
(Delta (x) 1)(P) = (m (x) m (x) 1)((T (x) 1) P_15 P_35) for a four-slot
tensor T; the defining equation is linear in T, so the solver assembles
its coefficient system over the distinct columns and hands it to the
exact kernel, returning either T or an infeasibility certificate.

Admissible multiplicative candidates come from pairs (R+, R-) satisfying
quasitriangularity-style axioms: P = (R+)_21 R- (g (x) 1) with g group-like
central.  Abelian groups provide such pairs through bicharacters; the
symmetric group on three letters has a two-parameter family built from
orbit sums, transcribed here exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import (
    InternalError,
    MembershipError,
    PreconditionError,
)
from .exact.linalg import Infeasible, Matrix, Subspace, solve_linear
from .exact.scalars import Frozen, _clear, as_scalar, scalar_to_str
from .groups import Group
from .hopf import (
    AlgebraElement,
    Functional,
    TensorElement,
    act,
    apply_antipode,
    apply_delta,
    class_indicator_subspace,
    embed,
    multiply_adjacent,
    orbit_sum,
    permute_slots,
    remap,
    tensor,
)
from .pw import translate_span
from .reps import (
    _tensor_constituents,
    character_table,
    decompose_character,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class PCandidate(Frozen):
    """A two-slot tensor together with a note saying how it was built."""

    __slots__ = ("tensor", "note")

    def __init__(self, tens: TensorElement, note: str = ""):
        if tens.arity != 2:
            raise PreconditionError("candidates live in two tensor slots")
        object.__setattr__(self, "tensor", tens)
        object.__setattr__(self, "note", note)

    @property
    def group(self) -> Group:
        return self.tensor.group

    def __eq__(self, other):
        if not isinstance(other, PCandidate):
            return NotImplemented
        return self.tensor == other.tensor

    def __repr__(self):
        return "PCandidate(%s)" % (self.note or "unnamed")


def _tensor_of(p) -> TensorElement:
    if isinstance(p, PCandidate):
        return p.tensor
    if isinstance(p, TensorElement):
        return p
    raise PreconditionError("expected a candidate or a two-slot tensor")


# ---------------------------------------------------------------------------
# the transfer map itself
# ---------------------------------------------------------------------------

def phi(p, xi: Functional) -> AlgebraElement:
    """(xi (x) 1)(P): pair the first slot with xi, keep the second."""
    t = _tensor_of(p)
    if t.group != xi.group:
        raise PreconditionError("functional and tensor over different groups")
    return AlgebraElement(t.group, ((b, c * xi.values[a])
                                    for (a, b), c in t.terms.items()
                                    if xi.values[a]))


def phi_matrix(p) -> Matrix:
    """Matrix of the transfer map on the delta basis: column g is phi(delta_g)."""
    t = _tensor_of(p)
    n = t.group.order
    rows = [[_F0] * n for _ in range(n)]
    for (a, b), c in t.terms.items():
        rows[b][a] = rows[b][a] + c
    return Matrix(rows)


def phi_rank(p) -> int:
    return phi_matrix(p).rank()


# ---------------------------------------------------------------------------
# admissibility (three equivalent slotwise conditions)
# ---------------------------------------------------------------------------

def in_a_conditions(p):
    """The three admissibility conditions, each checked on all generators.

    For a group algebra the antipode squares to the identity, so the
    product condition reads P (g (x) g) = (g (x) g) P; the translation
    condition reads (1 (x) g) P = (g^{-1} P_1 g) (x) (P_2 g); the adjoint
    condition reads (g^{-1} P_1 g) (x) P_2 = P_1 (x) (g P_2 g^{-1}).
    """
    t = _tensor_of(p)
    grp = t.group
    mul, inv = grp.mul, grp.inverse
    ok_product = True
    ok_translation = True
    ok_adjoint = True
    for gi in grp.gens:
        gg = tensor(AlgebraElement.basis(grp, gi),
                    AlgebraElement.basis(grp, gi))
        if t * gg != gg * t:
            ok_product = False
        lhs = remap(t, 2, lambda k: (k[0], mul(gi, k[1])))
        rhs = remap(t, 2, lambda k: (mul(inv(gi), mul(k[0], gi)),
                                     mul(k[1], gi)))
        if lhs != rhs:
            ok_translation = False
        lhs2 = remap(t, 2, lambda k: (mul(inv(gi), mul(k[0], gi)), k[1]))
        rhs2 = remap(t, 2, lambda k: (k[0], mul(gi, mul(k[1], inv(gi)))))
        if lhs2 != rhs2:
            ok_adjoint = False
    return ok_product, ok_translation, ok_adjoint


def _admissible(conds) -> bool:
    """The one verdict of the three admissibility conditions."""
    a, b, c = conds
    if not (a == b == c):
        raise InternalError(
            "the equivalent admissibility conditions disagree: %s %s %s"
            % (a, b, c))
    return a


def in_a(p) -> bool:
    """Admissibility; the three equivalent conditions must agree."""
    return _admissible(in_a_conditions(p))


def _is_central(x: AlgebraElement) -> bool:
    """Does x commute with each generator of its group, hence with all?"""
    grp = x.group
    return all(x * h == h * x for h in
               (AlgebraElement.basis(grp, gi) for gi in grp.gens))


def equivariance_check(p) -> bool:
    """phi intertwines the diamond action with the adjoint action."""
    if not in_a(p):
        raise PreconditionError("equivariance requires an admissible tensor")
    t = _tensor_of(p)
    grp = t.group
    for gi in grp.gens:
        h = AlgebraElement.basis(grp, gi)
        for i in range(grp.order):
            xi = Functional.delta(grp, i)
            if phi(t, act("diamond", h, xi)) != act("ad", h, phi(t, xi)):
                return False
    return True


def center_image_check(p, conds=None) -> bool:
    """phi sends every class function into the center.

    ``conds`` are p's admissibility conditions, when the caller has them.
    """
    if conds is None:
        conds = in_a_conditions(p)
    if not _admissible(conds):
        raise PreconditionError(
            "the center-image property requires an admissible tensor")
    t = _tensor_of(p)
    return all(_is_central(phi(t, Functional(t.group, ind)))
               for ind in class_indicator_subspace(t.group).basis)


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

def _image_block(t: TensorElement, chi: Functional) -> Subspace:
    """phi-image of the block spanned by the translates of chi."""
    grp = t.group
    return Subspace(grp.order, [phi(t, Functional(grp, x)).to_vector()
                                for x in translate_span(chi).basis])


def _multiplicativity(t: TensorElement):
    """in_m's witnesses, and the phi-image block of each simple.

    The block of V (x) W is the sum of the blocks C(U) of its constituents
    U (Peter-Weyl; Curtis-Reiner, sections 3 and 9), so its image, the
    target of (V, W), is spanned by the image blocks of the constituents
    that ``reps._tensor_constituents`` names.  Pairs with the same set of
    constituents share one target, and (V, W) and (W, V) share theirs.
    """
    grp = t.group
    labels, chars = zip(*character_table(grp))
    blocks = [_image_block(t, chi) for chi in chars]
    elements = [[AlgebraElement(grp, dict(enumerate(row)))
                 for row in block.basis] for block in blocks]
    k = len(chars)
    sums = {}
    targets = {}
    for pair, parts in _tensor_constituents(grp).items():
        ks = tuple(u for u, _ in parts)
        if ks not in sums:
            sums[ks] = Subspace(grp.order, [row for u in ks
                                            for row in blocks[u].basis])
        targets[pair] = sums[ks]
    witnesses = []
    for i, j in itertools.product(range(k), repeat=2):
        target = targets[min(i, j), max(i, j)]
        if not all(target.contains((x * y).to_vector())
                   for x in elements[i] for y in elements[j]):
            witnesses.append((labels[i], labels[j]))
    return tuple(witnesses), blocks


def in_m(p):
    """Pairwise multiplicativity on coefficient subspaces, with witnesses.

    Returns (bool, witnesses); each witness is a pair of irreducible labels
    whose image product escapes the image of the tensor component.
    """
    witnesses, _ = _multiplicativity(_tensor_of(p))
    return not witnesses, witnesses


def in_m0(p) -> bool:
    """Is the transfer map an algebra homomorphism on characters into Z?

    It asks that phi(z_V z_W) = phi(z_V) phi(z_W) for the irreducible
    characters and that every phi(z_V) is central.  M0 does not require
    phi(eps) = 1, so a non-unital map such as the one of the zero tensor
    passes.  z_V z_W is the sum of N z_U over the constituents U of
    V (x) W, so phi, being linear, sends it to the sum of N phi(z_U).
    """
    t = _tensor_of(p)
    grp = t.group
    imgs = [phi(t, chi) for _, chi in character_table(grp)]
    if not all(_is_central(img) for img in imgs):
        return False
    for (i, j), parts in _tensor_constituents(grp).items():
        lhs = AlgebraElement(grp, [(g, c * m) for u, m in parts
                                   for g, c in imgs[u].terms.items()])
        if lhs != imgs[i] * imgs[j]:
            return False
    return True


# ---------------------------------------------------------------------------
# the T-factorization
# ---------------------------------------------------------------------------

def _distinct_maps(table, support):
    """The distinct maps x -> a x b on a support, each with its first (a, b).

    Pairs run in lexicographic order, so the maps come in the order in
    which their first pairs occur.
    """
    first = {}
    for a, row in enumerate(table):
        for b in range(len(table)):
            first.setdefault(tuple(table[row[x]][b] for x in support), (a, b))
    return [(pair, dict(zip(support, images)))
            for images, pair in first.items()]


def solve_t(p):
    """Solve (Delta (x) 1)(P) = (m (x) m (x) 1)((T (x) 1) P_15 P_35) for T.

    The unknown T ranges over the full four-fold tensor power, so the
    system has |G|^3 equations in |G|^4 unknowns.  Its columns are read
    off one product, Q = P_13 P_23 with terms (p1, q1, p2 q2): the column
    of T's basis tensor (t1, t2, t3, t4) holds each coefficient of Q at
    the row (t1 p1 t2, t3 q1 t4, p2 q2).  So a column depends only on the
    maps p1 -> t1 p1 t2 and q1 -> t3 q1 t4 on the supports of Q's first
    two slots, and the system is built over the first column of each pair
    of maps: |G|^3 rows by the distinct columns, which is |G|^2 for an
    abelian G.  Elimination never pivots on a column equal to an earlier
    one and sets free unknowns to 0, so the dropped columns change
    neither T nor the certificate, which is over rows.  The system is
    built once (``_t_system``), as an int64 array cleared by one common
    denominator D when every coefficient is a Fraction and fits, and as
    rows of the scalars themselves, with D = 1, otherwise; D times the
    certificate of the array is the certificate of the rows.  Returns a
    four-slot tensor or the Infeasible certificate produced by the exact
    solver.
    """
    t = _tensor_of(p)
    grp = t.group
    q = (embed(t, 3, (0, 2)) * embed(t, 3, (1, 2))).terms
    left, right = (_distinct_maps(grp.table, sorted({key[s] for key in q}))
                   for s in (0, 1))
    A, b, D = _t_system(q, apply_delta(t, 0).terms, left, right, grp.order)
    res = solve_linear(A, b)
    if isinstance(res, Infeasible):
        # y.(D A) = 0 and y.(D b) = 1 make D y the certificate of (A, b)
        return Infeasible([y * D for y in res.certificate])
    return TensorElement(grp, 4, {lp + rp: v for ((lp, _), (rp, _)), v
                                  in zip(itertools.product(left, right),
                                         res.particular) if v})


def _t_system(q, delta, left, right, n):
    """The system of ``solve_t`` times D: A, b and D.

    When every coefficient of Q and of (Delta (x) 1)(P) is a Fraction and
    one common denominator D clears them all within 63 bits, A is an int64
    array of the cleared ints; otherwise A is the rows of the scalars
    themselves and D = 1.  The column of the left map f and the right map
    g holds Q's term (p1, q1, g3) at row (f[p1] n + g[q1]) n + g3.  Its
    index arrays, about 1 MB for the S3 family, are freed before the solve.
    """
    values = [*q.values(), *delta.values()]
    D, dtype = 1, object
    if all(type(v) is Fraction for v in values):
        ints, L = _clear(values)
        if max(map(abs, ints), default=0) < 2 ** 63:
            values, D, dtype = ints, L, np.int64
    p1s, q1s, g3s = zip(*q) if q else ((), (), ())
    fs = np.array([[f[x] for x in p1s] for _, f in left], dtype=np.intp)
    gs = np.array([[g[x] for x in q1s] for _, g in right], dtype=np.intp)
    # at[l, r, k]: the row of Q's term k in column l * len(right) + r,
    # which no other term shares (the maps are injective)
    at = (fs[:, None, :] * n + gs[None, :, :]) * n + np.array(g3s, np.intp)
    cols = np.arange(len(left) * len(right)).reshape(len(left), -1, 1)
    A = np.zeros((n ** 3, cols.size), dtype=dtype)
    A[at, cols] = values[:len(q)]
    b = [0] * (n ** 3)
    for (g1, g2, g3), c in zip(delta, values[len(q):]):
        b[(g1 * n + g2) * n + g3] = c
    return A if dtype is np.int64 else A.tolist(), b, D


def check_t(p, t4: TensorElement) -> bool:
    """Re-substitute a proposed T into the defining equation."""
    t = _tensor_of(p)
    if t4.arity != 4:
        raise PreconditionError("T must have four slots")
    lhs = apply_delta(t, 0)
    big = embed(t4, 5, (0, 1, 2, 3)) * embed(t, 5, (0, 4)) \
        * embed(t, 5, (2, 4))
    rhs = multiply_adjacent(multiply_adjacent(big, 0), 1)
    return lhs == rhs


def check_t_normalized(t4: TensorElement) -> bool:
    """(m^op (x) m^op)(T) = 1 (x) 1."""
    if t4.arity != 4:
        raise PreconditionError("T must have four slots")
    mul = t4.group.mul
    return (remap(t4, 2, lambda k: (mul(k[1], k[0]), mul(k[3], k[2])))
            == TensorElement.unit(t4.group, 2))


# ---------------------------------------------------------------------------
# candidates from (R+, R-) pairs
# ---------------------------------------------------------------------------

def r_failures(rplus: TensorElement, rminus: TensorElement):
    """Names of the violated axioms for the pair (R+, R-), empty if none."""
    grp = rplus.group
    if grp != rminus.group:
        raise PreconditionError("the pair must live over one group")
    fails = []
    for name, r in (("plus", rplus), ("minus", rminus)):
        if apply_delta(r, 0) != embed(r, 3, (0, 2)) * embed(r, 3, (1, 2)):
            fails.append("coproduct on first slot of R%s" % name)
    if apply_delta(rplus, 1) \
            != embed(rplus, 3, (0, 2)) * embed(rplus, 3, (0, 1)):
        fails.append("coproduct on second slot of Rplus")
    prod = permute_slots(rplus, (1, 0)) * rminus
    for gi in grp.gens:
        gg = tensor(AlgebraElement.basis(grp, gi),
                    AlgebraElement.basis(grp, gi))
        if prod * gg != gg * prod:
            fails.append("commutation with the coproduct image")
            break
    return tuple(fails)


def grouplike_check(g: AlgebraElement) -> bool:
    """Group-like with g S^2(h) = h g; for group algebras: central basis g."""
    return g.delta() == tensor(g, g) and g.counit() == 1 and _is_central(g)


def p_from_r(rplus: TensorElement, rminus: TensorElement,
             g: AlgebraElement) -> PCandidate:
    """P = (R+)_21 R- (g (x) 1); admissible and strongly multiplicative."""
    fails = r_failures(rplus, rminus)
    if fails:
        raise MembershipError("axioms failed: " + "; ".join(fails))
    if not grouplike_check(g):
        raise MembershipError(
            "g must be group-like and commute with the antipode square")
    p = permute_slots(rplus, (1, 0)) * rminus \
        * tensor(g, AlgebraElement.one(g.group))
    cand = PCandidate(p, "from-r-pair")
    if not in_a(cand):
        raise InternalError("an r-pair candidate must be admissible")
    if not in_m0(cand):
        raise InternalError(
            "an r-pair candidate must be strongly multiplicative")
    return cand


def t_from_r(rplus: TensorElement) -> TensorElement:
    """T = (S (x) S^2 (x) 1 (x) 1)((R+)_13 (R+)_23), four slots."""
    big = embed(rplus, 4, (0, 2)) * embed(rplus, 4, (1, 2))
    return apply_antipode(big, 0)


def _is_cyclic_product(descriptor) -> bool:
    if descriptor.get("kind") == "product":
        return all(_is_cyclic_product(f) for f in descriptor["factors"])
    return descriptor.get("kind") == "cyclic"


def bicharacter_r(group: Group) -> TensorElement:
    """R = (1/|G|) sum of bichar(a, b) a (x) b, an R-matrix for abelian G.

    For a cyclic group, or a product of cyclic groups, irreps lists the
    characters in the order of the elements they stand for: chi_k(x^a) =
    zeta^(ka), and a product takes factor pairs in the element order
    a |H| + b.  So the standard bicharacter, zeta^(ab) factor by factor,
    is bichar(a, b) = chi_b(a): the character table read as a matrix.
    """
    if not _is_cyclic_product(group.descriptor):
        raise PreconditionError(
            "bicharacters are built for cyclic groups and their products")
    scale = Fraction(1, group.order)
    return TensorElement(group, 2, {
        (a, b): chi(a) * scale
        for b, (_, chi) in enumerate(character_table(group))
        for a in range(group.order)})


def unit_p(group: Group) -> PCandidate:
    return PCandidate(TensorElement.unit(group, 2), "unit")


def regular_p(group: Group) -> PCandidate:
    """Sum of g (x) g^{-1}; transfers delta_g to g^{-1}."""
    terms = {(i, group.inverse(i)): _F1 for i in range(group.order)}
    return PCandidate(TensorElement(group, 2, terms), "regular")


def s3_family(lam, mu) -> PCandidate:
    """The two-parameter family over the symmetric group on three letters.

    Three orbit-sum groups with coefficients 1/6, 1/36, 1/18; the transfer
    map is bijective exactly when both parameters are nonzero.
    """
    from .groups import symmetric

    lam = as_scalar(lam)
    mu = as_scalar(mu)
    grp = symmetric(3)
    e = AlgebraElement.one(grp)
    s1 = AlgebraElement.basis(grp, grp.generators[0][0])
    s2 = AlgebraElement.basis(grp, grp.generators[1][0])
    s1s2 = s1 * s2
    s2s1 = s2 * s1
    s1s2s1 = s1 * s2 * s1

    first = TensorElement(grp, 2,
                          {(0, i): Fraction(1, 6) for i in range(6)})
    inner2 = (e + s1 * (mu * 2 - 1) - (s2 + s1s2s1) * (mu + 1)
              + s1s2 + s2s1)
    second = orbit_sum(tensor(s1, inner2)) * Fraction(1, 36)
    inner3 = e * 2 + s1s2 * (lam - 1) - s2s1 * (lam + 1)
    third = orbit_sum(tensor(s1s2, inner3)) * Fraction(1, 18)
    note = "s3-family(%s,%s)" % (scalar_to_str(lam), scalar_to_str(mu))
    return PCandidate(first + second + third, note)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class MembershipReport(Frozen):
    """All predicate outcomes for one candidate."""

    __slots__ = ("product_condition", "translation_condition",
                 "adjoint_condition", "admissible", "multiplicative",
                 "character_multiplicative", "rank", "center_image",
                 "witnesses")

    def __init__(self, conds, multiplicative, witnesses,
                 character_multiplicative, rank, center_image):
        a, b, c = conds
        object.__setattr__(self, "product_condition", a)
        object.__setattr__(self, "translation_condition", b)
        object.__setattr__(self, "adjoint_condition", c)
        object.__setattr__(self, "admissible", a)
        object.__setattr__(self, "multiplicative", multiplicative)
        object.__setattr__(self, "character_multiplicative",
                           character_multiplicative)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "center_image", center_image)
        object.__setattr__(self, "witnesses", tuple(witnesses))

    def to_json(self) -> dict:
        return {
            "A": self.admissible,
            "A_conditions": [self.product_condition,
                             self.translation_condition,
                             self.adjoint_condition],
            "M": self.multiplicative,
            "M_witnesses": [list(w) for w in self.witnesses],
            "M0": self.character_multiplicative,
            "rank": self.rank,
            "center_image": self.center_image,
        }


def membership_report(p) -> MembershipReport:
    t = _tensor_of(p)
    conds = in_a_conditions(t)
    admissible = _admissible(conds)
    m_ok, witnesses = in_m(t)
    # the two multiplicativity conditions are independent: a candidate can
    # be multiplicative on characters while a pairwise component product
    # escapes its target, so M0 is always computed outright
    m0_ok = in_m0(t)
    center = center_image_check(t, conds) if admissible else False
    return MembershipReport(conds, m_ok, witnesses, m0_ok, phi_rank(t),
                            center)


def mock_pw_decomposition(p) -> dict:
    """Block decomposition of the group algebra through the transfer map.

    Requires admissibility, multiplicativity, and bijectivity; produces
    per-simple blocks with their adjoint-action characters decomposed, a
    directness flag, and the span data of the central character images.
    """
    t = _tensor_of(p)
    grp = t.group
    if not in_a(t):
        raise PreconditionError("decomposition requires an admissible tensor")
    witnesses, subs = _multiplicativity(t)
    if witnesses:
        raise PreconditionError(
            "decomposition requires a multiplicative tensor")
    if phi_rank(t) != grp.order:
        raise PreconditionError("decomposition requires a bijective transfer")
    table = character_table(grp)
    blocks = []
    for (label, chi), sub in zip(table, subs):
        traces = []
        for g in range(grp.order):
            h = AlgebraElement.basis(grp, g)
            trace = _F0
            for j, row in enumerate(sub.basis):
                img = act("ad", h, AlgebraElement(grp, dict(enumerate(row))))
                vec = img.to_vector()
                if not sub.contains(vec):
                    raise InternalError("block is not stable under the "
                                        "adjoint action")
                trace = trace + vec[sub.pivots[j]]
            traces.append(trace)
        ad_char = Functional(grp, traces)
        ad_type = decompose_character(grp, ad_char)
        expected = Functional(grp, [chi(g) * chi(grp.inverse(g))
                                    for g in range(grp.order)])
        if ad_char != expected:
            raise InternalError(
                "adjoint character of the block must match V tensor V-dual")
        blocks.append({"label": label, "dim": sub.dim,
                       "ad_type": dict(sorted(ad_type.multiplicities.items()))})
    # independent and filling: the dimensions add up to that of the sum, |G|
    total = Subspace(grp.order, [row for sub in subs for row in sub.basis])
    c_vectors = [phi(t, chi).to_vector() for _, chi in table]
    c_span = Subspace(grp.order, c_vectors)
    center_dim = len(grp.conjugacy_classes())
    return {
        "group": grp.descriptor,
        "order": grp.order,
        "blocks": blocks,
        "dims": [b["dim"] for b in blocks],
        "direct": sum(sub.dim for sub in subs) == total.dim == grp.order,
        "c_rank": c_span.dim,
        "center_dim": center_dim,
        "c_spans_center": c_span.dim == center_dim,
    }
