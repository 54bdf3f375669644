"""Finite-dimensional modules over the supported group algebras.

A Rep stores one exact matrix per group element.  Families are built from
generator matrices and breadth-first generator words.  The representation
law is verified exactly as rho(g) rho(s) = rho(g s) for every g and every s
in the group's generating set; with rho(e) = I that proves it on all pairs
by induction on word length.  The families:

* symmetric groups: Specht-style rational matrices in Young's seminormal
  form, one matrix per adjacent transposition;
* dihedral groups: the four (or two) sign characters plus two-dimensional
  rotation/reflection pairs, rational whenever 2cos(2 pi k / n) is rational
  and over the order-n cyclotomic field otherwise;
* cyclic groups: the n characters through an n-th root of unity;
* direct products: outer tensor products of the factor irreducibles.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InternalError, PreconditionError, RealizabilityError
from .exact.linalg import Matrix
from .exact.scalars import (
    Cyclotomic,
    Frozen,
    Terms,
    VariantError,
    collect,
    promote_like,
)
from .groups import Group, from_descriptor
from .hopf import Functional

_F0 = Fraction(0)
_F1 = Fraction(1)


class Rep(Frozen):
    """A left kG-module: one exact matrix per group element."""

    __slots__ = ("group", "dim", "matrices", "label")

    def __init__(self, group: Group, matrices, label: str):
        matrices = tuple(matrices)
        if len(matrices) != group.order:
            raise PreconditionError("need one matrix per group element")
        dim = matrices[0].nrows
        for m in matrices:
            if m.nrows != dim or m.ncols != dim:
                raise PreconditionError("matrices must be square, equal size")
        if matrices[0] != Matrix.identity(dim):
            raise PreconditionError("identity element must act as identity")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "label", label)
        self._check_law()

    def _check_law(self):
        grp, mats = self.group, self.matrices
        for s in grp.gens:
            for g in range(grp.order):
                if mats[g] * mats[s] != mats[grp.mul(g, s)]:
                    raise PreconditionError(
                        "matrices do not satisfy the representation law")

    @staticmethod
    def from_generators(group: Group, gen_matrices: dict, label: str) -> "Rep":
        """Extend matrices given on the generators along generator words."""
        for gi in group.gens:
            if gi not in gen_matrices:
                raise PreconditionError("missing matrix for a generator")
        dims = {m.nrows for m in gen_matrices.values()}
        dim = dims.pop() if dims else 1
        mats: list = [None] * group.order
        mats[0] = Matrix.identity(dim)
        queue = deque([0])
        while queue:
            cur = queue.popleft()
            for gi in group.gens:
                nxt = group.table[cur][gi]
                if mats[nxt] is None:
                    mats[nxt] = mats[cur] * gen_matrices[gi]
                    queue.append(nxt)
        if any(m is None for m in mats):
            raise PreconditionError("generators do not generate the group")
        return Rep(group, mats, label)

    def matrix(self, i: int) -> Matrix:
        return self.matrices[i]

    def character(self) -> Functional:
        return Functional(self.group, [m.trace() for m in self.matrices])

    def tensor(self, other: "Rep") -> "Rep":
        if self.group != other.group:
            raise PreconditionError("representations of different groups")
        mats = [a.kron(b) for a, b in zip(self.matrices, other.matrices)]
        return Rep(self.group, mats, "%s(x)%s" % (self.label, other.label))

    def apply(self, i: int, vec):
        return self.matrices[i].apply(vec)

    def __eq__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return (self.group == other.group
                and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.group.key, self.matrices))

    def __repr__(self):
        return "Rep(%s, dim=%d over %s)" % (self.label, self.dim,
                                            self.group.name)


def pairing(v_vec, f_vec):
    """The standard pairing <v, f> = sum v_i f_i."""
    acc = _F0
    for a, b in zip(v_vec, f_vec):
        if a and b:
            acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# symmetric groups: Young's seminormal form
# ---------------------------------------------------------------------------

def _partitions(n: int):
    out = []

    def rec(rem, cap, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rem, cap), 0, -1):
            acc.append(p)
            rec(rem - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _standard_tableaux(shape):
    n = sum(shape)
    rows = [[] for _ in shape]
    out = []

    def rec(v):
        if v > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            if len(rows[i]) < shape[i] and (i == 0
                                            or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                rec(v + 1)
                rows[i].pop()

    rec(1)
    return out


def _positions(tableau):
    pos = {}
    for r, row in enumerate(tableau):
        for c, v in enumerate(row):
            pos[v] = (r, c)
    return pos


def _swap_entries(tableau, a, b):
    return tuple(tuple(b if v == a else a if v == b else v for v in row)
                 for row in tableau)


def _seminormal_matrix(tableaux, index, k):
    """Matrix of the adjacent transposition (k, k+1) on the tableau basis.

    With d the signed axial distance (content of k+1 minus content of k in
    the tableau T), the transposition sends v_T to (1/d) v_T plus, when the
    swapped tableau T' is standard, either v_T' (d > 0) or (1 - 1/d^2) v_T'
    (d < 0).  The two-by-two blocks square to the identity by construction.
    """
    size = len(tableaux)
    rows = [[_F0] * size for _ in range(size)]
    for col, t in enumerate(tableaux):
        pos = _positions(t)
        r1, c1 = pos[k]
        r2, c2 = pos[k + 1]
        d = (c2 - r2) - (c1 - r1)
        rows[col][col] = Fraction(1, d)
        if r1 != r2 and c1 != c2:
            partner = index[_swap_entries(t, k, k + 1)]
            rows[partner][col] = _F1 if d > 0 else _F1 - Fraction(1, d * d)
    return Matrix(rows)


def _partition_label(shape, n):
    if shape == (n,):
        return "triv"
    if shape == (1,) * n:
        return "sgn"
    if shape == (n - 1, 1):
        return "std"
    return "p" + "".join(str(p) for p in shape)


def _symmetric_irreps(group: Group, n: int):
    out = []
    for shape in _partitions(n):
        tableaux = sorted(_standard_tableaux(shape))
        index = {t: i for i, t in enumerate(tableaux)}
        gen_mats = {}
        for k in range(1, n):
            gi = group.generators[k - 1][0]
            gen_mats[gi] = _seminormal_matrix(tableaux, index, k)
        label = _partition_label(shape, n)
        if n == 1:
            out.append(Rep(group, [Matrix.identity(1)], label))
        else:
            out.append(Rep.from_generators(group, gen_mats, label))
    return out


# ---------------------------------------------------------------------------
# dihedral, cyclic, product families
# ---------------------------------------------------------------------------

def _root_sum(n: int, k: int):
    """2 cos(2 pi k / n) as an exact scalar, demoted to Q when possible."""
    a = Cyclotomic.zeta(n, k % n) + Cyclotomic.zeta(n, (-k) % n)
    return a.as_fraction() if a.is_rational else a


def _dihedral_irreps(group: Group, n: int):
    if n == 1:
        s = group.generators[0][0]
        return [Rep.from_generators(group, {s: Matrix([[_F1]])}, "triv"),
                Rep.from_generators(group, {s: Matrix([[-_F1]])}, "sgn")]
    r = group.generators[0][0]
    s = group.generators[1][0]
    out = [
        Rep.from_generators(group, {r: Matrix([[_F1]]),
                                    s: Matrix([[_F1]])}, "triv"),
        Rep.from_generators(group, {r: Matrix([[_F1]]),
                                    s: Matrix([[-_F1]])}, "sgn"),
    ]
    if n % 2 == 0:
        out.append(Rep.from_generators(group, {r: Matrix([[-_F1]]),
                                               s: Matrix([[_F1]])}, "alt"))
        out.append(Rep.from_generators(group, {r: Matrix([[-_F1]]),
                                               s: Matrix([[-_F1]])}, "altsgn"))
    for k in range(1, (n + 1) // 2):
        a = _root_sum(n, k)
        rot = Matrix([[_F0, -_F1], [_F1, a]])
        ref = Matrix([[_F1, a], [_F0, -_F1]])
        out.append(Rep.from_generators(group, {r: rot, s: ref}, "rho%d" % k))
    return out


def _cyclic_irreps(group: Group, n: int):
    out = []
    for k in range(n):
        if n == 1:
            out.append(Rep(group, [Matrix.identity(1)], "chi0"))
            continue
        if n == 2:
            z = -_F1 if k else _F1
        else:
            zk = Cyclotomic.zeta(n, k)
            z = zk.as_fraction() if zk.is_rational else zk
        x = group.generators[0][0]
        out.append(Rep.from_generators(group, {x: Matrix([[z]])},
                                       "chi%d" % k))
    return out


def _needed_cyclotomic_order(descriptor) -> int:
    """Order of the cyclotomic field sufficient to split the group."""
    kind = descriptor["kind"]
    if kind == "symmetric":
        return 1
    if kind == "cyclic":
        return 1 if descriptor["n"] <= 2 else descriptor["n"]
    if kind == "dihedral":
        return 1 if descriptor["n"] in (1, 2, 3, 4, 6) else descriptor["n"]
    if kind == "product":
        a = _needed_cyclotomic_order(descriptor["factors"][0])
        b = _needed_cyclotomic_order(descriptor["factors"][1])
        return lcm(a, b)
    raise PreconditionError("no irreducible construction for %r" % kind)


def _product_irreps(group: Group):
    left = from_descriptor(group.descriptor["factors"][0])
    right = from_descriptor(group.descriptor["factors"][1])
    lreps = irreps(left)
    rreps = irreps(right)
    out = []
    nb = right.order
    for lv in lreps:
        for rv in rreps:
            try:
                mats = [lv.matrices[i // nb].kron(rv.matrices[i % nb])
                        for i in range(group.order)]
            except VariantError as e:
                order = _needed_cyclotomic_order(group.descriptor)
                raise RealizabilityError(
                    "factors need incompatible cyclotomic fields; a "
                    "cyclotomic(%d) implementation would be required" % order
                ) from e
            out.append(Rep(group, mats, "%s*%s" % (lv.label, rv.label)))
    return out


@lru_cache(maxsize=None)
def irreps(group: Group):
    """All irreducible representations over the smallest supported field."""
    kind = group.descriptor.get("kind")
    if kind == "symmetric":
        out = _symmetric_irreps(group, group.descriptor["n"])
    elif kind == "dihedral":
        out = _dihedral_irreps(group, group.descriptor["n"])
    elif kind == "cyclic":
        out = _cyclic_irreps(group, group.descriptor["n"])
    elif kind == "product":
        out = _product_irreps(group)
    else:
        raise PreconditionError(
            "no irreducible construction for descriptor kind %r" % kind)
    total = sum(v.dim ** 2 for v in out)
    if total != group.order:
        raise InternalError(
            "sum of squared dimensions %d misses the group order %d"
            % (total, group.order))
    return tuple(out)


@lru_cache(maxsize=None)
def character_table(group: Group):
    """(label, character) of each irreducible, in the order of irreps.

    This is the one place the predicates take characters from.  The table
    is checked to be square: one character per conjugacy class.
    """
    table = tuple((v.label, v.character()) for v in irreps(group))
    if len(table) != len(group.conjugacy_classes()):
        raise InternalError("character count must match class count")
    return table


@lru_cache(maxsize=None)
def _tensor_constituents(group: Group) -> dict:
    """{(i, j): ((k, N), ...)} for i <= j: the constituents of V_i (x) V_j.

    Indices are positions in ``character_table``; each irreducible V_k
    occurs N > 0 times, in table order.  The multiplicities come from
    ``decompose_character`` of chi_i chi_j, and the sum of N chi_k must give
    back chi_i chi_j exactly, or InternalError is raised.  The returned
    dict is shared by every caller and must not be changed.
    """
    table = character_table(group)
    index = {label: k for k, (label, _) in enumerate(table)}
    out = {}
    for i, (_, chi_i) in enumerate(table):
        for j in range(i, len(table)):
            product = chi_i * table[j][1]
            parts = tuple(sorted(
                (index[label], m) for label, m in
                decompose_character(group, product).multiplicities.items()))
            if sum((table[k][1] * m for k, m in parts),
                   Functional.zero(group)) != product:
                raise InternalError(
                    "the constituents of %s (x) %s miss their character"
                    % (table[i][0], table[j][0]))
            out[i, j] = parts
    return out


# ---------------------------------------------------------------------------
# decomposition and Grothendieck classes
# ---------------------------------------------------------------------------

class K0Element(Terms):
    """A multiplicity vector over the irreducible labels of one group.

    ``multiplicities`` is a mapping or an iterable of (label, multiplicity)
    pairs; the multiplicities of a repeated label are summed.  Each sum
    must be an integer (an integral Fraction becomes an int, and negative
    integers are allowed); anything else raises PreconditionError.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: Group, multiplicities):
        terms = {}
        for label, m in collect(multiplicities).items():
            terms[label] = int(m)
            if terms[label] != m:
                raise PreconditionError(
                    "multiplicity of %s is not an integer: %s" % (label, m))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", terms)

    @property
    def multiplicities(self) -> dict:
        """The nonzero multiplicities by label (the terms of the sum)."""
        return self.terms

    @property
    def _space(self):
        return self.group.key

    def _like(self, terms) -> "K0Element":
        return K0Element(self.group, terms)

    def _mismatch(self, other):
        raise PreconditionError("classes over different groups")

    def __getitem__(self, label: str) -> int:
        return self.multiplicities.get(label, 0)

    def __repr__(self):
        if not self.multiplicities:
            return "0"
        bits = []
        for label in sorted(self.multiplicities):
            m = self.multiplicities[label]
            bits.append(label if m == 1 else "%d*%s" % (m, label))
        return " + ".join(bits)


def _as_rational(x):
    try:
        return promote_like(x, _F0)
    except VariantError as e:
        raise InternalError("expected a rational value, got %r" % (x,)) from e


def decompose_character(grp: Group, chi) -> K0Element:
    """Multiplicities of the irreducible characters inside a class function.

    The input is any functional on the group; pairing it with each
    irreducible character must produce nonnegative integers.  A character
    is constant on classes, so each pairing takes one product per class.
    """
    pairs = [(sum(map(chi, c[1:]), chi(c[0])), grp.inverse(c[0]))
             for c in grp.conjugacy_classes()]
    mult = {}
    for label, chi_w in character_table(grp):
        acc = None
        for s, g in pairs:
            term = s * chi_w(g)
            acc = term if acc is None else acc + term
        m = _as_rational(acc) / grp.order
        if m.denominator != 1 or m < 0:
            raise InternalError(
                "character pairing produced a non-multiplicity %s" % m)
        if m:
            mult[label] = int(m)
    return K0Element(grp, mult)


def decompose(v: Rep) -> K0Element:
    """Multiplicities of the irreducibles inside V by character pairing."""
    grp = v.group
    out = decompose_character(grp, v.character())
    recovered = sum(out[w.label] * w.dim for w in irreps(grp))
    if recovered != v.dim:
        raise InternalError(
            "multiplicities rebuild dimension %d, expected %d"
            % (recovered, v.dim))
    return out

