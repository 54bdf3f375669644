"""Exact dense linear algebra over the scalar fields.

Everything is computed exactly; there is no numeric tolerance anywhere.
float64 appears only inside the mod-p elimination, as a container for
integers below 2^53, which it holds exactly.

``solve_linear`` has one route per scalar type, and each yields either
the particular solution or an infeasibility certificate:

* a modular route for every system whose entries are all ``int`` or
  ``Fraction``, and for an int64 ``numpy`` array A with int b: forward
  elimination modulo each prime of a descending stream of 31-bit primes
  (in column panels, each applied to the columns right of it by float64
  matrix products), then the one row or column the candidate needs,
  Chinese remaindering, rational reconstruction, and a mandatory exact
  verification of the candidate (solution or infeasibility certificate);
* an exact route for systems over Q(zeta_n) or Q(v): field Gauss-Jordan
  elimination with the first-nonzero pivot rule.

A rational system already has its common variant, so only other mixes go
through ``unify``.  Its rows are cleared of denominators one by one into
one integer array (int64, or ``object`` past 63 bits); an int64 array is
already that form and skips the type scan.  Clearing scales each row, so
the solutions are the same and a certificate is scaled row by row.  The
modular route keeps the structure with the most pivots, and of those the
lexicographically smallest list: the one over Q once a prime shows it.
It tries a candidate after 1, 2, 4, ... primes of that structure, so a
system whose answer has small entries is solved modulo one prime, and it
never returns a wrong answer: every candidate is checked with exact
integer arithmetic against the integer rows, its denominators cleared.

``nullspace`` reads a kernel basis off one RREF of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, isqrt
from operator import add, mul

import numpy as np

from ..errors import DimensionError, InternalError
from .scalars import Frozen, _clear, as_scalar, unify

_F0 = Fraction(0)
_F1 = Fraction(1)


class Matrix(Frozen):
    """Immutable dense matrix over one scalar variant."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionError("ragged rows")
            flat = unify([x for r in rows for x in r])
            it = iter(flat)
            rows = [tuple(next(it) for _ in range(w)) for _ in rows]
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    @staticmethod
    def identity(n: int):
        return Matrix([[_F1 if i == j else _F0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(m: int, n: int):
        return Matrix([[_F0] * n for _ in range(m)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("matrix shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("matrix shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, s):
        s = as_scalar(s)
        return Matrix([[s * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError(
                    "cannot multiply %dx%d by %dx%d"
                    % (self.nrows, self.ncols, other.nrows, other.ncols))
            cols = list(zip(*other.rows)) if other.rows else []
            out = []
            for ra in self.rows:
                row = []
                for cb in cols:
                    acc = _F0
                    for a, b in zip(ra, cb):
                        if a and b:
                            acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector (any sequence)."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise DimensionError("vector length mismatch")
        out = []
        for r in self.rows:
            acc = _F0
            for a, x in zip(r, vec):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(unify(out)) if out else tuple()

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionError("trace of non-square matrix")
        acc = _F0
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def rank(self) -> int:
        _, pivots = rref(self.rows)
        return len(pivots)

    def kron(self, other):
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def rref(rows):
    """Reduced row echelon form with the first-nonzero pivot rule.

    Takes an iterable of rows and returns (rows, pivot_columns) where rows is
    a tuple of tuples with leading ones and zeros above and below each pivot.
    This canonical form is unique for a given row space, so equality of row
    spaces is equality of the returned rows.
    """
    work = [list(r) for r in rows]
    if not work:
        return tuple(), tuple()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DimensionError("ragged rows")
    m = len(work)
    r = 0
    pivots = []
    for c in range(ncols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = _F1 / work[r][c]
        if inv != 1:
            work[r] = [x * inv for x in work[r]]
        # the pivot row is zero left of c, so only its nonzero entries
        # from c on change the other rows
        prow = work[r]
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i in range(m):
            row = work[i]
            f = row[c]
            if i != r and f:
                for j, x in support:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work), tuple(pivots)


class LinearSolution(Frozen):
    """The canonical particular solution of a feasible system."""

    __slots__ = ("particular",)

    def __init__(self, particular):
        object.__setattr__(self, "particular", tuple(particular))

    def __repr__(self):
        return "LinearSolution(n=%d)" % len(self.particular)


class Infeasible(Frozen):
    """Proof that A x = b has no solution.

    ``certificate`` is a vector y with y.A = 0 and y.b = 1; its existence is
    equivalent to b lying outside the column space of A, and it is verified
    with exact arithmetic before this object is constructed.
    """

    __slots__ = ("certificate",)

    def __init__(self, certificate):
        object.__setattr__(self, "certificate", tuple(certificate))

    def __repr__(self):
        return "Infeasible()"


def _dot(row, vec):
    acc = _F0
    for a, x in zip(row, vec):
        if a and x:
            acc = acc + a * x
    return acc


def _verify_certificate(rows, b, y):
    """Exact check of y.A = 0 and y.b != 0, summed over the nonzero y_i."""
    acc = [_F0] * (len(rows[0]) if rows else 0)
    for yi, row in zip(y, rows):
        if yi:
            acc = [a + yi * x if x else a for a, x in zip(acc, row)]
    return not any(acc) and _dot(y, b) != 0


def solve_linear(A, b):
    """Solve A x = b exactly; returns LinearSolution or Infeasible.

    The particular solution is canonical: RREF with the first-nonzero pivot
    rule, free variables zero.  A is a Matrix, a sequence of rows, or an
    int64 ``numpy`` array with b a sequence of ints.  Rows of ints and
    Fractions, and such an array, take the modular route; the answer of
    an array is the one of its rows as Fractions.

    A modular candidate is verified to solve the system, not to be the
    RREF answer, so a prime dividing a pivot can break canonicality: with
    p = 2^31 - 1, ``solve_linear([[p, 1]], [1])`` returns (0, 1), not (1/p, 0).
    """
    if isinstance(A, np.ndarray) and A.dtype == np.int64:
        if A.ndim != 2:
            raise DimensionError("expected a two-dimensional array")
        rows, b = A, [int(x) for x in b]
    else:
        rows = list(A.rows) if isinstance(A, Matrix) else [list(r) for r in A]
        b = list(b)
    m = len(rows)
    if len(b) != m:
        raise DimensionError("right-hand side length mismatch")
    if m == 0:
        return LinearSolution([])
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionError("ragged rows")
    scales = [1] * m
    if not isinstance(rows, np.ndarray):
        types = set(map(type, chain.from_iterable(rows)))
        types.update(map(type, b))
        if not types <= {int, Fraction}:
            flat = unify([x for r in rows for x in r] + b)
            it = iter(flat)
            rows = [[next(it) for _ in range(n)] for _ in range(m)]
            return _solve_exact(rows, flat[m * n:])
        # row k times scales[k], the lcm of its denominators, into one
        # integer array: int64, or object when an entry needs more bits
        cleared, scales = zip(*(_clear((*r, bi)) for r, bi in zip(rows, b)))
        try:
            base = np.array(cleared, dtype=np.int64)
        except OverflowError:
            base = np.array(cleared, dtype=object)
        rows, b = base[:, :n], base[:, n].tolist()
    return _solve_modular(rows, b, scales)


def nullspace(rows, ncols: int):
    """Canonical basis of {x : A x = 0} for the rows of A over ncols unknowns.

    One vector per free column of the RREF of A, ascending: 1 at that
    column, minus the RREF column at the pivots, 0 at the other free
    columns.  With no rows every column is free.
    """
    rows = list(rows)
    if any(len(r) != ncols for r in rows):
        raise DimensionError("row length != column count")
    flat = unify([x for r in rows for x in r] + [_F0])
    zero = flat[-1]
    it = iter(flat)
    reduced, pivots = rref([[next(it) for _ in range(ncols)] for _ in rows])
    one = zero + 1
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [zero] * ncols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _solve_exact(rows, b):
    m = len(rows)
    n = len(rows[0])
    aug, pivots = rref([list(r) + [bi] for r, bi in zip(rows, b)])
    if pivots and pivots[-1] == n:
        # inconsistent; rerun with row tracking to extract a certificate
        tracked, tpiv = rref(
            [list(r) + [bi] + [_F1 if k == i else _F0 for k in range(m)]
             for i, (r, bi) in enumerate(zip(rows, b))])
        row_idx = None
        for i, c in enumerate(tpiv):
            if c == n:
                row_idx = i
                break
        if row_idx is None:
            raise InternalError("lost infeasibility under row tracking")
        y = tracked[row_idx][n + 1:]
        if not _verify_certificate(rows, b, y):
            raise InternalError("bad infeasibility certificate")
        return Infeasible(y)
    x = [b[0] * 0] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return LinearSolution(x)


# ---------------------------------------------------------------------------
# modular fast route
# ---------------------------------------------------------------------------

_PRIME_WINDOW = 6000  # the first window, [2^31 - 6000, 2^31), holds 279 primes


@lru_cache(maxsize=None)
def _prime_window(i: int) -> tuple:
    """The primes of [2^31 - (i + 1) W, 2^31 - i W), W = _PRIME_WINDOW, cut
    at 2^30, descending.

    A segmented sieve of Eratosthenes: every prime up to sqrt(2^31) strikes
    its multiples from the window, and the window lies above all of them,
    so no base prime strikes itself.
    """
    hi = 2**31 - i * _PRIME_WINDOW
    lo = max(hi - _PRIME_WINDOW, 2**30)
    base = np.ones(isqrt(2**31) + 1, dtype=bool)
    base[:2] = False
    for d in range(2, isqrt(base.size - 1) + 1):
        if base[d]:
            base[d * d::d] = False
    window = np.ones(hi - lo, dtype=bool)
    for d in np.flatnonzero(base):
        window[-lo % d::d] = False
    return tuple((lo + np.flatnonzero(window)[::-1]).tolist())


def _primes31():
    """The primes of [2^30, 2^31), descending, each window sieved once."""
    for i in range(-(-2**30 // _PRIME_WINDOW)):
        yield from _prime_window(i)


def _rat_reconstruct(a: int, mmod: int):
    """Wang reconstruction of a rational from its residue, or None."""
    a %= mmod
    if a == 0:
        return _F0
    bound = isqrt(mmod // 2)
    r0, r1 = mmod, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    d = abs(s1)
    if d == 0 or d > bound or gcd(r1, d) != 1:
        return None
    num = r1 if s1 > 0 else -r1
    if (num - a * d) % mmod != 0:
        return None
    return Fraction(num, d)


def _crt_pair(r1, m1, r2, m2):
    t = ((r2 - r1) * pow(m1 % m2, -1, m2)) % m2
    return r1 + m1 * t, m1 * m2


# ``_modp_echelon`` eliminates _PANEL columns at a time and updates the
# columns right of them in chunks of _CHUNK.  Its products in float64 are
# exact: ``_mulmod`` multiplies residues below p < 2^31 by at most _PANEL
# residues split into 16-bit halves, so each product is below 2^47 and each
# partial sum, in whatever order or with whatever fused multiply-adds the
# BLAS takes, is an integer below 2^53.
_PANEL = 64
_CHUNK = 256
assert _PANEL * (2**31 - 2) * (2**16 - 1) < 2**53


def _mulmod(G: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """G @ X mod p for int64 residues mod p < 2^31, with G (h x k),
    k <= _PANEL, and X (k x w), computed exactly as float64 products."""
    w = X.shape[1]
    halves = np.empty((X.shape[0], 2 * w))
    np.bitwise_and(X, 0xFFFF, out=halves[:, :w], casting="unsafe")
    np.right_shift(X, 16, out=halves[:, w:], casting="unsafe")
    prod = (G.astype(np.float64) @ halves).astype(np.int64)
    lo, hi = prod[:, :w], prod[:, w:]
    # floor division by a scalar is several times faster than % on int64
    hi -= (hi // p) * p
    lo += hi << 16
    lo -= (lo // p) * p
    return lo


def _modp_echelon(M: np.ndarray, p: int):
    """In-place forward elimination of an int64 matrix of residues mod p;
    returns pivots.

    The first-nonzero pivot rule, with each pivot row scaled to 1 and only
    the rows below it cleared, from the pivot column on (they are zero left
    of it).  Those rows change exactly as in Gauss-Jordan, so the pivots
    and the row order are those of the RREF; ``_modp_read`` reads the one
    vector of the RREF that a candidate needs.

    The columns go in panels of _PANEL, each eliminated on its own columns
    with rows swapped whole.  Column w + j of its work array gets a 1 in
    pivot row j when that row is chosen, so the same row operations make
    G, those k columns, the record of the panel: each row from r ends as
    G times the first k of them as they were, plus itself as it was if it
    lies below them.  One ``_mulmod`` per chunk of the columns right of
    the panel applies that record.  Every entry is the one that the
    elimination one pivot at a time gives.
    """
    m, n = M.shape
    r = 0
    pivots = []
    for c0 in range(0, n, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        # the panel of the rows from r, then G
        work = np.zeros((m - r, w + min(w, m - r)), dtype=np.int64)
        work[:, :w] = M[r:, c0:c1]
        k = 0
        for c in range(w):
            if r + k == m:
                break
            nz = k + np.nonzero(work[k:, c])[0]
            if nz.size == 0:
                continue
            i = int(nz[0])
            if i != k:
                # the row moved to i is zero in column c, so nz[1:] stays
                # the rows below k that are nonzero there
                work[[k, i]] = work[[i, k]]
                M[[r + k, r + i]] = M[[r + i, r + k]]
            work[k, w + k] = 1
            prow = work[k, c:w + k + 1]
            prow *= pow(int(prow[0]), p - 2, p)
            prow %= p
            below = nz[1:]
            if below.size:
                t = work[below, c:w + k + 1] - np.outer(work[below, c], prow)
                t -= (t // p) * p
                work[below, c:w + k + 1] = t
            pivots.append(c0 + c)
            k += 1
        if not k:
            continue
        M[r:, c0:c1] = work[:, :w]
        G = work[:, w:w + k]
        for s in range(c1, n, _CHUNK):
            X = M[r:, s:s + _CHUNK]
            Y = _mulmod(G, X[:k], p)
            low = Y[k:]
            low += X[k:]
            low -= (low >= p) * p
            X[...] = Y
        r += k
    return pivots


def _modp_read(E: np.ndarray, p: int, pivots, n: int):
    """From the echelon form of (A | b | I) mod p, the RREF entries that the
    candidate reads, as a list.

    Rows whose pivots lie in the tracking block (past column n) are zero in
    columns 0..n.  If b's column n is a pivot, the result is the tracking
    block of its row, reduced in ascending order by the rows below it:
    that clears every later pivot and leaves the earlier ones zero, so it
    is the RREF row.  Otherwise it is the solution column at the A-pivot
    rows, by back-substitution over their unit upper triangle.
    """
    k = sum(c <= n for c in pivots)
    if k and pivots[k - 1] == n:
        y = E[k - 1, n + 1:].copy()
        for j in range(k, len(pivots)):
            c = pivots[j] - n - 1
            f = y[c]
            if f:
                y[c:] = (y[c:] - f * E[j, pivots[j]:]) % p
        return y.tolist()
    x = E[:k, n].copy()
    for i in range(k - 1, 0, -1):
        if x[i]:
            x[:i] = (x[:i] - E[:i, pivots[i]] * x[i]) % p
    return x.tolist()


def _solve_modular(A, b, scales):
    """Deterministic modular solve with exact verification.

    A is an integer array (int64, or ``object`` past 63 bits) and b a list
    of ints, and row k of (A | b) is scales[k] times row k of the system
    solved: the same solutions, and a certificate y' of (A | b) gives the
    certificate y_k = scales[k] y'_k.  Raises InternalError only if no
    candidate verifies before the 31-bit primes run out.
    """
    m, n = A.shape
    # (A | b | I) mod p, refilled in place for each prime
    track = np.empty((m, n + 1 + m), dtype=np.int64)
    diag = (np.arange(m), np.arange(n + 1, n + 1 + m))

    used = []  # (p, the entries _assemble_modular reads, mod p)
    structure = None
    tries_at = 1  # agreeing primes needed for the next candidate
    for p in _primes31():
        np.remainder(A, p, out=track[:, :n], casting="unsafe")
        track[:, n] = [x % p for x in b]
        track[:, n + 1:] = 0
        track[diag] = 1
        piv = _modp_echelon(track, p)
        st = tuple(c for c in piv if c <= n)
        if structure is None or (-len(st), st) < (-len(structure), structure):
            # the rank of each leading block of columns can only drop mod
            # p, so the pivots over Q are the most and, of as many, each is
            # at most its counterpart: once seen they are never displaced
            structure, used, tries_at = st, [], 1
        elif st != structure:
            # primes showing another structure are discarded as bad
            continue
        used.append((p, _modp_read(track, p, piv, n)))
        if len(used) < tries_at:
            continue
        result = _assemble_modular(A, b, scales, used, structure)
        if result is not None:
            return result
        tries_at *= 2
    raise InternalError("no candidate verified modulo the 31-bit primes")


def _combine(used, k):
    """CRT-combine entry k across primes, then reconstruct a Fraction."""
    r_acc, m_acc = 0, 1
    for p, t in used:
        r_acc, m_acc = _crt_pair(r_acc, m_acc, t[k], p)
    return _rat_reconstruct(r_acc, m_acc)


def _assemble_modular(A, b, scales, used, structure):
    """Reconstruct the candidate and verify it over the integer rows.

    Row k of (A | b) is scales[k] times row k of the system solved, and
    the rows are read one at a time.  So x solves it exactly when every
    integer row annihilates (D x, -D), and y is a certificate exactly when
    the sum of D y_k (A | b)_k is 0 before the last column and nonzero at
    it.
    """
    m, n = A.shape

    def int_row(k):
        return A[k].tolist() + [b[k]]

    if structure and structure[-1] == n:
        # infeasibility candidate: certificate from the tracking block
        y = []
        for k in range(m):
            val = _combine(used, k)
            if val is None:
                return None
            y.append(val)
        ys, D = _clear(y)
        acc = [0] * (n + 1)
        for k, yk in enumerate(ys):
            if yk:
                acc = list(map(add, acc, map(mul, repeat(yk), int_row(k))))
        if any(acc[:n]) or not acc[n]:
            return None
        # y_k scales[k] is a certificate for (A | b) with y.b = acc[n] / D
        d = Fraction(acc[n], D)
        return Infeasible([yk * L / d for yk, L in zip(y, scales)])
    x = [_F0] * n
    for i, c in enumerate(structure):
        val = _combine(used, i)
        if val is None:
            return None
        x[c] = val
    xs, D = _clear(x)
    xs.append(-D)
    for k in range(m):
        if sum(map(mul, int_row(k), xs)):
            return None
    return LinearSolution(x)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(Frozen):
    """A subspace of k^n in canonical form: RREF basis plus pivot columns.

    Two Subspace objects are equal exactly when they are the same subspace,
    because the reduced row echelon basis of a row space is unique.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors=()):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise DimensionError("vector length != ambient dimension")
        if vectors:
            reduced, pivots = rref(vectors)
            basis = tuple(r for r in reduced[: len(pivots)])
        else:
            basis, pivots = tuple(), tuple()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, vec):
        v = list(vec)
        if len(v) != self.ambient:
            raise DimensionError("vector length != ambient dimension")
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                v = [a - f * bcoef for a, bcoef in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionError("ambient dimensions differ")
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.pivots == other.pivots
                and all(tuple(a) == tuple(bv)
                        for a, bv in zip(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ambient, self.pivots, self.basis))

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise DimensionError("ambient dimensions differ")
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: reduce [[U U], [W 0]]; rows with zero left half carry
        # an intersection basis in their right half
        if other.ambient != self.ambient:
            raise DimensionError("ambient dimensions differ")
        na = self.ambient
        block = [list(u) + list(u) for u in self.basis]
        for w in other.basis:
            block.append(list(w) + [0 * x for x in w])
        if not block:
            return Subspace(na)
        reduced, pivots = rref(block)
        out = []
        for row, c in zip(reduced, pivots):
            if c >= na:
                out.append(row[na:])
        return Subspace(na, out)

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)
