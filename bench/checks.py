"""Independent checks of the outputs a round produced.

Nothing here imports the package.  Every check works from the group's
multiplication table and the candidate tensor as serialized in the
artifacts, with its own exact arithmetic: Fractions, integers after
clearing denominators, cyclotomic numbers as polynomials modulo x^N - 1
reduced by a cyclotomic polynomial computed here, and Laurent polynomials
in v for the quantum side.  Each check raises CheckError on a wrong output.
"""

from fractions import Fraction
from math import isqrt, lcm


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# scalars as serialized: "p/q", "[c0,...]@zeta(N)", "[num]/[den]@v"
# ---------------------------------------------------------------------------


def _fractions(body):
    _require(body.startswith("[") and body.endswith("]"),
             "bad coefficient list %r" % body)
    return [Fraction(t) for t in body[1:-1].split(",")]


def parse_scalar(text):
    """A rational as Fraction, a cyclotomic as (N, power-basis coefficients)."""
    if "@zeta(" in text:
        body, order = text.split("@zeta(")
        return int(order[:-1]), _fractions(body)
    _require("@" not in text, "unexpected scalar %r" % text)
    return Fraction(text)


def parse_ratfun(text):
    """(numerator, denominator) coefficient lists, ascending powers of v."""
    _require(text.endswith("@v") and "]/[" in text, "bad ratfun %r" % text)
    num, den = text[:-2].split("]/[")
    return _fractions(num + "]"), _fractions("[" + den)


class CyclotomicField:
    """Q(zeta_N) computed in Q[x]/(x^N - 1); zero-tests reduce by Phi_N."""

    def __init__(self, order):
        self.order = order
        self.phi = _cyclotomic_polynomial(order)

    def embed(self, value):
        out = [Fraction(0)] * self.order
        if isinstance(value, Fraction):
            out[0] = value
            return out
        n, coeffs = value
        _require(self.order % n == 0,
                 "zeta(%d) does not live in Q(zeta(%d))" % (n, self.order))
        step = self.order // n
        for k, c in enumerate(coeffs):
            out[(k * step) % self.order] += c
        return out

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def mul(self, a, b):
        n = self.order
        out = [Fraction(0)] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[(i + j) % n] += x * y
        return out

    def is_zero(self, a):
        return not any(_poly_rem(a, self.phi))


def _poly_rem(a, m):
    """Remainder of a by the monic polynomial m (ascending coefficients)."""
    a = list(a)
    dm = len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        if c:
            for k in range(dm + 1):
                a[top - dm + k] -= c * m[k]
    return a[:dm]


def _poly_div_exact(a, m):
    a = list(a)
    dm = len(m) - 1
    q = [Fraction(0)] * (len(a) - dm)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] / m[-1]
        q[top - dm] = c
        for k in range(dm + 1):
            a[top - dm + k] -= c * m[k]
    _require(not any(a), "inexact polynomial division")
    return q


def _cyclotomic_polynomial(n):
    """Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d of n."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic_polynomial(d))
    return poly


def _field_for(values):
    order = 1
    for v in values:
        if not isinstance(v, Fraction):
            order = lcm(order, v[0])
    return CyclotomicField(order)


# ---------------------------------------------------------------------------
# groups and tensors
# ---------------------------------------------------------------------------


def check_table(table):
    """Identity at index 0, inverses, associativity; returns the inverses."""
    n = len(table)
    _require(all(len(row) == n for row in table), "table is not square")
    _require(all(table[0][g] == g and table[g][0] == g for g in range(n)),
             "index 0 is not the identity")
    inv = [row.index(0) if 0 in row else None for row in table]
    _require(all(i is not None and table[i][g] == 0
                 for g, i in enumerate(inv)), "some element has no inverse")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                _require(table[ab][c] == table[a][table[b][c]],
                         "table is not associative")
    return inv


def tensor_terms(doc, arity):
    """{index tuple: parsed scalar} from a serialized tensor."""
    _require(doc["arity"] == arity, "expected a %d-slot tensor" % arity)
    terms = {}
    for entry in doc["terms"]:
        key = tuple(entry[:-1])
        _require(key not in terms, "repeated tensor key %r" % (key,))
        terms[key] = parse_scalar(entry[-1])
    return terms


def check_admissible(table, terms):
    """P commutes with every g (x) g: its coefficients are constant on the
    orbits of simultaneous conjugation (a, b) -> (g a g^-1, g b g^-1)."""
    inv = check_table(table)
    field = _field_for(terms.values())
    for g in range(len(table)):
        for (a, b), c in terms.items():
            key = (table[table[g][a]][inv[g]], table[table[g][b]][inv[g]])
            other = field.embed(terms.get(key, Fraction(0)))
            diff = field.add(field.embed(c), [-x for x in other])
            _require(field.is_zero(diff),
                     "tensor does not commute with g (x) g for g=%d" % g)


def rank(rows):
    """Rank over Q by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _rank_mod(rows, p):
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _root_of_unity_mod(order):
    """A prime p = 1 (mod order) and a primitive order-th root of 1 mod p."""
    p = 1000003 - 1000003 % order + 1
    while not _is_prime(p):
        p += order
    factors = [q for q in range(2, order + 1) if order % q == 0
               and _is_prime(q)]
    for x in range(2, p):
        w = pow(x, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return p, w
    raise CheckError("no root of unity of order %d" % order)


def transfer_rank(order, terms):
    """Rank of xi -> (xi (x) 1)(P); column a of the matrix is phi(delta_a).

    Rational tensors get the exact rank.  A cyclotomic tensor is sent to
    F_p by zeta -> w, w a primitive root of unity mod p; that rank is a
    lower bound, so it proves full rank and is reported as found.
    """
    rows = [[Fraction(0)] * order for _ in range(order)]
    values = list(terms.values())
    if all(isinstance(c, Fraction) for c in values):
        for (a, b), c in terms.items():
            rows[b][a] += c
        return rank(rows)
    field = _field_for(values)
    p, w = _root_of_unity_mod(field.order)
    powers = [pow(w, k, p) for k in range(field.order)]
    rows = [[0] * order for _ in range(order)]
    for (a, b), c in terms.items():
        for k, x in enumerate(field.embed(c)):
            if x:
                _require(x.denominator % p, "coefficient not defined mod p")
                value = x.numerator * pow(x.denominator, -1, p) * powers[k]
                rows[b][a] = (rows[b][a] + value) % p
    return _rank_mod(rows, p)


def irrep_dimensions(table):
    """Irrep dimensions from the class count and the commutator subgroup.

    The number of linear characters is |G / [G, G]|; when at most one
    irrep is not linear its dimension follows from sum of squares = |G|.
    """
    n = len(table)
    inv = check_table(table)
    classes = set()
    for x in range(n):
        classes.add(frozenset(table[table[g][x]][inv[g]] for g in range(n)))
    derived = {0}
    frontier = {table[table[a][b]][table[inv[a]][inv[b]]]
                for a in range(n) for b in range(n)}
    while not frontier <= derived:
        derived |= frontier
        frontier = {table[x][y] for x in derived for y in derived}
    linear = n // len(derived)
    rest = len(classes) - linear
    if rest == 0:
        return [1] * linear
    _require(rest == 1, "more than one non-linear irrep: not supported")
    d = isqrt(n - linear)
    _require(d * d == n - linear, "irrep dimensions do not add up")
    return [1] * linear + [d]


def check_block_dims(table, dims):
    """Blocks of the dual have dimension dim(V)^2 and fill the algebra."""
    expected = sorted(d * d for d in irrep_dimensions(table))
    _require(sorted(dims) == expected,
             "block dimensions %r, expected %r" % (sorted(dims), expected))
    _require(sum(dims) == len(table), "block dimensions do not sum to |G|")


def check_t(table, p_terms, t_terms):
    """(Delta (x) 1)(P) = (m (x) m (x) 1)((T (x) 1) P_15 P_35).

    In the group basis the left side is sum c_ab a (x) a (x) b and the right
    side sends t (x) p (x) q to (t1 p1 t2) (x) (t3 q1 t4) (x) (p2 q2).
    """
    field = _field_for(list(p_terms.values()) + list(t_terms.values()))
    p = [(a, b, field.embed(c)) for (a, b), c in p_terms.items()]
    acc = {}

    def add(key, value):
        cur = acc.get(key)
        acc[key] = value if cur is None else field.add(cur, value)

    for (a, b), c in p_terms.items():
        add((a, a, b), field.embed(c))
    for (t1, t2, t3, t4), tc in t_terms.items():
        tv = [-x for x in field.embed(tc)]
        for p1, p2, pc in p:
            g1 = table[table[t1][p1]][t2]
            tp = field.mul(tv, pc)
            for q1, q2, qc in p:
                add((g1, table[table[t3][q1]][t4], table[p2][q2]),
                    field.mul(tp, qc))
    for key, value in acc.items():
        _require(field.is_zero(value),
                 "T does not factor (Delta (x) 1)(P) at %r" % (key,))


def _integers(values):
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return [int(v * scale) for v in values]


def check_certificate(table, p_terms, certificate):
    """y.A = 0 and y.b != 0 for the T-factorization system of P.

    Rows are indexed by (g1, g2, g3) as (g1 |G| + g2) |G| + g3 and columns
    by (t1, t2, t3, t4) in lexicographic order; A and b are rebuilt column
    by column from the table, in integers after clearing denominators.
    """
    n = len(table)
    _require(len(certificate) == n ** 3,
             "certificate has %d entries, expected %d"
             % (len(certificate), n ** 3))
    y = _integers([Fraction(v) for v in certificate])
    keys = list(p_terms)
    for c in p_terms.values():
        _require(isinstance(c, Fraction),
                 "certificate check needs rational entries")
    coeffs = _integers([p_terms[k] for k in keys])
    support = [(a, b, c) for (a, b), c in zip(keys, coeffs) if c]
    yb = sum(c * y[(a * n + a) * n + b] for a, b, c in support)
    _require(yb != 0, "certificate has y.b = 0")
    for t1 in range(n):
        for t2 in range(n):
            firsts = [(table[table[t1][p1]][t2] * n * n, p2, pc)
                      for p1, p2, pc in support]
            for t3 in range(n):
                for t4 in range(n):
                    seconds = [(table[table[t3][q1]][t4] * n, q2, qc)
                               for q1, q2, qc in support]
                    total = 0
                    for r1, p2, pc in firsts:
                        row = table[p2]
                        part = 0
                        for r2, q2, qc in seconds:
                            yv = y[r1 + r2 + row[q2]]
                            if yv:
                                part += qc * yv
                        total += pc * part
                    _require(total == 0,
                             "certificate fails y.A = 0 at column %r"
                             % ((t1, t2, t3, t4),))


# ---------------------------------------------------------------------------
# the quantum side
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def central_eigenvalue(n, m):
    """sum_{i=0..n} q^((n - 2i)(m + 1)) as {power of v: coefficient}, q = v^2."""
    out = {}
    for i in range(n + 1):
        e = 2 * (n - 2 * i) * (m + 1)
        out[e] = out.get(e, 0) + 1
    return out


def ratfun_equals_laurent(text, laurent):
    num, den = parse_ratfun(text)
    shift = -min(min(laurent), 0)
    poly = [Fraction(0)] * (max(laurent) + shift + 1)
    for e, c in laurent.items():
        poly[e + shift] += c
    lhs = [Fraction(0)] * shift + list(num)
    return _trim(lhs) == _trim(_poly_mul(den, poly))


def check_spectrum(n, m, matrix):
    """module(m).act(c_q(n)) is the scalar matrix of the expected eigenvalue."""
    _require(len(matrix) == m + 1 and all(len(r) == m + 1 for r in matrix),
             "act(c_q(%d)) on module(%d) is not %d x %d" % (n, m, m + 1, m + 1))
    value = central_eigenvalue(n, m)
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if i == j:
                _require(ratfun_equals_laurent(entry, value),
                         "eigenvalue of c_q(%d) on module(%d) is %s"
                         % (n, m, entry))
            else:
                _require(not any(parse_ratfun(entry)[0]),
                         "act(c_q(%d)) on module(%d) is not diagonal" % (n, m))
