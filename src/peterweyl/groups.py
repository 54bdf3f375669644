"""Finite groups given by multiplication tables.

A Group stores its complete multiplication table over element indices
0..N-1, with the identity always at index 0.  Concrete families (symmetric,
dihedral, cyclic, products) are realized explicitly and then flattened to
tables, so everything downstream is table-only and family-agnostic.

Every group carries one generating set, ``gens``: the listed generators of
a family, or for a custom table the elements picked greedily (each one the
first element not yet reached).  Every check that needs to hold on all of G
runs over that set only.  Associativity is Light's test, (a s) b = a (s b)
for all a, b and each generator s: the elements s passing it are closed
under products, so a generating set that passes proves the whole table.

Display names come from shortest generator words found by breadth-first
search, with runs compressed (x*x*x prints as x^3).

A group equals, and hashes as, its canonical descriptor key.  The family
constructors and ``product`` are memoized with ``functools.lru_cache``, so
equal inputs give one object and ``cyclic.cache_info()`` reports the hits.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from functools import lru_cache

from .errors import InternalError, PreconditionError
from .exact.scalars import Frozen


class Group(Frozen):
    """A finite group as an immutable multiplication table."""

    __slots__ = ("name", "order", "table", "inv", "elements", "generators",
                 "gens", "descriptor", "key")

    def __init__(self, name: str, table, generators=(), descriptor=None):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise PreconditionError("multiplication table must be square")
        for row in table:
            if any(not 0 <= x < n for x in row):
                raise PreconditionError("table entry out of range")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "generators", tuple(generators))
        if descriptor is None:
            descriptor = {"kind": "table", "table": [list(r) for r in table]}
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "key", _descriptor_key(descriptor))
        self._check_axioms()
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0:
                    inv[i] = j
                    break
        object.__setattr__(self, "inv", tuple(inv))
        object.__setattr__(self, "elements",
                           tuple(self._names_from_words()))

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def _check_axioms(self):
        n, t = self.order, self.table
        for i in range(n):
            if t[0][i] != i or t[i][0] != i:
                raise PreconditionError("index 0 is not an identity")
            if len(set(t[i])) != n or len({t[j][i] for j in range(n)}) != n:
                raise PreconditionError("table is not a latin square")
        if self.generators:
            gens = tuple(gi for gi, _ in self.generators)
            if len(self._reached(gens)) != n:
                raise PreconditionError("listed generators do not generate")
        else:
            gens = ()
            reached = {0}
            for x in range(n):
                if x not in reached:
                    gens += (x,)
                    reached = self._reached(gens)
        object.__setattr__(self, "gens", gens)
        for s in gens:
            row_s = t[s]
            for a in range(n):
                row_a = t[a]
                if t[row_a[s]] != tuple(row_a[y] for y in row_s):
                    raise PreconditionError("table is not associative")

    def _reached(self, gens):
        """Elements e s1 s2 ... sk, every word in gens multiplied left to right."""
        reached = {0}
        queue = deque([0])
        while queue:
            cur = self.table[queue.popleft()]
            for gi in gens:
                nxt = cur[gi]
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
        return reached

    def _names_from_words(self):
        n = self.order
        names = [None] * n
        names[0] = "e"
        if not self.generators:
            return ["e"] + ["g%d" % i for i in range(1, n)]
        words = {0: []}
        queue = deque([0])
        while queue:
            cur = queue.popleft()
            for gi, gname in self.generators:
                nxt = self.table[cur][gi]
                if nxt not in words:
                    words[nxt] = words[cur] + [gname]
                    queue.append(nxt)
        for i, word in words.items():
            if i == 0:
                continue
            # run-length compress: x,x,x prints as x^3
            bits = []
            j = 0
            while j < len(word):
                k = j
                while k < len(word) and word[k] == word[j]:
                    k += 1
                bits.append(word[j] if k - j == 1
                            else "%s^%d" % (word[j], k - j))
                j = k
            names[i] = "*".join(bits)
        return names

    # -- arithmetic ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.inv[i]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inv[g]]

    def centralizer_size(self, i: int) -> int:
        return sum(1 for h in range(self.order)
                   if self.table[h][i] == self.table[i][h])

    @lru_cache(maxsize=None)
    def conjugacy_classes(self):
        """Partition of 0..N-1 into conjugation orbits, canonically sorted."""
        seen = [False] * self.order
        classes = []
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = {self.conjugate(g, x) for g in range(self.order)}
            for y in orbit:
                seen[y] = True
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: c[0])
        return tuple(classes)

    def __repr__(self):
        return "Group(%s, order=%d)" % (self.name, self.order)


def _descriptor_key(descriptor: dict) -> str:
    """Canonical JSON of a descriptor: equal groups have equal keys."""
    return json.dumps(descriptor, sort_keys=True)


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symmetric(n: int) -> Group:
    """S_n as permutations in lexicographic order; (sigma tau)(x) = sigma(tau(x))."""
    if not 1 <= n <= 5:
        raise PreconditionError("symmetric(n) supports 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms]
             for p in perms]
    gens = []
    for k in range(n - 1):
        s = list(range(n))
        s[k], s[k + 1] = s[k + 1], s[k]
        gens.append((index[tuple(s)], "s%d" % (k + 1)))
    return Group("S%d" % n, table, generators=gens,
                 descriptor={"kind": "symmetric", "n": n})


@lru_cache(maxsize=None)
def dihedral(n: int) -> Group:
    """D_n of order 2n: rotations r^i and reflections r^i s."""
    if not 1 <= n <= 8:
        raise PreconditionError("dihedral(n) supports 1 <= n <= 8")

    def idx(i, j):
        return j * n + i

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, j1 ^ j2)
    gens = [(idx(0, 1), "s")] if n == 1 else [(idx(1, 0), "r"),
                                              (idx(0, 1), "s")]
    return Group("D%d" % n, table, generators=gens,
                 descriptor={"kind": "dihedral", "n": n})


@lru_cache(maxsize=None)
def cyclic(n: int) -> Group:
    """Z_n as residues under addition."""
    if not 1 <= n <= 12:
        raise PreconditionError("cyclic(n) supports 1 <= n <= 12")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [(1, "x")] if n > 1 else []
    return Group("Z%d" % n, table, generators=gens,
                 descriptor={"kind": "cyclic", "n": n})


_FAMILIES = {"symmetric": symmetric, "dihedral": dihedral, "cyclic": cyclic}


def _named_gens(g: Group):
    """(index, name) for each element of g.gens.

    A family lists its named generators; a custom table names its greedy
    generators by their display names.
    """
    return g.generators or tuple((gi, g.elements[gi]) for gi in g.gens)


@lru_cache(maxsize=None)
def product(g: Group, h: Group) -> Group:
    """Direct product; element (a, b) has index a*|H| + b."""
    if g.order * h.order > 120:
        raise PreconditionError("product order above 120 is unsupported")
    nh = h.order
    table = [[g.table[a1][a2] * nh + h.table[b1][b2]
              for a2 in range(g.order) for b2 in range(nh)]
             for a1 in range(g.order) for b1 in range(nh)]
    used = {name for _, name in _named_gens(g)}
    gens = [(gi * nh, name) for gi, name in _named_gens(g)]
    for hi, name in _named_gens(h):
        while name in used:
            name = name + "'"
        used.add(name)
        gens.append((hi, name))
    return Group("%sx%s" % (g.name, h.name), table, generators=gens,
                 descriptor={"kind": "product",
                             "factors": [g.descriptor, h.descriptor]})


def from_descriptor(desc: dict) -> Group:
    """Rebuild a group from its JSON descriptor."""
    if not isinstance(desc, dict):
        raise PreconditionError("group descriptor must be a JSON object")
    kind = desc.get("kind")
    if kind in _FAMILIES:
        # an exact int: the memo would take True or 3.0 for 1 or 3
        if type(desc["n"]) is not int:
            raise PreconditionError("descriptor size n must be an integer")
        return _FAMILIES[kind](desc["n"])
    if kind == "product":
        f = desc["factors"]
        if len(f) != 2:
            raise PreconditionError("product descriptor needs two factors")
        return product(from_descriptor(f[0]), from_descriptor(f[1]))
    if kind == "table":
        return Group("custom", desc["table"])
    raise PreconditionError("unknown group descriptor kind %r" % kind)


def parse_group(token: str) -> Group:
    """Parse a compact token such as S3, D4, Z5, or Z2xZ2."""
    factors = []
    for part in token.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in "SDZ" or not part[1:].isdigit():
            raise PreconditionError(
                "cannot parse group token %r (expected S/D/Z + digits)" % token)
        n = int(part[1:])
        factors.append({"S": symmetric, "D": dihedral, "Z": cyclic}[part[0]](n))
    out = factors[0]
    for f in factors[1:]:
        out = product(out, f)
    return out


# ---------------------------------------------------------------------------
# conjugation combinatorics
# ---------------------------------------------------------------------------

def diagonal_conjugation_orbits(g: Group):
    """Orbits of G acting on G x G by simultaneous conjugation.

    The orbit count is cross-checked against the independent character-free
    count (1/|G|) * sum_g |C(g)|^2 from counting fixed pairs.
    """
    n = g.order
    seen = [[False] * n for _ in range(n)]
    orbits = []
    for a in range(n):
        for b in range(n):
            if seen[a][b]:
                continue
            orbit = {(g.conjugate(c, a), g.conjugate(c, b)) for c in range(n)}
            for x, y in orbit:
                seen[x][y] = True
            orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    expected = sum(g.centralizer_size(c) ** 2 for c in range(n)) // n
    if len(orbits) != expected:
        raise InternalError(
            "orbit count %d disagrees with fixed-point count %d"
            % (len(orbits), expected))
    return tuple(orbits)
