"""Parameterizing and searching the space of admissible two-slot tensors.

Tensors commuting with every g (x) g form a linear space with a canonical
basis of diagonal-conjugation orbit sums; its dimension is counted twice
(orbit enumeration, and union-find components of the conditions for the
generators) and the counts must agree.  On that coordinate space the
character-multiplicativity requirement becomes a finite system of
quadratic equations.  Its rows, the images of the basis under the transfer
for each pair of characters, are taken once per group; the polynomial
system is built from them, also once per group, only where it is read.

Three search strategies share one outcome type:

* verify_only re-runs the full predicate stack on one supplied candidate;
* random_sampling draws small-height rational coordinate vectors from a
  seeded generator in blocks, drops the draws that fail the quadratic
  system modulo a prime (int64 arrays over integral rows), filters the
  rest exactly over the rows, checks each survivor against the polynomial
  system and fully re-verifies it, after first trying the known
  structured constructions (unit, bicharacter pair, the symmetric-group
  family);
* groebner runs a capped completion on the system, optionally extended by
  a t*det - 1 equation encoding bijectivity for very small groups, and
  reports infeasibility only on a certified reduction of 1.

No strategy ever trusts its own algebra: every candidate that reaches the
outcome is re-verified through the independent predicates.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import (
    InternalError,
    PreconditionError,
    StrategyError,
    VariantError,
)
from .exact.polysys import Poly, PolySystem, buchberger
from .exact.scalars import Frozen
from .groups import Group, diagonal_conjugation_orbits
from .hopf import AlgebraElement, TensorElement, convolve
from .reps import character_table
from .transfer import (
    PCandidate,
    bicharacter_r,
    in_a,
    in_m0,
    p_from_r,
    phi,
    phi_rank,
    s3_family,
    unit_p,
)

_F1 = Fraction(1)


class ABasis(Frozen):
    """Orbit-sum basis of the commutant of all g (x) g."""

    __slots__ = ("group", "orbits", "elements", "names")

    def __init__(self, group: Group, orbits, elements, names):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "orbits", tuple(orbits))
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "names", tuple(names))

    def __len__(self):
        return len(self.elements)

    def to_tensor(self, coords) -> TensorElement:
        if len(coords) != len(self.elements):
            raise PreconditionError("coordinate count mismatch")
        terms = {}
        for c, orbit in zip(coords, self.orbits):
            if c:
                for pair in orbit:
                    terms[pair] = c
        return TensorElement(self.group, 2, terms)


def _kernel_dimension(group: Group) -> int:
    """Dimension of the g (x) g commutant, as a count of graph components.

    Commuting with s (x) s equates the coefficients of (a, b) and of
    (s a s^-1, s b s^-1).  Each such condition is an incidence row, so over
    the generators the kernel dimension is the number of connected
    components of those edges on G x G, counted here by union-find.
    """
    n = group.order
    parent = list(range(n * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n * n
    for s in group.gens:
        conj = [group.conjugate(s, a) for a in range(n)]
        for a in range(n):
            base = conj[a] * n
            for b in range(n):
                x, y = find(a * n + b), find(base + conj[b])
                if x != y:
                    parent[x] = y
                    components -= 1
    return components


@lru_cache(maxsize=None)
def a_basis(group: Group) -> ABasis:
    """Orbit-sum basis, cross-counted against the commutant dimension."""
    orbits = diagonal_conjugation_orbits(group)
    elements = []
    names = []
    for orbit in orbits:
        elements.append(TensorElement(group, 2,
                                      {pair: _F1 for pair in orbit}))
        names.append("c[%d,%d]" % orbit[0])
    kernel_dim = _kernel_dimension(group)
    if kernel_dim != len(orbits):
        raise InternalError(
            "commutant dimension %d disagrees with orbit count %d"
            % (kernel_dim, len(orbits)))
    return ABasis(group, orbits, elements, names)


# ---------------------------------------------------------------------------
# the quadratic constraint system
# ---------------------------------------------------------------------------

def _rows(element: AlgebraElement):
    """(g, c) rows of an algebra element, with an int c where integral."""
    return tuple((g, c.numerator if isinstance(c, Fraction)
                  and c.denominator == 1 else c)
                 for g, c in element.terms.items())


@lru_cache(maxsize=None)
def _pair_tables(group: Group):
    """Per irrep pair: rows of the images of the basis under the three maps.

    For the pair (V, W) multiplicativity of the transfer on characters
    reads (sum x_k u_k) * (sum x_l w_l) = sum x_k L_k in kG, with
    u_k = phi(B_k, z_V), w_k = phi(B_k, z_W), L_k = phi(B_k, z_V z_W).
    Each image is a tuple of (g, c) rows, with an int c where it is
    integral, so products are plain scalar sums over the group table.
    The images u and w are taken once per character and shared by pairs.
    """
    basis = a_basis(group)
    table = character_table(group)
    images = [tuple(_rows(phi(b, chi)) for b in basis.elements)
              for _, chi in table]
    out = []
    for i, (_, zv) in enumerate(table):
        for j in range(i, len(table)):
            zvw = convolve(zv, table[j][1])
            out.append((images[i], images[j],
                        tuple(_rows(phi(b, zvw)) for b in basis.elements)))
    return tuple(out)


@lru_cache(maxsize=None)
def assemble_constraints(group: Group) -> PolySystem:
    """Quadratic equations for character multiplicativity in orbit coords.

    For each irrep pair and each group element g, the equation is the
    g-coefficient of (sum x_k u_k)(sum x_l w_l) - sum x_k L_k, read off the
    rows of `_pair_tables`; each product u_k w_l is taken once and feeds
    the equations of all its terms.
    """
    basis = a_basis(group)
    d = len(basis)
    n = group.order
    mul = group.table
    linear = [tuple(1 if t == k else 0 for t in range(d)) for k in range(d)]
    quadratic = [[tuple(a + b for a, b in zip(mk, ml)) for ml in linear]
                 for mk in linear]
    polys = []
    for us, ws, ls in _pair_tables(group):
        equations = [[] for _ in range(n)]
        for k, u in enumerate(us):
            for l, w in enumerate(ws):
                product = {}
                for a, x in u:
                    row = mul[a]
                    for b, y in w:
                        g = row[b]
                        s = product.get(g)
                        product[g] = x * y if s is None else s + x * y
                mono = quadratic[k][l]
                for g, c in product.items():
                    if c:
                        equations[g].append((mono, c))
            for g, c in ls[k]:
                equations[g].append((linear[k], -c))
        for terms in equations:
            poly = Poly(d, terms)
            if poly:
                polys.append(poly)
    return PolySystem(basis.names, polys)


def _violates(group: Group, point) -> bool:
    """Whether the point a/b, for each (a, b) of point, fails the system.

    D is the lcm of the denominators b and n_k = x_k D.  The equations
    multiplied by D^2 read (sum n_k u_k)(sum n_l w_l) = D sum n_k L_k, so
    every verdict is the same, and on integral rows the test runs over
    exact integers.  A coordinate that is not rational is (x, 1).
    """
    scale = lcm(*(b for _, b in point))
    numerators = [a * (scale // b) for a, b in point]
    table = group.table
    n = group.order

    def combination(images):
        out = [0] * n
        for x, rows in zip(numerators, images):
            if x:
                for g, c in rows:
                    out[g] += x * c
        return out

    for us, ws, ls in _pair_tables(group):
        left, right = combination(us), combination(ws)
        product = [0] * n
        for a, x in enumerate(left):
            if x:
                row = table[a]
                for b, y in enumerate(right):
                    if y:
                        product[row[b]] += x * y
        if product != [scale * c for c in combination(ls)]:
            return True
    return False


# ---------------------------------------------------------------------------
# the random draws and their filter modulo a prime
# ---------------------------------------------------------------------------

_BLOCK = 128
# the filter's prime, 2^31 - 1: residues below 2^31, products below 2^62
_P = 2**31 - 1
# every denominator divides D = lcm(1..20) < 2^28, so |n_k| = |a| D/b < 2^33
# for |a| <= 20; sum_k n_k c_kg then stays below 2^63 when
# sum_k |c_kg| < 2^30
_D = lcm(*range(1, 21))
_COLUMN_BOUND = 2**30


def _taken(top):
    """Indices of the words that randint takes, given each word's top byte.

    With t = word >> 26 = top >> 2, a numerator takes the first word with
    t < 41 (top <= 163), then a denominator the first with t < 40
    (top < 160).  Every kept word (t <= 40) is taken but a t = 40 that
    falls to a denominator.  After a t = 40 comes a denominator's word,
    taken or not, and each word taken flips the role; so a t = 40 is
    dropped when its distance, in kept words, to the t = 40 before it is
    odd (the first one, when its index is odd).
    """
    kept = np.flatnonzero(top <= 163)
    forty = np.flatnonzero(top[kept] >= 160)
    return np.delete(kept, forty[np.diff(forty, prepend=-2) % 2 == 1])


def _draw_blocks(rng, d, count):
    """The draws of d (numerator, denominator) pairs, in blocks of arrays.

    This follows CPython's randint algorithm: randint(a, b) is a + r for
    the first r = getrandbits(k) below b - a + 1, k the bit length of that
    width, and getrandbits(k), k <= 32, is the top k bits of one 32-bit
    word of the generator.  So a numerator is -20 + (top >> 2) and a
    denominator 1 + (top >> 3), over the top bytes of the words `_taken`
    picks.  getrandbits(32 m) is the next m words, the first in the
    lowest bits, so each block is read off a chunk of words, and the top
    bytes it leaves start the next block.  Yields (numerators,
    denominators), int64 arrays of shape (m, d), m = _BLOCK but for the
    last; their rows are the draws [(rng.randint(-20, 20),
    rng.randint(1, 20)) for _ in range(d)], in order.  The generator is
    read past the last draw, so its state afterwards is not the one those
    randint calls leave.
    """
    top = b""
    for start in range(0, count, _BLOCK):
        need = 2 * d * min(_BLOCK, count - start)
        while len(taken := _taken(np.frombuffer(top, np.uint8))) < need:
            # a value takes 64/41 or 64/40 words on average: ask for 13/8
            m = (need - len(taken)) * 13 // 8 + 64
            top += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        values = np.frombuffer(top, np.uint8)[taken[:need]].astype(np.int64)
        top = top[taken[need - 1] + 1:]
        values = values.reshape(-1, d, 2)
        yield (values[:, :, 0] >> 2) - 20, (values[:, :, 1] >> 3) + 1


@lru_cache(maxsize=None)
def _modp_tables(group: Group):
    """`_pair_tables` as int64 arrays for the filter modulo p, or None.

    Per pair, the images u, w and L as (d, |G|) arrays, one array per
    image that pairs share, and the index J with J[a, g] = a^-1 g, so
    (left * right)[g] = sum_a left[a] right[J[a, g]].  None when a row is
    not an int (a cyclotomic table) or the absolute values of a column
    of an image sum to _COLUMN_BOUND.
    """
    n = group.order
    arrays = {}
    for images in itertools.chain.from_iterable(_pair_tables(group)):
        if id(images) in arrays:
            continue
        m = np.zeros((len(images), n), dtype=np.int64)
        column = [0] * n
        for k, rows in enumerate(images):
            for g, c in rows:
                if type(c) is not int:
                    return None
                column[g] += abs(c)
                if column[g] >= _COLUMN_BOUND:
                    return None
                m[k, g] = c
        arrays[id(images)] = m
    pairs = tuple(tuple(arrays[id(images)] for images in triple)
                  for triple in _pair_tables(group))
    index = np.zeros((n, n), dtype=np.intp)
    for a, row in enumerate(group.table):
        index[a, list(row)] = np.arange(n)
    return index, pairs


def _modp_alive(group: Group, numerators, denominators):
    """Indices of the draws that satisfy the system modulo the prime _P.

    The equations read as in `_violates`, cleared by D = _D for every
    draw: D < _P is invertible modulo _P, so a draw that satisfies the
    system over Q does too, and only draws that `_violates` would reject
    are dropped.  n_k = a_k D/b_k is exact in int64, and so is each
    combination under _COLUMN_BOUND; the convolution multiplies residues
    below 2^31 and sums |G| of them, reduced.  Without int tables every
    draw is kept.
    """
    tables = _modp_tables(group)
    alive = np.arange(len(numerators))
    if tables is None:
        return alive
    index, pairs = tables
    nums = numerators * (_D // denominators)
    for us, ws, ls in pairs:
        terms = (nums @ ws % _P)[:, index]
        terms *= (nums @ us % _P)[:, :, None]
        terms %= _P
        product = terms.sum(axis=1) % _P
        ok = (product == nums @ ls % _P * _D % _P).all(axis=1)
        alive, nums = alive[ok], nums[ok]
        if not len(alive):
            break
    return alive


# ---------------------------------------------------------------------------
# search strategies
# ---------------------------------------------------------------------------

class SearchOutcome(Frozen):
    """Verdict plus everything needed to reproduce and audit the run."""

    __slots__ = ("verdict", "candidates", "samples", "survivors", "log",
                 "certificate")

    def __init__(self, verdict, candidates=(), samples=0, survivors=0,
                 log=(), certificate=None):
        if verdict not in ("SolutionsFound", "NoneFoundBounded",
                           "ProvedInfeasible"):
            raise InternalError("unknown verdict %r" % verdict)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "candidates", tuple(candidates))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(self, "log", tuple(log))
        object.__setattr__(self, "certificate", certificate)

    def to_json(self) -> dict:
        from .hopf import tensor_to_json

        return {
            "verdict": self.verdict,
            "samples": self.samples,
            "survivors": self.survivors,
            "log": list(self.log),
            "candidates": [{"note": c.note,
                            "tensor": tensor_to_json(c.tensor)}
                           for c in self.candidates],
            "certificate": self.certificate,
        }


def full_verify(cand) -> tuple:
    """The predicate stack every reported candidate must pass."""
    t = cand.tensor if isinstance(cand, PCandidate) else cand
    failed = []
    if not in_a(t):
        failed.append("admissibility")
    if not in_m0(t):
        failed.append("character multiplicativity")
    if phi_rank(t) != t.group.order:
        failed.append("bijectivity")
    return not failed, tuple(failed)


def _is_abelian(group: Group) -> bool:
    n = group.order
    return all(group.table[a][b] == group.table[b][a]
               for a in range(n) for b in range(a))


def _structured_candidates(group: Group):
    """Known constructions worth trying before random draws."""
    found = []
    log = []
    if group.order == 1:
        found.append(unit_p(group))
        log.append("structured: unit tensor on the trivial group")
    if _is_abelian(group) and group.order > 1:
        try:
            cand = p_from_r(TensorElement.unit(group, 2),
                            bicharacter_r(group), AlgebraElement.one(group))
            found.append(PCandidate(cand.tensor, "bicharacter"))
            log.append("structured: bicharacter pair candidate")
        except (PreconditionError, VariantError) as exc:
            log.append("structured: bicharacter unavailable (%s)" % exc)
    if group.descriptor == {"kind": "symmetric", "n": 3}:
        for lam, mu in ((_F1, _F1), (Fraction(2), Fraction(3))):
            found.append(s3_family(lam, mu))
        log.append("structured: two points of the two-parameter family")
    return found, log


def _require(condition, message):
    if not condition:
        raise StrategyError(message)


def search(group: Group, strategy: str, *, candidate=None, count=None,
           seed=17, degree_cap=6, step_cap=2000) -> SearchOutcome:
    """Search for bijective strongly multiplicative admissible tensors.

    random_sampling draws count points from random.Random(seed), d
    (numerator, denominator) pairs each, by `_draw_blocks` in blocks of
    _BLOCK.  `_modp_alive` drops the draws of a block that fail the
    system modulo a prime; each remaining draw, in order, goes to the
    exact `_violates`, and each survivor of that to the polynomial system
    and `full_verify`.  A bool is no integer argument here.
    """
    for name, value in (("count", count), ("seed", seed),
                        ("degree_cap", degree_cap), ("step_cap", step_cap)):
        _require(not isinstance(value, bool),
                 "%s must be an integer, not a bool" % name)
    if strategy == "verify_only":
        _require(candidate is not None,
                 "verify_only needs a candidate tensor")
        tens = candidate.tensor if isinstance(candidate, PCandidate) \
            else candidate
        _require(isinstance(tens, TensorElement) and tens.arity == 2,
                 "verify_only needs a two-slot tensor")
        _require(tens.group == group,
                 "candidate lives over a different group")
        ok, failed = full_verify(tens)
        note = candidate.note if isinstance(candidate, PCandidate) \
            else "supplied"
        if ok:
            return SearchOutcome(
                "SolutionsFound", [PCandidate(tens, note)], samples=1,
                survivors=1, log=("verify_only: all predicates pass",))
        return SearchOutcome(
            "NoneFoundBounded", samples=1, survivors=0,
            log=("verify_only: failed " + ", ".join(failed),))

    if strategy == "random_sampling":
        _require(isinstance(count, int) and count > 0,
                 "random_sampling needs a positive draw count")
        _require(isinstance(seed, int), "the seed must be an integer")
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
        survivors = 0
        for nums, dens in _draw_blocks(random.Random(seed), len(basis),
                                       count):
            for i in _modp_alive(group, nums, dens):
                # (numerator, denominator) draws; Fractions only for
                # survivors
                draw = list(zip(nums[i].tolist(), dens[i].tolist()))
                if _violates(group, draw):
                    continue
                survivors += 1
                point = [Fraction(a, b) for a, b in draw]
                # the system is built only once a draw survives
                if not assemble_constraints(group).satisfied_by(point):
                    raise InternalError(
                        "fast filter and polynomial system disagree")
                cand = PCandidate(basis.to_tensor(point), "random draw")
                ok, failed = full_verify(cand)
                if ok:
                    candidates.append(cand)
                else:
                    log.append("random survivor failed "
                               + ", ".join(failed))
        log.append("random stage: %d draws, %d survivors" % (count,
                                                             survivors))
        verdict = "SolutionsFound" if candidates else "NoneFoundBounded"
        return SearchOutcome(verdict, candidates, samples=count,
                             survivors=survivors, log=log)

    if strategy == "groebner":
        _require(isinstance(degree_cap, int) and degree_cap > 0,
                 "degree_cap must be a positive integer")
        _require(isinstance(step_cap, int) and step_cap > 0,
                 "step_cap must be a positive integer")
        polys, encoding = _groebner_polys(group)
        result = buchberger(polys, degree_cap=degree_cap, step_cap=step_cap)
        log = [encoding, "completion status: %s after %d steps"
               % (result.status, result.steps)]
        if result.status == "proved_infeasible":
            return SearchOutcome(
                "ProvedInfeasible", certificate={"status": result.status,
                                                 "steps": result.steps},
                log=log)
        return SearchOutcome("NoneFoundBounded", log=log)

    raise StrategyError("unknown strategy %r" % strategy)


def _groebner_polys(group: Group):
    """The polynomials the groebner strategy completes, and the log line
    saying how bijectivity enters them."""
    basis = a_basis(group)
    system = assemble_constraints(group)
    if group.order > 4:
        return (list(system.polys),
                "bijectivity left as a side condition (determinant too large)")
    d = len(basis)
    polys = [_lift_poly(p, d + 1) for p in system.polys]
    det = _symbolic_transfer_determinant(group, basis)
    tvar = Poly.variable(d, d + 1)
    polys.append(tvar * _lift_poly(det, d + 1) - 1)
    return polys, "bijectivity encoded through t*det - 1"


def _lift_poly(p: Poly, nvars: int) -> Poly:
    """Re-index a polynomial into a larger variable set (same order)."""
    if p.nvars > nvars:
        raise InternalError("cannot shrink the variable set")
    pad = nvars - p.nvars
    return Poly(nvars, {mono + (0,) * pad: c for mono, c in p.terms.items()})


def _symbolic_transfer_determinant(group: Group, basis: ABasis) -> Poly:
    """det of the transfer matrix with orbit-coordinate entries."""
    n = group.order
    d = len(basis)
    lookup = {}
    for k, orbit in enumerate(basis.orbits):
        for pair in orbit:
            lookup[pair] = k
    entries = [[Poly.variable(lookup[(c, r)], d) for c in range(n)]
               for r in range(n)]
    acc = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = None
        for r in range(n):
            f = entries[r][perm[r]]
            term = f if term is None else term * f
        term = term * Fraction(sign)
        acc = term if acc is None else acc + term
    return acc
