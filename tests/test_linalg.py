"""Linear algebra tests: RREF canonicality, both solve routes, subspaces."""

import random
from fractions import Fraction
from itertools import chain, islice
from math import lcm
from operator import mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peterweyl.errors import DimensionError, InternalError
from peterweyl.exact import linalg
from peterweyl.exact.linalg import (
    Infeasible,
    LinearSolution,
    Matrix,
    Subspace,
    _dot,
    _modp_echelon,
    _modp_read,
    _prime_window,
    _primes31,
    _rat_reconstruct,
    _solve_exact,
    nullspace,
    rref,
    solve_linear,
)
from peterweyl.exact.scalars import Cyclotomic, RatFun

from _gen import rand_frac, rand_nonzero_frac
from _modules import is_prime, reference_modp_echelon


def F(a, b=1):
    return Fraction(a, b)


def check_solution(A_rows, b, res):
    """Exact validity of the particular solution or the certificate."""
    if isinstance(res, Infeasible):
        y = res.certificate
        for j in range(len(A_rows[0])):
            assert _dot(y, [r[j] for r in A_rows]) == 0
        assert _dot(y, b) == 1
        return "infeasible"
    assert isinstance(res, LinearSolution)
    for row, bi in zip(A_rows, b):
        assert _dot(row, res.particular) == bi
    return "feasible"


# ---------------------------------------------------------------------------
# small frozen systems
# ---------------------------------------------------------------------------

def test_unique_solution_2x2():
    res = solve_linear([[1, 2], [3, 4]], [5, 6])
    assert isinstance(res, LinearSolution)
    assert res.particular == (F(-4), F(9, 2))
    assert nullspace([[1, 2], [3, 4]], 2) == ()


def test_infeasible_2x2():
    res = solve_linear([[1, 1], [1, 1]], [1, 2])
    assert isinstance(res, Infeasible)
    y = res.certificate
    assert _dot(y, [1, 1]) == 0 and _dot(y, [1, 1]) == 0
    assert _dot(y, [1, 2]) == 1


def test_underdetermined_canonical_particular():
    # one equation, three unknowns: free coordinates stay zero
    res = solve_linear([[2, 4, 6]], [2])
    assert res.particular == (F(1), F(0), F(0))
    assert nullspace([[2, 4, 6]], 3) == ((F(-2), F(1), F(0)),
                                         (F(-3), F(0), F(1)))


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace([], 3) == ((F(1), F(0), F(0)),
                                (F(0), F(1), F(0)),
                                (F(0), F(0), F(1)))
    assert nullspace([], 0) == ()


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_FIELDS = {
    "Q": _small,
    "Q(zeta5)": st.lists(_small, min_size=4, max_size=4).map(
        lambda c: Cyclotomic(5, c)),
    "Q(v)": st.builds(RatFun, st.lists(_small, min_size=1, max_size=3),
                      st.lists(_small, min_size=1, max_size=2).filter(any)),
}


@st.composite
def _kernel_systems(draw):
    """Rows over one field, with zero entries, repeated rows and zero rows."""
    field = draw(st.sampled_from(sorted(_FIELDS)))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(F(0)), _small, _FIELDS[field])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=4))
    extra = draw(st.lists(st.one_of(
        st.just(None), st.integers(0, max(len(rows) - 1, 0))), max_size=3))
    for k in extra:
        rows.append([F(0)] * n if k is None or not rows else list(rows[k]))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n


@given(_kernel_systems())
def test_nullspace_is_one_vector_per_free_column(system):
    rows, n = system
    def rank(k):
        return Matrix([r[:k] for r in rows]).rank() if rows else 0

    basis = nullspace(rows, n)
    assert len(basis) == n - rank(n)
    # column c is free when it lies in the span of the columns before it
    free = [c for c in range(n) if rank(c + 1) == rank(c)]
    for f, v in zip(free, basis):
        assert len(v) == n
        assert [v[c] for c in free] == [int(c == f) for c in free]
        for row in rows:
            assert _dot(row, v) == 0


def test_nullspace_rejects_a_wrong_column_count():
    with pytest.raises(DimensionError):
        nullspace([[F(1), F(2), F(3)], [F(2), F(4), F(6)]], 4)


def test_zero_rows_and_dimension_errors():
    res = solve_linear([], [])
    assert res.particular == ()
    with pytest.raises(DimensionError):
        solve_linear([[1, 2]], [1, 2])
    with pytest.raises(DimensionError):
        solve_linear([[1, 2], [1]], [1, 2])
    with pytest.raises(DimensionError):
        rref([[1, 2], [1]])


def test_solve_over_cyclotomic_field():
    i = Cyclotomic.zeta(4)
    res = solve_linear([[i, 1], [1, -i]], [1, -i])
    # second row is -i times the first, so one free variable remains
    assert len(nullspace([[i, 1], [1, -i]], 2)) == 1
    check = check_solution([[i, 1], [1, -i]], [Cyclotomic.of(4, 1), -i], res)
    assert check == "feasible"


def test_solve_over_ratfun_field():
    v = RatFun.gen()
    res = solve_linear([[v, 1], [0, v]], [v * v + 1, v])
    assert res.particular == (v, RatFun.of(1))
    assert nullspace([[v, 1], [0, v]], 2) == ()


# ---------------------------------------------------------------------------
# rref canonicality
# ---------------------------------------------------------------------------

def test_rref_known_form():
    rows, pivots = rref([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert pivots == (0, 1)
    assert rows[0] == (F(1), F(0), F(-1))
    assert rows[1] == (F(0), F(1), F(2))
    assert rows[2] == (F(0), F(0), F(0))
    # a float equals the Fraction it rounds to, so check the types too
    assert all(type(x) is not float for row in rows for x in row)


def test_rref_invariant_under_row_operations():
    rng = random.Random(201)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rand_frac(rng, 9) for _ in range(n)] for _ in range(m)]
        base, base_piv = rref(rows)
        # scale rows, shuffle them, add multiples of one row to another
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            c = rand_frac(rng, 5)
            if i != j:
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            else:
                s = rand_nonzero_frac(rng, 5)
                mixed[i] = [s * a for a in mixed[i]]
        rng.shuffle(mixed)
        again, again_piv = rref(mixed)
        assert again_piv == base_piv
        assert again[: len(base_piv)] == base[: len(base_piv)]


# ---------------------------------------------------------------------------
# random sweeps of solve_linear
# ---------------------------------------------------------------------------

def test_solve_random_sweep_rational():
    rng = random.Random(202)
    feasible = infeasible = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rand_frac(rng, 6) for _ in range(n)] for _ in range(m)]
        b = [rand_frac(rng, 6) for _ in range(m)]
        res = solve_linear(rows, b)
        kind = check_solution(rows, b, res)
        if kind == "feasible":
            feasible += 1
            A = Matrix(rows)
            assert len(nullspace(rows, n)) == n - A.rank()
        else:
            infeasible += 1
    assert feasible > 0 and infeasible > 0


def test_solve_forced_inconsistency():
    rng = random.Random(203)
    for _ in range(100):
        n = rng.randint(1, 5)
        row = [rand_frac(rng, 6) for _ in range(n)]
        if not any(row):
            row[0] = F(1)
        scale = rand_nonzero_frac(rng, 5)
        rows = [row, [scale * x for x in row]]
        b = [F(1), scale + 1]  # second entry off by one, impossible
        res = solve_linear(rows, b)
        assert check_solution(rows, b, res) == "infeasible"


def test_consistent_by_construction_sweep():
    rng = random.Random(204)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rand_frac(rng, 6) for _ in range(n)] for _ in range(m)]
        x0 = [rand_frac(rng, 6) for _ in range(n)]
        b = [_dot(r, x0) for r in rows]
        res = solve_linear(rows, b)
        assert check_solution(rows, b, res) == "feasible"


# ---------------------------------------------------------------------------
# modular route: primes, reconstruction, agreement with the exact route
# ---------------------------------------------------------------------------

def _forbid_exact_route(monkeypatch):
    """Make solve_linear fail unless _solve_modular gives the answer."""
    def exact(rows, b):
        raise AssertionError("solve_linear fell back to the exact route")

    monkeypatch.setattr(linalg, "_solve_exact", exact)


def _primes_from_window(i):
    """A stream of the primes from window i on, in place of _primes31."""
    return lambda: chain.from_iterable(map(_prime_window, range(i, i + 9)))


def test_prime_list_is_prime_distinct_descending():
    # the first 600 primes span the first three windows
    primes = list(islice(_primes31(), 600))
    assert len(_prime_window(0)) + len(_prime_window(1)) < 600
    assert len(set(primes)) == 600
    assert all(a > b for a, b in zip(primes, primes[1:]))
    assert primes[0] == 2**31 - 1
    # the stream is the descending run of primes below 2^31, so the sieve
    # skips none, across the window boundaries too: Miller-Rabin on every
    # odd number builds it again
    reference = [c for c in range(2**31 - 1, primes[-1] - 1, -2)
                 if is_prime(c)]
    assert primes == reference
    # its first 220 are the fixed table that the route drew from before
    assert primes[219] == 2147478919
    for p in primes[:10]:
        d = 3
        assert p % 2
        while d * d <= p:
            assert p % d
            d += 2


def test_prime_stream_ends_at_two_to_the_thirty():
    last = -(-2**30 // linalg._PRIME_WINDOW) - 1
    lo = 2**31 - (last + 1) * linalg._PRIME_WINDOW
    assert lo < 2**30 < lo + linalg._PRIME_WINDOW
    window = _prime_window(last)
    assert list(window) == [c for c in range(lo + linalg._PRIME_WINDOW - 1,
                                             2**30, -2) if is_prime(c)]
    assert window[-1] == 2**30 + 3


def test_rational_reconstruction_round_trip():
    rng = random.Random(205)
    m = 1
    for p in islice(_primes31(), 3):
        m *= p
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        residue = x.numerator * pow(x.denominator, -1, m) % m
        assert _rat_reconstruct(residue, m) == x


def _random_big_system(rng, m, n, feasible):
    rows = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
    if feasible:
        x0 = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [_dot(r, x0) for r in rows]
    else:
        rows[m - 1] = list(rows[0])
        b = [F(rng.randint(-9, 9)) for _ in range(m)]
        b[m - 1] = b[0] + 1
    return rows, b


def test_small_rational_systems_take_the_modular_route(monkeypatch):
    # every all-Fraction system is solved modulo primes, however small,
    # with the same canonical answer as the exact route
    _forbid_exact_route(monkeypatch)
    rng = random.Random(211)
    systems = [([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(2)]),
               ([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(3)]),
               ([[F(0), F(0)]], [F(0)]),
               # integer rows past int64, reduced modulo p one by one
               ([[F(2**70), F(1)], [F(1), F(0)]], [F(3), F(2**64)]),
               ([[F(2**63 - 1), F(1, 3)], [F(2**64 - 2), F(2, 3)]],
                [F(1), F(3)]),
               ([[F(2**62 + 1)]], [F(1)])]
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        systems.append(([[rand_frac(rng, 6) for _ in range(n)]
                         for _ in range(m)],
                        [rand_frac(rng, 6) for _ in range(m)]))
    kinds = set()
    for rows, b in systems:
        fast = solve_linear(rows, b)
        slow = _solve_exact(rows, b)
        kinds.add(check_solution(rows, b, fast))
        assert type(fast) is type(slow)
        if isinstance(fast, Infeasible):
            assert fast.certificate == slow.certificate
        else:
            assert fast.particular == slow.particular
    assert kinds == {"feasible", "infeasible"}


def _int_systems(rng):
    """Small integer systems, feasible and not, with entries near int64's
    end and a zero column."""
    systems = [([[2**62, 1], [1, 0]], [3, 5]),
               ([[1, 2], [2, 4]], [1, 3]),
               ([[0, 0, 0]], [0]),
               ([[-(2**63) + 1, 7]], [2**40])]
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            rows.append([a + c for a, c in zip(rows[0], rows[-1])])
        systems.append((rows, [rng.randint(-9, 9) for _ in rows]))
    return systems


def test_int64_arrays_take_the_modular_route(monkeypatch):
    # an int64 array with int b is already cleared: same answer as its
    # rows as Fractions, and no exact route
    systems = _int_systems(random.Random(212))
    want = [_solve_exact([[F(x) for x in r] for r in rows], [F(x) for x in b])
            for rows, b in systems]
    _forbid_exact_route(monkeypatch)
    kinds = set()
    for (rows, b), slow in zip(systems, want):
        fast = solve_linear(np.array(rows, dtype=np.int64), b)
        kinds.add(check_solution([[F(x) for x in r] for r in rows],
                                 [F(x) for x in b], fast))
        assert type(fast) is type(slow)
        if isinstance(fast, Infeasible):
            assert fast.certificate == slow.certificate
        else:
            assert fast.particular == slow.particular
    assert kinds == {"feasible", "infeasible"}


def test_int64_array_answer_does_not_depend_on_the_primes(monkeypatch):
    # from a later window on the stream gives other primes, and the same
    # answers as the exact route
    systems = _int_systems(random.Random(213))
    want = [_solve_exact([[F(x) for x in r] for r in rows], [F(x) for x in b])
            for rows, b in systems]
    _forbid_exact_route(monkeypatch)
    monkeypatch.setattr(linalg, "_primes31", _primes_from_window(3))
    for (rows, b), slow in zip(systems, want):
        fast = solve_linear(np.array(rows, dtype=np.int64), b)
        assert type(fast) is type(slow)
        values = (fast.certificate if isinstance(fast, Infeasible)
                  else fast.particular)
        assert all(type(v) is Fraction for v in values)
        assert values == (slow.certificate if isinstance(slow, Infeasible)
                          else slow.particular)


def _counting_eliminations(monkeypatch):
    modp_echelon = linalg._modp_echelon
    primes = []

    def counting(M, p):
        primes.append(p)
        return modp_echelon(M, p)

    monkeypatch.setattr(linalg, "_modp_echelon", counting)
    return primes


def test_a_prime_dividing_a_pivot_is_displaced(monkeypatch):
    # modulo p = 2^31 - 1 the system [p 0] x = 1 looks infeasible with the
    # same number of pivots; the next prime shows the earlier pivot, and
    # 1/p needs three primes to reconstruct
    _forbid_exact_route(monkeypatch)
    primes = _counting_eliminations(monkeypatch)
    p = 2**31 - 1
    assert solve_linear([[p, 0]], [1]).particular == (F(1, p), F(0))
    assert len(primes) <= 5
    assert solve_linear(np.array([[p, 0]], dtype=np.int64),
                        [1]).particular == (F(1, p), F(0))


def test_more_primes_are_drawn_until_the_candidate_verifies(monkeypatch):
    # 2^2170 + 1 needs about 140 primes; the try after 128 fails and the
    # next one, after 256, succeeds
    _forbid_exact_route(monkeypatch)
    primes = _counting_eliminations(monkeypatch)
    x = 2**2170 + 1
    assert solve_linear([[1]], [x]).particular == (x,)
    assert len(primes) <= 256
    assert primes == list(islice(_primes31(), len(primes)))


def test_useless_primes_raise_internal_error(monkeypatch):
    # every prime of the stream divides the only pivot, or the stream ends
    # before the answer can be reconstructed
    _forbid_exact_route(monkeypatch)
    p, q, r = islice(_primes31(), 3)
    monkeypatch.setattr(linalg, "_primes31", lambda: iter([p, q, r]))
    with pytest.raises(InternalError):
        solve_linear([[p * q * r, 0]], [1])
    monkeypatch.setattr(linalg, "_primes31", lambda: islice(_primes31(), 20))
    with pytest.raises(InternalError):
        solve_linear([[1]], [2**2170 + 1])


def test_int64_array_shape_is_checked():
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    with pytest.raises(DimensionError):
        solve_linear(A, [1])
    assert solve_linear(np.zeros((0, 3), dtype=np.int64), []).particular == ()


def test_python_int_systems_take_the_modular_route(monkeypatch):
    # rows of ints, alone or with Fraction rows, are rational systems: the
    # same answer as their Fraction copies, and no exact route
    systems = [([[1, 2], [3, 4]], [1, 2]),
               ([[1, 2], [2, 4]], [1, 3]),
               (Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]), [1, 0, 0])]
    want = [_solve_exact([[F(x) for x in r] for r in getattr(A, "rows", A)],
                         [F(x) for x in b]) for A, b in systems]
    _forbid_exact_route(monkeypatch)
    kinds = set()
    for (A, b), slow in zip(systems, want):
        fast = solve_linear(A, b)
        kinds.add(check_solution(getattr(A, "rows", A), b, fast))
        assert type(fast) is type(slow)
        if isinstance(fast, Infeasible):
            assert fast.certificate == slow.certificate
        else:
            assert fast.particular == slow.particular
    assert kinds == {"feasible", "infeasible"}


@st.composite
def _scaled_rational_systems(draw):
    """Rows of a rational (A | b), some infeasible, and for each row an int
    s_k that clears it."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        # a copy of a row with b shifted
        row = rows[draw(st.integers(0, m - 1))]
        rows.insert(draw(st.integers(0, m)), row[:-1] + [row[-1] + 1])
    factor = st.integers(1, 4) | st.integers(-4, -1)
    scales = [lcm(*(x.denominator for x in r)) * draw(factor) for r in rows]
    return rows, scales


@given(_scaled_rational_systems())
def test_fraction_rows_int_rows_and_int64_arrays_agree(system):
    # the system as Fraction rows, as int rows with row k scaled by s_k,
    # and as an int64 array of those int rows: one x, and a certificate y
    # of the Fraction rows is s_k y'_k for the certificate y' of the others
    rows, scales = system
    ints = [[int(x * s) for x in r] for r, s in zip(rows, scales)]
    A, b = [r[:-1] for r in rows], [r[-1] for r in rows]
    A_int, b_int = [r[:-1] for r in ints], [r[-1] for r in ints]
    with pytest.MonkeyPatch.context() as mp:
        _forbid_exact_route(mp)
        base = solve_linear(A, b)
        scaled = solve_linear(A_int, b_int)
        array = solve_linear(np.array(A_int, dtype=np.int64), b_int)
    check_solution(A, b, base)
    assert type(base) is type(scaled) is type(array)
    if isinstance(base, Infeasible):
        assert scaled.certificate == array.certificate
        assert base.certificate == tuple(
            map(mul, scales, scaled.certificate))
    else:
        assert base.particular == scaled.particular == array.particular


def test_modular_route_matches_reference_feasible(monkeypatch):
    _forbid_exact_route(monkeypatch)
    rng = random.Random(206)
    rows, b = _random_big_system(rng, 80, 124, feasible=True)
    fast = solve_linear(rows, b)
    assert check_solution(rows, b, fast) == "feasible"
    slow = _solve_exact([list(r) for r in rows], list(b))
    assert fast.particular == slow.particular


def test_modular_route_matches_reference_infeasible(monkeypatch):
    _forbid_exact_route(monkeypatch)
    rng = random.Random(207)
    rows, b = _random_big_system(rng, 80, 124, feasible=False)
    fast = solve_linear(rows, b)
    assert check_solution(rows, b, fast) == "infeasible"
    slow = _solve_exact([list(r) for r in rows], list(b))
    assert isinstance(slow, Infeasible)
    assert fast.certificate == slow.certificate


def test_modular_route_with_fractional_entries(monkeypatch):
    _forbid_exact_route(monkeypatch)
    rng = random.Random(208)
    m, n = 91, 110
    rows = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(m)]
    x0 = [F(rng.randint(-5, 5)) for _ in range(n)]
    b = [_dot(r, x0) for r in rows]
    res = solve_linear(rows, b)
    assert check_solution(rows, b, res) == "feasible"


def test_modular_route_itself_with_fractional_entries(monkeypatch):
    # with the exact route forbidden, a silent fall back to it cannot pass
    # for the modular route
    _forbid_exact_route(monkeypatch)
    rng = random.Random(209)
    m, n = 20, 500
    rows = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(m)]
    x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    b = [_dot(r, x0) for r in rows]
    fast = solve_linear(rows, b)
    assert check_solution(rows, b, fast) == "feasible"
    slow = _solve_exact(rows, b)
    assert fast.particular == slow.particular


def _pivot_counts(monkeypatch):
    """Record the number of pivots left of the row-tracking block of every
    elimination the modular route runs."""
    counts = []

    def counting(M, p):
        pivots = _modp_echelon(M, p)
        tracked_from = M.shape[1] - M.shape[0]
        counts.append(sum(c < tracked_from for c in pivots))
        return pivots

    monkeypatch.setattr(linalg, "_modp_echelon", counting)
    return counts


@pytest.mark.parametrize("feasible", [True, False])
def test_modular_route_survives_a_bad_first_prime(monkeypatch, feasible):
    # row 1 is row 0 plus p e_3 for the first prime p, so the rank drops
    # modulo p: the candidate tried after that one prime must be rejected
    # and the answer must still be the reference one
    p = next(_primes31())
    rng = random.Random(210)
    m, n = 80, 124
    rows = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
    rows[1] = list(rows[0])
    rows[1][3] += p
    if feasible:
        x0 = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [_dot(r, x0) for r in rows]
    else:
        rows[m - 1] = list(rows[0])
        b = [F(rng.randint(-9, 9)) for _ in range(m)]
        b[m - 1] = b[0] + 1
    _forbid_exact_route(monkeypatch)
    counts = _pivot_counts(monkeypatch)
    fast = solve_linear(rows, b)
    assert len(counts) >= 2 and counts[0] < counts[1]
    slow = _solve_exact(rows, b)
    if feasible:
        assert check_solution(rows, b, fast) == "feasible"
        assert fast.particular == slow.particular
    else:
        assert check_solution(rows, b, fast) == "infeasible"
        assert fast.certificate == slow.certificate


@pytest.mark.parametrize("feasible", [True, False])
def test_modular_route_rejects_an_answer_that_holds_only_modulo_p(
        monkeypatch, feasible):
    # p + 1 is 1 modulo the first prime p, so the candidate tried after one
    # prime (x = 1, or the certificate (-1, 1)) holds modulo p but not over
    # Q; verification must reject it, and more primes give the exact answer
    p = next(_primes31())
    if feasible:
        rows, b = [[F(1)]], [F(p + 1)]
    else:
        rows, b = [[F(1)], [F(p + 1)]], [F(0), F(1)]
    _forbid_exact_route(monkeypatch)
    counts = _pivot_counts(monkeypatch)
    fast = solve_linear(rows, b)
    assert len(counts) > 1
    if feasible:
        assert fast.particular == (F(p + 1),)
    else:
        assert fast.certificate == (F(-p - 1), F(1))
        assert fast.certificate == _solve_exact(rows, b).certificate


def _oracle_modp_rref(M, p):
    """The full-width elimination: every update rewrites whole rows."""
    m, n = M.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = (M[r] * pow(int(M[r, c]), p - 2, p)) % p
        colv = M[:, c].copy()
        colv[r] = 0
        nzr = np.nonzero(colv)[0]
        if nzr.size:
            M[nzr] = (M[nzr] - np.outer(colv[nzr], M[r])) % p
        pivots.append(c)
        r += 1
    return pivots


@st.composite
def _modp_matrices(draw):
    """A matrix mod p with zero columns, repeated rows and dependent rows."""
    p = draw(st.sampled_from([7, next(_primes31())]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    entry = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[c] = 0
    # each extra row is row i + k * row j; k = 0 repeats row i
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                           st.integers(0, m - 1),
                                           st.integers(0, p - 1)),
                                 max_size=4)):
        rows.append([(a + k * b) % p for a, b in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64), p


@st.composite
def _tracked_modp_systems(draw):
    """(A | b | I) mod p for A from ``_modp_matrices``, and whether A x = b
    is solvable: b is A x, and an unsolvable system also gets a copy of one
    row of (A | b) with b shifted, at a random position."""
    A, p = draw(_modp_matrices())
    rows = [list(map(int, r)) for r in A]
    x = draw(st.lists(st.integers(0, p - 1), min_size=A.shape[1],
                      max_size=A.shape[1]))
    rows = [r + [sum(map(mul, r, x)) % p] for r in rows]
    feasible = draw(st.booleans())
    if not feasible:
        i = draw(st.integers(0, len(rows) - 1))
        extra = rows[i][:-1] + [(rows[i][-1] + draw(st.integers(1, p - 1))) % p]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    m = len(rows)
    track = [r + [int(i == k) for k in range(m)] for i, r in enumerate(rows)]
    return np.array(track, dtype=np.int64), p, A.shape[1], feasible


@given(_tracked_modp_systems())
def test_modp_rref_matches_full_width_elimination(system):
    # forward elimination finds the pivots of the full RREF, and the vector
    # read off it is the RREF's certificate row or solution column
    M, p, n, feasible = system
    expect = M.copy()
    expect_pivots = _oracle_modp_rref(expect, p)
    pivots = _modp_echelon(M, p)
    assert pivots == expect_pivots
    k = sum(c <= n for c in pivots)
    assert (n not in pivots) == feasible
    if feasible:
        assert _modp_read(M, p, pivots, n) == expect[:k, n].tolist()
    else:
        assert _modp_read(M, p, pivots, n) == expect[k - 1, n + 1:].tolist()


@st.composite
def _wide_tracked_modp_systems(draw):
    """(A | b | I) mod p with up to 40 rows and 330 columns of A, so that
    the elimination crosses panels (64 columns) and, past 320 columns,
    chunks of the trailing update.  Hypothesis draws p, the shape, the
    density, runs of zero columns, a staircase of leading zeros, the
    extra rows (row i + k * row j; k = 0 repeats row i) and whether
    b = A x is solvable; a generator seeded by it draws the entries,
    weighted toward 0, 1 and p - 1, the row order and x."""
    p = draw(st.sampled_from([7, next(_primes31())]))
    m = draw(st.integers(1, 31))
    n = draw(st.integers(1, 120) | st.integers(280, 330))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.where(rng.random((m, n)) < 0.5, rng.integers(0, p, (m, n)),
                 np.array([0, 1, p - 1])[rng.integers(0, 3, (m, n))])
    A[rng.random((m, n)) > draw(st.sampled_from([0.05, 0.3, 1.0]))] = 0
    for start, width in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(1, 80)),
                                      max_size=3)):
        A[:, start:start + width] = 0
    if draw(st.booleans()):
        for row, lead in zip(A, rng.integers(0, n + 1, m)):
            row[:lead] = 0
    rows = A.tolist()
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                           st.integers(0, m - 1),
                                           st.integers(0, p - 1)),
                                 max_size=8)):
        rows.append([(a + k * b) % p for a, b in zip(rows[i], rows[j])])
    rows = [rows[i] for i in rng.permutation(len(rows))]
    x = rng.integers(0, p, n).tolist()
    rows = [r + [sum(map(mul, r, x)) % p] for r in rows]
    feasible = draw(st.booleans())
    if not feasible:
        i = draw(st.integers(0, len(rows) - 1))
        extra = rows[i][:-1] + [(rows[i][-1] + draw(st.integers(1, p - 1))) % p]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    m = len(rows)
    track = [r + [int(i == k) for k in range(m)] for i, r in enumerate(rows)]
    return np.array(track, dtype=np.int64), p, n, feasible


@given(_wide_tracked_modp_systems())
def test_blocked_modp_echelon_matches_one_pivot_at_a_time(system):
    # the panels and their trailing updates leave the pivots and every
    # entry of the elimination one pivot at a time, and the vector read
    # off it is the full RREF's
    M, p, n, feasible = system
    expect = M.copy()
    expect_pivots = reference_modp_echelon(expect, p)
    full = M.copy()
    full_pivots = _oracle_modp_rref(full, p)
    pivots = _modp_echelon(M, p)
    assert pivots == expect_pivots == full_pivots
    assert np.array_equal(M, expect)
    k = sum(c <= n for c in pivots)
    assert (n not in pivots) == feasible
    if feasible:
        assert _modp_read(M, p, pivots, n) == full[:k, n].tolist()
    else:
        assert _modp_read(M, p, pivots, n) == full[k - 1, n + 1:].tolist()


def test_modp_product_is_exact_at_the_float64_bound():
    # a full panel of the largest residue p - 1 times residues with the
    # largest high half (p - 1) and the largest low half (0x7ffeffff):
    # each float64 sum is then as large as the kernel ever makes it
    p = next(_primes31())
    G = np.full((2, linalg._PANEL), p - 1, dtype=np.int64)
    X = np.array([[p - 1, 2**31 - 2**16 - 1, 0, 1]] * linalg._PANEL,
                 dtype=np.int64)
    expect = [[sum(int(g) * int(x) for g, x in zip(row, col)) % p
               for col in X.T] for row in G]
    assert linalg._mulmod(G, X, p).tolist() == expect


# ---------------------------------------------------------------------------
# Matrix operations
# ---------------------------------------------------------------------------

def test_matrix_multiply_and_identity():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A * B == Matrix([[2, 1], [4, 3]])
    assert A * Matrix.identity(2) == A
    assert Matrix.identity(2) * A == A
    assert A.apply([1, 1]) == (F(3), F(7))
    assert A.trace() == 5


def test_matrix_rank_and_kron():
    A = Matrix([[1, 2], [2, 4]])
    assert A.rank() == 1
    B = Matrix([[1, 0], [0, 1]])
    K = A.kron(B)
    assert K.nrows == 4 and K.ncols == 4
    assert K.rank() == A.rank() * B.rank()
    assert K[0, 0] == 1 and K[0, 2] == 2 and K[2, 2] == 4


def test_matrix_kron_mixes_into_multiplication():
    rng = random.Random(209)
    for _ in range(25):
        A = Matrix([[rand_frac(rng, 5) for _ in range(2)] for _ in range(2)])
        B = Matrix([[rand_frac(rng, 5) for _ in range(2)] for _ in range(2)])
        C = Matrix([[rand_frac(rng, 5) for _ in range(2)] for _ in range(2)])
        D = Matrix([[rand_frac(rng, 5) for _ in range(2)] for _ in range(2)])
        assert (A * C).kron(B * D) == A.kron(B) * C.kron(D)


def test_matrix_shape_errors():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]).trace()


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def test_subspace_canonical_under_generator_changes():
    rng = random.Random(210)
    for _ in range(50):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        vecs = [[rand_frac(rng, 6) for _ in range(n)] for _ in range(k)]
        U = Subspace(n, vecs)
        # random invertible recombination of the generators
        mixed = []
        for _ in range(k + 2):
            coefs = [rand_frac(rng, 4) for _ in range(k)]
            mixed.append([sum((c * v[j] for c, v in zip(coefs, vecs)), F(0))
                          for j in range(n)])
        s = rand_nonzero_frac(rng, 4)
        mixed.extend([s * x for x in v] for v in vecs)
        rng.shuffle(mixed)
        W = Subspace(n, mixed)
        assert W == U


def test_subspace_membership():
    U = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert U.dim == 2
    assert U.contains([1, 1, 2])
    assert U.contains([2, -3, -1])
    assert not U.contains([0, 0, 1])
    assert U.contains_subspace(Subspace(3, [[1, 1, 2]]))
    assert not U.contains_subspace(Subspace(3, [[1, 1, 2], [0, 0, 1]]))
    V = Subspace(2, [[2, 1]])
    assert V.basis == ((F(1), F(1, 2)),)
    for W in (U, V):
        assert all(type(x) is not float for row in W.basis for x in row)


def test_subspace_sum_intersect_dimension_formula():
    rng = random.Random(211)
    for _ in range(60):
        n = rng.randint(2, 6)
        U = Subspace(n, [[rand_frac(rng, 5) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        W = Subspace(n, [[rand_frac(rng, 5) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        S = U.sum(W)
        I = U.intersect(W)
        assert U.dim + W.dim == S.dim + I.dim
        for v in I.basis:
            assert U.contains(v) and W.contains(v)
        assert S.contains_subspace(U) and S.contains_subspace(W)


def test_subspace_intersect_over_cyclotomic():
    i = Cyclotomic.zeta(4)
    one = Cyclotomic.of(4, 1)
    U = Subspace(2, [[one, i]])
    W = Subspace(2, [[i, -one]])  # i * (1, i), the same line
    assert U == W
    assert U.intersect(W).dim == 1
    X = Subspace(2, [[one, -i]])
    assert U.intersect(X).dim == 0
    assert U.sum(X).dim == 2


def test_subspace_trivial_cases():
    Z = Subspace(3)
    assert Z.dim == 0
    assert not Z.contains([1, 0, 0])
    assert Z.contains([0, 0, 0])
    full = Subspace(2, [[1, 0], [0, 1], [1, 1]])
    assert full.dim == 2
    assert full.intersect(Subspace(2, [[1, 7]])).dim == 1
