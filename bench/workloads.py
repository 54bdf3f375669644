"""The three workloads as plain data: set-up recipe and operation list.

`plan(workload, seed)` returns the operations one round runs, in order.
Each operation is a dict with

* ``kind``: the end-to-end timing bucket it adds to (``verify_s`` ...);
* ``label``: a name unique within the round, also the artifact file name;
* ``call``: ``cli`` (``peterweyl.cli.main(argv)``), ``solve_t`` or ``act``;
* the call's inputs, and ``expect``: what the independent checks require.

Nothing here imports the package, so `run.py` can check a round's outputs
against the plan without loading the program it measures.
"""

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("group-transfer", "search", "uq-center")

# Groups whose tables, classes and irreps a workload builds during set-up.
SETUP_GROUPS = {
    "group-transfer": ("S3", "Z3", "Z4", "Z2xZ2", "Z2xZ2xZ2"),
    "search": ("Z2xZ2", "S3", "D4", "D6"),
    "uq-center": (),
}

# Bicharacter candidates: group token -> orders of its cyclic factors.
BICHAR_GROUPS = {"Z3": (3,), "Z4": (4,), "Z2xZ2": (2, 2),
                 "Z2xZ2xZ2": (2, 2, 2)}

# Parameter values at which a coefficient of the S3 family vanishes; a
# seeded point avoids them so every seed builds a tensor of the same shape.
_LAMBDA_SPECIAL = {Fraction(0), Fraction(1), Fraction(-1)}
_MU_SPECIAL = {Fraction(0), Fraction(-1), Fraction(1, 2)}


def _rational(rng, avoid):
    while True:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 5))
        if x not in avoid:
            return x


def _s3_points(rng):
    return [(_rational(rng, _LAMBDA_SPECIAL), _rational(rng, _MU_SPECIAL))
            for _ in range(2)]


def _fmt(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def bichar_exponent(token: str, seed: int) -> int:
    """Exponent k of the bicharacter beta_k(a, b) = zeta^(k a.b).

    k is a unit modulo the exponent of the group, so beta_k is
    nondegenerate; the seed chooses among the units.
    """
    orders = BICHAR_GROUPS[token]
    exponent = max(orders)
    units = [k for k in range(1, exponent) if gcd(k, exponent) == 1]
    return random.Random("%d/%s" % (seed, token)).choice(units)


def _cli(kind, label, argv, expect):
    return {"kind": kind, "label": label, "call": "cli", "argv": argv,
            "expect": expect}


def _group_transfer(seed):
    rng = random.Random(seed)
    points = _s3_points(rng)
    ops = []
    family_points = points + [(Fraction(0), Fraction(1)),
                              (Fraction(1), Fraction(0))]
    for i, (lam, mu) in enumerate(family_points):
        bijective = lam != 0 and mu != 0
        # s3_family(0, 1) is multiplicative on characters but not on the
        # component pair; every other point passes A, M and M0.
        rc = 1 if (lam, mu) == (0, 1) else 0
        ops.append(_cli("verify_s", "verify-s3-%d" % i,
                        ["verify", "--group", "S3", "--family", "s3",
                         "--lambda=" + _fmt(lam), "--mu=" + _fmt(mu)],
                        {"rc": rc, "rank": "full" if bijective else "deficient"}))
    for i, (lam, mu) in enumerate(points):
        ops.append(_cli("decompose_s", "decompose-s3-%d" % i,
                        ["decompose", "--group", "S3", "--family", "s3",
                         "--lambda=" + _fmt(lam), "--mu=" + _fmt(mu)],
                        {"rc": 0}))
    for token in BICHAR_GROUPS:
        p_file = "{out}/bichar-%s.json" % token
        ops.append(_cli("verify_s", "verify-%s" % token,
                        ["verify", "--group", token, "--p-file", p_file,
                         "--require", "A,M,M0,full-rank,center-image"],
                        {"rc": 0, "rank": "full"}))
        ops.append(_cli("decompose_s", "decompose-%s" % token,
                        ["decompose", "--group", token, "--p-file", p_file],
                        {"rc": 0}))
    for i, (lam, mu) in enumerate(points):
        ops.append({"kind": "solve_t_infeasible_s",
                    "label": "solve_t-s3-%d" % i, "call": "solve_t",
                    "group": "S3", "family": [_fmt(lam), _fmt(mu)],
                    "expect": {"feasible": False}})
    for token in ("Z2xZ2", "Z3", "Z4"):
        ops.append({"kind": "solve_t_feasible_s",
                    "label": "solve_t-%s" % token, "call": "solve_t",
                    "group": token, "p_file": "{out}/bichar-%s.json" % token,
                    "expect": {"feasible": True}})
    return ops


# (group, draw count): the random strategy finds the structured solutions on
# Z2xZ2 and S3, none on D4 and D6.  D6 (order 12) is there for its set-up
# cost: its orbit basis and constraint assembly dominate the command.  S4
# would cost about 24 s in one operation, too long to repeat a round within
# a run and take a median.
RANDOM_SEARCHES = (("Z2xZ2", 1000), ("S3", 300), ("D4", 1000), ("D6", 100))
# Small explicit caps: the default caps do not finish in minutes.
GROEBNER_SEARCHES = (("Z2xZ2", 2, 20), ("S3", 2, 20))


def _search(seed):
    ops = []
    for token, count in RANDOM_SEARCHES:
        found = token in ("Z2xZ2", "S3")
        ops.append(_cli("search_random_s", "random-%s" % token,
                        ["search", "--group", token, "--strategy", "random",
                         "--count", str(count), "--seed", str(seed)],
                        {"verdict": "SolutionsFound" if found
                         else "NoneFoundBounded",
                         "survivors": None if found else 0}))
    for token, degree_cap, step_cap in GROEBNER_SEARCHES:
        ops.append(_cli("search_groebner_s", "groebner-%s" % token,
                        ["search", "--group", token, "--strategy",
                         "groebner", "--degree-cap", str(degree_cap),
                         "--step-cap", str(step_cap)],
                        {"not_verdict": "ProvedInfeasible",
                         "solved_by": "random-%s" % token}))
    return ops


# n = 3 skips the product and commutant checks: together they take about
# 30 s, which would make one round longer than every other workload's.
UQ_CENTER_CHECKS = ((1, "all"), (2, "all"), (3, "central,component"))
SPECTRUM_PAIRS = tuple((n, m) for n in range(4) for m in range(5))


def _uq_center(seed):
    ops = [_cli("uq_center_s", "uq-center-%d" % n,
                ["uq", "center", "--n", str(n), "--check", names],
                {"rc": 0}) for n, names in UQ_CENTER_CHECKS]
    pairs = list(SPECTRUM_PAIRS)
    random.Random(seed).shuffle(pairs)
    for n, m in pairs:
        ops.append({"kind": "spectrum_s", "label": "act-%d-%d" % (n, m),
                    "call": "act", "n": n, "m": m,
                    "expect": {"n": n, "m": m}})
    return ops


def plan(workload: str, seed: int):
    if workload == "group-transfer":
        return _group_transfer(seed)
    if workload == "search":
        return _search(seed)
    if workload == "uq-center":
        return _uq_center(seed)
    raise ValueError("unknown workload %r (known: %s)"
                     % (workload, ", ".join(WORKLOADS)))


# A run does at least this many rounds, then more while another round of
# typical length still ends within --seconds.  search and uq-center rounds
# are short (about 10 s and 7 s) and their time varies from round to round,
# so their medians take three and four.
MIN_ROUNDS = {"group-transfer": 1, "search": 3, "uq-center": 4}

KINDS = {
    "group-transfer": ("verify_s", "decompose_s", "solve_t_infeasible_s",
                       "solve_t_feasible_s"),
    "search": ("search_random_s", "search_groebner_s"),
    "uq-center": ("uq_center_s", "spectrum_s"),
}
