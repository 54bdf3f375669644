"""The benchmark's output checks accept real outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py

Real outputs come from the package in ``src/``, serialized the way
`worker.py` serializes them; each corruption changes one entry.
"""

import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from peterweyl.exact.scalars import scalar_to_str  # noqa: E402
from peterweyl.groups import parse_group  # noqa: E402
from peterweyl.hopf import TensorElement, tensor_from_json, tensor_to_json  # noqa: E402
from peterweyl.transfer import PCandidate, s3_family, solve_t  # noqa: E402
from peterweyl.uqsl2 import c_q, module  # noqa: E402


def _bicharacter(token):
    group = parse_group(token)
    doc = worker.bicharacter_doc(group, 1)["tensor"]
    return group, doc, tensor_from_json(doc)


def _replace_term(doc, index, text):
    terms = [list(t) for t in doc["terms"]]
    terms[index][-1] = text
    return dict(doc, terms=terms)


@pytest.mark.parametrize("token", ["Z2xZ2", "Z3"])
def test_factorization_tensor(token):
    group, p_doc, p = _bicharacter(token)
    t_doc = tensor_to_json(solve_t(PCandidate(p)))
    p_terms = checks.tensor_terms(p_doc, 2)
    checks.check_t(group.table, p_terms, checks.tensor_terms(t_doc, 4))
    entry = t_doc["terms"][0][-1]
    bumped = scalar_to_str(tensor_from_json(t_doc).terms[
        tuple(t_doc["terms"][0][:-1])] + 1)
    assert bumped != entry
    with pytest.raises(checks.CheckError):
        checks.check_t(group.table, p_terms, checks.tensor_terms(
            _replace_term(t_doc, 0, bumped), 4))


def test_infeasibility_certificate():
    group = parse_group("Z3")
    p = TensorElement(group, 2, {(0, 0): Fraction(1), (1, 1): Fraction(1)})
    certificate = [scalar_to_str(y) for y in solve_t(PCandidate(p)).certificate]
    p_terms = checks.tensor_terms(tensor_to_json(p), 2)
    checks.check_certificate(group.table, p_terms, certificate)
    for i, y in enumerate(certificate):
        changed = list(certificate)
        changed[i] = scalar_to_str(Fraction(y) + 1)
        with pytest.raises(checks.CheckError):
            checks.check_certificate(group.table, p_terms, changed)


def test_bicharacter_input_matches_the_package():
    for token in ("Z3", "Z4", "Z2xZ2", "Z2xZ2xZ2"):
        from peterweyl.transfer import bicharacter_r

        assert _bicharacter(token)[2] == bicharacter_r(parse_group(token))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 4)])
def test_central_eigenvalue(n, m):
    rows = [[scalar_to_str(x) for x in row]
            for row in module(m).act(c_q(n)).rows]
    checks.check_spectrum(n, m, rows)
    num, den = checks.parse_ratfun(rows[0][0])
    times_q = "[%s]/[%s]@v" % (",".join(["0/1", "0/1"] + [
        "%d/%d" % (c.numerator, c.denominator) for c in num]), ",".join(
        "%d/%d" % (c.numerator, c.denominator) for c in den))
    for i in range(m + 1):
        corrupted = [list(r) for r in rows]
        corrupted[i][i] = times_q
        with pytest.raises(checks.CheckError):
            checks.check_spectrum(n, m, corrupted)


def test_admissibility():
    table = parse_group("S3").table
    doc = tensor_to_json(s3_family(Fraction(2), Fraction(3)).tensor)
    checks.check_admissible(table, checks.tensor_terms(doc, 2))
    bumped = scalar_to_str(Fraction(doc["terms"][5][-1]) + 1)
    with pytest.raises(checks.CheckError):
        checks.check_admissible(
            table, checks.tensor_terms(_replace_term(doc, 5, bumped), 2))
    _, z4_doc, _ = _bicharacter("Z4")
    checks.check_admissible(parse_group("Z4").table,
                            checks.tensor_terms(z4_doc, 2))
    with pytest.raises(checks.CheckError):
        checks.check_admissible(table, {(1, 2): Fraction(1)})


def test_rank_and_block_dimensions():
    table = parse_group("S3").table
    for lam, mu, full in ((2, 3, True), (0, 1, False), (1, 0, False)):
        doc = tensor_to_json(s3_family(Fraction(lam), Fraction(mu)).tensor)
        rank = checks.transfer_rank(6, checks.tensor_terms(doc, 2))
        assert (rank == 6) == full
    checks.check_block_dims(table, [1, 1, 4])
    with pytest.raises(checks.CheckError):
        checks.check_block_dims(table, [1, 1, 2, 2])
    _, z3_doc, _ = _bicharacter("Z3")
    assert checks.transfer_rank(3, checks.tensor_terms(z3_doc, 2)) == 3
