"""Tests for the command line entry point.

Independent oracles used here:

* exit codes and report fields are compared against the library
  predicates invoked directly in-process;
* artifact determinism is checked byte for byte on disk, and every
  artifact must feed back through the verify command unchanged.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peterweyl.cli import main, make_parser
from peterweyl.groups import cyclic, parse_group, symmetric
from peterweyl.hopf import tensor_to_json
from peterweyl.transfer import PCandidate, bicharacter_r, regular_p, unit_p
from peterweyl.uqsl2 import c_q


def _write_candidate(path, cand):
    doc = {"note": cand.note, "tensor": tensor_to_json(cand.tensor)}
    path.write_text(json.dumps(doc))
    return str(path)


def _read(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_family_passes(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--group", "S3", "--family", "s3",
                 "--lambda", "1/1", "--mu", "1/1", "--out", str(out)])
    assert code == 0
    doc = _read(out)
    assert doc["passed"] is True
    assert doc["report"]["A"] is True
    assert doc["report"]["M"] is True
    assert doc["report"]["M0"] is True
    assert doc["report"]["rank"] == 6
    assert doc["config"]["group"] == "S3"
    assert doc["version"]


def test_verify_degenerate_family_members(tmp_path):
    for lam, mu in (("0", "1"), ("1", "0")):
        out = tmp_path / ("v%s%s.json" % (lam, mu))
        code = main(["verify", "--group", "S3", "--family", "s3",
                     "--lambda", lam, "--mu", mu,
                     "--require", "A,M0", "--out", str(out)])
        assert code == 0
        doc = _read(out)
        assert doc["report"]["A"] is True
        assert doc["report"]["M0"] is True
        assert doc["report"]["rank"] < 6
        code = main(["verify", "--group", "S3", "--family", "s3",
                     "--lambda", lam, "--mu", mu,
                     "--require", "full-rank", "--out", str(out)])
        assert code == 1


def test_verify_regular_candidate_fails_with_witness(tmp_path):
    pfile = _write_candidate(tmp_path / "preg.json", regular_p(symmetric(3)))
    out = tmp_path / "r.json"
    code = main(["verify", "--group", "S3", "--p-file", pfile,
                 "--out", str(out)])
    assert code == 1
    doc = _read(out)
    assert doc["report"]["M"] is False
    assert ["sgn", "sgn"] in doc["report"]["M_witnesses"]


def test_verify_unit_on_trivial_group(tmp_path):
    pfile = _write_candidate(tmp_path / "unit.json", unit_p(cyclic(1)))
    assert main(["verify", "--group", "Z1", "--p-file", pfile,
                 "--out", str(tmp_path / "u.json")]) == 0


def test_verify_zero_tensor_is_pinned(tmp_path, capsys):
    # M0 asks only for a multiplicative, central image of the characters,
    # not for phi(eps) = 1, so the zero tensor passes the default checks
    # with rank 0
    pfile = tmp_path / "zero.json"
    pfile.write_text(json.dumps({"note": "zero", "tensor": {
        "group": {"kind": "cyclic", "n": 2}, "arity": 2, "terms": []}}))
    out = tmp_path / "z.json"
    assert main(["verify", "--group", "Z2", "--p-file", str(pfile),
                 "--out", str(out)]) == 0
    report = _read(out)["report"]
    assert report["A"] is True and report["M"] is True
    assert report["M0"] is True
    assert report["rank"] == 0
    assert main(["verify", "--group", "Z2", "--p-file", str(pfile),
                 "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "A=true" in text and "M=true" in text and "M0=true" in text
    assert "rank=0/2" in text


def test_verify_text_format(capsys):
    code = main(["verify", "--group", "S3", "--family", "s3",
                 "--lambda", "1", "--mu", "1", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "A=true" in out
    assert "rank=6/6" in out
    assert "result: PASS" in out


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_family_blocks(tmp_path):
    out = tmp_path / "d.json"
    code = main(["decompose", "--group", "S3", "--family", "s3",
                 "--lambda", "1", "--mu", "1", "--out", str(out)])
    assert code == 0
    doc = _read(out)
    assert sorted(doc["decomposition"]["dims"]) == [1, 1, 4]
    assert doc["decomposition"]["direct"] is True
    assert doc["decomposition"]["c_spans_center"] is True


def test_decompose_rejects_degenerate_candidate(tmp_path):
    code = main(["decompose", "--group", "S3", "--family", "s3",
                 "--lambda", "0", "--mu", "1",
                 "--out", str(tmp_path / "d.json")])
    assert code == 3


# sha256 of the `verify` and `decompose` artifacts of four S3-family
# points, the Z4 and Z2xZ2xZ2 bicharacters and regular_p(D6), whose
# M_witnesses must keep their order.  The candidate files are written into
# the working directory, so each config's p_file is a bare file name.  A
# None digest: the command exits 3 and writes no artifact.
TRANSFER_ARTIFACTS = {
    ("verify", "s3:-2/3:-2"): (
        0, "45070788f29b5713013782ff2f8327de5d14031e2f4b72130e597f0f61f286f8"),
    ("decompose", "s3:-2/3:-2"): (
        0, "7c5c5599266d2b1730cf97a6d00d35b3b32a893c518cc0255689371d72cb6311"),
    ("verify", "s3:7/2:-8"): (
        0, "6e9400a565b62fbddb2205c16cdd09dff4f1c518381e732e53e4926490e13e73"),
    ("decompose", "s3:7/2:-8"): (
        0, "75ad0834c11c0c9a911b785870017947bffe0b6241b76f3c1f82849c0cf34e22"),
    ("verify", "s3:0:1"): (
        1, "7ff002da6bb66374cc178481cb76e03b3a0f0dae4e4a03896fe2f984c73bd4f2"),
    ("decompose", "s3:0:1"): (3, None),
    ("verify", "s3:1:0"): (
        0, "0a0145f61cb10702ac137ecd4f535834e6ffbd21fec916ea298b9017eecee0d9"),
    ("decompose", "s3:1:0"): (3, None),
    ("verify", "bichar:Z4"): (
        0, "f7c6b6d2401605c12be11bc9746533a4269f766f801fa67d8d3fae51ac40444c"),
    ("decompose", "bichar:Z4"): (
        0, "406cf1dd84b1739cf2da6697a266ffd076db01405f5f2836760ad7b0842c8151"),
    ("verify", "bichar:Z2xZ2xZ2"): (
        0, "96112649ad07452af42f21b82d8a85190c0ab78bc883e9848cd91c9e46dec5d2"),
    ("decompose", "bichar:Z2xZ2xZ2"): (
        0, "4cf2faf486919253ada3f1ae139dbe20baf26373a6d53c1412f01bc36f90e510"),
    ("verify", "regular:D6"): (
        1, "74b7b919e5b5305effaf40f399d9dce97d63858c3669d72675f0fe1528053043"),
}


def _candidate_argv(source):
    """--group and the candidate of a pinned source, writing its --p-file."""
    kind, token, *point = source.split(":")
    if kind == "s3":
        return ["--group", "S3", "--family", "s3",
                "--lambda=" + token, "--mu=" + point[0]]
    grp = parse_group(token)
    cand = (PCandidate(bicharacter_r(grp), "bicharacter") if kind == "bichar"
            else regular_p(grp))
    pfile = "%s-%s.json" % (kind, token)
    with open(pfile, "w") as fh:
        fh.write(json.dumps({"note": cand.note,
                             "tensor": tensor_to_json(cand.tensor)}))
    return ["--group", token, "--p-file", pfile]


@pytest.mark.parametrize("command, source", list(TRANSFER_ARTIFACTS),
                         ids=["-".join(k) for k in TRANSFER_ARTIFACTS])
def test_transfer_artifacts_are_pinned(tmp_path, monkeypatch, command,
                                       source):
    monkeypatch.chdir(tmp_path)
    rc, digest = TRANSFER_ARTIFACTS[command, source]
    assert main([command, *_candidate_argv(source), "--out", "a.json"]) == rc
    out = tmp_path / "a.json"
    if digest is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_klein_four_finds_solutions(tmp_path):
    out = tmp_path / "s.json"
    code = main(["search", "--group", "Z2xZ2", "--strategy", "random",
                 "--count", "1000", "--seed", "17", "--out", str(out)])
    assert code == 0
    doc = _read(out)
    assert doc["outcome"]["verdict"] == "SolutionsFound"
    assert doc["outcome"]["candidates"]
    assert "seconds" not in doc["outcome"]


def test_search_dihedral_finds_nothing(tmp_path):
    out = tmp_path / "s.json"
    code = main(["search", "--group", "D4", "--strategy", "random",
                 "--count", "200", "--seed", "7", "--out", str(out)])
    assert code == 1
    doc = _read(out)
    assert doc["outcome"]["verdict"] == "NoneFoundBounded"
    assert doc["outcome"]["survivors"] == 0


@pytest.mark.parametrize("token, encoding", [
    ("Z2xZ2", "bijectivity encoded through t*det - 1"),
    ("S3", "bijectivity left as a side condition (determinant too large)"),
], ids=["Z2xZ2", "S3"])
def test_capped_groebner_search_stops_at_its_step_cap(tmp_path, token,
                                                      encoding):
    # the two capped completions of the benchmark's search workload
    out = tmp_path / "g.json"
    code = main(["search", "--group", token, "--strategy", "groebner",
                 "--degree-cap", "2", "--step-cap", "20", "--out", str(out)])
    assert code == 1
    outcome = _read(out)["outcome"]
    assert outcome["verdict"] == "NoneFoundBounded"
    assert outcome["log"] == [encoding,
                              "completion status: unknown after 21 steps"]


# sha256 of the artifact of `search --strategy random --seed 1` for the
# four random searches of the benchmark's search workload
RANDOM_SEARCH_ARTIFACTS = {
    ("Z2xZ2", 1000):
        "cdf487cf50321d6a57e47dcf4adc518777d678afb4f04fbc31e2c53660fab65b",
    ("S3", 300):
        "ede3bf18934244ab47005b36a0eb50ba52bc4b2218a6ec56886da049e6e981d3",
    ("D4", 1000):
        "92874d3b9c9f8bf3d64a0c02406c706b0e693b7e741e9ddc7b63819306b9045a",
    ("D6", 100):
        "8e325254a8fba763f5f7b7178d8e6338fcc4ff091ab1722f27e604f04deff10d",
}


@pytest.mark.parametrize("token, count", list(RANDOM_SEARCH_ARTIFACTS),
                         ids=[t for t, _ in RANDOM_SEARCH_ARTIFACTS])
def test_random_search_artifacts_are_pinned(tmp_path, token, count):
    out = tmp_path / "r.json"
    code = main(["search", "--group", token, "--strategy", "random",
                 "--count", str(count), "--seed", "1", "--out", str(out)])
    assert code == (0 if token in ("Z2xZ2", "S3") else 1)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == RANDOM_SEARCH_ARTIFACTS[token, count]


def test_search_verify_only_family():
    assert main(["search", "--group", "S3", "--strategy", "verify-only",
                 "--family", "s3", "--lambda", "1", "--mu", "1",
                 "--format", "text"]) == 0


# ---------------------------------------------------------------------------
# uq
# ---------------------------------------------------------------------------


def test_uq_center_product_check(tmp_path):
    out = tmp_path / "uq.json"
    code = main(["uq", "center", "--n", "1", "--check", "product",
                 "--out", str(out)])
    assert code == 0
    doc = _read(out)
    assert doc["checks"] == {"product": True}
    assert doc["element"] == c_q(1).to_json()


def test_uq_center_all_checks_small(tmp_path):
    out = tmp_path / "uq0.json"
    code = main(["uq", "center", "--n", "0", "--check", "all",
                 "--out", str(out)])
    assert code == 0
    doc = _read(out)
    assert doc["checks"] == {"central": True, "product": True,
                             "commutant": True, "component": True}


# sha256 of the artifact of the three `uq center` commands of the
# benchmark's uq-center workload, and of two larger ones
UQ_CENTER_ARTIFACTS = {
    (1, "all"):
        "4eea4820a0b0679e2f0bb06dcaacbfd96d106d69d3e89f9f8d79e7fbf06b4180",
    (2, "all"):
        "0c506024462d4b1186e4ee9a9886bbdf2918eee2d7c337054b933b9d821929ab",
    (3, "central,component"):
        "eb8da196c8cc1b88bcb55d12cb343ecd6de18d8b76b9888bfae1556e86b4abb9",
    # beyond the workload
    (4, "all"):
        "1eea3a29ce126a2395d48040c6b912327918a3a19e9468d58eaf34760b2cc5be",
    (5, "component"):
        "1e5397f2ae6a33fb783ce7885123ea4e1323398ef397a168c370b4e1582a2998",
}


@pytest.mark.parametrize("n, checks", list(UQ_CENTER_ARTIFACTS),
                         ids=["n%d" % n for n, _ in UQ_CENTER_ARTIFACTS])
def test_uq_center_artifacts_are_pinned(tmp_path, n, checks):
    out = tmp_path / "uq.json"
    code = main(["uq", "center", "--n", str(n), "--check", checks,
                 "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == UQ_CENTER_ARTIFACTS[n, checks]


def test_uq_center_check_list_must_name_a_check(tmp_path, capsys):
    for checks in (",", " , ", ""):
        out = tmp_path / "none.json"
        assert main(["uq", "center", "--n", "1", "--check", checks,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "input"
        assert not out.exists()


def test_uq_center_repeated_checks_run_once(tmp_path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["uq", "center", "--n", "1", "--check", "central",
                 "--out", str(once)]) == 0
    assert main(["uq", "center", "--n", "1", "--check", "central, central",
                 "--out", str(twice)]) == 0
    assert _read(twice)["config"]["check"] == ["central"]
    assert twice.read_bytes() == once.read_bytes()


# ---------------------------------------------------------------------------
# groups, artifacts, errors
# ---------------------------------------------------------------------------


def test_verify_require_list_must_name_a_predicate(tmp_path, capsys):
    for names in (",", " , ", ""):
        out = tmp_path / "none.json"
        assert main(["verify", "--group", "S3", "--family", "s3",
                     "--lambda", "0", "--mu", "1", "--require", names,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "input"
        assert not out.exists()


def test_verify_repeated_requirements_collapse(tmp_path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    argv = ["verify", "--group", "S3", "--family", "s3",
            "--lambda", "0", "--mu", "1"]
    assert main(argv + ["--require", "M0,A", "--out", str(once)]) == 0
    assert main(argv + ["--require", "M0, A,M0", "--out", str(twice)]) == 0
    assert _read(twice)["config"]["require"] == ["A", "M0"]
    assert twice.read_bytes() == once.read_bytes()


def test_groups_list(tmp_path):
    out = tmp_path / "g.json"
    assert main(["groups", "list", "--out", str(out)]) == 0
    rows = {r["token"]: r for r in _read(out)["groups"]}
    assert rows["S3"] == {"token": "S3", "order": 6, "classes": 3}
    assert rows["D4"] == {"token": "D4", "order": 8, "classes": 5}
    assert rows["Z2xZ2"]["order"] == 4


def test_artifacts_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--group", "S3", "--family", "s3",
            "--lambda", "2", "--mu", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_artifact_round_trips_through_verify(tmp_path):
    art = tmp_path / "art.json"
    assert main(["verify", "--group", "S3", "--family", "s3",
                 "--lambda", "5", "--mu", "7", "--out", str(art)]) == 0
    assert main(["verify", "--group", "S3", "--p-file", str(art),
                 "--out", str(tmp_path / "again.json")]) == 0


def test_input_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    unit = _write_candidate(tmp_path / "unit.json", unit_p(cyclic(1)))
    cases = [
        ["verify", "--group", "Q8", "--p-file", unit],
        ["verify", "--group", "S3", "--p-file", str(tmp_path / "nope.json")],
        ["verify", "--group", "S3", "--p-file", str(bad)],
        ["verify", "--group", "S3", "--p-file", unit],
        ["verify", "--group", "S3", "--family", "s3",
         "--lambda", "1", "--mu", "1", "--require", "shiny"],
        ["search", "--group", "S3", "--strategy", "psychic"],
        ["search", "--group", "S3", "--strategy", "random"],
        ["uq", "center", "--n", "-1"],
        ["verify", "--group", "S3", "--family", "s3"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["kind"] in ("input", "parse")


def test_shared_parser_keeps_the_error_paths(tmp_path, capsys):
    # main reuses one parser; usage errors, bad values and a good run
    # between them leave each error one JSON line and exit code 2
    assert make_parser() is make_parser()
    cases = [["verify", "--group", "S3", "--x-flag"],
             ["verify"],
             ["search", "--group", "S3", "--strategy", "random",
              "--count", "0"],
             ["verify", "--group", "S3", "--family", "s3",
              "--lambda", "1/0", "--mu", "1"],
             ["bogus"]]
    out = str(tmp_path / "groups.json")
    for _ in range(2):
        for argv in cases:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1, argv
            assert json.loads(captured.err)["error"]["kind"] == "input", argv
        assert main(["groups", "list", "--out", out]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field, value", [
    ("terms", [[0, 1, 5]]),
    ("group", "Z2"),
    ("arity", 2.5),
    ("terms", [[0.5, 0, "1/1"]]),
    ("terms", [[True, 0, "1/1"]]),
    ("terms", [[]]),
], ids=["number-coefficient", "string-descriptor", "fractional-arity",
        "fractional-index", "boolean-index", "empty-term"])
def test_malformed_p_file_exits_two(tmp_path, capsys, field, value):
    doc = tensor_to_json(unit_p(cyclic(2)).tensor)
    doc[field] = value
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(doc))
    assert main(["verify", "--group", "Z2", "--p-file", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"]["kind"] == "input"


def _z3_bicharacter_file(path, first):
    """P = (1/3) sum zeta^(ab) a (x) b on Z3, its (0, 0) coefficient as given."""
    coeff = ["1/3", "[0/1,1/3]@zeta(3)", "[0/1,0/1,1/3]@zeta(3)"]
    terms = [[a, b, coeff[a * b % 3]] for a in range(3) for b in range(3)]
    terms[0][2] = first
    path.write_text(json.dumps({"note": "bicharacter", "tensor": {
        "group": {"kind": "cyclic", "n": 3}, "arity": 2, "terms": terms}}))
    return str(path)


def test_rational_coefficient_from_another_cyclotomic_field(tmp_path):
    # 1/3 written in Q(zeta_5) is still the rational 1/3, so it joins the
    # Q(zeta_3) coefficients of the rest of the tensor
    docs = []
    for name, first in (("plain", "1/3"), ("mixed", "[1/3,0/1,0/1,0/1]@zeta(5)")):
        out = tmp_path / (name + "-v.json")
        pfile = _z3_bicharacter_file(tmp_path / (name + ".json"), first)
        assert main(["verify", "--group", "Z3", "--p-file", pfile,
                     "--require", "A,M,M0,full-rank,center-image",
                     "--out", str(out)]) == 0
        doc = _read(out)
        del doc["config"]["p_file"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["report"]["rank"] == 3


def test_out_into_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "v.json"
    assert main(["uq", "center", "--n", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["kind"] == "input"
    assert not out.parent.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# the comma-list contract of --require and --check
# ---------------------------------------------------------------------------

_LIST_COMMANDS = {
    "--require": (["verify", "--group", "S3", "--family", "s3",
                   "--lambda", "0", "--mu", "1"],
                  ("A", "M", "M0", "full-rank", "center-image")),
    "--check": (["uq", "center", "--n", "0"],
                ("central", "product", "commutant", "component", "all")),
}


@settings(max_examples=12)
@given(flag=st.sampled_from(sorted(_LIST_COMMANDS)),
       items=st.lists(st.sampled_from(
           ["A", "M0", "full-rank", "central", "product", "all", "",
            " ", "shiny", "a"]), max_size=4),
       spaced=st.booleans())
def test_comma_lists_run_or_fail_with_one_json_line(flag, items, spaced):
    argv, known = _LIST_COMMANDS[flag]
    text = (", " if spaced else ",").join(items)
    names = list(dict.fromkeys(i.strip() for i in items if i.strip()))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv + [flag, text])
    if not names or any(name not in known for name in names):
        assert code == 2
        assert stdout.getvalue() == ""
        err = stderr.getvalue()
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "input"
    else:
        assert code in (0, 1)
        assert stderr.getvalue() == ""
        config = json.loads(stdout.getvalue())["config"]
        if flag == "--require":
            assert config["require"] == sorted(names)
        else:
            assert config["check"] == sorted(
                known[:-1] if "all" in names else names)


# ---------------------------------------------------------------------------
# the usage-error part of the exit-code contract
# ---------------------------------------------------------------------------

_FAMILY = ["--family", "s3", "--lambda", "1", "--mu", "1"]
_COMMANDS = {
    "verify": ["verify", "--group", "S3"] + _FAMILY,
    "decompose": ["decompose", "--group", "S3"] + _FAMILY,
    "search": ["search", "--group", "S3", "--strategy", "random",
               "--count", "3"],
    "uq": ["uq", "center", "--n", "0"],
    "groups": ["groups", "list"],
}
_NOT_INTS = st.one_of(st.sampled_from(["1.5", "3e2", "0x4", "seven", "2 3"]),
                      st.text("abz.", min_size=1))


def _with_group(token):
    return st.sampled_from(["verify", "decompose", "search"]).map(
        lambda cmd: [token if a == "S3" else a for a in _COMMANDS[cmd]])


_BAD_ARGVS = st.one_of(
    # an integer option given something that is not an integer
    st.tuples(st.sampled_from(["--count", "--seed", "--degree-cap",
                               "--step-cap"]), _NOT_INTS).map(
        lambda fv: _COMMANDS["search"] + list(fv)),
    _NOT_INTS.map(lambda v: ["uq", "center", "--n", v]),
    # a search cap that is not positive, and a negative module label
    st.tuples(st.sampled_from(["--count", "--degree-cap", "--step-cap"]),
              st.integers(max_value=0)).map(
        lambda fv: _COMMANDS["search"] + [fv[0], str(fv[1])]),
    st.integers(max_value=-1).map(lambda n: ["uq", "center", "--n", str(n)]),
    # an unknown flag on any command, and an unknown command
    st.tuples(st.sampled_from(sorted(_COMMANDS)), st.text("abc")).map(
        lambda cs: _COMMANDS[cs[0]] + ["--x-" + cs[1]]),
    st.text("qwjk", min_size=1).map(lambda cmd: [cmd]),
    # a group token that names no supported group
    st.one_of(st.sampled_from(["Q8", "S6", "Z13", "D9", "Z2x", "k4", "x"]),
              st.text("QKz0x", min_size=1)).flatmap(_with_group),
)


@settings(max_examples=30)
@given(argv=_BAD_ARGVS)
def test_usage_errors_exit_two_with_one_json_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "artifact.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", out])
        assert code == 2, argv
        assert stdout.getvalue() == ""
        err = stderr.getvalue()
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err)["error"]["kind"] in ("input", "parse")
        assert os.listdir(tmp) == []
