"""Tests for the command line entry point.

Independent oracles used here:

* exit codes and report fields are compared against the library
  predicates invoked directly in-process;
* artifact determinism is checked byte for byte on disk, and every
  artifact must feed back through the verify command unchanged.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peterweyl.cli import main
from peterweyl.groups import cyclic, symmetric
from peterweyl.hopf import tensor_to_json
from peterweyl.transfer import regular_p, unit_p
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
