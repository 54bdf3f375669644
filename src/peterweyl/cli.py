"""Command line entry point.

Five commands drive the library end to end:

* verify      membership predicates for one candidate tensor
* decompose   block decomposition of a group algebra through the transfer map
* search      hunt for admissible tensors over a chosen group
* uq          central elements of the quantized enveloping algebra
* groups      registry helpers

Artifacts are canonical JSON: keys sorted, exact scalars rendered as
strings, files written atomically so an interrupted run never leaves a
partial artifact.  Two runs with the same config produce byte-identical
artifacts; wall-clock timings are deliberately kept out of them.

Exit codes: 0 when every requested predicate passes, 1 when some
predicate fails, 2 on bad input (a usage error such as an unknown flag
or a non-positive cap, an unreadable file, an unwritable --out path, an
unparsable token), 3 when a precondition of the requested computation
is violated.  Errors are reported as one JSON object on
stderr.
"""

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache

from . import __version__
from .errors import ParseError, PeterWeylError, PreconditionError
from .exact.scalars import scalar_from_str
from .groups import parse_group
from .hopf import tensor_from_json, tensor_to_json
from .search import search as run_search
from .transfer import (
    PCandidate,
    membership_report,
    mock_pw_decomposition,
    s3_family,
)
from .uqsl2 import UqElement, c_q, central_commutant_solve, in_span, joseph_component_check

_REQUIRABLE = ("A", "M", "M0", "full-rank", "center-image")
_UQ_CHECKS = ("central", "product", "commutant", "component")
_STRATEGIES = {
    "random": "random_sampling",
    "random_sampling": "random_sampling",
    "groebner": "groebner",
    "verify-only": "verify_only",
    "verify_only": "verify_only",
}


class _InputError(Exception):
    """Anything wrong with the inputs themselves, distinct from math failures."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors.

    Subcommand parsers are built from the same class, so an error at any
    level ends in the one-line JSON error of main().
    """

    def error(self, message):
        raise _InputError(message)


def _positive_int(text: str) -> int:
    """Argument type of the search caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


# ---------------------------------------------------------------------------
# canonical artifacts
# ---------------------------------------------------------------------------


def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pw-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, doc: dict, text_lines) -> None:
    if args.format == "text":
        body = "\n".join(text_lines) + "\n"
    else:
        body = _render_json(doc)
    if args.out:
        try:
            _atomic_write(args.out, body)
        except OSError as exc:
            raise _InputError("cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _load_group(token: str):
    try:
        return parse_group(token)
    except PreconditionError as exc:
        raise _InputError(str(exc))


def _parse_scalar(text: str, flag: str):
    try:
        return scalar_from_str(text)
    except (ParseError, ValueError) as exc:
        raise _InputError("%s: %s" % (flag, exc))


def _candidate_from_file(path: str, group) -> PCandidate:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise _InputError("%s is not valid JSON: %s" % (path, exc))
    if isinstance(doc, dict) and "candidate" in doc:
        doc = doc["candidate"]
    note = ""
    if isinstance(doc, dict) and "tensor" in doc:
        note = str(doc.get("note", ""))
        doc = doc["tensor"]
    try:
        tens = tensor_from_json(doc)
        cand = PCandidate(tens, note or os.path.basename(path))
    except (PeterWeylError, KeyError, TypeError, ValueError) as exc:
        raise _InputError("%s does not hold a two-slot tensor: %s" % (path, exc))
    if group is not None and cand.group != group:
        raise _InputError("tensor in %s lives over a different group" % path)
    return cand


def _name_list(text: str, flag: str, known) -> list:
    """The names in a comma list, repeats dropped, the first one kept.

    A list that names nothing, or names something not in known, is an
    input error.
    """
    names = list(dict.fromkeys(c.strip() for c in text.split(",")
                               if c.strip()))
    if not names:
        raise _InputError("%s names nothing" % flag)
    for name in names:
        if name not in known:
            raise _InputError("%s: unknown name %r (known: %s)"
                              % (flag, name, ", ".join(known)))
    return names


def _load_candidate(args, group) -> PCandidate:
    if getattr(args, "family", None) and getattr(args, "p_file", None):
        raise _InputError("give either --family or --p-file, not both")
    if getattr(args, "family", None):
        if args.family != "s3":
            raise _InputError("unknown family %r (known: s3)" % args.family)
        if args.lam is None or args.mu is None:
            raise _InputError("--family s3 needs --lambda and --mu")
        lam = _parse_scalar(args.lam, "--lambda")
        mu = _parse_scalar(args.mu, "--mu")
        cand = s3_family(lam, mu)
        if group is not None and cand.group != group:
            raise _InputError("--family s3 only lives over the group S3")
        return cand
    if getattr(args, "p_file", None):
        return _candidate_from_file(args.p_file, group)
    raise _InputError("no candidate given: use --family or --p-file")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    group = _load_group(args.group)
    cand = _load_candidate(args, group)
    required = _name_list(args.require, "--require", _REQUIRABLE)
    report = membership_report(cand)
    rj = report.to_json()
    outcome = {
        "A": report.admissible,
        "M": report.multiplicative,
        "M0": report.character_multiplicative,
        "full-rank": report.rank == group.order,
        "center-image": report.center_image,
    }
    passed = all(outcome[r] for r in required)
    doc = {
        "command": "verify",
        "version": __version__,
        "config": {
            "group": args.group,
            "family": args.family,
            "lambda": args.lam,
            "mu": args.mu,
            "p_file": args.p_file,
            "require": sorted(required),
        },
        "candidate": {"note": cand.note, "tensor": tensor_to_json(cand.tensor)},
        "report": rj,
        "passed": passed,
    }
    lines = ["candidate: %s" % cand.note]
    for key in ("A", "M", "M0"):
        lines.append("%s=%s" % (key, str(outcome[key]).lower()))
    if rj["M_witnesses"]:
        lines.append("witnesses: " + "; ".join(
            "(%s, %s)" % tuple(w) for w in rj["M_witnesses"]))
    lines.append("rank=%d/%d" % (report.rank, group.order))
    lines.append("center-image=%s" % str(report.center_image).lower())
    lines.append("result: %s" % ("PASS" if passed else "FAIL"))
    _emit(args, doc, lines)
    return 0 if passed else 1


def _cmd_decompose(args) -> int:
    group = _load_group(args.group)
    cand = _load_candidate(args, group)
    decomposition = mock_pw_decomposition(cand)
    passed = bool(decomposition["direct"] and decomposition["c_spans_center"])
    doc = {
        "command": "decompose",
        "version": __version__,
        "config": {
            "group": args.group,
            "family": args.family,
            "lambda": args.lam,
            "mu": args.mu,
            "p_file": args.p_file,
        },
        "candidate": {"note": cand.note, "tensor": tensor_to_json(cand.tensor)},
        "decomposition": decomposition,
        "passed": passed,
    }
    lines = ["candidate: %s" % cand.note]
    lines.append("blocks: " + ", ".join(
        "%s=%d" % (b["label"], b["dim"]) for b in decomposition["blocks"]))
    lines.append("dims: " + "+".join(str(d) for d in decomposition["dims"]))
    lines.append("direct=%s" % str(decomposition["direct"]).lower())
    lines.append("central-characters: rank %d of %d"
                 % (decomposition["c_rank"], decomposition["center_dim"]))
    lines.append("result: %s" % ("PASS" if passed else "FAIL"))
    _emit(args, doc, lines)
    return 0 if passed else 1


def _cmd_search(args) -> int:
    group = _load_group(args.group)
    strategy = _STRATEGIES.get(args.strategy)
    if strategy is None:
        raise _InputError("unknown strategy %r (known: %s)"
                          % (args.strategy, ", ".join(sorted(_STRATEGIES))))
    kwargs = {"seed": args.seed}
    if strategy == "random_sampling":
        if args.count is None:
            raise _InputError("--strategy random needs --count")
        kwargs["count"] = args.count
    if strategy == "groebner":
        kwargs["degree_cap"] = args.degree_cap
        kwargs["step_cap"] = args.step_cap
    if strategy == "verify_only":
        kwargs["candidate"] = _load_candidate(args, group)
    outcome = run_search(group, strategy, **kwargs)
    passed = outcome.verdict == "SolutionsFound"
    doc = {
        "command": "search",
        "version": __version__,
        "config": {
            "group": args.group,
            "strategy": strategy,
            "count": args.count,
            "seed": args.seed,
            "degree_cap": args.degree_cap,
            "step_cap": args.step_cap,
        },
        "outcome": outcome.to_json(),
        "passed": passed,
    }
    lines = [
        "verdict=%s" % outcome.verdict,
        "samples=%d survivors=%d candidates=%d"
        % (outcome.samples, outcome.survivors, len(outcome.candidates)),
    ]
    lines.extend("log: " + entry for entry in outcome.log)
    lines.append("result: %s" % ("PASS" if passed else "FAIL"))
    _emit(args, doc, lines)
    return 0 if passed else 1


def _uq_run_checks(n: int, names) -> dict:
    results = {}
    cn = c_q(n)
    gens = [UqElement.e(), UqElement.f(), UqElement.k()]
    for name in names:
        if name == "central":
            results[name] = all(cn * g == g * cn for g in gens)
        elif name == "product":
            total = UqElement.zero()
            for k in range(0, 2 * n + 1, 2):
                total = total + c_q(k)
            results[name] = cn * cn == total
        elif name == "commutant":
            results[name] = in_span(central_commutant_solve(n), cn)
        elif name == "component":
            report = joseph_component_check(n)
            results[name] = bool(
                report["highest_to_lowest_unit"]
                and report["spans_component"]
                and report["central_element_inside"])
    return results


def _cmd_uq(args) -> int:
    if args.n < 0:
        raise _InputError("--n must be >= 0, got %d" % args.n)
    names = _name_list(args.check, "--check", _UQ_CHECKS + ("all",))
    if "all" in names:
        names = list(_UQ_CHECKS)
    results = _uq_run_checks(args.n, names)
    passed = all(results.values())
    doc = {
        "command": "uq",
        "version": __version__,
        "config": {"n": args.n, "check": sorted(names)},
        "element": c_q(args.n).to_json(),
        "checks": results,
        "passed": passed,
    }
    lines = ["c(%d) = %r" % (args.n, c_q(args.n))]
    for name in names:
        lines.append("%s=%s" % (name, str(results[name]).lower()))
    lines.append("result: %s" % ("PASS" if passed else "FAIL"))
    _emit(args, doc, lines)
    return 0 if passed else 1


_GROUP_TOKENS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2",
                 "S2", "S3", "S4", "D3", "D4", "D5")


def _cmd_groups(args) -> int:
    rows = []
    for token in _GROUP_TOKENS:
        grp = _load_group(token)
        rows.append({
            "token": token,
            "order": grp.order,
            "classes": len(grp.conjugacy_classes()),
        })
    doc = {
        "command": "groups",
        "version": __version__,
        "grammar": "S<n> | D<n> | Z<n>, joined with x for direct products",
        "groups": rows,
    }
    lines = ["token grammar: S<n> | D<n> | Z<n>, joined with x"]
    lines.extend("%-7s order=%-3d classes=%d"
                 % (r["token"], r["order"], r["classes"]) for r in rows)
    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_output_options(sub) -> None:
    sub.add_argument("--out", help="artifact path (default: stdout)")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="artifact format (default: json)")


def _add_candidate_options(sub) -> None:
    sub.add_argument("--family", help="named candidate family (known: s3)")
    sub.add_argument("--lambda", dest="lam",
                     help="first family parameter, an exact scalar")
    sub.add_argument("--mu", help="second family parameter, an exact scalar")
    sub.add_argument("--p-file", dest="p_file",
                     help="JSON file holding a two-slot tensor")


@lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peterweyl",
        description="Exact transfer-map toolkit for small group algebras "
                    "and quantized sl2.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="membership predicates for one candidate tensor")
    verify.add_argument("--group", required=True, help="group token, e.g. S3")
    _add_candidate_options(verify)
    verify.add_argument("--require", default="A,M,M0",
                        help="comma list of predicates that must hold "
                             "(default: A,M,M0; known: %s)"
                             % ", ".join(_REQUIRABLE))
    _add_output_options(verify)
    verify.set_defaults(run=_cmd_verify)

    decompose = commands.add_parser(
        "decompose", help="block decomposition through the transfer map")
    decompose.add_argument("--group", required=True)
    _add_candidate_options(decompose)
    _add_output_options(decompose)
    decompose.set_defaults(run=_cmd_decompose)

    searchp = commands.add_parser(
        "search", help="hunt for admissible tensors over a group")
    searchp.add_argument("--group", required=True)
    searchp.add_argument("--strategy", required=True,
                         help="random | groebner | verify-only")
    searchp.add_argument("--count", type=_positive_int,
                         help="draw count for the random strategy")
    searchp.add_argument("--seed", type=int, default=17,
                         help="random seed (default: 17)")
    searchp.add_argument("--degree-cap", type=_positive_int, default=6,
                         help="degree bound for the groebner strategy")
    searchp.add_argument("--step-cap", type=_positive_int, default=2000,
                         help="pair-step bound for the groebner strategy")
    _add_candidate_options(searchp)
    _add_output_options(searchp)
    searchp.set_defaults(run=_cmd_search)

    uq = commands.add_parser(
        "uq", help="central elements of the quantized enveloping algebra")
    uq_sub = uq.add_subparsers(dest="uq_command", required=True)
    center = uq_sub.add_parser(
        "center", help="compute one central element and run checks on it")
    center.add_argument("--n", type=int, required=True,
                        help="label of the simple module driving the element")
    center.add_argument("--check", default="central",
                        help="comma list of checks (default: central; "
                             "known: %s, all)" % ", ".join(_UQ_CHECKS))
    _add_output_options(center)
    center.set_defaults(run=_cmd_uq)

    groups = commands.add_parser("groups", help="registry helpers")
    groups_sub = groups.add_subparsers(dest="groups_command", required=True)
    glist = groups_sub.add_parser("list", help="list known group tokens")
    _add_output_options(glist)
    glist.set_defaults(run=_cmd_groups)

    return parser


def _error_json(kind: str, message: str) -> str:
    return json.dumps(
        {"error": {"kind": kind, "message": message}}, sort_keys=True) + "\n"


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.run(args)
    except _InputError as exc:
        sys.stderr.write(_error_json("input", str(exc)))
        return 2
    except ParseError as exc:
        sys.stderr.write(_error_json("parse", str(exc)))
        return 2
    except PreconditionError as exc:
        sys.stderr.write(_error_json("precondition", str(exc)))
        return 3
    except PeterWeylError as exc:
        sys.stderr.write(_error_json(type(exc).__name__.lower(), str(exc)))
        return 3


if __name__ == "__main__":
    sys.exit(main())
