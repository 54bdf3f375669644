"""Benchmark of peterweyl: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload group-transfer --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; nothing needs to be installed.  The run

1. starts `worker.py --setup-only` SETUP_SAMPLES times, each a fresh
   single-threaded interpreter, and takes set-up time as the span from
   process start to the moment the package is imported and the workload's
   groups, irreps and quantum convention are built;
2. runs whole rounds of the workload's operation list, each round in a
   fresh worker: at least `workloads.MIN_ROUNDS`, then more while one
   more round of median length still ends within --seconds;
3. checks every output with the independent code in `checks.py`, outside
   the timed spans;
4. prints every metric by name with its unit, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones: medians over rounds,
and for times the sum of each operation's median over rounds.  With
--trace 1 the rounds run traced and the metrics are per layer.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads
from tracing import LAYER_METRICS

median = statistics.median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
# A run ends within 180 s; a worker still going at this point is stopped.
RUN_DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-kind totals: printed in every run, reported as metrics when traced.
ALL_KINDS = [k for kinds in workloads.KINDS.values() for k in kinds]


def _worker_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def launch(args, out, deadline):
    """Run one worker; return (start time, its result document)."""
    if os.path.isdir(out):
        shutil.rmtree(out)
    os.makedirs(out)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args, "--out", out],
                          env=_worker_env(), timeout=max(deadline - start, 1))
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d"
                           % (" ".join(args), proc.returncode))
    with open(os.path.join(out, "result.json")) as fh:
        return start, json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _check_rank(table, terms, reported, expect):
    got = checks.transfer_rank(len(table), terms)
    full = got == len(table)
    if got != reported:
        raise checks.CheckError("reported rank %d, computed %d"
                                % (reported, got))
    if expect == "full" and not full:
        raise checks.CheckError("rank %d, expected %d" % (got, len(table)))
    if expect == "deficient" and full:
        raise checks.CheckError("degenerate point has full rank")


def check_op(op, output, tables, outputs):
    """Raise checks.CheckError unless output is right for op.

    outputs maps the labels of the round's earlier operations to theirs.
    """
    expect = op["expect"]
    if op["call"] == "act":
        checks.check_spectrum(op["n"], op["m"], output["matrix"])
        return
    if op["call"] == "solve_t":
        table = tables[op["group"]]
        p = checks.tensor_terms(output["p"], 2)
        if expect["feasible"]:
            if "t" not in output:
                raise checks.CheckError("expected a factorization tensor T")
            checks.check_t(table, p, checks.tensor_terms(output["t"], 4))
        else:
            if "certificate" not in output:
                raise checks.CheckError("expected an infeasibility proof")
            checks.check_certificate(table, p, output["certificate"])
        return
    rc, doc = output["rc"], output["artifact"]
    if "rc" in expect and rc != expect["rc"]:
        raise checks.CheckError("exit code %d, expected %d"
                                % (rc, expect["rc"]))
    argv = op["argv"]
    if argv[0] == "uq":
        if not (doc["passed"] and all(doc["checks"].values())):
            raise checks.CheckError("uq center checks failed: %r"
                                    % doc["checks"])
        return
    table = tables[argv[argv.index("--group") + 1]]
    if argv[0] == "verify":
        p = checks.tensor_terms(doc["candidate"]["tensor"], 2)
        checks.check_admissible(table, p)
        if not doc["report"]["A"]:
            raise checks.CheckError("admissible tensor reported not A")
        _check_rank(table, p, doc["report"]["rank"], expect["rank"])
        return
    if argv[0] == "decompose":
        checks.check_admissible(
            table, checks.tensor_terms(doc["candidate"]["tensor"], 2))
        checks.check_block_dims(table, doc["decomposition"]["dims"])
        return
    outcome = doc["outcome"]
    verdict = outcome["verdict"]
    if "verdict" in expect and verdict != expect["verdict"]:
        raise checks.CheckError("verdict %s, expected %s"
                                % (verdict, expect["verdict"]))
    if expect.get("survivors") is not None \
            and outcome["survivors"] != expect["survivors"]:
        raise checks.CheckError("%d survivors, expected %d"
                                % (outcome["survivors"], expect["survivors"]))
    if "not_verdict" in expect and verdict == expect["not_verdict"]:
        solved = outputs.get(expect["solved_by"])
        if solved and solved["artifact"]["outcome"]["candidates"]:
            raise checks.CheckError(
                "%s on a group where random search found a verified solution"
                % verdict)
    if (rc == 0) != (verdict == "SolutionsFound"):
        raise checks.CheckError("exit code %d with verdict %s" % (rc, verdict))
    for cand in outcome["candidates"]:
        p = checks.tensor_terms(cand["tensor"], 2)
        checks.check_admissible(table, p)
        _check_rank(table, p, len(table), "full")


def check_round(plan, result):
    """(failed operations, wrong outputs) of one round."""
    failed = 0
    wrong = []
    outputs = {}
    for op, done in zip(plan, result["ops"]):
        if "error" in done:
            failed += 1
            continue
        outputs[op["label"]] = done["output"]
        try:
            check_op(op, done["output"], result["tables"], outputs)
        except (checks.CheckError, KeyError, ValueError) as exc:
            wrong.append("%s: %s" % (op["label"], exc))
    return failed, wrong


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "peterweyl", "cli.py")):
        sys.stderr.write("no package source under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    out = os.path.join(OUT_ROOT, "%s-%d" % (args.workload, args.seed))
    setup = []
    for i in range(0 if args.trace else SETUP_SAMPLES):
        start, doc = launch(["--workload", args.workload, "--setup-only"],
                            os.path.join(out, "setup-%d" % i), deadline)
        setup.append(doc["ready"] - start)

    plan = workloads.plan(args.workload, args.seed)
    rounds = []
    attempted = failed = 0
    wrong = []
    durations = []
    began = time.monotonic()
    while (len(rounds) < workloads.MIN_ROUNDS[args.workload]
           or time.monotonic() - began + median(durations) <= args.seconds):
        start, doc = launch(["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--trace", str(args.trace)],
                            os.path.join(out, "round-%d" % len(rounds)),
                            deadline)
        setup.append(doc["ready"] - start)
        attempted += len(plan)
        round_failed, round_wrong = check_round(plan, doc)
        failed += round_failed
        wrong.extend(round_wrong)
        rounds.append(doc)
        durations.append(time.monotonic() - start)

    # Each operation's time is its median over the rounds; a kind's total
    # and wall_s are sums of those medians, so one slow stretch of the
    # machine moves one operation's sample, not a whole round's.
    totals = dict.fromkeys(ALL_KINDS, 0.0)
    for i, op in enumerate(plan):
        totals[op["kind"]] += median([d["ops"][i].get("seconds", 0.0)
                                      for d in rounds])
    wall = sum(totals.values())
    per_kind = {k: (v, "s") for k, v in totals.items()}
    if args.trace:
        metrics = {name: (median([d["layers"][name] for d in rounds]),
                          _layer_unit(name)) for name in LAYER_METRICS}
        metrics.update(per_kind)
        metrics["trace.wall_s"] = (wall, "s")
    else:
        for k in workloads.KINDS[args.workload]:
            print("%-36s %14.6f s" % (k, per_kind[k][0]))
        values = {
            "setup_s": median(setup),
            "wall_s": wall,
            "peak_rss_mb": median([d["peak_rss_kb"] for d in rounds]) / 1024,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %s" % (name, value, unit))
    print("%-36s %14d" % ("rounds", len(rounds)))
    for line in wrong:
        sys.stderr.write("wrong output: %s\n" % line)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".repeat_ratio"):
        return "ratio"
    if name.endswith(".artifact_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
