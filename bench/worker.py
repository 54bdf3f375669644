"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --trace 0|1 --out DIR
    python3 bench/worker.py --workload W --setup-only --out DIR

`run.py` starts this script once per round and once per extra set-up
sample.  It imports the package from ``src/`` of the checkout it sits in,
builds the workload's groups, irreps and quantum convention, writes the
seeded inputs, then runs the operation list of `workloads.plan` and times
each operation alone.  Outputs are serialized after each timed span and
written, with the timings, to ``DIR/result.json``.
"""

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from math import lcm

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402


def setup(workload):
    import peterweyl.cli  # noqa: F401  (imports every layer)
    from peterweyl.groups import parse_group
    from peterweyl.reps import irreps

    if not os.path.abspath(peterweyl.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("peterweyl was not imported from %s" % SRC)
    for token in workloads.SETUP_GROUPS[workload]:
        irreps(parse_group(token))
    if workload == "uq-center":
        from peterweyl.uqsl2 import theta

        theta(0)


def _descriptor_orders(desc):
    if desc["kind"] == "cyclic":
        return [desc["n"]]
    return [n for f in desc["factors"] for n in _descriptor_orders(f)]


def bicharacter_doc(group, k):
    """P = (1/|G|) sum beta_k(a, b) a (x) b, serialized as a --p-file.

    Coordinates follow the package's product convention: element (a, b) of
    G x H has index a |H| + b.
    """
    orders = _descriptor_orders(group.descriptor)
    big = lcm(*orders)

    def coords(i):
        out = []
        for n in reversed(orders):
            out.append(i % n)
            i //= n
        return out[::-1]

    size = group.order
    terms = []
    for a in range(size):
        for b in range(size):
            e = sum(k * x * y * (big // n)
                    for x, y, n in zip(coords(a), coords(b), orders)) % big
            if 2 * e % big == 0:
                value = Fraction(1 if e == 0 else -1, size)
                text = "%d/%d" % (value.numerator, value.denominator)
            else:
                coeffs = ["0/1"] * e + ["1/%d" % size]
                text = "[%s]@zeta(%d)" % (",".join(coeffs), big)
            terms.append([a, b, text])
    return {"note": "bicharacter k=%d" % k,
            "tensor": {"group": group.descriptor, "arity": 2,
                       "terms": terms}}


def write_inputs(workload, seed, out):
    if workload != "group-transfer":
        return
    from peterweyl.groups import parse_group

    for token in workloads.BICHAR_GROUPS:
        doc = bicharacter_doc(parse_group(token),
                              workloads.bichar_exponent(token, seed))
        with open(os.path.join(out, "bichar-%s.json" % token), "w") as fh:
            json.dump(doc, fh)


def run_op(op, out, tracer):
    """Time one operation; return (seconds, output, artifact bytes)."""
    from peterweyl import cli, transfer, uqsl2
    from peterweyl.exact.linalg import Infeasible
    from peterweyl.exact.scalars import scalar_to_str
    from peterweyl.hopf import tensor_from_json, tensor_to_json

    call = op["call"]
    if call == "cli":
        path = os.path.join(out, op["label"] + ".json")
        argv = [a.replace("{out}", out) for a in op["argv"]]
        argv += ["--out", path]
        tracer.active = True
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
        tracer.active = False
        size = os.path.getsize(path)
        with open(path) as fh:
            return seconds, {"rc": rc, "artifact": json.load(fh)}, size
    if call == "solve_t":
        if "family" in op:
            lam, mu = (Fraction(x) for x in op["family"])
            cand = transfer.s3_family(lam, mu)
        else:
            with open(op["p_file"].replace("{out}", out)) as fh:
                cand = transfer.PCandidate(
                    tensor_from_json(json.load(fh)["tensor"]))
        tracer.active = True
        start = time.perf_counter()
        result = transfer.solve_t(cand)
        seconds = time.perf_counter() - start
        tracer.active = False
        output = {"p": tensor_to_json(cand.tensor)}
        if isinstance(result, Infeasible):
            output["certificate"] = [scalar_to_str(y)
                                     for y in result.certificate]
        else:
            output["t"] = tensor_to_json(result)
        return seconds, output, 0
    if call == "act":
        tracer.active = True
        start = time.perf_counter()
        matrix = uqsl2.module(op["m"]).act(uqsl2.c_q(op["n"]))
        seconds = time.perf_counter() - start
        tracer.active = False
        rows = [[scalar_to_str(x) for x in row] for row in matrix.rows]
        return seconds, {"matrix": rows}, 0
    raise ValueError("unknown call %r" % call)


class _Off:
    """Stands in for the tracer in untraced rounds."""

    active = False


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup(args.workload)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        write_inputs(args.workload, args.seed, args.out)
        tracer = _Off()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        ops = []
        artifact_bytes = 0
        for op in workloads.plan(args.workload, args.seed):
            try:
                seconds, output, size = run_op(op, args.out, tracer)
            except (Exception, SystemExit) as exc:  # counted as failed
                tracer.active = False
                sys.stderr.write("operation %s raised %r\n"
                                 % (op["label"], exc))
                ops.append({"label": op["label"], "error": repr(exc)})
                continue
            artifact_bytes += size
            ops.append({"label": op["label"], "seconds": seconds,
                        "output": output})
        from peterweyl.groups import parse_group

        tokens = set(workloads.SETUP_GROUPS[args.workload])
        result.update(
            ops=ops,
            tables={t: parse_group(t).table for t in sorted(tokens)},
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if args.trace:
            result["layers"] = tracer.layer_metrics(artifact_bytes)
            tracer.write(os.path.join(args.out, "trace.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
