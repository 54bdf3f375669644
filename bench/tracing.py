"""Spans around each layer's public functions, installed from outside.

`Tracer.install()` replaces every function and method listed in `WRAPPED`
by a wrapper that records a span (name, start, end, parent) while the
tracer is active.  A function imported by name into another module is
patched there too: every ``peterweyl`` module attribute that is the
original object is rebound to the wrapper.  The scalar constructors get a
cheaper wrapper that keeps only a call count and a total time.

Spans stay in memory; `write()` dumps them as JSON lines at the end and
`layer_metrics()` folds them into the per-layer metrics of the benchmark.
"""

import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
WRAPPED = [
    ("groups", "peterweyl.groups", name)
    for name in ("parse_group", "from_descriptor",
                 "diagonal_conjugation_orbits", "Group.conjugacy_classes")
] + [
    ("hopf", "peterweyl.hopf", name)
    for name in ("tensor", "to_algebra", "apply_delta", "apply_antipode",
                 "apply_counit", "multiply_adjacent", "permute_slots",
                 "embed", "contract", "convolve", "pair", "act", "orbit_sum",
                 "tensor_to_json", "tensor_from_json",
                 "TensorElement.__mul__")
] + [
    ("reps.irreps", "peterweyl.reps", "irreps"),
    ("reps.decompose_character", "peterweyl.reps", "decompose_character"),
    ("pw.component", "peterweyl.pw", "component"),
    ("pw.z", "peterweyl.pw", "z"),
    ("transfer.in_a", "peterweyl.transfer", "in_a"),
    ("transfer.in_a", "peterweyl.transfer", "in_a_conditions"),
    ("transfer.in_m", "peterweyl.transfer", "in_m"),
    ("transfer.in_m0", "peterweyl.transfer", "in_m0"),
    ("transfer.phi_rank", "peterweyl.transfer", "phi_rank"),
    ("transfer.center_image_check", "peterweyl.transfer",
     "center_image_check"),
    ("transfer.solve_t", "peterweyl.transfer", "solve_t"),
    ("transfer.membership_report", "peterweyl.transfer",
     "membership_report"),
    ("transfer.mock_pw_decomposition", "peterweyl.transfer",
     "mock_pw_decomposition"),
    ("search.a_basis", "peterweyl.search", "a_basis"),
    ("search.assemble_constraints", "peterweyl.search",
     "assemble_constraints"),
    ("search.full_verify", "peterweyl.search", "full_verify"),
    ("search.search", "peterweyl.search", "search"),
    ("polysys.buchberger", "peterweyl.exact.polysys", "buchberger"),
    ("polysys.satisfied_by", "peterweyl.exact.polysys",
     "PolySystem.satisfied_by"),
    ("linalg.solve_linear", "peterweyl.exact.linalg", "solve_linear"),
    ("linalg.rref", "peterweyl.exact.linalg", "rref"),
] + [
    ("linalg.subspace", "peterweyl.exact.linalg", "Subspace." + name)
    for name in ("__init__", "contains", "contains_subspace", "sum",
                 "intersect")
] + [
    ("uqsl2.mul", "peterweyl.uqsl2", "UqElement.__mul__"),
    ("uqsl2.c_q", "peterweyl.uqsl2", "c_q"),
    ("uqsl2.module", "peterweyl.uqsl2", "module"),
    ("uqsl2.central_commutant_solve", "peterweyl.uqsl2",
     "central_commutant_solve"),
    ("uqsl2.joseph_component_check", "peterweyl.uqsl2",
     "joseph_component_check"),
    ("uqsl2.adjoint", "peterweyl.uqsl2", "adjoint"),
    ("uqsl2.act", "peterweyl.uqsl2", "UqModule.act"),
    ("cli", "peterweyl.cli", "main"),
]

SCALARS = [("ratfun", "RatFun"), ("cyclotomic", "Cyclotomic")]

_LINEAR_KINDS = ("rational", "cyclotomic", "ratfun")

# Per-layer metrics, in report order.  "<name>.s" is busy time: the summed
# duration of the spans of that name not nested in another span of it.
LAYER_METRICS = (
    ["scalars.%s.%s" % (k, f) for k in ("ratfun", "cyclotomic")
     for f in ("count", "s")]
    + ["linalg.solve_linear.%s.%s" % (k, f) for k in _LINEAR_KINDS
       for f in ("calls", "s", "entries")]
    + ["linalg.rref.calls", "linalg.rref.s", "linalg.subspace.s",
       "polysys.buchberger.s", "polysys.buchberger.steps",
       "polysys.satisfied_by.calls", "groups.s", "hopf.s",
       "reps.irreps.s", "reps.decompose_character.s",
       "pw.component.calls", "pw.component.s", "pw.z.s",
       "pw.component.repeat_ratio"]
    + ["transfer.%s.s" % f for f in ("in_a", "in_m", "in_m0", "phi_rank",
                                     "center_image_check")]
    + ["transfer.solve_t.self_s", "search.a_basis.s",
       "search.assemble_constraints.s", "search.search.self_s",
       "search.survivors", "uqsl2.mul.calls", "uqsl2.mul.s", "uqsl2.c_q.s",
       "uqsl2.module.s", "uqsl2.central_commutant_solve.s",
       "uqsl2.joseph_component_check.s", "uqsl2.adjoint.calls",
       "uqsl2.act.s", "cli.self_s", "cli.artifact_bytes"]
)


def _linear_extra(args, kwargs):
    """Scalar kind seen in A and b, and the entry count m (n + 1)."""
    a = args[0]
    rows = a.rows if hasattr(a, "rows") else a
    names = set()
    for row in rows:
        names.update(type(x).__name__ for x in row)
    names.update(type(x).__name__ for x in args[1])
    kind = ("ratfun" if "RatFun" in names
            else "cyclotomic" if "Cyclotomic" in names else "rational")
    m = len(rows)
    n = len(rows[0]) if m else 0
    return {"kind": kind, "entries": m * (n + 1)}


class Tracer:
    def __init__(self):
        self.active = False
        # span: [name, start, end, parent, child_time, outermost, extra]
        self.spans = []
        self._stack = []
        self._open = {}
        self.scalars = {kind: [0, 0.0] for kind, _ in SCALARS}
        self.component_args = set()

    # -- installation -----------------------------------------------------

    def install(self):
        before = {"linalg.solve_linear": _linear_extra,
                  "pw.component": self._component_arg}
        after = {"polysys.buchberger": lambda r: {"steps": r.steps},
                 "search.search": lambda r: {"survivors": r.survivors}}
        for name, module, attr in WRAPPED:
            self._patch(module, attr, lambda fn, name=name: self._span(
                fn, name, before.get(name), after.get(name)))
        for kind, cls in SCALARS:
            self._patch("peterweyl.exact.scalars", cls + ".__init__",
                        lambda fn, kind=kind: self._aggregate(fn, kind))

    @staticmethod
    def _patch(module, attr, make):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("peterweyl"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)

    def _component_arg(self, args, kwargs):
        self.component_args.add(args[0])
        return None

    def _span(self, fn, name, before, after):
        spans, stack, open_ = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            extra = before(args, kwargs) if before else None
            index = len(spans)
            depth = open_.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                    depth == 0, extra]
            spans.append(span)
            stack.append(index)
            open_[name] = depth + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                open_[name] = depth
                if span[3] >= 0:
                    spans[span[3]][4] += end - span[1]
            if after:
                span[6] = dict(extra or {}, **after(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate(self, fn, kind):
        totals = self.scalars[kind]

        def init(obj, *args, **kwargs):
            if not self.active:
                return fn(obj, *args, **kwargs)
            start = perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += perf_counter() - start

        init.__wrapped__ = fn
        return init

    # -- results ----------------------------------------------------------

    def layer_metrics(self, artifact_bytes):
        out = dict.fromkeys(LAYER_METRICS, 0)
        for kind, (count, seconds) in self.scalars.items():
            out["scalars.%s.count" % kind] = count
            out["scalars.%s.s" % kind] = seconds
        calls = {}
        busy = {}
        self_time = {}
        layer_busy = {}
        layer_open = []
        for name, start, end, parent, child, outermost, extra in self.spans:
            calls[name] = calls.get(name, 0) + 1
            duration = end - start
            self_time[name] = self_time.get(name, 0.0) + duration - child
            if outermost:
                busy[name] = busy.get(name, 0.0) + duration
            if name == "linalg.solve_linear":
                prefix = "linalg.solve_linear.%s." % extra["kind"]
                out[prefix + "calls"] += 1
                out[prefix + "entries"] += extra["entries"]
                if outermost:
                    out[prefix + "s"] += duration
            elif name == "polysys.buchberger":
                out["polysys.buchberger.steps"] += extra["steps"]
            elif name == "search.search":
                out["search.survivors"] += extra["survivors"]
            layer_open.append((name.split(".")[0], start, end))
        # a layer is busy while any of its spans is open
        for layer, start, end in sorted(layer_open, key=lambda s: s[1]):
            spans = layer_busy.setdefault(layer, [])
            if spans and start < spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], end)
            else:
                spans.append([start, end])
        for layer in ("groups", "hopf"):
            out[layer + ".s"] = sum(e - s for s, e in
                                    layer_busy.get(layer, []))
        for name in ("linalg.rref", "pw.component", "polysys.satisfied_by",
                     "uqsl2.mul", "uqsl2.adjoint"):
            out[name + ".calls"] = calls.get(name, 0)
        for name in ("linalg.rref", "linalg.subspace", "polysys.buchberger",
                     "reps.irreps", "reps.decompose_character",
                     "pw.component", "pw.z", "transfer.in_a",
                     "transfer.in_m", "transfer.in_m0", "transfer.phi_rank",
                     "transfer.center_image_check", "search.a_basis",
                     "search.assemble_constraints", "uqsl2.mul", "uqsl2.c_q",
                     "uqsl2.module", "uqsl2.central_commutant_solve",
                     "uqsl2.joseph_component_check", "uqsl2.act"):
            out[name + ".s"] = busy.get(name, 0.0)
        for name in ("transfer.solve_t", "search.search", "cli"):
            out[name + ".self_s"] = self_time.get(name, 0.0)
        distinct = len(self.component_args)
        out["pw.component.repeat_ratio"] = (
            calls.get("pw.component", 0) / distinct if distinct else 0.0)
        out["cli.artifact_bytes"] = artifact_bytes
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"scalars": self.scalars}) + "\n")
            for name, start, end, parent, _, _, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "extra": extra}) + "\n")
