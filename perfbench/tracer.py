"""Span tracing installed from outside the program, and the per-layer
metrics computed from the spans.

The tracer wraps every public function of each cmreduce layer module at
every module-level name it is bound to in the package (so
`generator.is_prime` is traced as `ff_arith.is_prime`), records one span
per call with its parent, and keeps the spans in memory. It records only
while an op is running, so the benchmark's own checks leave no spans.
`restore` puts every original function back.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "cmreduce"
LAYERS = ("cli", "generator", "invariants", "splitting", "predictor", "cm_types", "ff_arith")


class Spans:
    """Spans as parallel arrays, one entry per traced call: a name id, the
    index of the parent span (-1 at an op's top), start and end times, and
    the op the call belongs to. Errors and annotations are sparse dicts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.error = {}
        self.attrs = {}

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def write(self, path):
        cols = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "op": self.op.tolist(),
            "error": self.error,
            "attrs": self.attrs,
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(cols, fh, separators=(",", ":"))


def _point_count_attrs(args, kwargs, result):
    curve = args[0] if args else kwargs["curve"]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    return {"k": k, "elements": curve.p**k}


def _poly_pow_attrs(args, kwargs, result):
    return {"coeffs": len(result)}


_ANNOTATE = {
    "invariants.point_count": _point_count_attrs,
    "ff_arith.poly_pow": _poly_pow_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.op = None  # index of the op being recorded; None records nothing
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap the public functions of every layer module, wherever the
        package binds them."""
        layer_modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer, mod in zip(LAYERS, layer_modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)
        sp, stack = self.spans, self._stack
        nid = sp.name_id(name)
        names, parents, ops, starts, ends = sp.name, sp.parent, sp.op, sp.start, sp.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                sp.error[i] = type(e).__name__
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if annotate is not None:
                sp.attrs[i] = annotate(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced


def leftover_wrappers():
    """(module, name) of every package binding that is still a wrapper."""
    return [
        (n, attr)
        for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        for attr, obj in vars(m).items()
        if hasattr(obj, "__perfbench_original__")
    ]


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    Children of one span never overlap: a call returns before its caller
    makes the next one."""
    start, end, parent = spans.start, spans.end, spans.parent
    covered = array("d", bytes(8 * len(spans)))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += max(0.0, min(end[i], end[p]) - max(start[i], start[p]))
    return array("d", (end[i] - start[i] - covered[i] for i in range(len(spans))))


def _ancestors(spans):
    """Name ids of each span's ancestors, as shared frozensets."""
    empty = frozenset()
    anc = []
    for p in spans.parent:
        if p < 0:
            anc.append(empty)
        else:
            up, nid = anc[p], spans.name[p]
            anc.append(up if nid in up else up | {nid})
    return anc


# (metric, unit) reported by every traced run, in BENCHMARK.json order
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("generator.catalog_load.s", "s"),
    ("generator.catalog_load.calls", "count"),
    ("generator.verify.self_s", "s"),
    ("generator.generate.self_s", "s"),
    ("generator.reduce_curve.s", "s"),
    ("generator.reduce_curve.refused", "count"),
    ("generator.generate.find_prime_calls", "count"),
    ("generator.generate.split_calls", "count"),
    ("generator.generate.is_prime_calls", "count"),
    ("invariants.point_count.s", "s"),
    ("invariants.point_count.k1.s", "s"),
    ("invariants.point_count.k2.s", "s"),
    ("invariants.point_count.k3.s", "s"),
    ("invariants.point_count.calls", "count"),
    ("invariants.point_count.elements", "count"),
    ("invariants.point_count.share", "ratio"),
    ("invariants.l_polynomial.s", "s"),
    ("invariants.newton_slopes.s", "s"),
    ("invariants.reduction_profile.s", "s"),
    ("invariants.p_rank.s", "s"),
    ("invariants.a_number.s", "s"),
    ("ff_arith.poly_pow.s", "s"),
    ("ff_arith.poly_pow.calls", "count"),
    ("ff_arith.poly_pow.coeffs", "count"),
    ("ff_arith.poly_pow.share", "ratio"),
    ("ff_arith.is_prime.s", "s"),
    ("ff_arith.is_prime.calls", "count"),
    ("ff_arith.kronecker.calls", "count"),
    ("ff_arith.factor_degree_profile.s", "s"),
    ("ff_arith.matrix_rank.s", "s"),
    ("ff_arith.find_irreducible.s", "s"),
    ("splitting.find_prime.s", "s"),
    ("splitting.find_prime.calls", "count"),
    ("splitting.find_prime.candidates", "count"),
    ("splitting.find_prime.yield", "ratio"),
    ("splitting.split_by_factorization.s", "s"),
    ("splitting.split_by_factorization.calls", "count"),
    ("splitting.split_by_residue.s", "s"),
    ("splitting.stickelberger_parity.s", "s"),
    ("splitting.residue_class_table.s", "s"),
    ("predictor.predict_for_genus.s", "s"),
    ("predictor.predict_for_genus.calls", "count"),
    ("cm_types.enumerate_classes.s", "s"),
    ("cm_types.enumerate_classes.calls", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    (f"{layer}.share", "ratio") for layer in LAYERS
] + [
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
]


def layer_metrics(spans, op_s):
    """Per-layer values from the spans of a traced run whose ops took op_s
    seconds in total. `.s` times are inclusive, `self_s` times exclude
    child spans."""
    names = spans.names
    selfs = self_times(spans)
    anc = _ancestors(spans)
    incl, calls, name_self = {}, {}, {}
    for i, nid in enumerate(spans.name):
        calls[nid] = calls.get(nid, 0) + 1
        if nid not in anc[i]:  # count recursion once
            incl[nid] = incl.get(nid, 0.0) + (spans.end[i] - spans.start[i])
        name_self[nid] = name_self.get(nid, 0.0) + selfs[i]

    def ids(*wanted):
        return {spans._ids[n] for n in wanted if n in spans._ids}

    def count(nids, inside, outside=()):
        """Spans named in nids with an `inside` ancestor and no `outside` one."""
        inside, outside = ids(inside), ids(*outside)
        return sum(
            1 for i, nid in enumerate(spans.name)
            if nid in nids and inside & anc[i] and not outside & anc[i]
        )

    m = {}
    for nid, t in incl.items():
        m[f"{names[nid]}.s"] = t
    for nid, n in calls.items():
        m[f"{names[nid]}.calls"] = n
    for nid, t in name_self.items():
        m[f"{names[nid]}.self_s"] = t
    for layer in LAYERS:
        own = sum(t for nid, t in name_self.items() if names[nid].startswith(layer + "."))
        m[f"{layer}.self_s"] = own
        m[f"{layer}.share"] = own / op_s
    reduce_ids = ids("generator.reduce_curve")
    m["generator.reduce_curve.refused"] = sum(
        1 for i, e in spans.error.items()
        if e == "BadReductionError" and spans.name[i] in reduce_ids)
    generate, find_prime = ids("generator.generate"), ids("splitting.find_prime")
    m["generator.generate.find_prime_calls"] = sum(
        1 for i, nid in enumerate(spans.name)
        if nid in find_prime and spans.parent[i] >= 0
        and spans.name[spans.parent[i]] in generate)
    m["generator.generate.split_calls"] = count(
        ids("splitting.split_by_factorization", "splitting.split_by_residue"),
        "generator.generate")
    m["generator.generate.is_prime_calls"] = count(
        ids("ff_arith.is_prime"), "generator.generate", outside=("splitting.find_prime",))
    m["splitting.find_prime.candidates"] = count(ids("ff_arith.is_prime"), "splitting.find_prime")
    for k in (1, 2, 3):
        m[f"invariants.point_count.k{k}.s"] = sum(
            spans.end[i] - spans.start[i] for i, a in spans.attrs.items()
            if a.get("k") == k)
    m["invariants.point_count.elements"] = sum(
        a["elements"] for a in spans.attrs.values() if "elements" in a)
    m["ff_arith.poly_pow.coeffs"] = sum(
        a["coeffs"] for a in spans.attrs.values() if "coeffs" in a)
    m["invariants.point_count.share"] = m.get("invariants.point_count.s", 0.0) / op_s
    m["ff_arith.poly_pow.share"] = m.get("ff_arith.poly_pow.s", 0.0) / op_s
    candidates = m["splitting.find_prime.candidates"]
    m["splitting.find_prime.yield"] = (
        m.get("splitting.find_prime.calls", 0) / candidates if candidates else 0.0)
    return m
