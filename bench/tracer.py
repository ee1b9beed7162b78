"""Per-module tracing of springerbc, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of each
springerbc module by timing wrappers, in every springerbc namespace that
holds them, and ``uninstall`` puts the originals back.  Nothing under
``src/`` knows about it.  Private helpers are not wrapped, so their time
counts as self time of the public call that made them.

Every wrapped call pushes a frame on one stack.  A frame's self time is its
duration minus the durations of the frames opened directly inside it, so
the self times of all frames add up to the traced wall time.  Hot,
fine-grained calls (``QPoly`` and ``Partition`` construction and operators,
the ``partitions`` helpers and the ``gf`` kernels) are only aggregated per
name as a count and a self time.  Every other call is also kept as a span
record ``(id, parent id, name, start, end)`` in memory, while ``keep_spans``
is set, until ``write_spans`` dumps them when the run ends.
"""

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("partitions", "qpoly", "params", "restrict", "evaluator", "gf", "fforacle")
AGGREGATED = ("partitions", "qpoly", "gf")

# Methods wrapped on the classes the layers define; module-level public
# functions are found by inspection.
CLASS_METHODS = {
    "partitions": {"Partition": ("__new__", "part_at")},
    "qpoly": {
        "QPoly": (
            "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__call__",
        )
    },
    "params": {"OmegaParam": ("make", "chi_map"), "LimitSymbol": ("recover",)},
    "gf": {
        "FieldCtx": ("__init__", "add", "sub", "mul", "neg", "inv", "pow"),
        "Echelon": ("reduce", "contains", "add"),
    },
    "fforacle": {"FieldModel": ("check",)},
}

ROOT = "(root)"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [ROOT]  # span records store indices into this table
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._next_id = 1
        self.keep_spans = True
        # a frame is [span id, start, seconds covered by child frames, name]
        self.root = [0, 0.0, 0.0, ROOT]
        self.stack = [self.root]
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)  # counters filled in by the hooks
        self._saved = []
        self._memo = None
        self._episode_params = set()
        self.episode_distinct = 0

    def wrap(self, name, fn, aggregated, before=None, after=None):
        """Timing wrapper around ``fn``; ``before(args)`` runs ahead of the
        call and ``after(args, result, parent_frame)`` once it returned."""
        clock, stack, count, self_s = self.clock, self.stack, self.count, self.self_s
        self.names.append(name)
        name_ix = len(self.names) - 1
        spans = None if aggregated else (
            self.span_id, self.span_parent, self.span_name, self.span_t0, self.span_t1
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if spans is None:
                frame = [0, clock(), 0.0, name]
            else:
                frame = [self._next_id, clock(), 0.0, name]
                self._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - frame[1]
                parent[2] += dur
                count[name] += 1
                self_s[name] += dur - frame[2]
                if spans is not None and self.keep_spans:
                    for column, v in zip(spans, (frame[0], parent[0], name_ix, frame[1], t1)):
                        column.append(v)
            if after is not None:
                after(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks for counters that need arguments or results -----------------

    def _qpoly_mul(self, args):
        a, b = args
        self.extra["qpoly.mul_coeff_products"] += len(a) * (
            len(b) if isinstance(b, tuple) else 1
        )

    def _value_before(self, args):
        param, w = args
        if param.rank >= 2:
            hit = (param, w) in self._memo
            self.extra["evaluator.memo_hits" if hit else "evaluator.memo_misses"] += 1

    def _restrict_after(self, args, result, parent):
        self.extra["restrict.terms"] += len(result)
        self._episode_params.add(args[0])
        if parent[3] == "evaluator.value":
            self.extra["restrict.from_value"] += 1

    def _quotient_after(self, args, result, parent):
        self.extra["fforacle.lines"] += 1
        if type(result).__name__ == "VNotPerp":
            self.extra["fforacle.empty_fibres"] += 1
            if args[0].field.p == 2:
                self.extra["fforacle.empty_fibres_sp2"] += 1

    def episode(self):
        """Close the current cold-memo episode: count the distinct parameters
        it restricted and the memo entries it left."""
        self.episode_distinct += len(self._episode_params)
        self._episode_params = set()
        self.extra["evaluator.memo_entries"] += len(self._memo)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every layer module of ``package`` (the imported springerbc)."""
        prefix = package.__name__ + "."
        modules = {name: sys.modules[prefix + name] for name in LAYERS}
        namespaces = [package] + [
            m for key, m in sys.modules.items() if key.startswith(prefix) and m is not None
        ]
        self._memo = modules["evaluator"]._memo
        before = {
            "evaluator.value": self._value_before,
            "qpoly.QPoly.__mul__": self._qpoly_mul,
            "qpoly.QPoly.__rmul__": self._qpoly_mul,
        }
        after = {
            "restrict.restrict_symplectic": self._restrict_after,
            "restrict.restrict_exotic": self._restrict_after,
            "fforacle.quotient_model": self._quotient_after,
        }
        for layer, module in modules.items():
            aggregated = layer in AGGREGATED
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, obj, aggregated, before.get(name), after.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._saved.append((ns, attr, obj))
                        setattr(ns, attr, wrapper)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = vars(module)[cls_name]
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(
                            self.wrap(name, raw.__func__, aggregated, before.get(name))
                        )
                    else:
                        wrapped = self.wrap(name, raw, aggregated, before.get(name))
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)

    def calls(self, *names):
        return sum(self.count.get(n, 0) for n in names)

    def write_spans(self, path):
        """Write the span records as gzip'd tab-separated lines
        ``id parent name start end`` (seconds on the run's clock)."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_t0[i]!r}\t{self.span_t1[i]!r}\n"
                )
        return len(self.span_id)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr, passes, field_build_s):
    """Per-pass layer metrics from a tracer that ran ``passes`` identical
    passes.  Returns {name: (value, unit)}; ratios with no attempts read 0."""
    c = lambda *names: tr.calls(*names) / passes
    x = lambda key: tr.extra[key] / passes
    s = lambda layer: tr.layer_self_s(layer) / passes
    restrict_calls = tr.calls("restrict.restrict_symplectic", "restrict.restrict_exotic")
    hits, misses = tr.extra["evaluator.memo_hits"], tr.extra["evaluator.memo_misses"]
    lines = tr.extra["fforacle.lines"]
    return {
        "evaluator.value_calls": (c("evaluator.value"), "count"),
        "evaluator.memo_misses": (x("evaluator.memo_misses"), "count"),
        "evaluator.memo_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "evaluator.self_s": (s("evaluator"), "s"),
        "restrict.calls": (c(*[n for n in tr.count if n.startswith("restrict.restrict_")]), "count"),
        "restrict.terms": (x("restrict.terms"), "count"),
        "restrict.self_s": (s("restrict"), "s"),
        "restrict.repeat_ratio": (_ratio(restrict_calls, tr.episode_distinct), "ratio"),
        "qpoly.new_calls": (c("qpoly.QPoly.__new__"), "count"),
        "qpoly.add_calls": (c("qpoly.QPoly.__add__", "qpoly.QPoly.__radd__"), "count"),
        "qpoly.mul_calls": (c("qpoly.QPoly.__mul__", "qpoly.QPoly.__rmul__"), "count"),
        "qpoly.mul_coeff_products": (x("qpoly.mul_coeff_products"), "count"),
        "qpoly.self_s": (s("qpoly"), "s"),
        "partitions.new_calls": (c("partitions.Partition.__new__"), "count"),
        "partitions.self_s": (s("partitions"), "s"),
        "params.make_calls": (c("params.OmegaParam.make"), "count"),
        "params.validate_calls": (c("params.validate_omega"), "count"),
        "params.nabla_delta_calls": (c("params.nabla_delta"), "count"),
        "params.self_s": (s("params"), "s"),
        "gf.rank_calls": (c("gf.rank"), "count"),
        "gf.nullspace_calls": (c("gf.nullspace"), "count"),
        "gf.mat_mul_calls": (c("gf.mat_mul"), "count"),
        "gf.mat_vec_calls": (c("gf.mat_vec"), "count"),
        "gf.echelon_add_calls": (c("gf.Echelon.add"), "count"),
        "gf.self_s": (s("gf"), "s"),
        "gf.field_build_s": (field_build_s, "s"),
        "fforacle.lines": (x("fforacle.lines"), "count"),
        "fforacle.empty_fibres": (x("fforacle.empty_fibres"), "count"),
        "fforacle.useful_line_ratio": (
            _ratio(lines - tr.extra["fforacle.empty_fibres"], lines), "ratio"
        ),
        "fforacle.model_builds_per_param": (
            _ratio(
                tr.calls("fforacle.standard_model_symplectic", "fforacle.standard_model_exotic"),
                tr.calls("fforacle.verify_against_formula"),
            ),
            "ratio",
        ),
        "fforacle.quotient_calls": (c("fforacle.quotient_model"), "count"),
        "fforacle.quotient_self_s": (tr.self_s["fforacle.quotient_model"] / passes, "s"),
        "fforacle.invariant_calls": (
            c("fforacle.chi_invariant", "fforacle.exotic_invariant"), "count"
        ),
        "fforacle.invariant_self_s": (
            (tr.self_s["fforacle.chi_invariant"] + tr.self_s["fforacle.exotic_invariant"])
            / passes,
            "s",
        ),
        "fforacle.jordan_type_calls": (c("fforacle.jordan_type"), "count"),
        "fforacle.self_s": (s("fforacle"), "s"),
    }


def closed_form_checks(tr, passes, lines_per_pass):
    """The counter identities a correct trace must satisfy, by name."""
    e = tr.extra
    return {
        # every kernel line gets exactly one quotient
        "lines_equal_line_count": e["fforacle.lines"] == passes * lines_per_pass,
        # cold memo, no cap: each miss restricts once and stores one entry
        "memo_misses_equal_restricts_from_value": (
            e["evaluator.memo_misses"] == e["restrict.from_value"]
        ),
        "memo_misses_equal_memo_entries": (
            e["evaluator.memo_misses"] == e["evaluator.memo_entries"]
        ),
        # in characteristic 2 every line is orthogonal to the zero vector v
        "no_empty_fibres_on_sp2": e["fforacle.empty_fibres_sp2"] == 0,
    }
