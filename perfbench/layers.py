"""Per-layer spans for the traced benchmark run.

The tracer observes the library from outside: it wraps public functions of
each module of omegacalc and replaces the binding in every omegacalc module
that imported them (modules use `from .linalg import ...`), plus two methods
on their classes.  Each call made while an op is active records a span
(layer, start, end, parent, op id) in memory; `metrics()` turns the spans of
the finished round into per-layer numbers.  A layer's time `s` is its self
time: span time minus the time covered by its child spans.  `verify.s` is
the exception: it is the inclusive time of the outermost self-check spans,
because a self-check's cost is mostly the matrix work it calls.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, attribute) -> layer.  "Class.method" attributes patch the class.
TARGETS = {
    ("linalg", "Mat.__mul__"): "linalg.matmul",
    ("linalg", "kronecker"): "linalg.kronecker",
    ("linalg", "rref"): "linalg.elim",
    ("linalg", "rank"): "linalg.elim",
    ("linalg", "kernel_basis"): "linalg.elim",
    ("linalg", "image_basis"): "linalg.elim",
    ("linalg", "solve"): "linalg.elim",
    ("linalg", "quotient_maps"): "linalg.elim",
    ("linalg", "factor_through_surjection"): "linalg.elim",
    ("linalg", "preimage_basis"): "linalg.elim",
    ("linalg", "subspace_leq"): "linalg.elim",
    ("fodc", "universal_calculus"): "fodc.universal_calculus",
    ("fodc", "quotient_calculus"): "fodc.quotient_calculus",
    ("fodc", "induced_map"): "fodc.induced_map",
    ("fodc", "enumerate_action_closed_subspaces"): "fodc.enumerate",
    ("bimodule", "saturate_subspace"): "bimodule.saturate",
    ("bimodule", "tensor_over_algebra"): "bimodule.tensor_over_algebra",
    ("bimodule", "quotient_bimodule"): "bimodule.quotient",
    ("kahler", "kahler_calculus"): "kahler.kahler_calculus",
    ("scalars", "calc_pushforward"): "scalars.pushforward",
    ("scalars", "calc_pullback"): "scalars.pullback",
    ("scalars", "verify_poset_adjunction"): "scalars.adjunction",
    ("hopf", "bicovariance_check"): "hopf.bicovariance",
    ("hopf", "universal_coactions"): "hopf.coactions",
    ("prolong", "universal_prolongation"): "prolong.universal",
    ("prolong", "maximal_prolongation"): "prolong.maximal",
    ("prolong", "unique_dg_morphism"): "prolong.dg_morphism",
    ("derham", "cohomology"): "derham.cohomology",
    ("prolong", "GradedCalculus.validation_report"): "verify",
    ("fodc", "check_fodc"): "verify",
    ("bimodule", "action_closed"): "verify",
    ("bimodule", "bimodule_axiom_report"): "verify",
    ("algebra", "algebra_axiom_report"): "verify",
    ("algebra", "alg_map_report"): "verify",
    ("hopf", "bimonoid_axiom_report"): "verify",
    ("hopf", "check_hopf_module"): "verify",
    ("io", "load_json"): "io.load",
    ("io", "algebra_from_json"): "io.load",
    ("io", "bimonoid_from_json"): "io.load",
    ("io", "morphism_from_json"): "io.load",
    ("io", "relations_from_json"): "io.load",
    ("io", "bimodule_from_json"): "io.load",
    ("io", "dump_json"): "io.emit",
}

# Per-layer metrics as (name, unit, better); the order is the print order.
CALLS_AND_S = [
    "fodc.universal_calculus", "fodc.quotient_calculus", "fodc.induced_map",
    "fodc.enumerate", "bimodule.saturate", "bimodule.tensor_over_algebra",
    "bimodule.quotient", "derham.cohomology",
]
S_ONLY = [
    "kahler.kahler_calculus", "scalars.pushforward", "scalars.pullback",
    "scalars.adjunction", "hopf.bicovariance", "hopf.coactions",
    "prolong.universal", "prolong.maximal", "prolong.dg_morphism",
]
METRICS = (
    [
        ("linalg.matmul.calls", "count", "lower"),
        ("linalg.matmul.s", "s", "lower"),
        ("linalg.matmul.dense_madds", "count", "lower"),
        ("linalg.matmul.useful_madds", "count", "lower"),
        ("linalg.matmul.useful_ratio", "ratio", "higher"),
        ("linalg.kronecker.calls", "count", "lower"),
        ("linalg.kronecker.s", "s", "lower"),
        ("linalg.kronecker.out_entries", "count", "lower"),
        ("linalg.kronecker.out_nnz", "count", "lower"),
        ("linalg.elim.calls", "count", "lower"),
        ("linalg.elim.s", "s", "lower"),
        ("linalg.elim.entries_in", "count", "lower"),
        ("linalg.q_integral_share", "ratio", "higher"),
        ("fodc.universal_calculus.distinct_algebras", "count", "lower"),
        ("fodc.universal_calculus.repeat_ratio", "ratio", "lower"),
        ("prolong.universal.max_component_dim", "dim", "lower"),
    ]
    + [(f"{layer}.{kind}", unit, "lower")
       for layer in CALLS_AND_S for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{layer}.s", "s", "lower") for layer in S_ONLY]
    + [
        ("verify.s", "s", "lower"),
        ("verify.share", "ratio", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.compute_s", "s", "lower"),
        ("io.load_s", "s", "lower"),
        ("io.emit_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)
# Counts, and ratios of counts: these repeat exactly for a given seed and round
EXACT_METRICS = [name for name, unit, _ in METRICS if unit in ("count", "dim")] + [
    "linalg.matmul.useful_ratio", "linalg.q_integral_share",
    "fodc.universal_calculus.repeat_ratio",
]


def _nonzero_rows(m):
    """Per row, the (column, value) pairs of nonzero entries.

    Reads the dense row lists the matrix type stores today and falls back to
    element access, so the tracer keeps working if the storage changes.
    """
    data = getattr(m, "data", None)
    if isinstance(data, list) and all(isinstance(r, list) for r in data):
        return [[(j, v) for j, v in enumerate(r) if v] for r in data]
    if isinstance(data, list) and all(isinstance(r, dict) for r in data):
        return [[(j, v) for j, v in r.items() if v] for r in data]
    return [[(j, m[i, j]) for j in range(m.cols) if m[i, j]] for i in range(m.rows)]


class Tracer:
    """Installs wrappers into the loaded omegacalc modules; records spans."""

    def __init__(self):
        self.spans = []       # [layer, start, end, parent index, op id, count time]
        self.counts = {}
        self.stack = []
        self.op_id = None
        self.universal_args = set()
        self._keep = []       # keeps counted algebras alive so ids stay unique
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "omegacalc" or name.startswith("omegacalc.")
        }
        for (modname, attr), layer in TARGETS.items():
            mod = mods.get(f"omegacalc.{modname}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, layer, attr))
                continue
            # a function the library no longer has simply reads as zero
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, layer, attr)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrap(self, fn, layer, attr):
        tracer = self
        count = self._count_hook(attr)

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, tracer.op_id, 0.0]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(args, result)
                # counting is tracer work: charge it to no layer
                span[5] = time.perf_counter() - span[2]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    # -- counters at the layer boundaries --------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_q(self, m):
        """Nonzero and integral entries of a matrix over Q (GF(p) is skipped)."""
        if not getattr(m.field, "is_rational", False):
            return
        for row in _nonzero_rows(m):
            for _, v in row:
                if isinstance(v, Fraction):
                    self._add("q_nonzero", 1)
                    if v.denominator == 1:
                        self._add("q_integral", 1)

    def _count_hook(self, attr):
        if attr == "Mat.__mul__":
            def count(args, out):
                a, b = args
                col_nnz = [0] * a.cols
                for row in _nonzero_rows(a):
                    for j, _ in row:
                        col_nnz[j] += 1
                b_rows = _nonzero_rows(b)
                self._add("matmul.dense", a.rows * a.cols * b.cols)
                self._add("matmul.useful",
                          sum(c * len(r) for c, r in zip(col_nnz, b_rows)))
                self._count_q(out)
            return count
        if attr == "kronecker":
            def count(args, out):
                a, b = args
                self._add("kron.entries", out.rows * out.cols)
                self._add("kron.nnz", sum(map(len, _nonzero_rows(a)))
                          * sum(map(len, _nonzero_rows(b))))
                self._count_q(out)
            return count
        if TARGETS.get(("linalg", attr)) == "linalg.elim":
            def count(args, out):
                m = args[0]
                extra = args[1].cols if attr == "solve" else 0
                self._add("elim.entries", m.rows * (m.cols + extra))
            return count
        if attr == "universal_calculus":
            def count(args, out):
                a = args[0]
                if id(a) not in self.universal_args:
                    self.universal_args.add(id(a))
                    self._keep.append(a)
            return count
        if attr == "universal_prolongation":
            def count(args, out):
                self.counts["max_dim"] = max(self.counts.get("max_dim", 0), *out.dims)
            return count
        return None

    # -- per-round results -----------------------------------------------------

    def activate(self, op_id):
        self.op_id = op_id

    def deactivate(self):
        self.op_id = None

    def reset(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.universal_args = set()
        self._keep = []

    def layer_times(self):
        """(self time per layer, calls per layer, inclusive outermost verify time)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _, counting in self.spans:
            if parent >= 0:
                child[parent] += end - start + counting
        self_s, calls = {}, {}
        verify = 0.0
        for idx, (layer, start, end, parent, _, _) in enumerate(self.spans):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[idx]
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "verify" and not self._inside(parent, "verify"):
                verify += end - start
        return self_s, calls, verify

    def _inside(self, idx, layer):
        while idx >= 0:
            if self.spans[idx][0] == layer:
                return True
            idx = self.spans[idx][3]
        return False

    def raw(self):
        """Aggregates of this tracer's spans, summable across processes."""
        self_s, calls, verify = self.layer_times()
        return {"self_s": self_s, "calls": calls, "verify_s": verify,
                "counts": dict(self.counts),
                "distinct_algebras": len(self.universal_args)}


def merge_raw(parts):
    out = {"self_s": {}, "calls": {}, "verify_s": 0.0, "counts": {},
           "distinct_algebras": 0}
    for part in parts:
        for key in ("self_s", "calls", "counts"):
            for k, v in part[key].items():
                if key == "counts" and k == "max_dim":
                    out[key][k] = max(out[key].get(k, 0), v)
                else:
                    out[key][k] = out[key].get(k, 0) + v
        out["verify_s"] += part["verify_s"]
        out["distinct_algebras"] += part["distinct_algebras"]
    return out


def metrics(raw, op_seconds, cli=None, overhead_share=0.0):
    """Per-layer metric values for one round.

    `op_seconds` is the traced time of all ops in the round (the base of
    verify.share); `cli` carries the CLI-only times (import_s, compute_s).
    """
    s, calls, c = raw["self_s"], raw["calls"], raw["counts"]
    dense = c.get("matmul.dense", 0)
    useful = c.get("matmul.useful", 0)
    uc_calls = calls.get("fodc.universal_calculus", 0)
    distinct = raw["distinct_algebras"]
    q_nonzero = c.get("q_nonzero", 0)
    out = {
        "linalg.matmul.calls": calls.get("linalg.matmul", 0),
        "linalg.matmul.s": s.get("linalg.matmul", 0.0),
        "linalg.matmul.dense_madds": dense,
        "linalg.matmul.useful_madds": useful,
        "linalg.matmul.useful_ratio": useful / dense if dense else 0.0,
        "linalg.kronecker.calls": calls.get("linalg.kronecker", 0),
        "linalg.kronecker.s": s.get("linalg.kronecker", 0.0),
        "linalg.kronecker.out_entries": c.get("kron.entries", 0),
        "linalg.kronecker.out_nnz": c.get("kron.nnz", 0),
        "linalg.elim.calls": calls.get("linalg.elim", 0),
        "linalg.elim.s": s.get("linalg.elim", 0.0),
        "linalg.elim.entries_in": c.get("elim.entries", 0),
        "linalg.q_integral_share": c.get("q_integral", 0) / q_nonzero if q_nonzero else 0.0,
        "fodc.universal_calculus.distinct_algebras": distinct,
        "fodc.universal_calculus.repeat_ratio": uc_calls / distinct if distinct else 0.0,
        "prolong.universal.max_component_dim": c.get("max_dim", 0),
    }
    for layer in CALLS_AND_S:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = s.get(layer, 0.0)
    for layer in S_ONLY:
        out[f"{layer}.s"] = s.get(layer, 0.0)
    cli = cli or {}
    out.update({
        "verify.s": raw["verify_s"],
        "verify.share": raw["verify_s"] / op_seconds if op_seconds else 0.0,
        "cli.import_s": cli.get("import_s", 0.0),
        "cli.compute_s": cli.get("compute_s", 0.0),
        "io.load_s": s.get("io.load", 0.0),
        "io.emit_s": s.get("io.emit", 0.0),
        "trace.overhead_share": overhead_share,
    })
    return out
