"""Spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each traced function at the module attributes
through which the benchmark and the other library modules call it (for
instance ``planevals.poincare.multiplicity_matrix`` as well as
``planevals.dualgraph.multiplicity_matrix``), and ``uninstall`` puts the
originals back.  Each wrapper appends a span (name, start, end, parent,
op id, raised) to an in-memory list and updates per-layer counters;
nothing inside the library changes.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans.  ``repeat_ratio`` is the share of calls whose
argument equals one already seen in this process; it is computed here
from the arguments, never by reading the library's own caches.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from planevals import dualgraph, oracle, poincare, reconstruct, series


def _graph_key(g):
    # the fields DualGraph equality (and the LRU cache) compares
    return (g.parents, g.marked_divisors, g.arrows)


# (module, attribute, layer name).  The same layer appears once per module
# that imports the function under its own name.
TRACED = (
    (dualgraph, "random_instance", "dualgraph.random_instance"),
    (dualgraph, "graph_from_json", "dualgraph.graph_from_json"),
    (dualgraph, "graph_to_json", "dualgraph.graph_to_json"),
    (dualgraph, "equivalent", "dualgraph.equivalent"),
    (dualgraph, "multiplicity_matrix", "dualgraph.multiplicity_matrix"),
    (poincare, "multiplicity_matrix", "dualgraph.multiplicity_matrix"),
    (reconstruct, "multiplicity_matrix", "dualgraph.multiplicity_matrix"),
    (oracle, "multiplicity_matrix", "dualgraph.multiplicity_matrix"),
    (poincare, "poincare_series", "poincare.poincare_series"),
    (reconstruct, "poincare_series", "poincare.poincare_series"),
    (reconstruct, "reconstruct_divisorial", "reconstruct.reconstruct"),
    (reconstruct, "reconstruct_curve", "reconstruct.reconstruct"),
    (reconstruct, "branch_from_univariate",
     "reconstruct.branch_from_univariate"),
    (reconstruct, "pairwise_contact", "reconstruct.pairwise_contact"),
    (reconstruct, "assemble", "reconstruct.assemble"),
    (series, "expand", "series.expand"),
    (series, "factorize", "series.factorize"),
    (series, "series_to_text", "series.text"),
    (series, "series_from_text", "series.text"),
    (oracle, "divide_torus", "series.divide_torus"),
    (oracle, "definitional_poincare", "oracle.definitional_poincare"),
)

OP = "op"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, raised]
        self._stack = []
        self._patches = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.n_max = 0
        self._seen = defaultdict(set)

    # -- recording ---------------------------------------------------------

    def _note(self, name, args, kwargs, out):
        """Per-layer counters read from arguments and results."""
        c = self.counts
        if name == "dualgraph.multiplicity_matrix":
            g = args[0] if args else kwargs["graph"]
            self.n_max = max(self.n_max, g.n)
            self._repeat(name, _graph_key(g))
        elif name == "series.expand":
            p, bound = args[0], args[1]
            c["series.expand.cells"] += (bound + 1) ** p.nvars
        elif name == "series.factorize" and out is not None:
            c["series.factorize.factors"] += len(out)
        elif name == "series.text":
            text = out if isinstance(out, str) else args[0]
            c["series.text.bytes"] += len(text)
        elif name == "oracle.definitional_poincare":
            g, spec, bound = args[0], tuple(args[1]), args[2]
            c["oracle.definitional_poincare.cells"] += (
                (bound + 1) ** len(spec))
            self._repeat(name, (_graph_key(g), spec, bound))

    def _repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def span(self, name, fn, *args, **kwargs):
        if name != OP and not self._stack:
            # outside an op (parsing an item before its timed interval)
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id, True]
        self.spans.append(rec)
        self._stack.append(idx)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            rec[5] = False
            return out
        finally:
            rec[2] = time.perf_counter()
            rec[1] = start
            self._stack.pop()
            self._note(name, args, kwargs, out)

    def op(self, op_id, fn, *args):
        """Run one benchmark op as the root span of its layer spans."""
        self.op_id = op_id
        return self.span(OP, fn, *args)

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """name -> {"calls", "raised", "total_s", "self_s"}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "raised": 0,
                                   "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["raised"] += raised
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, raised])
                         + "\n")


def per_layer_metrics(tracer, untraced_op_s, import_s, cold_ms):
    """The per-layer metrics named in BENCHMARK.json, with units."""
    t = tracer.layer_totals()
    c = tracer.counts

    def self_s(name):
        return t[name]["self_s"]

    def calls(name):
        return t[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    op_total = t[OP]["total_s"]
    layer_self = sum(v["self_s"] for k, v in t.items() if k != OP)
    oracle_cells = c["oracle.definitional_poincare.cells"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("dualgraph.random_instance.self_s",
        self_s("dualgraph.random_instance"), "s")
    put("dualgraph.graph_from_json.self_s",
        self_s("dualgraph.graph_from_json"), "s")
    put("dualgraph.graph_to_json.self_s",
        self_s("dualgraph.graph_to_json"), "s")
    mm = "dualgraph.multiplicity_matrix"
    put(mm + ".self_s", self_s(mm), "s")
    put(mm + ".calls", calls(mm), "count")
    put(mm + ".repeat_ratio", ratio(c[mm + ".repeats"], calls(mm)), "ratio")
    put(mm + ".n_max", tracer.n_max, "count")
    eq = "dualgraph.equivalent"
    put(eq + ".self_s", self_s(eq), "s")
    put(eq + ".calls", calls(eq), "count")
    put(eq + ".fail_count", t[eq]["raised"], "count")
    ps = "poincare.poincare_series"
    put(ps + ".self_s", self_s(ps), "s")
    put(ps + ".calls", calls(ps), "count")
    for layer in ("reconstruct", "branch_from_univariate",
                  "pairwise_contact", "assemble"):
        name = "reconstruct." + layer
        put(name + ".self_s", self_s(name), "s")
        put(name + ".calls", calls(name), "count")
    put("reconstruct.assemble.fail_ratio",
        ratio(t["reconstruct.assemble"]["raised"],
              calls("reconstruct.assemble")), "ratio")
    put("series.expand.self_s", self_s("series.expand"), "s")
    put("series.expand.cells", c["series.expand.cells"], "count")
    put("series.factorize.self_s", self_s("series.factorize"), "s")
    put("series.factorize.factors", c["series.factorize.factors"], "count")
    put("series.text.self_s", self_s("series.text"), "s")
    put("series.text.bytes", c["series.text.bytes"], "bytes")
    put("series.divide_torus.self_s", self_s("series.divide_torus"), "s")
    od = "oracle.definitional_poincare"
    put(od + ".self_s", self_s(od), "s")
    put(od + ".calls", calls(od), "count")
    put(od + ".cells", oracle_cells, "count")
    put(od + ".us_per_cell", ratio(1e6 * self_s(od), oracle_cells), "us")
    put(od + ".repeat_ratio", ratio(c[od + ".repeats"], calls(od)), "ratio")
    put("cli.import_s", import_s, "s")
    put("cli.cold_ms", cold_ms, "ms")
    put("op.total_s", op_total, "s")
    put("op.self_s", self_s(OP), "s")
    put("trace.attributed_ratio", ratio(layer_self, op_total), "ratio")
    put("trace.overhead_s", op_total - untraced_op_s, "s")
    put("trace.overhead_ratio",
        ratio(op_total - untraced_op_s, untraced_op_s), "ratio")
    return m
