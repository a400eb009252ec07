"""Layer tracing for the linfweak benchmark, kept outside the package.

`Tracer.install` wraps the public functions and methods of every layer
module and rebinds each wrapper wherever `from .x import y` copied the
original name (for example `engine.min_of`).  A span is opened only when a
call crosses from one layer into another, so same-layer calls cost one
attribute check.  Per layer the tracer keeps the span count (`calls`) and
the self time: a span's duration minus the time its child spans cover.
It also keeps the deterministic counters listed in bench/README.md.
Spans (name, start, end, parent, op id) of at least KEEP_NS are kept in
memory and written out by `write_spans` after the traced pass; a parent
lasts at least as long as its children, so the kept spans form a tree.
Shorter spans count in the layer totals only, which keeps memory small
(a pass of evidence-deep opens millions of spans).

Only standard library; `uninstall` restores every patched attribute.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from fractions import Fraction

# module name -> layer name; corpus, points and numtheory only supply inputs
LAYER_OF_MODULE = {
    "sets": "sets", "piecewise": "piecewise", "families": "families",
    "engine": "engine", "localize": "localize", "enclosure": "enclosure",
    "finitemodel": "finitemodel", "polytope": "polytope",
    "restriction": "restriction", "literals": "frontend",
    "problemfile": "frontend", "reporting": "frontend", "cli": "frontend",
}
LAYERS = ("sets", "piecewise", "families", "engine", "localize", "enclosure",
          "finitemodel", "polytope", "restriction", "frontend")
# of cli only the dispatcher belongs to the front-end layer; main() parses argv
CLI_PUBLIC = {"run"}
ROOT_LAYER = "bench"
KEEP_NS = 100_000

# counters that must repeat exactly between two traced runs with one seed
DETERMINISTIC = ("piecewise.merges", "piecewise.pieces.max",
                 "piecewise.pieces.sum", "piecewise.runs.sum",
                 "polytope.vertices.sum", "engine.evidence_cells")


def _runs(fn) -> int:
    """Maximal runs of touching pieces that share one affine law."""
    runs = 0
    prev = None
    for p in fn.pieces:
        iv = p.interval
        if (prev is None or prev.slope != p.slope or prev.intercept != p.intercept
                or prev.interval.hi != iv.lo
                or not (prev.interval.hi_closed or iv.lo_closed)):
            runs += 1
        prev = p
    return runs


def _denominator_bits(fn) -> int:
    best = 0
    for p in fn.pieces:
        iv = p.interval
        for q in (iv.lo, iv.hi, p.slope, p.intercept):
            if isinstance(q, Fraction):
                best = max(best, q.denominator.bit_length())
    return best


# counters that only enter the ratios below, not reported themselves
_RATIO_PARTS = ("engine.evidence_merges", "families.term.hits")


class _State:
    __slots__ = ("layer", "child_ns", "span", "op", "next_id")

    def __init__(self):
        self.layer = ROOT_LAYER
        self.child_ns = 0
        self.span = -1
        self.op = -1
        self.next_id = 0


class Tracer:
    """Wraps the layers of one imported linfweak package."""

    def __init__(self, modules: dict):
        self.modules = modules  # short module name -> module object
        self._patches: list[tuple[object, str, object]] = []
        self.state = _State()
        self.self_ns = {layer: 0 for layer in LAYERS + (ROOT_LAYER,)}
        self.calls = {layer: 0 for layer in LAYERS + (ROOT_LAYER,)}
        self.count = {key: 0 for key in (
            "piecewise.merges", "piecewise.pieces.max", "piecewise.pieces.sum",
            "piecewise.runs.sum", "piecewise.denominator_bits.max",
            "sets.parts.max", "engine.evidence_cells", "engine.evidence_merges",
            "families.term.calls", "families.term.hits",
            "families.verify.calls", "frontend.report_lines.sum",
            "polytope.constraints.sum", "polytope.vertices.sum",
            "enclosure.bits.max")}
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []

    # -- accounting ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span of its call tree."""
        st = self.state
        st.op = op_id
        st.layer = ROOT_LAYER
        st.child_ns = 0
        sid = st.span = st.next_id
        st.next_id += 1
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.self_ns[ROOT_LAYER] += (t1 - t0) - st.child_ns
            self.calls[ROOT_LAYER] += 1
            self.spans.append((sid, self._name_id("op"), t0, t1, -1, op_id))
            st.span = -1

    # -- result observers (run on span exit, i.e. at layer boundaries) --------

    def _observe_piecewise(self, result):
        if type(result) is self._piecewise_cls:
            c = self.count
            n = len(result.pieces)
            c["piecewise.pieces.sum"] += n
            c["piecewise.pieces.max"] = max(c["piecewise.pieces.max"], n)
            c["piecewise.runs.sum"] += _runs(result)
            c["piecewise.denominator_bits.max"] = max(
                c["piecewise.denominator_bits.max"], _denominator_bits(result))

    def _observe_sets(self, result):
        if type(result) is self._intervalset_cls:
            c = self.count
            c["sets.parts.max"] = max(c["sets.parts.max"], len(result.parts))

    def _observe_enclosure(self, result):
        if type(result) is self._ratinterval_cls:
            bits = max(result.lo.denominator.bit_length(),
                       result.hi.denominator.bit_length())
            c = self.count
            c["enclosure.bits.max"] = max(c["enclosure.bits.max"], bits)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        state = self.state
        self_ns, calls, spans = self.self_ns, self.calls, self.spans
        observe = {"piecewise": self._observe_piecewise,
                   "sets": self._observe_sets,
                   "enclosure": self._observe_enclosure}.get(layer)
        pre, post = self._hooks(name)
        name_id = self._name_id(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = state
            if pre is not None:
                pre(args)
            if st.layer == layer:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            prev_layer, saved_child, parent = st.layer, st.child_ns, st.span
            st.layer = layer
            st.child_ns = 0
            sid = st.span = st.next_id
            st.next_id = sid + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self_ns[layer] += dur - st.child_ns
                calls[layer] += 1
                if dur >= KEEP_NS:
                    spans.append((sid, name_id, t0, t1, parent, st.op))
                st.layer, st.child_ns, st.span = prev_layer, saved_child + dur, parent
            if observe is not None:
                observe(result)
            if post is not None:
                post(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _hooks(self, name: str):
        c = self.count
        if name == "piecewise.min_of":
            def pre(args):
                c["piecewise.merges"] += len(args[0]) - 1
            return pre, None
        if name == "families.SequenceFamily.term":
            def pre(args):
                c["families.term.calls"] += 1
                if args[1] in args[0]._cache:
                    c["families.term.hits"] += 1
            return pre, None
        if name in ("families.verify_certificate", "families.verify_norm_bound"):
            def pre(args):
                c["families.verify.calls"] += 1
            return pre, None
        if name == "engine.test_weak_null":
            marks = []

            def pre(args):
                marks.append(c["piecewise.merges"])

            def post(args, verdict):
                start = marks.pop()
                if verdict.kind == "inconclusive":
                    c["engine.evidence_cells"] += len(verdict.evidence["table"])
                    c["engine.evidence_merges"] += c["piecewise.merges"] - start
            return pre, post
        if name in ("reporting.render_machine", "reporting.render_human"):
            def post(args, text):
                c["frontend.report_lines.sum"] += text.count("\n")
            return None, post
        if name == "polytope.vertex_enumeration":
            def pre(args):
                c["polytope.constraints.sum"] += len(args[0])

            def post(args, verts):
                c["polytope.vertices.sum"] += len(verts)
            return pre, post
        return None, None

    def _targets(self):
        """(owner, attribute, original, layer, span name) for every public
        function and method of the layer modules."""
        out = []
        for short, layer in LAYER_OF_MODULE.items():
            mod = self.modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if short == "cli" and attr not in CLI_PUBLIC:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((mod, attr, obj, layer, f"{short}.{attr}"))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    out.extend(self._class_targets(obj, layer, short))
        return out

    @staticmethod
    def _class_targets(cls, layer, short):
        out = []
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and not dataclasses.is_dataclass(cls))
            if not public:
                continue
            if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                out.append((cls, attr, raw, layer, f"{short}.{cls.__name__}.{attr}"))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._piecewise_cls = self.modules["piecewise"].PiecewiseFn
        self._intervalset_cls = self.modules["sets"].IntervalSet
        self._ratinterval_cls = self.modules["enclosure"].RatInterval
        replaced: dict[int, object] = {}
        for owner, attr, raw, layer, name in self._targets():
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name))
            else:
                new = self._wrap(raw, layer, name)
                replaced[id(raw)] = (raw, new)
            self._patch(owner, attr, new)
        # rebind the copies that `from .x import y` made in other modules
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics for one traced pass of `ops` ops: self time in ms
        per op, span counts and the deterministic counters."""
        c = self.count
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.self_ns[layer] / 1e6 / ops
            out[f"{layer}.calls"] = self.calls[layer]
        out["bench.self_ms"] = self.self_ns[ROOT_LAYER] / 1e6 / ops
        out.update((k, v) for k, v in c.items() if k not in _RATIO_PARTS)
        runs = c["piecewise.runs.sum"]
        out["piecewise.coalesce_ratio"] = c["piecewise.pieces.sum"] / runs if runs else 0.0
        cells = c["engine.evidence_cells"]
        out["engine.merges_per_cell"] = c["engine.evidence_merges"] / cells if cells else 0.0
        terms = c["families.term.calls"]
        out["families.term.hit_ratio"] = c["families.term.hits"] / terms if terms else 0.0
        return out

    def write_spans(self, path):
        """One tab-separated line per kept span: id, name, start_ns, end_ns,
        parent id (-1 for an op) and op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for sid, name_id, t0, t1, parent, op in sorted(self.spans):
                fh.write(f"{sid}\t{self.span_names[name_id]}\t{t0}\t{t1}\t{parent}\t{op}\n")
