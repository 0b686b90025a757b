"""Per-layer tracing of quotcoh from outside the program.

``Tracer.install`` replaces each traced function in every quotcoh module
namespace that bound it (``quot.double_bundle_expand`` and
``indices.double_bundle_expand`` alike) with a wrapper, and ``uninstall``
puts the originals back.  Every wrapper pushes a frame on one span stack, so
a function's self time excludes the time of traced functions it called.
Spans are kept in memory only at the coarse boundaries (a case,
``quot_cohomology``, ``resolution_terms``, ``double_bundle_expand``,
``cli.run``), each tagged with the id of the case it belongs to; the hot
leaves only bump counters.  ``dump`` writes spans and counters as JSON and
is registered to run at exit.

Wrappers return exactly what the wrapped function returned, so tracing
changes no answer.
"""

import atexit
import json
import sys
import time
from collections import defaultdict

# (module, function, trace name).  The three verify_* functions share one
# name, so their counters add up.
TARGETS = (
    ("partitions", "as_partition", "partitions.as_partition"),
    ("partitions", "as_weight", "partitions.as_weight"),
    ("partitions", "enumerate_in_box", "partitions.enumerate_in_box"),
    ("partitions", "weyl_dim", "partitions.weyl_dim"),
    ("schur", "lr_coefficient", "schur.lr_coefficient"),
    ("schur", "double_bundle_expand", "schur.double_bundle_expand"),
    ("schur", "pieri_wedge", "schur.pieri_wedge"),
    ("schur", "pieri_sym", "schur.pieri_sym"),
    ("bott", "bwb", "bott.bwb"),
    ("quot", "resolution_terms", "quot.resolution_terms"),
    ("quot", "term_cohomology", "quot.term_cohomology"),
    ("quot", "quot_cohomology", "quot.quot_cohomology"),
    ("indices", "verify_wedge_vanishing", "indices.verify_vanishing"),
    ("indices", "verify_sym_vanishing", "indices.verify_vanishing"),
    ("indices", "verify_dual_vanishing", "indices.verify_vanishing"),
    ("indices", "indexed_partitions", "indices.indexed_partitions"),
    ("series", "compare", "series.compare"),
    ("cli", "run", "cli.run"),
)

COARSE = frozenset({
    "bench.case", "quot.quot_cohomology", "quot.resolution_terms",
    "schur.double_bundle_expand", "cli.run",
})


def _observe_lr(tr, args, result):
    if result == 0:
        tr.counts["schur.lr_coefficient.zeros"] += 1


def _observe_dbe(tr, args, result):
    tr.counts["schur.double_bundle_expand.terms_out"] += len(result)
    tr.dbe_keys.add((tuple(args[0]), args[1]))


def _observe_enum(tr, args, result):
    tr.counts["partitions.enumerate_in_box.out"] += len(result)


def _observe_bwb(tr, args, result):
    if result.vanishes:
        tr.counts["bott.bwb.vanishes"] += 1


def _observe_terms(tr, args, result):
    tr.counts["quot.resolution_terms.summands_out"] += len(result.summands)


def _observe_verify(tr, args, result):
    tr.counts["indices.verify_vanishing.summands_checked"] += len(
        result.summands)


OBSERVERS = {
    "schur.lr_coefficient": _observe_lr,
    "schur.double_bundle_expand": _observe_dbe,
    "partitions.enumerate_in_box": _observe_enum,
    "bott.bwb": _observe_bwb,
    "quot.resolution_terms": _observe_terms,
    "indices.verify_vanishing": _observe_verify,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.dbe_keys = set()
        # Open frames: [start, time spent in traced children, span id].
        self.stack = []
        self.open_spans = []
        # Closed coarse spans: (id, parent id, name, case id, start, end).
        self.spans = []
        self.case_id = None
        self._patched = []

    def _enter(self, coarse):
        span = None
        if coarse:
            span = len(self.spans) + len(self.open_spans)
            self.open_spans.append(span)
        frame = [0.0, 0.0, span]
        self.stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur
        span = frame[2]
        if span is not None:
            self.open_spans.pop()
            parent = self.open_spans[-1] if self.open_spans else None
            self.spans.append((span, parent, name, self.case_id,
                               frame[0], end))

    def _wrap(self, name, fn):
        coarse = name in COARSE
        observe = OBSERVERS.get(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(coarse)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, result)
            finally:
                leave(name, frame)
            return result

        return traced

    def install(self, spans_path=None):
        """Wrap every target in every quotcoh namespace that bound it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quotcoh" or key.startswith("quotcoh.")]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules["quotcoh." + modname], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        if spans_path:
            atexit.register(self.dump, spans_path)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def case(self, case_id):
        """Context manager: one span around a benchmark case."""
        return _CaseSpan(self, case_id)

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        c, s, t, n = self.calls, self.self_s, self.total_s, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        dbe = "schur.double_bundle_expand"
        return {
            "schur.lr_coefficient.calls": c["schur.lr_coefficient"],
            "schur.lr_coefficient.self_s": s["schur.lr_coefficient"],
            "schur.lr_coefficient.zero_frac": frac(
                n["schur.lr_coefficient.zeros"], c["schur.lr_coefficient"]),
            f"{dbe}.calls": c[dbe],
            f"{dbe}.s": t[dbe],
            f"{dbe}.terms_out": n[f"{dbe}.terms_out"],
            f"{dbe}.hit_frac":
                1.0 - len(self.dbe_keys) / c[dbe] if c[dbe] else 0.0,
            "partitions.as_partition.calls": c["partitions.as_partition"],
            "partitions.as_partition.self_s": s["partitions.as_partition"],
            "partitions.enumerate_in_box.calls":
                c["partitions.enumerate_in_box"],
            "partitions.enumerate_in_box.out":
                n["partitions.enumerate_in_box.out"],
            "partitions.enumerate_in_box.self_s":
                s["partitions.enumerate_in_box"],
            "partitions.as_weight.calls": c["partitions.as_weight"],
            "partitions.as_weight.self_s": s["partitions.as_weight"],
            "partitions.weyl_dim.calls": c["partitions.weyl_dim"],
            "partitions.weyl_dim.self_s": s["partitions.weyl_dim"],
            "schur.pieri_wedge.calls": c["schur.pieri_wedge"],
            "schur.pieri_wedge.self_s": s["schur.pieri_wedge"],
            "schur.pieri_sym.calls": c["schur.pieri_sym"],
            "schur.pieri_sym.self_s": s["schur.pieri_sym"],
            "bott.bwb.calls": c["bott.bwb"],
            "bott.bwb.self_s": s["bott.bwb"],
            "bott.bwb.vanish_frac": frac(n["bott.bwb.vanishes"],
                                         c["bott.bwb"]),
            "quot.resolution_terms.calls": c["quot.resolution_terms"],
            "quot.resolution_terms.self_s": s["quot.resolution_terms"],
            "quot.resolution_terms.summands_out":
                n["quot.resolution_terms.summands_out"],
            "quot.term_cohomology.calls": c["quot.term_cohomology"],
            "quot.term_cohomology.self_s": s["quot.term_cohomology"],
            "quot.quot_cohomology.s": t["quot.quot_cohomology"],
            "indices.verify_vanishing.calls": c["indices.verify_vanishing"],
            "indices.verify_vanishing.self_s": s["indices.verify_vanishing"],
            "indices.verify_vanishing.summands_checked":
                n["indices.verify_vanishing.summands_checked"],
            "indices.indexed_partitions.s": t["indices.indexed_partitions"],
            "series.compare.self_s": s["series.compare"],
            "cli.run.self_s": s["cli.run"],
        }

    def self_time_by_layer(self) -> dict:
        """Self time summed per module; the benchmark's own time inside a
        case is under "bench"."""
        out = {}
        for name in {t[2] for t in TARGETS} | {"bench.case"}:
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self.self_s.get(name, 0.0)
        return out

    def dump(self, path):
        doc = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "name", "case", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)


class _CaseSpan:
    def __init__(self, tracer, case_id):
        self.tracer = tracer
        self.case_id = case_id

    def __enter__(self):
        self.tracer.case_id = self.case_id
        self.frame = self.tracer._enter(True)

    def __exit__(self, *exc):
        self.tracer._exit("bench.case", self.frame)
        self.tracer.case_id = None
        return False
