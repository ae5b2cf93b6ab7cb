"""In-memory span tracing around divsym's public functions.

``Tracer.install`` replaces each traced function, in every loaded
``divsym`` module that bound it (``collector.replicate``,
``replicate.gap_decisions``, ``diversify.nop_gaps``, ...), with a wrapper
that records a span, so spans nest along the real call path.  Spans are
recorded only while ``item`` is set, i.e. inside a timed item; prep and
oracle work run the same wrappers with recording off.  ``uninstall``
restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from divsym import _speed, cfi, collector, deltadata, diversify, progmodel, \
    replicate, symfile

ITEM = "bench.item"

# (span name, module, attribute)
TRACED = (
    ("diversify.build_diversified", diversify, "build_diversified"),
    ("diversify.gap_decisions", diversify, "gap_decisions"),
    ("progmodel.layout", progmodel, "layout"),
    ("kernels.nop_gaps", _speed, "nop_gaps"),
    ("replicate.replicate", replicate, "replicate"),
    ("deltadata.diff", deltadata, "diff"),
    ("deltadata.pack", deltadata, "pack"),
    ("deltadata.unpack", deltadata, "unpack"),
    ("deltadata.apply", deltadata, "apply"),
    ("symfile.emit_symbol_file", symfile, "emit_symbol_file"),
    ("symfile.parse_symbol_file", symfile, "parse_symbol_file"),
    ("cfi.unwind", cfi, "unwind"),
    ("collector.parse_minidump", collector, "parse_minidump"),
    ("collector.trace_from_dump", collector, "trace_from_dump"),
    ("collector.report", collector, "report"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (ITEM,)
PATCH_OPS = "KSDRI"


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, item id); -1 = no parent
        self.spans = []
        self.item = None
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.item)

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if observe is not None:
                observe(self.counts, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def run_item(self, item_id, fn, *args):
        """Run one timed item under a root span; returns (seconds, out)."""
        self.item = item_id
        idx = self._open()
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            self._close(idx, ITEM, start)
            self.item = None
        _, s, e, _, _ = self.spans[idx]
        return e - s, out

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "divsym" or n.startswith("divsym.")) and m is not None]
        for name, mod, attr in TRACED:
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, OBSERVERS.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self):
        """{name: (value, unit)}: per-item self time and calls for each
        span name, and the ratios and counts observed at the spans."""
        spans = self.spans
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child_s = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        build_gap_calls = 0
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - child_s[idx]
            calls[name] += 1
            if name == "diversify.gap_decisions" and \
                    self._under(idx, "diversify.build_diversified"):
                build_gap_calls += 1
        n = max(calls[ITEM], 1)
        counts = self.counts
        out = {}
        for name in SPAN_NAMES:
            out[name + ".self_s"] = (self_s[name] / n, "s/item")
            if name != ITEM:
                out[name + ".calls"] = (calls[name] / n, "calls/item")
        out["diversify.gap_decisions.calls_per_block"] = (
            _ratio(build_gap_calls, counts["diversify.code_blocks_built"]),
            "calls/block")
        out["cfi.unwind.frames_per_call"] = (
            _ratio(counts["cfi.unwind.frames"], calls["cfi.unwind"]),
            "frames/call")
        for reason in STOP_REASONS:
            key = "cfi.unwind.stop." + reason
            out[key] = (counts[key] / n, "stops/item")
        patches = counts["deltadata.patches"]
        for op in PATCH_OPS:
            key = "deltadata.patch_ops." + op
            out[key] = (_ratio(counts[key], patches), "ops/delta")
        out["deltadata.payload_bytes"] = (
            _ratio(counts["deltadata.payload_bytes"], patches), "bytes/delta")
        out["trace.self_sum_s"] = (sum(self_s.values()) / n, "s/item")
        return out

    def _under(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _ratio(a, b):
    return a / b if b else 0.0


STOP_REASONS = (cfi.END_OF_STACK, cfi.NO_UNWIND_INFO, cfi.CFA_NOT_INCREASING,
                cfi.MAX_FRAMES, cfi.MEMORY_OUT_OF_RANGE,
                cfi.MALFORMED_EXPRESSION)


def _count_patch(counts, patch):
    counts["deltadata.patches"] += 1
    for op in patch.ops:
        counts["deltadata.patch_ops." + op.op] += 1
    counts["deltadata.payload_bytes"] += patch.payload_bytes


def _observe_build(counts, args, out):
    model = args[0]
    counts["diversify.code_blocks_built"] += sum(
        1 for f in model.functions for b in f.blocks if b.kind == "code")


def _observe_unwind(counts, args, out):
    frames, reason = out
    counts["cfi.unwind.frames"] += len(frames)
    counts["cfi.unwind.stop." + reason] += 1


# The patch of every delta an item handles: written on ship (diff), read
# on triage (unpack).
OBSERVERS = {
    "diversify.build_diversified": _observe_build,
    "cfi.unwind": _observe_unwind,
    "deltadata.diff": lambda counts, args, out: _count_patch(counts, out),
    "deltadata.unpack": lambda counts, args, out: _count_patch(counts, out.patch),
}
