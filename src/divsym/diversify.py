"""The three diversification decision processes and the build drivers.

Padding, NOP insertion and function shuffling are driven by SplitMix64
streams.  Padding and NOP decisions reseed per function (and per block)
from a hash of the function's immutable identifier, so a decision never
depends on anything another function did: the crash server can replay
each function independently, and any desynchronization stays contained.

The default build runs the same tool chain with no diversification and
records the opportunity log; the diversified build additionally records
its decisions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate

from divsym._speed import nop_gaps
from divsym.errors import ModelError
from divsym.prng import Prng, function_reseed, mix64
from divsym.progmodel import BuildOptions, LineSpan, layout

# re-exported: the PRNG and reseeding live in divsym.prng
__all__ = [
    "SeedTuple", "Prng", "function_reseed", "pad_amount", "gap_decisions",
    "insert_nops", "shuffle_order", "shuffle_permutation", "inject_desync",
    "build_default", "build_diversified", "OpportunityLog", "LogFunction",
    "LogBlock", "DecisionLog", "log_from_layout", "emit_opportunity_log",
    "parse_opportunity_log", "emit_decision_log", "parse_decision_log",
    "bucket_gaps",
]

PAD_CHOICES = 32          # padding in {8, 16, ..., 256}
DEFAULT_PAD = 8


@dataclass(frozen=True)
class SeedTuple:
    pad_seed: int
    nop_seed: int
    shuffle_seed: int


@dataclass(frozen=True)
class LogBlock:
    kind: str                 # "code" | "data" | "pool"
    index: int = -1           # model block index; -1 for pools
    size: int = 0             # instructions (code) or bytes (data/pool)
    model_instrs: int = 0     # code: body instruction count driving replay
    epilogue: bool = False


@dataclass(frozen=True)
class LogFunction:
    identifier: str
    alignment: int
    local_size: int
    saved_count: int
    has_fp: bool
    blocks: tuple


@dataclass(frozen=True)
class OpportunityLog:
    module_name: str
    functions: tuple


@dataclass(frozen=True)
class DecisionLog:
    module_name: str
    functions: tuple          # LogFunction of the diversified build
    paddings: tuple           # ((identifier, bytes), ...)
    nops: tuple               # ((identifier, block_index, (gap, ...)), ...)
    order: tuple
    desyncs: tuple = ()       # ((identifier, block_index), ...)


def pad_amount(identifier, pad_seed, default_mode):
    """Stack padding for one function: 8 in default mode, else 8..256.

    Stateless: depends only on the identifier and the scheme seed, never
    on compilation order.
    """
    if default_mode:
        return DEFAULT_PAD
    return 8 * (1 + function_reseed(identifier, pad_seed) % PAD_CHOICES)


def gap_decisions(identifier, block_index, n_gaps, nop_seed, num, den):
    """1-based gap indices that receive a NOP, for one code block.

    Reseeds per block from identifier '#' block_index, one draw per gap;
    a gap fires when the draw's low 32 bits are below num/den of 2^32.
    The same routine runs on the build system and in the replicator.
    Each side draws a block once per build: build_diversified takes its
    decision log from the pass that grows the spans, and replicate draws
    each block of the opportunity log once.
    """
    if n_gaps <= 0 or num <= 0:
        return ()
    seed = function_reseed("%s#%d" % (identifier, block_index), nop_seed)
    threshold = (num << 32) // den
    return tuple(nop_gaps(seed, n_gaps, threshold))


def bucket_gaps(gaps, sizes):
    """Number of gaps landing in each span of the given instruction sizes.

    Gap g (after instruction g, 1-based) lands in the first span whose
    running total is >= g, i.e. the span holding instruction g.  A span of
    size 0 shares its running total with the span before it, so it takes
    no gap.  Gaps past the last span are dropped.
    """
    counts = [0] * len(sizes)
    bounds = list(accumulate(sizes))
    n = len(bounds)
    for g in gaps:
        j = bisect_left(bounds, g)
        if j < n:
            counts[j] += 1
    return counts


def _grow_spans(spans, gaps):
    """Insert one instruction after each gap index; NOPs inherit the
    preceding instruction's source line."""
    counts = bucket_gaps(gaps, [s.instrs for s in spans])
    return tuple(LineSpan(s.line, s.filenum, s.instrs + k)
                 for s, k in zip(spans, counts))


def _nop_pass(model, nop_seed, num, den):
    """(model with NOPs inserted, decision-log nops): one gap_decisions
    call per code block."""
    if num < 0 or den <= 0 or num > den:
        raise ModelError("NOP probability %d/%d outside [0, 1]" % (num, den))
    functions = []
    nops = []
    for f in model.functions:
        blocks = []
        for b in f.blocks:
            if b.kind == "code":
                gaps = gap_decisions(f.identifier, b.index, b.instr_count - 1,
                                     nop_seed, num, den)
                if gaps:
                    nops.append((f.identifier, b.index, gaps))
                    b = replace(b, spans=_grow_spans(b.spans, gaps))
            blocks.append(b)
        functions.append(replace(f, blocks=tuple(blocks)))
    return replace(model, functions=tuple(functions)), tuple(nops)


def insert_nops(model, nop_seed, num, den):
    """Apply NOP insertion to every code block; data blocks untouched."""
    return _nop_pass(model, nop_seed, num, den)[0]


def shuffle_permutation(n, shuffle_seed):
    """Fisher-Yates over 0..n-1 with a PRNG seeded directly."""
    order = list(range(n))
    rng = Prng(shuffle_seed)
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def shuffle_order(log, shuffle_seed):
    """Diversified function order for an opportunity log."""
    if not log.functions:
        raise ModelError("empty opportunity log")
    return shuffle_permutation(len(log.functions), shuffle_seed)


def inject_desync(model, seeds, num, den, targets=None):
    """Append one phantom instruction to a random block of a fraction of
    functions, emulating CFG/size perturbations the replicator cannot
    see.  `targets` forces specific identifiers (tests)."""
    dseed = mix64(seeds.pad_seed ^ mix64(seeds.nop_seed ^ mix64(seeds.shuffle_seed)))
    threshold = (num << 32) // den if den else 0
    functions = []
    hits = []
    for f in model.functions:
        v = function_reseed(f.identifier + "#desync", dseed)
        fire = (f.identifier in targets) if targets is not None \
            else (v & 0xFFFFFFFF) < threshold
        if not fire:
            functions.append(f)
            continue
        code = [b.index for b in f.blocks if b.kind == "code"]
        bi = code[Prng(v).next() % len(code)]
        blocks = list(f.blocks)
        b = blocks[bi]
        last = b.spans[-1]
        spans = b.spans[:-1] + (LineSpan(last.line, last.filenum, last.instrs + 1),)
        blocks[bi] = replace(b, spans=spans)
        functions.append(replace(f, blocks=tuple(blocks)))
        hits.append((f.identifier, bi))
    return replace(model, functions=tuple(functions)), tuple(hits)


def _apply_padding(model, pad_for):
    functions = tuple(replace(f, frame=replace(f.frame, padding=pad_for(f)))
                      for f in model.functions)
    return replace(model, functions=functions)


def log_from_layout(result, module_name):
    """Post-layout block structure, one entry per function in image order."""
    functions = []
    for fl in result.image:
        blocks = []
        for r in fl.regions:
            if r.kind == "code":
                blocks.append(LogBlock("code", r.block_index, r.n_instrs,
                                       r.model_instrs, r.epilogue))
            elif r.kind == "data":
                blocks.append(LogBlock("data", r.block_index, r.size))
            else:
                blocks.append(LogBlock("pool", -1, r.size))
        functions.append(LogFunction(fl.identifier, fl.alignment,
                                     fl.local_size, fl.saved_count,
                                     fl.has_fp, tuple(blocks)))
    return OpportunityLog(module_name, tuple(functions))


def build_default(model, options=BuildOptions()):
    """Default (undiversified) build: image, symbol file, opportunity log."""
    pad = DEFAULT_PAD if options.default_padding else 0
    padded = _apply_padding(model, lambda f: pad)
    result = layout(padded, list(range(len(model.functions))), options)
    return result, log_from_layout(result, model.module_name)


def build_diversified(model, seeds, options=BuildOptions()):
    """Diversified build: padding, then NOPs, then shuffling.

    The decision log's nops come from the same pass that inserts them,
    so every code block's gaps are drawn exactly once.
    """
    if options.pad_scheme:
        padded = _apply_padding(
            model, lambda f: pad_amount(f.identifier, seeds.pad_seed, False))
    else:
        padded = _apply_padding(
            model, lambda f: DEFAULT_PAD if options.default_padding else 0)
    desyncs = ()
    if options.desync_num:
        padded, desyncs = inject_desync(padded, seeds,
                                        options.desync_num, options.desync_den)
    noppy, nops = _nop_pass(padded, seeds.nop_seed,
                            options.nop_num, options.nop_den)
    if options.shuffle_scheme:
        order = shuffle_permutation(len(model.functions), seeds.shuffle_seed)
    else:
        order = list(range(len(model.functions)))
    result = layout(noppy, order, options)
    structure = log_from_layout(result, model.module_name)
    dec = DecisionLog(
        module_name=model.module_name, functions=structure.functions,
        paddings=tuple((f.identifier, f.frame.padding) for f in padded.functions),
        nops=nops, order=tuple(order), desyncs=desyncs)
    return result, dec


# ---------------------------------------------------------------------------
# Log text formats (documented in docs/formats.md)


def _emit_log_functions(out, functions):
    for fn in functions:
        out.append("FUNCTION align=%d local=%d saved=%d fp=%d id=%s"
                   % (fn.alignment, fn.local_size, fn.saved_count,
                      int(fn.has_fp), fn.identifier))
        for b in fn.blocks:
            if b.kind == "code":
                out.append("BLOCK code %d n=%d model=%d%s"
                           % (b.index, b.size, b.model_instrs,
                              " epilogue" if b.epilogue else ""))
            elif b.kind == "data":
                out.append("BLOCK data %d bytes=%d" % (b.index, b.size))
            else:
                out.append("POOL bytes=%d" % b.size)


def _parse_log_functions(lines):
    functions = []
    cur = None
    blocks = None

    def close():
        nonlocal cur
        if cur is not None:
            functions.append(LogFunction(cur["id"], cur["align"], cur["local"],
                                         cur["saved"], cur["fp"], tuple(blocks)))
            cur = None

    for ln in lines:
        toks = ln.split()
        kw = toks[0]
        if kw == "FUNCTION":
            close()
            kv = dict(t.split("=", 1) for t in toks[1:5])
            cur = {"align": int(kv["align"]), "local": int(kv["local"]),
                   "saved": int(kv["saved"]), "fp": bool(int(kv["fp"])),
                   "id": ln.split("id=", 1)[1]}
            blocks = []
        elif kw == "BLOCK":
            if toks[1] == "code":
                kv = dict(t.split("=", 1) for t in toks[3:5])
                blocks.append(LogBlock("code", int(toks[2]), int(kv["n"]),
                                       int(kv["model"]), ln.endswith(" epilogue")))
            else:
                blocks.append(LogBlock("data", int(toks[2]),
                                       int(toks[3].split("=", 1)[1])))
        elif kw == "POOL":
            blocks.append(LogBlock("pool", -1, int(toks[1].split("=", 1)[1])))
        else:
            raise ModelError("unknown log record %r" % kw)
    close()
    return functions


def emit_opportunity_log(log):
    out = ["OPPLOG v1 %s" % log.module_name]
    _emit_log_functions(out, log.functions)
    return "\n".join(out) + "\n"


def parse_opportunity_log(text):
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("OPPLOG v1 "):
        raise ModelError("missing OPPLOG v1 header")
    module_name = lines[0].split(" ", 2)[2]
    return OpportunityLog(module_name, tuple(_parse_log_functions(lines[1:])))


def emit_decision_log(dec):
    out = ["DECLOG v1 %s" % dec.module_name]
    out.append("ORDER %s" % ",".join(str(i) for i in dec.order))
    for ident, pad in dec.paddings:
        out.append("PAD %d %s" % (pad, ident))
    for ident, bi, gaps in dec.nops:
        out.append("NOPS %d %s %s" % (bi, ",".join(str(g) for g in gaps), ident))
    for ident, bi in dec.desyncs:
        out.append("DESYNC %d %s" % (bi, ident))
    _emit_log_functions(out, dec.functions)
    return "\n".join(out) + "\n"


def parse_decision_log(text):
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("DECLOG v1 "):
        raise ModelError("missing DECLOG v1 header")
    module_name = lines[0].split(" ", 2)[2]
    order = ()
    paddings = []
    nops = []
    desyncs = []
    body = []
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] == "ORDER":
            order = tuple(int(t) for t in toks[1].split(","))
        elif toks[0] == "PAD":
            paddings.append((ln.split(" ", 2)[2], int(toks[1])))
        elif toks[0] == "NOPS":
            gaps = tuple(int(g) for g in toks[2].split(","))
            nops.append((ln.split(" ", 3)[3], int(toks[1]), gaps))
        elif toks[0] == "DESYNC":
            desyncs.append((ln.split(" ", 2)[2], int(toks[1])))
        else:
            body.append(ln)
    functions = tuple(_parse_log_functions(body))
    return DecisionLog(module_name, functions, tuple(paddings), tuple(nops),
                       tuple(order), tuple(desyncs))
