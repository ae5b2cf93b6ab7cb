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

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from divsym._speed import FNV_PRIME, MASK64, fnv1a64, mix64, nop_masks
from divsym.errors import ModelError
from divsym.prng import Prng, function_reseed
from divsym.progmodel import ALIGNMENTS, SAVEABLE, BuildOptions, layout
from divsym.records import fields, read_records

# re-exported: the PRNG and reseeding live in divsym.prng
__all__ = [
    "SeedTuple", "Prng", "function_reseed", "function_padding",
    "function_order", "gap_decisions", "clear_gap_memo",
    "shuffle_permutation", "desync_blocks", "build_default",
    "build_diversified", "OpportunityLog", "LogFunction", "LogBlock",
    "DecisionLog", "log_from_layout", "emit_opportunity_log",
    "parse_opportunity_log", "emit_decision_log", "span_counts", "mask_gaps",
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
    """The diversified build's decisions.  `nops` holds the NOP mask of
    each code block with at least one NOP, as gap_decisions gives it:
    byte g-1 is 1 where gap g got a NOP (mask_gaps lists those g)."""
    module_name: str
    paddings: tuple           # ((identifier, bytes), ...)
    nops: tuple               # ((identifier, block_index, mask), ...)
    order: tuple
    desyncs: tuple            # ((identifier, block_index), ...)


def function_padding(identifier, seeds, options):
    """Stack padding for one function: the padding scheme's draw, 8..256
    from the identifier and the pad seed, when `seeds` is given and the
    scheme is on; else the default build's padding, DEFAULT_PAD or 0
    without default padding.  `seeds` None means the default build.
    Never depends on compilation order."""
    if seeds is not None and options.pad_scheme:
        if not identifier:
            raise ValueError("empty function identifier")
        return 8 * (1 + _reseed(identifier, b"", seeds.pad_seed)
                    % PAD_CHOICES)
    return DEFAULT_PAD if options.default_padding else 0


# The draws of one (nop_seed, num, den): (that triple, {(identifier,
# block_index, n_gaps): mask}).  A call with another triple replaces the
# whole slot in one assignment, so threads under the GIL never see a
# dict tagged with the wrong triple.
_drawn = (None, {})

# Identifiers whose hash is cached: four times the functions of the
# largest generated program, about 240 KB besides the identifiers
# themselves.
BLOCK_HASH_CACHE = 2048


@lru_cache(maxsize=BLOCK_HASH_CACHE)
def _identifier_hash(identifier):
    """FNV-1a-64 of the identifier, hashed once per function: the
    padding draw starts from it, and the reseed hashes of its blocks and
    of its desync draw continue it (_reseed)."""
    return fnv1a64(identifier.encode("utf-8"))


def _reseed(identifier, suffix, scheme_seed):
    """function_reseed(identifier + suffix, scheme_seed), continuing the
    cached identifier hash over the suffix bytes."""
    h = _identifier_hash(identifier)
    for b in suffix:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return mix64(h ^ (scheme_seed & MASK64))


def gap_decisions(keys, nop_seed, num, den):
    """The NOP masks of code blocks, one per key, in order.

    Each key is (identifier, block_index, n_gaps); its mask has n_gaps
    bytes, byte g-1 is 1 exactly when gap g (after instruction g)
    receives a NOP.  A block reseeds from identifier '#' block_index,
    one draw per gap; a gap fires when the draw's low 32 bits are below
    num/den of 2^32.  Raises ModelError unless 0 <= num/den <= 1.

    The build system and the replicator each call this once per pass,
    and a mask is a pure function of its key and (nop_seed, num, den),
    so masks are memoised for the last (nop_seed, num, den): a build
    followed by a replicate with the same seeds draws each code block
    once.  A block whose gap count differs between the two (a desynced
    block) draws again.  The misses of a call are drawn together
    (_speed.nop_masks).
    """
    global _drawn
    if num < 0 or den <= 0 or num > den:
        raise ModelError("NOP probability %d/%d outside [0, 1]" % (num, den))
    if num == 0:
        return [bytes(max(n, 0)) for _, _, n in keys]
    tag = (nop_seed, num, den)
    drawn_tag, drawn = _drawn
    if drawn_tag != tag:
        drawn = {}
        _drawn = (tag, drawn)
    masks = [drawn.get(key) for key in keys]
    if None in masks:
        missing = list(dict.fromkeys(key for key, mask in zip(keys, masks)
                                     if mask is None))
        drawn.update(zip(missing, nop_masks(
            [_reseed(ident, b"#%d" % bi, nop_seed)
             for ident, bi, _ in missing],
            [n for _, _, n in missing], (num << 32) // den)))
        masks = [drawn[key] for key in keys]
    return masks


def clear_gap_memo():
    """Empty the gap_decisions memo, so the next draws are cold (as on a
    crash server, which never ran the build)."""
    global _drawn
    _drawn = (None, {})


def span_counts(mask, sizes):
    """NOPs landing in each span of the given instruction sizes.

    Gap g (after instruction g, 1-based) lands in the span holding
    instruction g: a span holding instructions lo+1..hi takes
    mask.count(1, lo, hi).  A span of size 0 takes no gap, and gaps
    past the last span are dropped.
    """
    counts = []
    lo = 0
    for size in sizes:
        hi = lo + size
        counts.append(mask.count(1, lo, hi))
        lo = hi
    return tuple(counts)


def mask_gaps(mask):
    """The gaps a NOP mask fires, 1-based, in order."""
    return tuple(g for g, fired in enumerate(mask, 1) if fired)


def _nop_pass(model, nop_seed, num, den, desyncs=()):
    """(NOP counts, decision-log nops) from one gap_decisions call for
    the whole program.  The counts hold, per function and per block,
    the span_counts of a code block, or () for a data block.

    A block in `desyncs` (desync_blocks) is drawn one instruction
    longer, and its phantom instruction is one more count on its last
    span.
    """
    hit = set(desyncs)
    keys = [(f.identifier, b.index, b.instr_count - 1
             + ((f.identifier, b.index) in hit))
            for f in model.functions for b in f.blocks if b.kind == "code"]
    masks = iter(gap_decisions(keys, nop_seed, num, den))
    counts = []
    nops = []
    for f in model.functions:
        ident = f.identifier
        blocks = []
        for b in f.blocks:
            if b.kind != "code":
                blocks.append(())
                continue
            mask = next(masks)
            sizes = [s.instrs for s in b.spans]
            phantom = (ident, b.index) in hit
            sizes[-1] += phantom
            grown = span_counts(mask, sizes)
            if 1 in mask:
                nops.append((ident, b.index, mask))
            if phantom:
                grown = (*grown[:-1], grown[-1] + 1)
            blocks.append(grown)
        counts.append(tuple(blocks))
    return tuple(counts), tuple(nops)


def shuffle_permutation(n, shuffle_seed):
    """Fisher-Yates over 0..n-1 with a PRNG seeded directly."""
    order = list(range(n))
    rng = Prng(shuffle_seed)
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def function_order(n, seeds, options):
    """The link order of n functions: the shuffle scheme's permutation
    when it is on, else 0..n-1."""
    if options.shuffle_scheme:
        return shuffle_permutation(n, seeds.shuffle_seed)
    return list(range(n))


def desync_blocks(model, seeds, num, den):
    """((identifier, block_index), ...): the code block of each of a
    num/den fraction of functions that gains one phantom instruction,
    emulating CFG/size perturbations the replicator cannot see.  Empty
    when num is 0; raises ModelError unless 0 <= num/den <= 1."""
    if num < 0 or den <= 0 or num > den:
        raise ModelError("desync probability %d/%d outside [0, 1]"
                         % (num, den))
    if num == 0:
        return ()
    dseed = mix64(seeds.pad_seed ^ mix64(seeds.nop_seed ^ mix64(seeds.shuffle_seed)))
    threshold = (num << 32) // den
    hits = []
    for f in model.functions:
        v = _reseed(f.identifier, b"#desync", dseed)
        if (v & 0xFFFFFFFF) < threshold:
            code = [b.index for b in f.blocks if b.kind == "code"]
            hits.append((f.identifier, code[Prng(v).next() % len(code)]))
    return tuple(hits)


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
    """Default (undiversified) build: image, symbol file, opportunity
    log, laid out in model order with function_padding(seeds None)."""
    paddings = tuple(function_padding(f.identifier, None, options)
                     for f in model.functions)
    result = layout(model, list(range(len(model.functions))), options,
                    paddings)
    return result, log_from_layout(result, model.module_name)


def build_diversified(model, seeds, options=BuildOptions()):
    """Diversified build: padding, then NOPs, then shuffling.

    The paddings, and the NOPs and each desynced block's phantom
    instruction as per-span counts, go to the layout beside the model,
    which it lays out without copying; the decision log's nops come from
    the same pass, so every code block's gaps are drawn exactly once.
    """
    paddings = tuple(function_padding(f.identifier, seeds, options)
                     for f in model.functions)
    desyncs = desync_blocks(model, seeds, options.desync_num,
                            options.desync_den)
    nop_counts, nops = _nop_pass(model, seeds.nop_seed, options.nop_num,
                                 options.nop_den, desyncs)
    order = function_order(len(model.functions), seeds, options)
    result = layout(model, order, options, paddings, nop_counts)
    dec = DecisionLog(
        module_name=model.module_name,
        paddings=tuple((f.identifier, pad)
                       for f, pad in zip(model.functions, paddings)),
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


def _log_function(st, toks, line):
    *nums, ident = fields(line, "align", "local", "saved", "fp", "id")
    align, local, saved, fp = map(int, nums)
    # the ranges validate_model holds a model's functions to
    if align not in ALIGNMENTS or local < 0 or local % 4 \
            or not 0 <= saved <= len(SAVEABLE):
        raise ValueError("function needs align in %s, local a multiple of 4"
                         " >= 0 and saved in 0..%d" % (ALIGNMENTS,
                                                       len(SAVEABLE)))
    if fp not in (0, 1) or fp and saved < 2:
        raise ValueError("fp must be 0, or 1 with r11 and lr saved")
    st.functions.append((ident, align, local, saved, bool(fp), []))


def _log_block(st, toks, line):
    if toks[1] == "code":
        n, model = (int(v) for v in
                    fields(line.removesuffix(" epilogue"), "n", "model"))
        if n < 1 or model < 0:
            raise ValueError("code block needs n >= 1 and model >= 0")
        b = LogBlock("code", int(toks[2]), n, model,
                     line.endswith(" epilogue"))
    else:
        b = LogBlock("data", int(toks[2]), int(fields(line, "bytes")[0]))
    st.functions[-1][-1].append(b)


# Each function under construction is a tuple of LogFunction fields
# with a block list last.
_LOG_RECORDS = {
    "FUNCTION": _log_function,
    "BLOCK": _log_block,
    "POOL": lambda st, toks, line: st.functions[-1][-1].append(
        LogBlock("pool", -1, int(fields(line, "bytes")[0]))),
}


def _log_functions(st):
    return tuple(LogFunction(*f[:-1], tuple(f[-1])) for f in st.functions)


def emit_opportunity_log(log):
    out = ["OPPLOG v1 %s" % log.module_name]
    _emit_log_functions(out, log.functions)
    return "\n".join(out) + "\n"


def parse_opportunity_log(text):
    st = SimpleNamespace(functions=[])
    module_name = read_records(text, "OPPLOG v1", _LOG_RECORDS, st, ModelError)
    return OpportunityLog(module_name, _log_functions(st))


def emit_decision_log(result, dec):
    """The build's decisions, then its placed structure (the layout's
    FUNCTION/BLOCK/POOL records).  Written for the record only: no
    pipeline path reads it back."""
    out = ["DECLOG v1 %s" % dec.module_name]
    out.append("ORDER %s" % ",".join(str(i) for i in dec.order))
    for ident, pad in dec.paddings:
        out.append("PAD %d %s" % (pad, ident))
    for ident, bi, mask in dec.nops:
        out.append("NOPS %d %s %s"
                   % (bi, ",".join(map(str, mask_gaps(mask))), ident))
    for ident, bi in dec.desyncs:
        out.append("DESYNC %d %s" % (bi, ident))
    _emit_log_functions(out, log_from_layout(result, dec.module_name).functions)
    return "\n".join(out) + "\n"
