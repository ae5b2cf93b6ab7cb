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

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, compress, pairwise
from types import SimpleNamespace

from divsym._speed import FNV_PRIME, MASK64, fnv1a64, mix64, nop_gaps
from divsym.errors import ModelError
from divsym.prng import Prng, function_reseed
from divsym.progmodel import BuildOptions, layout
from divsym.records import fields, read_records

# re-exported: the PRNG and reseeding live in divsym.prng
__all__ = [
    "SeedTuple", "Prng", "function_reseed", "pad_amount", "gap_decisions",
    "clear_gap_memo", "shuffle_permutation", "desync_blocks",
    "build_default", "build_diversified", "OpportunityLog", "LogFunction",
    "LogBlock", "DecisionLog", "log_from_layout", "emit_opportunity_log",
    "parse_opportunity_log", "emit_decision_log", "span_counts",
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
    paddings: tuple           # ((identifier, bytes), ...)
    nops: tuple               # ((identifier, block_index, (gap, ...)), ...)
    order: tuple
    desyncs: tuple            # ((identifier, block_index), ...)


def pad_amount(identifier, pad_seed, default_mode):
    """Stack padding for one function: 8 in default mode, else 8..256.

    Stateless: depends only on the identifier and the scheme seed, never
    on compilation order.
    """
    if default_mode:
        return DEFAULT_PAD
    return 8 * (1 + function_reseed(identifier, pad_seed) % PAD_CHOICES)


# The draws of one (nop_seed, num, den): (that triple, {(identifier,
# block_index, n_gaps): mask}).  A call with another triple replaces the
# whole slot in one assignment, so threads under the GIL never see a
# dict tagged with the wrong triple.
_drawn = (None, {})

# Identifiers whose '<identifier>#' hash is cached: four times the
# functions of the largest generated program, about 240 KB besides the
# identifiers themselves.
BLOCK_HASH_CACHE = 2048


@lru_cache(maxsize=BLOCK_HASH_CACHE)
def _block_hash_prefix(identifier):
    """FNV-1a-64 of '<identifier>#', the part of a block's reseed hash
    that every block of the function shares."""
    return fnv1a64(("%s#" % identifier).encode("utf-8"))


def _block_seed(identifier, block_index, nop_seed):
    """function_reseed('<identifier>#<block_index>', nop_seed), hashing
    the identifier once and continuing FNV-1a over the index digits."""
    h = _block_hash_prefix(identifier)
    for b in b"%d" % block_index:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return mix64(h ^ (nop_seed & MASK64))


def gap_decisions(identifier, block_index, n_gaps, nop_seed, num, den):
    """The NOP mask of one code block: n_gaps bytes, byte g-1 is 1
    exactly when gap g (after instruction g) receives a NOP.

    Reseeds per block from identifier '#' block_index, one draw per gap;
    a gap fires when the draw's low 32 bits are below num/den of 2^32.
    The same routine runs on the build system and in the replicator, and
    the result is a pure function of the arguments, so it is memoised for
    the last (nop_seed, num, den): a build followed by a replicate with
    the same seeds draws each code block once.  A block whose gap count
    differs between the two (a desynced block) draws again.
    """
    global _drawn
    if n_gaps <= 0:
        return b""
    if num <= 0:
        return bytes(n_gaps)
    tag = (nop_seed, num, den)
    drawn_tag, drawn = _drawn
    if drawn_tag != tag:
        drawn = {}
        _drawn = (tag, drawn)
    key = (identifier, block_index, n_gaps)
    mask = drawn.get(key)
    if mask is None:
        seed = _block_seed(identifier, block_index, nop_seed)
        mask = drawn[key] = nop_gaps(seed, n_gaps, (num << 32) // den)
    return mask


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
    bounds = (0, *accumulate(sizes))
    return tuple(mask.count(1, lo, hi) for lo, hi in pairwise(bounds))


def _nop_pass(model, nop_seed, num, den, desyncs=()):
    """(NOP counts, decision-log nops): one gap_decisions call per code
    block.  The counts hold, per function and per block, the span_counts
    of a code block, or () for a data block.

    A block in `desyncs` (desync_blocks) is drawn one instruction
    longer, and its phantom instruction is one more count on its last
    span.
    """
    if num < 0 or den <= 0 or num > den:
        raise ModelError("NOP probability %d/%d outside [0, 1]" % (num, den))
    hit = set(desyncs)
    counts = []
    nops = []
    for f in model.functions:
        ident = f.identifier
        blocks = []
        for b in f.blocks:
            if b.kind != "code":
                blocks.append(())
                continue
            sizes = [s.instrs for s in b.spans]
            phantom = (ident, b.index) in hit
            sizes[-1] += phantom
            mask = gap_decisions(ident, b.index, sum(sizes) - 1,
                                 nop_seed, num, den)
            grown = span_counts(mask, sizes)
            if any(grown):
                nops.append((ident, b.index,
                             tuple(compress(range(1, len(mask) + 1), mask))))
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


def desync_blocks(model, seeds, num, den, targets=None):
    """((identifier, block_index), ...): the code block of each of a
    num/den fraction of functions that gains one phantom instruction,
    emulating CFG/size perturbations the replicator cannot see.
    `targets` forces specific identifiers (tests)."""
    if num < 0 or den <= 0 or num > den:
        raise ModelError("desync probability %d/%d outside [0, 1]"
                         % (num, den))
    dseed = mix64(seeds.pad_seed ^ mix64(seeds.nop_seed ^ mix64(seeds.shuffle_seed)))
    threshold = (num << 32) // den
    hits = []
    for f in model.functions:
        v = function_reseed(f.identifier + "#desync", dseed)
        fire = (f.identifier in targets) if targets is not None \
            else (v & 0xFFFFFFFF) < threshold
        if fire:
            code = [b.index for b in f.blocks if b.kind == "code"]
            hits.append((f.identifier, code[Prng(v).next() % len(code)]))
    return tuple(hits)


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

    The NOPs, and each desynced block's phantom instruction, are
    per-span counts that the layout adds to the padded model's spans;
    the decision log's nops come from the same pass, so every code
    block's gaps are drawn exactly once.
    """
    if options.pad_scheme:
        padded = _apply_padding(
            model, lambda f: pad_amount(f.identifier, seeds.pad_seed, False))
    else:
        padded = _apply_padding(
            model, lambda f: DEFAULT_PAD if options.default_padding else 0)
    desyncs = desync_blocks(padded, seeds, options.desync_num,
                            options.desync_den)
    nop_counts, nops = _nop_pass(padded, seeds.nop_seed, options.nop_num,
                                 options.nop_den, desyncs)
    if options.shuffle_scheme:
        order = shuffle_permutation(len(model.functions), seeds.shuffle_seed)
    else:
        order = list(range(len(model.functions)))
    result = layout(padded, order, options, nop_counts)
    dec = DecisionLog(
        module_name=model.module_name,
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


def _log_function(st, toks, line):
    align, local, saved, fp, ident = fields(
        line, "align", "local", "saved", "fp", "id")
    st.functions.append((ident, int(align), int(local), int(saved),
                         bool(int(fp)), []))


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
    for ident, bi, gaps in dec.nops:
        out.append("NOPS %d %s %s" % (bi, ",".join(str(g) for g in gaps), ident))
    for ident, bi in dec.desyncs:
        out.append("DESYNC %d %s" % (bi, ident))
    _emit_log_functions(out, log_from_layout(result, dec.module_name).functions)
    return "\n".join(out) + "\n"
